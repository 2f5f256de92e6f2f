"""Privacy-preserving distributed collaborative filtering.

Clients keep ratings and user factors local; a server holds only item
factors and receives randomized gradient messages. A two-stage randomized
response hides which items a user rated, with per-round
differential-privacy budgets calibrated in closed form. Fake errors for
unrated items are drawn from N(mu, sigma) truncated to (-alpha, alpha):
``eps_g`` bounds their density over that model, inside the window. Real
errors are not truncated.
"""

from .bpr import bpr_step
from .codec import (
    CodecError,
    FinishMessage,
    GradientMessage,
    Handshake,
    RoundUpdates,
    decode_updates,
    encode_message,
    encode_updates,
    iter_messages,
)
from .data import (
    DataError,
    RatingDataset,
    RatingTriple,
    SplitSpec,
    parse_ratings,
    split,
    subsample,
    synthetic_dataset,
)
from .experiment import ExperimentConfig, load_config, run_experiments
from .fakegrad import (
    AlphaBound,
    DegenerateBoundError,
    ErrorStats,
    coverage,
    epsilon_g_of,
    error_stats,
    sample_fake_error,
    sample_fake_errors,
    solve_alpha,
)
from .metrics import auc, isgld_perturb, rmse
from .protocol import (
    ClientState,
    ProtocolError,
    TrainingResult,
    client_init,
    run_training,
    server_round,
)
from .randresp import (
    CalibrationError,
    PrivacyBudget,
    RRParams,
    calibrate,
    classify_rated,
    epsilon_i_of,
    epsilon_p_of,
    expected_sends,
    irr,
    prr,
    solve_f,
)
from .sgld import (
    FactorModel,
    Hyperparams,
    centralized_train,
    init_model,
    item_step,
    learning_rate,
    user_step,
)

__version__ = "0.1.0"
