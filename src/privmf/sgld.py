"""Matrix-factorization core: predictions, Langevin-noise gradient steps,
and the centralized trainer used as the reference for the distributed path.

All steps are additive deltas: ``delta = eta_t * (e * other - lambda * self)``
plus N(0, eta_t I) noise when enabled, applied as ``x <- x + delta``. With
noise off this strictly descends the squared-error objective
``0.5 * e^2 + 0.5 * x' diag(lambda) x``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import TAG_CENTRAL_TRAIN, TAG_MODEL_INIT, TAG_REGULARIZERS, derive_rng


@dataclass(frozen=True, eq=False)
class Hyperparams:
    """Shared model hyperparameters.

    ``lambda_u`` / ``lambda_v`` are the diagonals of the per-coordinate
    regularization matrices (length ``k``, strictly positive). The learning
    rate decays as ``eta0 / t**gamma``.
    """

    k: int
    eta0: float
    gamma: float
    lambda_u: np.ndarray
    lambda_v: np.ndarray
    seed: int
    noise_enabled: bool = True
    # initial predictions concentrate near this score instead of 0, so
    # uncentered ratings do not spend most of a run learning their mean
    init_prediction: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "lambda_u", np.asarray(self.lambda_u, dtype=np.float64))
        object.__setattr__(self, "lambda_v", np.asarray(self.lambda_v, dtype=np.float64))
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.eta0 <= 0:
            raise ValueError(f"eta0 must be positive, got {self.eta0}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name, lam in (("lambda_u", self.lambda_u), ("lambda_v", self.lambda_v)):
            if lam.shape != (self.k,):
                raise ValueError(f"{name} must have shape ({self.k},), got {lam.shape}")
            if not np.all(lam > 0):
                raise ValueError(f"{name} entries must be positive")

    @classmethod
    def with_gamma_priors(
        cls,
        k: int,
        eta0: float,
        gamma: float,
        seed: int,
        noise_enabled: bool = True,
        init_prediction: float = 0.0,
    ) -> "Hyperparams":
        """Draw the regularizer diagonals once from Gamma(shape 1, rate 100), i.e. scale 0.01."""
        rng = derive_rng(seed, TAG_REGULARIZERS)
        lambda_u = rng.gamma(1.0, 0.01, size=k)
        lambda_v = rng.gamma(1.0, 0.01, size=k)
        return cls(k, eta0, gamma, lambda_u, lambda_v, seed, noise_enabled, init_prediction)


@dataclass
class FactorModel:
    """User factor matrix (n_users x k) and item factor matrix (n_items x k)."""

    u: np.ndarray
    v: np.ndarray

    @property
    def k(self) -> int:
        return self.u.shape[1]


def init_model(n_users: int, n_items: int, hp: Hyperparams) -> FactorModel:
    """Initialize factors with i.i.d. normal entries (std 0.1/sqrt(k)).

    With ``init_prediction = P > 0`` every entry is centered at sqrt(P/k),
    so initial dot products concentrate near P; the default keeps them
    near 0.
    """
    rng = derive_rng(hp.seed, TAG_MODEL_INIT)
    loc = np.sqrt(hp.init_prediction / hp.k) if hp.init_prediction > 0 else 0.0
    scale = 0.1 / np.sqrt(hp.k)
    u = rng.normal(loc, scale, size=(n_users, hp.k))
    v = rng.normal(loc, scale, size=(n_items, hp.k))
    return FactorModel(u, v)


def learning_rate(t: int, hp: Hyperparams) -> float:
    """Decayed step size eta0 / t**gamma for round t >= 1."""
    if t < 1:
        raise ValueError(f"iteration must be >= 1, got {t}")
    return hp.eta0 / float(t) ** hp.gamma


def predict(u: np.ndarray, v: np.ndarray) -> float:
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(np.dot(u, v))


def rating_error(r: float, u: np.ndarray, v: np.ndarray) -> float:
    return r - predict(u, v)


def prediction_errors(
    u: np.ndarray, v_matrix: np.ndarray, items: np.ndarray, ratings: np.ndarray
) -> np.ndarray:
    """Per-item prediction errors r - u.v for one user's rated items.

    Shared by the centralized trainer and the protocol clients so both
    paths produce bitwise-identical error sequences. ``np.vecdot`` takes
    one BLAS dot per row, so each error rounds as ``r - np.dot(u, v)``; a
    matvec would not.
    """
    return ratings - np.vecdot(v_matrix[items], u)


def _step(x, e, other, lam, eta_t, hp, rng) -> np.ndarray:
    delta = eta_t * (np.asarray(e)[..., None] * other - lam * x)
    if hp.noise_enabled:
        # one (n, k) draw consumes the stream exactly as n draws of k
        delta += np.sqrt(eta_t) * rng.standard_normal(delta.shape)
    return delta


def user_step(
    u: np.ndarray,
    e: float | np.ndarray,
    v: np.ndarray,
    eta_t: float,
    hp: Hyperparams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Additive delta for a user factor from one rated item; with a vector
    of n errors and an (n, k) block of item rows, the (n, k) block of
    deltas, one per rated item."""
    return _step(u, e, v, hp.lambda_u, eta_t, hp, rng)


def item_step(
    v: np.ndarray,
    e: float | np.ndarray,
    u: np.ndarray,
    eta_t: float,
    hp: Hyperparams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Additive delta for an item factor from one (real or fake) error; with
    an (n, k) block of item rows and n errors, the (n, k) block of deltas."""
    return _step(v, e, u, hp.lambda_v, eta_t, hp, rng)


def reduce_item_deltas(blocks, n_items: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Order-independent reduction of a round's ``(item_ids, deltas)`` blocks.

    Returns per-item delta sums ``(n_items, k)`` and row counts ``(n_items,)``.
    Rows are summed in a canonical order (item id, then delta bytes), so any
    permutation of the same multiset of rows, across or within blocks,
    reduces to bitwise-identical sums.
    """
    n = sum(len(ids) for ids, _ in blocks)
    # one row per delta: big-endian item id, then the delta's bytes, so a
    # bytewise sort of the rows is the canonical order
    rows = np.empty((n, 8 + 8 * k), dtype=np.uint8)
    at = 0
    for ids, deltas in blocks:
        m = len(ids)
        rows[at : at + m, :8] = np.asarray(ids, dtype=">i8").reshape(m, 1).view(np.uint8)
        rows[at : at + m, 8:] = np.ascontiguousarray(deltas, dtype=np.float64).view(np.uint8)
        at += m
    # rows with equal keys are identical, so any sort kind gives the same order
    rows.view(np.dtype((np.void, rows.shape[1]))).sort(axis=0)
    items = rows[:, :8].view(">i8")[:, 0].astype(np.int64)
    sums = np.zeros((n_items, k), dtype=np.float64)
    np.add.at(sums, items, rows[:, 8:].view(np.float64))
    return sums, np.bincount(items, minlength=n_items)


def centralized_train(train, hp: Hyperparams, n_rounds: int) -> FactorModel:
    """Train with all data in one place, mirroring the round semantics of
    the distributed protocol: user deltas are averaged per user and applied
    once per round; item deltas are averaged by the global delta count and
    applied once per round. With privacy disabled the distributed run
    reproduces this function's output exactly.
    """
    if n_rounds < 1:
        raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
    model = init_model(train.n_users, train.n_items, hp)
    rng = derive_rng(hp.seed, TAG_CENTRAL_TRAIN)
    user_data = [(i, *train.user_items(i)) for i in train.active_users()]

    for t in range(1, n_rounds + 1):
        eta = learning_rate(t, hp)
        blocks = []
        for i, items, ratings in user_data:
            h = len(items)
            u = model.u[i]
            v_rows = model.v[items]
            errs = prediction_errors(u, model.v, items, ratings)
            du = user_step(u, errs, v_rows, eta, hp, rng).sum(axis=0)
            blocks.append((items, item_step(v_rows, errs, u, eta, hp, rng)))
            # user factors move only after this round's item deltas are computed
            model.u[i] = u + du / h
        sums, counts = reduce_item_deltas(blocks, train.n_items, hp.k)
        total = int(counts.sum())
        if total:
            model.v += sums / total
    return model
