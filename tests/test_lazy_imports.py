"""On numpy 2.4 a few calls, among them ``np.unique`` without
``return_index``, import ``numpy.ma`` on first use: ~1 MB resident that the
benchmark's ``peak_rss_mb`` shows. Set-up and round code must not make such
a call, so a fresh interpreter that runs them must end without ``numpy.ma``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
from privmf import protocol
from privmf.data import SplitSpec, format_ratings, parse_ratings, split, synthetic_dataset
from privmf.metrics import auc, rmse
from privmf.randresp import PrivacyBudget
from privmf.sgld import Hyperparams

assert "numpy.ma" not in sys.modules, "imported before any call"
ds = parse_ratings(format_ratings(synthetic_dataset(20, 30, seed=1, mean_ratings_per_user=6)))
hp = Hyperparams.with_gamma_priors(3, 0.1, 0.6, seed=3)
budget = PrivacyBudget(eps_i=1.0, eps_g=1.0)
for task, mode, metric in (("numerical", "random-holdout", rmse), ("one-class", "leave-one-out", auc)):
    train, test = split(ds, SplitSpec(mode=mode, seed=2))
    for transport in ("memory", "bytes"):
        model = protocol.run_training(train, hp, 2, budget=budget, task=task, transport=transport).model
        metric(test, model) if metric is rmse else metric(test, train, model)
print("numpy.ma" in sys.modules)
"""


def test_set_up_rounds_and_metrics_leave_numpy_ma_unimported():
    bare = subprocess.run([sys.executable, "-c", "import sys, numpy; print('numpy.ma' in sys.modules)"],
                          capture_output=True, text=True, check=True)
    if bare.stdout.strip() != "False":
        pytest.skip("this numpy imports numpy.ma eagerly")
    run = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False", "numpy.ma was imported by set-up, round or metric code"


def test_package_root_loads_no_submodule():
    script = "import sys, privmf; print(privmf.__version__, sorted(m for m in sys.modules if m.startswith('privmf.')))"
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60, check=True)
    assert run.stdout.split(" ", 1) == ["0.1.0", "[]\n"]
