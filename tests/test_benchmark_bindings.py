"""The benchmark binds package functions by module and attribute name
(``perfbench/run.py``'s ``layer_targets``); a rename must fail here, in the
test suite, and not only in a traced benchmark run."""

import importlib.util
import inspect
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from privmf import protocol
from privmf.data import build_dataset, synthetic_dataset
from privmf.randresp import PrivacyBudget
from privmf.sgld import Hyperparams

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def load_bench_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    with mock.patch.dict(os.environ):  # the runner pins BLAS threads on import
        spec.loader.exec_module(module)
    return module


def test_every_layer_target_resolves():
    targets = load_bench_runner().layer_targets({})
    assert targets
    for module, attr, name, _, generator in targets:
        fn = getattr(module, attr, None)
        assert callable(fn), f"{name}: {module.__name__}.{attr} is gone"
        assert inspect.isgeneratorfunction(fn) == generator, f"{name}: generator kind changed"


def test_run_training_calls_client_init_through_the_module_once_per_active_client(monkeypatch):
    # the benchmark's correctness gate wraps protocol.client_init and checks
    # each captured state's budget; it fails a run that captures no inits
    base = synthetic_dataset(6, 9, seed=4, mean_ratings_per_user=3)
    ds = build_dataset(base.triples, base.n_users + 2, base.n_items)  # two users without ratings
    hp = Hyperparams.with_gamma_priors(2, 0.1, 0.6, seed=3)
    budget = PrivacyBudget(eps_i=2.0)
    expected = protocol.run_training(ds, hp, 2, budget=budget)
    calls = []
    client_init = protocol.client_init

    def counting(*args, **kwargs):
        state = client_init(*args, **kwargs)
        calls.append((args[0], state))
        return state

    monkeypatch.setattr(protocol, "client_init", counting)
    result = protocol.run_training(ds, hp, 2, budget=budget)
    assert [i for i, _ in calls] == ds.active_users() == list(range(base.n_users))
    assert all(state.rr.h == len(ds.user_items(i)[0]) for i, state in calls)
    assert np.array_equal(result.model.u, expected.model.u)
    assert np.array_equal(result.model.v, expected.model.v)
