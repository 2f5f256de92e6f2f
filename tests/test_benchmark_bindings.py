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
import pytest

from oracles import build_dataset
from privmf import fakegrad, protocol, randresp
from privmf.data import synthetic_dataset
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


def test_every_untraced_read_resolves(monkeypatch):
    # the attributes the benchmark reads outside layer_targets: the data
    # set's rows and index, the correctness gate's budget recompute and
    # coverage, and the fields of a session's result
    ds = synthetic_dataset(6, 9, seed=4, mean_ratings_per_user=3)
    assert all(isinstance(row.rating, float) for row in ds.triples)
    per_user = ds.per_user
    assert sum(1 for pairs in per_user.values() if pairs) == len(ds.active_users())
    assert sorted(j for pairs in per_user.values() for j, _ in pairs) == sorted(ds.items.tolist())
    assert 0.0 < fakegrad.coverage(1.0, 0.2, 0.5) < 1.0

    hp = Hyperparams.with_gamma_priors(2, 0.1, 0.6, seed=3)
    budget = PrivacyBudget(eps_i=2.0)
    states = []
    client_init = protocol.client_init

    def capturing(*args, **kwargs):
        states.append(client_init(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(protocol, "client_init", capturing)
    result = protocol.run_training(ds, hp, 2, budget=budget, evaluator=lambda model: 0.5)
    assert len(states) == len(ds.active_users())
    for state in states:
        rr = state.rr
        assert randresp.epsilon_i_of(rr.p_star, rr.q_star, rr.h) == pytest.approx(budget.eps_i)
        assert randresp.epsilon_p_of(rr.f, rr.h) == pytest.approx(budget.resolved_eps_p())
    assert len(result.curve) == 2
    assert all(isinstance(r.messages, int) and r.messages > 0 for r in result.curve)
    assert all(r.seconds > 0.0 for r in result.curve)
    assert result.final_metric() == 0.5
    assert result.model.u.shape == (ds.n_users, hp.k) and result.model.v.shape == (ds.n_items, hp.k)


def test_captured_client_inits_are_the_population_the_run_uses(monkeypatch):
    # the correctness gate reads each captured state's rr: it must be what
    # the run's rounds draw with, row for row of the run's Population
    base = synthetic_dataset(12, 20, seed=4, mean_ratings_per_user=5)
    ds = build_dataset(base.triples, base.n_users + 2, base.n_items)  # two users without ratings
    hp = Hyperparams.with_gamma_priors(2, 0.1, 0.6, seed=3)
    states, pops = [], []
    client_init, assemble = protocol.client_init, protocol.assemble_model

    def capturing(*args, **kwargs):
        states.append(client_init(*args, **kwargs))
        return states[-1]

    def recording(u0, pop, v):
        pops.append(pop)
        return assemble(u0, pop, v)

    monkeypatch.setattr(protocol, "client_init", capturing)
    monkeypatch.setattr(protocol, "assemble_model", recording)
    protocol.run_training(ds, hp, 2, budget=PrivacyBudget(eps_i=2.0), evaluator=lambda model: 0.0)
    pop = pops[0]
    assert all(p is pop for p in pops)
    assert [s.client_id for s in states] == pop.ids.tolist() == ds.active_users()
    for i, state in enumerate(states):
        rr = state.rr
        assert (rr.p, rr.q, rr.p_star, rr.q_star, rr.one_minus_q_star) == (
            pop.p[i], pop.q[i], pop.p_star[i], pop.q_star[i], pop.one_minus_q_star[i]
        )
        assert rr.h == pop.h[i]
        assert np.array_equal(state.bits_prime == 1, pop.bits_prime[i])
