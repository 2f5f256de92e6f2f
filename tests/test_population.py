"""The population rounds against the per-client rounds they replaced.

``oracle_iteration`` below is the numerical client round as it ran one
client at a time, with its SGLD step and fake-error sampler inlined, and
``oracle_bpr_iteration`` the one-class client round, with its pair step and
``sigma_bar`` inlined; both draw their send sets with ``randresp.irr``, so
they share no arithmetic with the population kernels. Every update, user
factor and ledger counter of ``protocol.population_iteration`` and
``bpr.population_iteration`` must equal them bit for bit.
"""

import importlib.util
import math
import statistics
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import build_dataset, record, round_of, segments
from privmf import bpr, fakegrad, protocol, sgld
from privmf.data import RatingTriple, synthetic_dataset
from privmf.protocol import client_init, population_iteration
from privmf.randresp import PrivacyBudget, irr
from privmf.rng import TAG_CLIENT_ROUND, derive_rng
from privmf.sgld import Hyperparams, init_model, learning_rate, prediction_errors

_inv_cdf = statistics.NormalDist().inv_cdf
_OPEN_UNIT = (math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0))


def oracle_step(x, e, other, lam, eta_t, hp, rng):
    delta = eta_t * (np.asarray(e)[..., None] * other - lam * x)
    if hp.noise_enabled:
        delta += np.sqrt(eta_t) * rng.standard_normal(delta.shape)
    return delta


def oracle_cdf(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def oracle_sample(mu, sigma, alpha, n, rng):
    lo, hi = (-alpha - mu) / sigma, (alpha - mu) / sigma
    sign = 1.0
    if mu < 0.0:
        lo, hi, sign = -hi, -lo, -1.0
    p_lo, p_hi = oracle_cdf(lo), oracle_cdf(hi)
    if not p_hi > p_lo:
        raise fakegrad.DegenerateBoundError("no mass")
    u = (p_lo + (p_hi - p_lo) * rng.random(n)).clip(*_OPEN_UNIT)
    z = np.fromiter(map(_inv_cdf, u.tolist()), np.float64, n)
    return (mu + sign * sigma * z).clip(math.nextafter(-alpha, 0.0), math.nextafter(alpha, 0.0))


def oracle_fake_errors(errors, eps_g, n, rng):
    mu, sd = float(errors.mean()), float(errors.std())
    sigma = sd if sd > 0.0 else fakegrad.SIGMA_FLOOR
    bound = fakegrad.UNBOUNDED
    if eps_g is not None:
        bound = fakegrad.solve_alpha(eps_g, mu, sigma)
        if sd <= 0.0:
            bound = replace(bound, floored=True)
    if n == 0:
        return np.empty(0), bound
    try:
        return oracle_sample(mu, sigma, bound.alpha, n, rng), bound
    except fakegrad.DegenerateBoundError:
        amax = bound.alpha_max
        bound = replace(
            bound, alpha=amax, eps_g_achieved=fakegrad.epsilon_g_of(amax, mu, sigma), fallback=True
        )
        return oracle_sample(mu, sigma, amax, n, rng), bound


def oracle_send_set(state, t):
    rng = derive_rng(state.master_seed, TAG_CLIENT_ROUND, state.client_id, t)
    return rng, np.flatnonzero(irr(state.bits_prime, state.rr.p, state.rr.q, rng))


def oracle_iteration(state, v_snapshot, t):
    rng, selected = oracle_send_set(state, t)
    hp = state.hp
    eta = learning_rate(t, hp)
    errs = prediction_errors(state.u, v_snapshot, state.items, state.ratings)
    du = oracle_step(state.u, errs, v_snapshot[state.items], hp.lambda_u, eta, hp, rng).sum(axis=0)

    rated = state.bits[selected] == 1
    e = np.empty(len(selected), dtype=np.float64)
    e[rated] = errs[np.searchsorted(state.items, selected[rated])]
    eps_g = None if state.budget is None else state.budget.eps_g
    e[~rated], bound = oracle_fake_errors(errs, eps_g, int(np.count_nonzero(~rated)), rng)
    record(state, bound)
    deltas = oracle_step(v_snapshot[selected], e, state.u, hp.lambda_v, eta, hp, rng)

    state.u += du / state.h
    return state.client_id, selected, deltas


def oracle_population(clients, v, t):
    return round_of([oracle_iteration(c, v, t) for c in clients], v.shape[1])


def oracle_sigma_bar(x):
    if x >= 0:
        ex = math.exp(-x)
        return ex / (1.0 + ex)
    return 1.0 / (1.0 + math.exp(x))


def oracle_bpr_step(u, v_pos, v_neg, eta_t, hp, rng):
    x = np.vecdot(v_pos, u) - np.vecdot(v_neg, u)
    s = np.array([oracle_sigma_bar(xi) for xi in x.tolist()])[:, None]
    du = -eta_t * (s * (-v_pos + v_neg) + hp.lambda_u * u)
    dpos = -eta_t * (-s * u + hp.lambda_v * v_pos)
    dneg = -eta_t * (s * u + hp.lambda_v * v_neg)
    if hp.noise_enabled:
        noise = np.sqrt(eta_t) * rng.standard_normal(v_pos.shape[:-1] + (3, hp.k))
        du = du + noise[..., 0, :]
        dpos = dpos + noise[..., 1, :]
        dneg = dneg + noise[..., 2, :]
    return du, dpos, dneg


def oracle_bpr_iteration(state, v_snapshot, t):
    rng, selected = oracle_send_set(state, t)
    hp = state.hp
    eta = learning_rate(t, hp)
    unrated = np.flatnonzero(state.bits == 0)
    if len(unrated) == 0 and len(selected):
        state.partnerless_rounds += 1
        return state.client_id, selected[:0], np.empty((0, hp.k))
    rated = state.bits[selected].astype(bool)
    draws = rng.integers(0, np.where(rated, len(unrated), state.h))
    partner = np.empty_like(selected)
    partner[rated] = unrated[draws[rated]]
    partner[~rated] = state.items[draws[~rated]]
    own, other = v_snapshot[selected], v_snapshot[partner]
    role = rated[:, None]
    du, dpos, dneg = oracle_bpr_step(
        state.u, np.where(role, own, other), np.where(role, other, own), eta, hp, rng
    )
    if len(selected):
        state.u += du.sum(axis=0) / len(selected)
    return state.client_id, selected, np.where(role, dpos, dneg)


def oracle_bpr_population(clients, v, t):
    return round_of([oracle_bpr_iteration(c, v, t) for c in clients], v.shape[1])


LEDGER = ("clamped_rounds", "floored_rounds", "fallback_rounds", "eps_g_worst")
# each task's population round, its oracle, and the ledger counters it keeps
ROUNDS = {
    "numerical": (population_iteration, oracle_population, LEDGER),
    "one-class": (bpr.population_iteration, oracle_bpr_population, ("partnerless_rounds",)),
}


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_same_rounds(ds, hp, budget, rounds, chunk_rows, task="numerical", silent=()):
    """Both rounds over two copies of one population: updates, user factors
    and ledgers equal after every round. The clients at the positions in
    ``silent`` send nothing: their send probabilities are zero."""
    model0 = init_model(ds.n_users, ds.n_items, hp)
    z_target = len(ds) / ds.n_users
    step, oracle, ledger = ROUNDS[task]

    def population():
        clients = [
            client_init(i, *ds.user_items(i), model0.u[i], ds.n_items, hp, budget, z_target, hp.seed)
            for i in ds.active_users()
        ]
        for i in silent:
            clients[i].rr = replace(clients[i].rr, p=0.0, q=0.0)
        return clients

    ours, theirs = population(), population()
    v = model0.v
    v.setflags(write=False)  # a broadcast snapshot
    with mock.patch.object(sgld, "_CHUNK_ROWS", chunk_rows):
        for t in range(1, rounds + 1):
            got, want = step(ours, v, t), oracle(theirs, v, t)
            for name in ("client_ids", "offsets", "item_ids"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            assert np.array_equal(bits(got.deltas), bits(want.deltas))
            for a, b in zip(ours, theirs):
                assert np.array_equal(bits(a.u), bits(b.u))
                assert [getattr(a, f) for f in ledger] == [getattr(b, f) for f in ledger]
            sums, counts = sgld.reduce_item_deltas(want.item_ids, want.deltas, ds.n_items)
            v = v + sums / max(int(counts.sum()), 1)
            v.setflags(write=False)
    return theirs


@st.composite
def populations(draw, full_user=False):
    """Rating sets; with ``full_user`` the last user rated every item."""
    n_items = draw(st.integers(2, 40))
    n_users = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    triples = []
    for user in range(n_users):
        # one-rating users have no error spread: the sigma floor
        h = 1 if draw(st.booleans()) else int(rng.integers(1, n_items + 1))
        if full_user and user == n_users - 1:
            h = n_items
        items = rng.choice(n_items, size=h, replace=False)
        triples += [RatingTriple(user, int(j), float(rng.uniform(1, 5))) for j in items]
    return build_dataset(triples, n_users, n_items)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    ds=populations(),
    k=st.sampled_from([1, 2, 3, 10]),
    noise=st.booleans(),
    privacy=st.sampled_from(["off", "unbounded", 0.01, 4.0, 40.0]),
    chunk_rows=st.sampled_from([1, 5, 17, 4096]),
)
def test_population_round_equals_per_client_oracle(ds, k, noise, privacy, chunk_rows):
    hp = Hyperparams(k, 0.3, 0.6, np.full(k, 0.02), np.full(k, 0.03), 3, noise_enabled=noise)
    if privacy == "off":
        budget = None
    else:
        budget = PrivacyBudget(eps_i=2.0, eps_g=None if privacy == "unbounded" else privacy)
        if not 0 < len(ds) / ds.n_users < ds.n_items:
            budget = None  # no send-count target to calibrate for
    assert_same_rounds(ds, hp, budget, 2, chunk_rows)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    ds=populations(full_user=True),
    k=st.sampled_from([1, 2, 3, 10]),
    noise=st.booleans(),
    privacy=st.booleans(),
    chunk_rows=st.sampled_from([1, 5, 17, 4096]),
    silent=st.integers(0, 2**16),
)
def test_one_class_round_equals_per_client_oracle(ds, k, noise, privacy, chunk_rows, silent):
    # the last user rated every item, so it has no unrated partner; another
    # user, when there is one, sends nothing
    hp = Hyperparams(k, 0.3, 0.6, np.full(k, 0.02), np.full(k, 0.03), 3, noise_enabled=noise)
    budget = None
    if privacy and 0 < len(ds) / ds.n_users < ds.n_items:
        budget = PrivacyBudget(eps_i=2.0)
    silent = [silent % (ds.n_users - 1)] if ds.n_users > 1 else []
    clients = assert_same_rounds(ds, hp, budget, 2, chunk_rows, "one-class", silent)
    if budget is None:  # the send set is the rated set: all items
        assert clients[-1].partnerless_rounds == 2


@pytest.mark.parametrize("eps_g", [0.01, 40.0])
@pytest.mark.parametrize("noise", [False, True])
def test_many_chunks_and_every_ledger_event(eps_g, noise):
    # 30 users over ~10 chunks; near eps_g = 40 some bounds hold no mass,
    # at 0.01 every bound clamps, and user 0's one rating has no spread
    ds = synthetic_dataset(30, 60, seed=1, mean_ratings_per_user=8)
    triples = [t for t in ds.triples if t.user_id != 0] + [RatingTriple(0, 3, 4.0)]
    ds = build_dataset(triples, ds.n_users, ds.n_items)
    hp = Hyperparams(3, 0.1, 0.6, np.full(3, 0.01), np.full(3, 0.01), 0, noise_enabled=noise)
    clients = assert_same_rounds(ds, hp, PrivacyBudget(eps_i=1.0, eps_g=eps_g), 3, 24)
    assert sum(c.floored_rounds for c in clients) == 3
    counter = "fallback_rounds" if eps_g == 40.0 else "clamped_rounds"
    assert sum(getattr(c, counter) for c in clients) > 0


def load_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["desk-rmse-private", "desk-auc-bytes", "ml100k-shape-private"])
def test_benchmark_workload_streams_unchanged(name, monkeypatch):
    # the benchmark's own inputs and transport, 2 rounds each way; CI runs
    # this on every supported Python, so a numpy that rounds the batch
    # differently fails here
    workload = load_workloads()[name]
    inputs = workload.build(7)
    got = workload.train(inputs, 2)
    module = bpr if workload.task == "one-class" else protocol
    monkeypatch.setattr(module, "population_iteration", ROUNDS[workload.task][1])
    want = workload.train(inputs, 2)
    assert [r.messages for r in got.curve] == [r.messages for r in want.curve]
    assert np.array_equal(bits(got.model.u), bits(want.model.u))
    assert np.array_equal(bits(got.model.v), bits(want.model.v))


def make_clients(ds, hp, budget):
    model0 = init_model(ds.n_users, ds.n_items, hp)
    z_target = len(ds) / ds.n_users
    return [
        client_init(i, *ds.user_items(i), model0.u[i], ds.n_items, hp, budget, z_target, hp.seed)
        for i in ds.active_users()
    ]


def test_run_fixed_blocks_are_read_only():
    ds = synthetic_dataset(30, 60, seed=1, mean_ratings_per_user=8)
    hp = Hyperparams(3, 0.1, 0.6, np.full(3, 0.01), np.full(3, 0.01), 0)
    budget = PrivacyBudget(eps_i=1.0, eps_g=4.0)
    numerical = protocol.Population(make_clients(ds, hp, budget), "numerical")
    one_class = protocol.Population(make_clients(ds, hp, budget), "one-class")
    layouts = [rows for _, _, rows in numerical.chunks] + [one_class.rated]
    arrays = [numerical.bits_prime, one_class.bits_prime]
    for rows in layouts:
        arrays += [rows.h, rows.items, rows.owner, rows.start, *(users for users, _, _ in rows.groups)]
        arrays += [] if rows.ratings is None else [rows.ratings]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0
    # each client's bit vector and user factor are its rows of the blocks
    for i, c in enumerate(numerical):
        assert np.shares_memory(c.bits_prime, numerical.bits_prime) and not c.bits_prime.flags.writeable
        assert np.shares_memory(c.u, numerical.u[i])


@pytest.mark.parametrize("task, eps_g", [("numerical", 0.01), ("numerical", 40.0), ("one-class", None)])
def test_two_sessions_give_the_same_model_and_ledger(task, eps_g, monkeypatch):
    # user 0 rated every item, so a one-class run has partnerless rounds
    ds = synthetic_dataset(30, 60, seed=1, mean_ratings_per_user=8)
    triples = [t for t in ds.triples if t.user_id != 0] + [RatingTriple(0, j, 4.0) for j in range(60)]
    ds = build_dataset(triples, ds.n_users, ds.n_items)
    hp = Hyperparams(3, 0.1, 0.6, np.full(3, 0.01), np.full(3, 0.01), 0)
    pops = []
    assemble = protocol.assemble_model

    def recording(model0, pop, server):
        pops.append(pop)
        return assemble(model0, pop, server)

    monkeypatch.setattr(protocol, "assemble_model", recording)
    budget = PrivacyBudget(eps_i=1.0, eps_g=eps_g)
    runs = [protocol.run_training(ds, hp, 3, budget=budget, task=task) for _ in range(2)]
    first, second = pops[0], pops[-1]
    assert first is not second
    assert np.array_equal(bits(runs[0].model.u), bits(runs[1].model.u))
    assert np.array_equal(bits(runs[0].model.v), bits(runs[1].model.v))
    for name in ("clamped_rounds", "floored_rounds", "fallback_rounds", "partnerless_rounds", "eps_g_worst"):
        assert np.array_equal(getattr(first, name), getattr(second, name)), name
    counter = {0.01: "clamped_rounds", 40.0: "fallback_rounds", None: "partnerless_rounds"}[eps_g]
    assert getattr(first, counter).sum() > 0


def test_population_of_one_updates_the_client_state():
    ds = synthetic_dataset(6, 12, seed=3, mean_ratings_per_user=4)
    hp = Hyperparams(2, 0.1, 0.6, np.full(2, 0.01), np.full(2, 0.01), 0)
    v = init_model(ds.n_users, ds.n_items, hp).v
    # numerical: every bound clamps at eps_g = 0.01
    budget = PrivacyBudget(eps_i=1.0, eps_g=0.01)
    ours, theirs = make_clients(ds, hp, budget), make_clients(ds, hp, budget)
    for t in (1, 2):
        for a, b in zip(ours, theirs):
            got, (_, _, want) = protocol.client_iteration(a, v, t), oracle_iteration(b, v, t)
            assert np.array_equal(bits(got.deltas), bits(want))
            assert np.array_equal(bits(a.u), bits(b.u))
            assert [getattr(a, f) for f in LEDGER] == [getattr(b, f) for f in LEDGER]
    assert all(c.clamped_rounds == 2 for c in ours)
    # one-class: a client that rated every item counts a partnerless round
    triples = [RatingTriple(0, j, 4.0) for j in range(5)] + [RatingTriple(1, 0, 3.0), RatingTriple(1, 3, 5.0)]
    ds = build_dataset(triples, 2, 5)
    v = init_model(2, 5, hp).v
    ours, theirs = make_clients(ds, hp, None), make_clients(ds, hp, None)
    for a, b in zip(ours, theirs):
        got, (_, _, want) = bpr.sd_bpr_client_iteration(a, v, 1), oracle_bpr_iteration(b, v, 1)
        assert np.array_equal(bits(got.deltas), bits(want))
        assert np.array_equal(bits(a.u), bits(b.u))
        assert a.partnerless_rounds == b.partnerless_rounds
    assert [c.partnerless_rounds for c in ours] == [1, 0]


@pytest.mark.parametrize("chunk_rows", [1, 7, 4096])
def test_one_class_segments_equal_lone_client_rounds(chunk_rows):
    # segment i of the population round is client i's round alone; user 0
    # rated every item, so its segment is empty and the round partnerless
    ds = synthetic_dataset(12, 15, seed=2, mean_ratings_per_user=5)
    triples = [t for t in ds.triples if t.user_id != 0] + [RatingTriple(0, j, 4.0) for j in range(15)]
    ds = build_dataset(triples, ds.n_users, ds.n_items)
    hp = Hyperparams(3, 0.2, 0.6, np.full(3, 0.01), np.full(3, 0.01), 5)
    budget = PrivacyBudget(eps_i=2.0)
    v = init_model(ds.n_users, ds.n_items, hp).v
    ours, theirs = make_clients(ds, hp, budget), make_clients(ds, hp, budget)
    with mock.patch.object(sgld, "_CHUNK_ROWS", chunk_rows):
        for t in (1, 2):
            got = bpr.population_iteration(ours, v, t)
            assert got.client_ids.tolist() == ds.active_users()
            for (client, items, deltas), state in zip(segments(got), theirs):
                alone = bpr.sd_bpr_client_iteration(state, v, t)
                assert alone.client_ids.tolist() == [client] and alone.offsets.tolist() == [0, len(items)]
                assert np.array_equal(items, alone.item_ids)
                assert np.array_equal(bits(deltas), bits(alone.deltas))
    assert ours[0].partnerless_rounds == theirs[0].partnerless_rounds == 2
    assert all(np.array_equal(bits(a.u), bits(b.u)) for a, b in zip(ours, theirs))
