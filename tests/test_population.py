"""The population rounds against the per-client rounds they replaced.

``oracle_iteration`` below is the numerical client round as it ran one
client at a time, with its SGLD step and fake-error sampler inlined, and
``oracle_bpr_iteration`` the one-class client round, with its pair step and
``sigma_bar`` inlined; both draw their send sets with ``randresp.irr``, so
they share no arithmetic with the population kernels. Each oracle keeps
its client's user factor and ledger in an ``oracles.OracleClient``. Every
update, user factor and ledger counter of ``protocol.population_iteration``
and ``bpr.population_iteration`` over a ``Population`` must equal them bit
for bit.
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

from oracles import OracleClient, build_dataset, list_layout, record, round_of, segments
from privmf import bpr, fakegrad, protocol, sgld
from privmf.data import RatingTriple, synthetic_dataset
from privmf.protocol import Population, client_init, client_iteration, population_iteration
from privmf.randresp import PrivacyBudget, irr
from privmf.rng import TAG_CLIENT_ROUND, derive_rng
from privmf.sgld import Hyperparams, UserRows, init_model, learning_rate, prediction_errors

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


def assert_same(pop, got, theirs, want, ledger):
    """A population round ``got`` equals the oracles' round ``want``, and
    the population's user factors and ledger equal the oracle clients'."""
    for name in ("client_ids", "offsets", "item_ids"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert np.array_equal(bits(got.deltas), bits(want.deltas))
    assert np.array_equal(bits(pop.u), bits(np.stack([b.u for b in theirs])))
    for f in ledger:
        assert getattr(pop, f).tolist() == [getattr(b, f) for b in theirs], f


def assert_same_rounds(ds, hp, budget, rounds, chunk_rows, task="numerical", silent=()):
    """The population round over a ``Population`` and the oracle over its
    clients one by one: updates, user factors and ledgers equal after every
    round; returns the population. The clients at the positions in
    ``silent`` send nothing: their send probabilities are zero."""
    model0 = init_model(ds.n_users, ds.n_items, hp)
    z_target = len(ds) / ds.n_users
    step, oracle, ledger = ROUNDS[task]
    clients = [
        client_init(i, *ds.user_items(i), model0.u[i], ds.n_items, hp, budget, z_target, hp.seed)
        for i in ds.active_users()
    ]
    for i in silent:
        clients[i] = replace(clients[i], rr=replace(clients[i].rr, p=0.0, q=0.0))
    theirs = [OracleClient(c) for c in clients]
    v = model0.v
    v.setflags(write=False)  # a broadcast snapshot
    with mock.patch.object(sgld, "_CHUNK_ROWS", chunk_rows):
        pop = Population(clients, task)
        for t in range(1, rounds + 1):
            got, want = step(pop, v, t), oracle(theirs, v, t)
            assert_same(pop, got, theirs, want, ledger)
            sums, counts = sgld.reduce_item_deltas(want.item_ids, want.deltas, ds.n_items)
            v = v + sums / max(int(counts.sum()), 1)
            v.setflags(write=False)
    return pop


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
    pop = assert_same_rounds(ds, hp, budget, 2, chunk_rows, "one-class", silent)
    if budget is None:  # the send set is the rated set: all items
        assert pop.partnerless_rounds[-1] == 2


@pytest.mark.parametrize("eps_g", [0.01, 40.0])
@pytest.mark.parametrize("noise", [False, True])
def test_many_chunks_and_every_ledger_event(eps_g, noise):
    # 30 users over ~10 chunks; near eps_g = 40 some bounds hold no mass,
    # at 0.01 every bound clamps, and user 0's one rating has no spread
    ds = synthetic_dataset(30, 60, seed=1, mean_ratings_per_user=8)
    triples = [t for t in ds.triples if t.user_id != 0] + [RatingTriple(0, 3, 4.0)]
    ds = build_dataset(triples, ds.n_users, ds.n_items)
    hp = Hyperparams(3, 0.1, 0.6, np.full(3, 0.01), np.full(3, 0.01), 0, noise_enabled=noise)
    pop = assert_same_rounds(ds, hp, PrivacyBudget(eps_i=1.0, eps_g=eps_g), 3, 24)
    assert pop.floored_rounds.sum() == 3
    counter = "fallback_rounds" if eps_g == 40.0 else "clamped_rounds"
    assert getattr(pop, counter).sum() > 0


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
    # the oracle steps the run's clients one by one and hands the run its
    # user factors
    clients, init, oracle = [], protocol.client_init, ROUNDS[workload.task][1]

    def capturing(*args):
        clients.append(OracleClient(init(*args)))
        return clients[-1].state

    def oracle_step(pop, v, t):
        updates = oracle(clients, v, t)
        pop.u[...] = [c.u for c in clients]
        return updates

    module = bpr if workload.task == "one-class" else protocol
    monkeypatch.setattr(protocol, "client_init", capturing)
    monkeypatch.setattr(module, "population_iteration", oracle_step)
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


def assert_same_layout(rows, want):
    for name in ("h", "items", "ratings", "owner", "start", "_rank"):
        got = getattr(rows, name)
        if want[name] is None:
            assert got is None, name
        else:
            assert got.dtype == want[name].dtype and np.array_equal(bits(got), bits(want[name])), name
    assert len(rows.groups) == len(want["groups"])
    for (users, lo, h), (users_want, lo_want, h_want) in zip(rows.groups, want["groups"]):
        assert np.array_equal(users, users_want) and (lo, h) == (lo_want, h_want)


def test_run_fixed_blocks_are_read_only():
    ds = synthetic_dataset(30, 60, seed=1, mean_ratings_per_user=8)
    hp = Hyperparams(3, 0.1, 0.6, np.full(3, 0.01), np.full(3, 0.01), 0)
    budget = PrivacyBudget(eps_i=1.0, eps_g=4.0)
    clients = make_clients(ds, hp, budget)
    for chunk_rows in (1, 24, 4096):
        with mock.patch.object(sgld, "_CHUNK_ROWS", chunk_rows):
            numerical, one_class = Population(clients, "numerical"), Population(clients, "one-class")
        layouts = [rows for _, _, rows in numerical.chunks] + [one_class.rated]
        arrays = [numerical.bits_prime, one_class.bits_prime]
        for rows in layouts:
            arrays += [rows.h, rows.items, rows.owner, rows.start, *(users for users, _, _ in rows.groups)]
            arrays += [] if rows.ratings is None else [rows.ratings]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0
        # each layout is the one built from the clients' per-user lists
        for lo, hi, rows in numerical.chunks:
            part = clients[lo:hi]
            assert_same_layout(rows, list_layout([c.items for c in part], [c.ratings for c in part]))
        assert_same_layout(one_class.rated, list_layout([c.items for c in clients]))
    # a round's send-set layout: users that send nothing, and runs of equal counts
    rng = np.random.default_rng(4)
    for n_users in (1, 2, 9, 40):
        counts = rng.integers(0, 5, n_users)
        items = [np.sort(rng.choice(60, size=h, replace=False)) for h in counts.tolist()]
        flat = np.concatenate([np.empty(0, np.int64), *items])
        assert_same_layout(UserRows(flat, counts), list_layout(items))


@pytest.mark.parametrize("task, eps_g", [("numerical", 0.01), ("numerical", 40.0), ("one-class", None)])
def test_two_sessions_give_the_same_model_and_ledger(task, eps_g, monkeypatch):
    # user 0 rated every item, so a one-class run has partnerless rounds
    ds = synthetic_dataset(30, 60, seed=1, mean_ratings_per_user=8)
    triples = [t for t in ds.triples if t.user_id != 0] + [RatingTriple(0, j, 4.0) for j in range(60)]
    ds = build_dataset(triples, ds.n_users, ds.n_items)
    hp = Hyperparams(3, 0.1, 0.6, np.full(3, 0.01), np.full(3, 0.01), 0)
    pops = []
    assemble = protocol.assemble_model

    def recording(u0, pop, v):
        pops.append(pop)
        return assemble(u0, pop, v)

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


def test_population_of_one_equals_the_per_client_oracle():
    ds = synthetic_dataset(6, 12, seed=3, mean_ratings_per_user=4)
    hp = Hyperparams(2, 0.1, 0.6, np.full(2, 0.01), np.full(2, 0.01), 0)
    v = init_model(ds.n_users, ds.n_items, hp).v
    # numerical: every bound clamps at eps_g = 0.01
    states = make_clients(ds, hp, PrivacyBudget(eps_i=1.0, eps_g=0.01))
    pops, theirs = [Population([s], "numerical") for s in states], [OracleClient(s) for s in states]
    for t in (1, 2):
        for state, pop, b in zip(states, pops, theirs):
            got, want = population_iteration(pop, v, t), oracle_population([b], v, t)
            assert_same(pop, got, [b], want, LEDGER)
            if t == 1:  # the one-client call is the first round of a population of one
                assert_same(pop, client_iteration(state, v, t), [b], want, ())
    assert all(pop.clamped_rounds.tolist() == [2] for pop in pops)
    # one-class: a client that rated every item counts a partnerless round
    triples = [RatingTriple(0, j, 4.0) for j in range(5)] + [RatingTriple(1, 0, 3.0), RatingTriple(1, 3, 5.0)]
    ds = build_dataset(triples, 2, 5)
    v = init_model(2, 5, hp).v
    states = make_clients(ds, hp, None)
    pops, theirs = [Population([s], "one-class") for s in states], [OracleClient(s) for s in states]
    for state, pop, b in zip(states, pops, theirs):
        got, want = bpr.population_iteration(pop, v, 1), oracle_bpr_population([b], v, 1)
        assert_same(pop, got, [b], want, ("partnerless_rounds",))
        assert_same(pop, bpr.sd_bpr_client_iteration(state, v, 1), [b], want, ())
    assert [pop.partnerless_rounds.tolist() for pop in pops] == [[1], [0]]


@pytest.mark.parametrize("chunk_rows", [1, 7, 4096])
def test_one_class_segments_equal_lone_client_rounds(chunk_rows):
    # segment i of the population round is client i's round alone; user 0
    # rated every item, so its segment is empty and the round partnerless
    ds = synthetic_dataset(12, 15, seed=2, mean_ratings_per_user=5)
    triples = [t for t in ds.triples if t.user_id != 0] + [RatingTriple(0, j, 4.0) for j in range(15)]
    ds = build_dataset(triples, ds.n_users, ds.n_items)
    hp = Hyperparams(3, 0.2, 0.6, np.full(3, 0.01), np.full(3, 0.01), 5)
    v = init_model(ds.n_users, ds.n_items, hp).v
    states = make_clients(ds, hp, PrivacyBudget(eps_i=2.0))
    with mock.patch.object(sgld, "_CHUNK_ROWS", chunk_rows):
        ours, theirs = Population(states, "one-class"), [Population([s], "one-class") for s in states]
        for t in (1, 2):
            got = bpr.population_iteration(ours, v, t)
            assert got.client_ids.tolist() == ds.active_users()
            for (client, items, deltas), alone_pop in zip(segments(got), theirs):
                alone = bpr.population_iteration(alone_pop, v, t)
                assert alone.client_ids.tolist() == [client] and alone.offsets.tolist() == [0, len(items)]
                assert np.array_equal(items, alone.item_ids)
                assert np.array_equal(bits(deltas), bits(alone.deltas))
    assert ours.partnerless_rounds[0] == theirs[0].partnerless_rounds[0] == 2
    assert np.array_equal(bits(ours.u), bits(np.concatenate([pop.u for pop in theirs])))


def state_bits(state):
    """Every field of a ``ClientState``, arrays as their bytes."""
    return [
        (name, value.dtype, value.tobytes()) if isinstance(value, np.ndarray) else (name, value)
        for name, value in vars(state).items()
    ]


def contract_population(task):
    # user 0 rated every item: one-class rounds are partnerless, and with
    # eps_g = 0.01 every numerical bound clamps
    ds = synthetic_dataset(12, 15, seed=2, mean_ratings_per_user=5)
    triples = [t for t in ds.triples if t.user_id != 0] + [RatingTriple(0, j, 4.0) for j in range(15)]
    ds = build_dataset(triples, ds.n_users, ds.n_items)
    hp = Hyperparams(3, 0.2, 0.6, np.full(3, 0.01), np.full(3, 0.01), 5)
    budget = PrivacyBudget(eps_i=2.0, eps_g=0.01 if task == "numerical" else None)
    return make_clients(ds, hp, budget), init_model(ds.n_users, ds.n_items, hp).v


@pytest.mark.parametrize("task", ["numerical", "one-class"])
def test_rounds_leave_the_client_states_unchanged(task):
    states, v = contract_population(task)
    before = [state_bits(s) for s in states]
    pop = Population(states, task)
    for t in (1, 2, 3):
        ROUNDS[task][0](pop, v, t)
    assert [state_bits(s) for s in states] == before
    assert not any(np.shares_memory(s.u, pop.u) or np.shares_memory(s.bits_prime, pop.bits_prime) for s in states)
    ledger = pop.partnerless_rounds if task == "one-class" else pop.clamped_rounds
    assert ledger.sum() > 0


@pytest.mark.parametrize("task", ["numerical", "one-class"])
def test_populations_from_one_state_list_give_equal_rounds(task):
    # the second population is built after the first one's rounds: it
    # starts from the same records, so it repeats them bit for bit
    states, v = contract_population(task)
    runs = []
    for _ in range(2):
        pop = Population(states, task)
        rounds = [ROUNDS[task][0](pop, v, t) for t in (1, 2)]
        runs.append((pop, rounds))
    (first, want), (second, got) = runs
    for a, b in zip(got, want):
        for name in ("client_ids", "offsets", "item_ids"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert np.array_equal(bits(a.deltas), bits(b.deltas))
    assert np.array_equal(bits(first.u), bits(second.u))
    for name in ("clamped_rounds", "floored_rounds", "fallback_rounds", "partnerless_rounds", "eps_g_worst"):
        assert np.array_equal(getattr(first, name), getattr(second, name)), name


@pytest.mark.parametrize("task", ["numerical", "one-class"])
def test_one_client_call_repeats_with_the_same_arguments(task):
    states, v = contract_population(task)
    call = client_iteration if task == "numerical" else bpr.sd_bpr_client_iteration
    for state in states:
        first, second = call(state, v, 2), call(state, v, 2)
        for name in ("client_ids", "offsets", "item_ids"):
            assert np.array_equal(getattr(first, name), getattr(second, name))
        assert np.array_equal(bits(first.deltas), bits(second.deltas))
