import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import OracleClient, build_dataset, draw_send_set, fake_errors, round_of, segments
from privmf import protocol
from privmf.codec import (
    FinishMessage,
    GradientMessage,
    Handshake,
    RoundUpdates,
    decode_updates,
    encode_message,
    encode_updates,
    iter_messages,
)
from privmf.data import RatingTriple, synthetic_dataset
from privmf.protocol import (
    Population,
    ProtocolError,
    client_init,
    client_iteration,
    population_iteration,
    run_training,
    server_begin_round,
    server_collect,
    server_end_round,
    server_round,
)
from privmf.randresp import CalibrationError, PrivacyBudget, irr, solve_f
from privmf.rng import TAG_CLIENT_INIT, TAG_CLIENT_ROUND, derive_rng
from privmf.sgld import (
    Hyperparams,
    centralized_train,
    init_model,
    item_step,
    learning_rate,
    prediction_errors,
)


def make_hp(k=3, eta0=0.1, gamma=0.6, seed=0, noise=False):
    lam = np.full(k, 0.01)
    return Hyperparams(k, eta0, gamma, lam, lam, seed, noise_enabled=noise)


def make_client(hp, n_items=12, items=(1, 4, 7), budget=None, z_target=None, seed=99, cid=0):
    """A population of one: client ``cid`` of a one-client data set, set up
    from master seed ``seed``."""
    triples = [RatingTriple(cid, j, r) for j, r in zip(items, np.linspace(2.0, 4.0, len(items)).tolist())]
    u0 = np.full((cid + 1, hp.k), 0.05)
    return Population(build_dataset(triples, cid + 1, n_items), u0, replace(hp, seed=seed), budget, z_target)


def init_client(cid, items, n_items=12, budget=None, z_target=None, seed=99):
    """``client_init`` on the client's own init stream."""
    return client_init(cid, np.array(items), n_items, budget, z_target, derive_rng(seed, TAG_CLIENT_INIT, cid))


def frames_of(update):
    return list(iter_messages(encode_updates(update)))


class TestClientInit:
    def test_permanent_vector_reproducible(self):
        budget = PrivacyBudget(eps_i=1.0)
        a = init_client(0, (1, 4, 7), budget=budget, z_target=4.0)
        b = init_client(0, (1, 4, 7), budget=budget, z_target=4.0)
        assert np.array_equal(a.bits_prime, b.bits_prime)

    def test_eps_p_defaults_to_twice_eps_i(self):
        state = init_client(0, (1, 4, 7), budget=PrivacyBudget(eps_i=1.0), z_target=4.0)
        assert state.rr.f == pytest.approx(solve_f(2.0, state.rr.h))

    def test_no_ratings_rejected(self):
        with pytest.raises(ValueError, match="no ratings"):
            client_init(0, np.array([], dtype=int), 10, None, None, None)

    def test_handed_in_stream_equals_the_derived_one(self, monkeypatch):
        # a population derives every init stream in one derive_rngs pass and
        # hands each to client_init: each is the client's own stream
        hp, budget = make_hp(seed=99), PrivacyBudget(eps_i=1.0)
        ids = [0, 3, 8]
        triples = [RatingTriple(i, j + i, r) for i in ids for j, r in ((1, 2.0), (4, 3.0), (7, 4.0))]
        ds = build_dataset(triples, 9, 16)
        handed, init = [], protocol.client_init

        def capturing(*args):
            handed.append(init(*args))
            return handed[-1]

        monkeypatch.setattr(protocol, "client_init", capturing)
        pop = Population(ds, np.zeros((9, hp.k)), hp, budget, 4.0)
        assert pop.ids.tolist() == [s.client_id for s in handed] == ids
        for row, state in zip(pop.bits_prime, handed):
            derived = init_client(state.client_id, ds.user_items(state.client_id)[0], 16, budget, 4.0)
            assert np.array_equal(state.bits_prime, derived.bits_prime)
            assert state.bits_prime.dtype == derived.bits_prime.dtype == np.uint8
            assert state.rr == derived.rr
            assert np.array_equal(row, state.bits_prime == 1)

    def test_bits_flag_rated_items(self):
        state = init_client(0, (2, 5))
        assert list(np.flatnonzero(state.bits_prime)) == [2, 5]  # privacy disabled: B' is B
        assert state.rr.h == 2 and state.rr.p == 0.0 and state.rr.q == 1.0


class TestClientIteration:
    def test_disabled_privacy_sends_exactly_rated_items(self):
        hp = make_hp()
        pop = make_client(hp, items=(1, 4, 7), cid=2)
        up = client_iteration(pop, np.full((12, hp.k), 0.1), 1)
        assert list(up.item_ids) == [1, 4, 7]
        assert up.deltas.shape == (3, hp.k)
        assert frames_of(up)[-1] == FinishMessage(2)

    def test_empty_send_set_still_updates_user(self):
        hp = make_hp()
        pop = make_client(hp)
        pop.p[0] = pop.q[0] = 0.0
        up = population_iteration(pop, np.full((12, hp.k), 0.1), 1)
        assert len(up.item_ids) == 0 and up.deltas.shape == (0, hp.k)
        assert frames_of(up) == [FinishMessage(0)]
        assert not np.array_equal(np.full(hp.k, 0.05), pop.u[0])

    def test_message_count_matches_conditional_law(self):
        # with B' fixed, per-round counts are Bernoulli sums with p/q on B' bits
        hp = make_hp(k=2)
        n_items = 60
        budget = PrivacyBudget(eps_i=2.0, eps_g=1.0)
        pop = make_client(hp, n_items=n_items, items=tuple(range(0, 30, 2)), budget=budget, z_target=10.0)
        ones, p, q = int(pop.bits_prime.sum()), pop.p[0], pop.q[0]
        expected = ones * q + (n_items - ones) * p
        var = ones * q * (1 - q) + (n_items - ones) * p * (1 - p)
        rounds = 3000
        v = np.full((n_items, hp.k), 0.1)
        total = 0
        for t in range(1, rounds + 1):
            total += len(client_iteration(pop, v, t).item_ids)
        mean = total / rounds
        assert abs(mean - expected) < 3 * math.sqrt(var / rounds)

    @pytest.mark.parametrize("eps_g", [38.0, 40.0, 45.0])
    def test_degenerate_fake_bound_falls_back_to_alpha_max(self, caplog, monkeypatch, eps_g):
        # real bounds, nothing faked: near eps_g ~ 37 and beyond, the solved
        # bound of some client-rounds holds no mass in double precision
        ds = synthetic_dataset(30, 60, seed=1, mean_ratings_per_user=8)
        hp = make_hp(k=3)
        budget = PrivacyBudget(eps_i=1.0, eps_g=eps_g)
        with caplog.at_level(logging.WARNING):
            run_training(ds, hp, 3, budget=budget)
        messages = [r.getMessage() for r in caplog.records]

        # the same run replayed client-round by client-round; noise is off,
        # so the fake uniforms are the round stream's next draw after the send set
        model0, z_target = init_model(ds.n_users, ds.n_items, hp), len(ds) / ds.n_users
        clients = [OracleClient(ds, i, model0.u, hp, budget, z_target) for i in ds.active_users()]
        pop = Population(ds, model0.u, hp, budget)
        fallbacks = 0
        received = []
        collect = protocol.server_collect

        def recording(updates, n_clients, n_items):
            received.append(segments(updates))
            return collect(updates, n_clients, n_items)

        monkeypatch.setattr(protocol, "server_collect", recording)
        v = model0.v.copy()
        for t in (1, 2, 3):
            expected = []
            for state, u in zip(clients, pop.u):
                rng, selected = draw_send_set(state, t)
                errs = prediction_errors(u, v, state.items, state.ratings)
                rated = state.bits[selected] == 1
                fakes, bound = fake_errors(errs, eps_g, int(np.sum(~rated)), rng)
                assert np.all(np.abs(fakes) < bound.alpha_max)
                if bound.fallback:
                    assert bound.alpha == bound.alpha_max
                    fallbacks += 1
                e = np.empty(len(selected))
                e[rated] = errs[np.searchsorted(state.items, selected[rated])]
                e[~rated] = fakes
                eta = learning_rate(t, hp)
                expected.append((selected, item_step(v[selected], e, u, eta, hp, None)))
            v, _ = server_round(v, pop, population_iteration, t)
            # the whole send set reaches the server, carrying exactly these fakes
            assert len(received[-1]) == len(clients)
            for (_, ids, got), (selected, deltas) in zip(received[-1], expected):
                assert np.array_equal(ids, selected)
                assert np.array_equal(got, deltas)
        assert pop.fallback_rounds.sum() == fallbacks
        assert fallbacks > 0 or eps_g < 40.0
        fallback_lines = [m for m in messages if "drawn at alpha_max" in m]
        assert len(fallback_lines) == int(fallbacks > 0)
        if fallbacks:
            assert f"in {fallbacks} client-round(s)" in fallback_lines[0]
        assert not any("skipping item" in m for m in messages)


class TestServer:
    def test_round_with_no_messages_is_noop(self):
        v = np.ones((5, 2))
        empty = round_of([(0, [], np.empty((0, 2)))], 2)
        sums, counts = server_collect(empty, n_clients=1, n_items=5)
        assert server_end_round(v, sums, counts) is v
        for transport in ("memory", "bytes"):
            v_next, n_grad = server_round(v, [0], lambda pop, snapshot, t: empty, 1, transport)
            assert v_next is v and n_grad == 0
        assert np.array_equal(v, np.ones((5, 2)))

    def test_single_message_updates_one_row(self):
        v = np.zeros((5, 2))
        sums, counts = server_collect(round_of([(0, [3], [[1.0, 2.0]])], 2), 1, 5)
        v = server_end_round(v, sums, counts)
        assert np.array_equal(v[3], [1.0, 2.0])
        assert np.array_equal(v[[0, 1, 2, 4]], np.zeros((4, 2)))

    def test_round_leaves_v_unchanged_and_returns_a_new_array(self):
        ds = synthetic_dataset(6, 10, seed=1, mean_ratings_per_user=4)
        hp = make_hp(seed=2, noise=True)
        model0 = init_model(ds.n_users, ds.n_items, hp)
        v, before = model0.v, model0.v.copy()
        v_next, n_grad = server_round(v, Population(ds, model0.u, hp, None), population_iteration, 1)
        assert np.array_equal(v.view(np.uint64), before.view(np.uint64))
        assert v_next is not v and not np.shares_memory(v_next, v)
        assert n_grad == len(ds)
        # bitwise the old in-place update: v += sums / count
        updates = population_iteration(Population(ds, model0.u, hp, None), before, 1)
        sums, counts = server_collect(updates, len(ds.active_users()), ds.n_items)
        expected = before.copy()
        expected += sums / counts.sum()
        assert np.array_equal(v_next.view(np.uint64), expected.view(np.uint64))

    def test_snapshot_is_a_read_only_view_of_v(self):
        v = np.arange(10.0).reshape(5, 2)
        snapshots = []

        def step(pop, snapshot, t):
            snapshots.append(snapshot)
            return round_of([(0, [1], [[1.0, 1.0]])], 2)

        server_round(v, [0], step, 1)
        snapshot = snapshots[0]
        assert not snapshot.flags.writeable and np.shares_memory(snapshot, v)
        with pytest.raises(ValueError):
            snapshot[0, 0] = 1.0
        assert v.flags.writeable  # the caller's array stays writable

    def test_permuted_delivery_gives_identical_factors(self):
        rng = np.random.default_rng(0)
        item_ids = rng.integers(0, 8, size=50)
        deltas = rng.normal(size=(50, 2))
        results = []
        for order_seed in (1, 2, 3):
            v = np.zeros((8, 2))
            order = np.random.default_rng(order_seed)
            # rows shuffled across four clients' segments, segments shuffled too
            perm = order.permutation(50)
            cuts = np.sort(order.choice(np.arange(1, 50), size=3, replace=False))
            updates = [
                (cid, item_ids[rows], deltas[rows])
                for cid, rows in enumerate(np.split(perm, cuts))
            ]
            shuffled = round_of([updates[i] for i in order.permutation(len(updates))], 2)
            sums, counts = server_collect(shuffled, 4, 8)
            results.append(server_end_round(v, sums, counts))
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])

    def test_missing_finish_aborts_round(self):
        with pytest.raises(ProtocolError, match="round aborted"):
            server_collect(round_of([(0, [1], np.zeros((1, 2)))], 2), n_clients=2, n_items=5)

    def test_per_item_average_mode(self):
        v = np.zeros((4, 1))
        round_ = round_of([(0, [0, 0, 2], [[2.0], [4.0], [9.0]])], 1)
        sums, counts = server_collect(round_, 1, 4)
        v_next = server_end_round(v, sums, counts, per_item_average=True)
        assert np.array_equal(v_next[:, 0], [3.0, 0.0, 9.0, 0.0])
        # each item over its own count, or every item over the round's
        for per_item_average, expected in ((True, [3.0, 0.0, 9.0, 0.0]), (False, [2.0, 0.0, 3.0, 0.0])):
            v_next, n_grad = server_round(v, [0], lambda pop, snapshot, t: round_, 1,
                                          per_item_average=per_item_average)
            assert np.array_equal(v_next[:, 0], expected) and n_grad == 3
        assert np.array_equal(v, np.zeros((4, 1)))

    def test_unknown_item_rejected(self):
        with pytest.raises(ProtocolError, match="unknown item 5"):
            server_collect(round_of([(0, [1, 5], np.zeros((2, 2)))], 2), n_clients=1, n_items=5)

    def test_unknown_item_error_names_the_first_bad_id_in_update_order(self):
        updates = round_of([
            (0, [1, 2], np.zeros((2, 2))),
            (1, [3, 9], np.zeros((2, 2))),
            (2, [-1, 6], np.zeros((2, 2))),
        ], 2)
        with pytest.raises(ProtocolError) as exc:
            server_collect(updates, n_clients=3, n_items=5)
        assert str(exc.value) == "gradient for unknown item 9"

    def test_unknown_item_rejected_from_bytes(self):
        data = encode_message(GradientMessage(5, np.zeros(2))) + encode_message(FinishMessage(0))
        with pytest.raises(ProtocolError, match="unknown item 5"):
            server_collect(decode_updates(data, 2, 5), n_clients=1, n_items=5)


# malformed rounds: (client ids, offsets, item ids, deltas), and the error
MALFORMED = {
    "one-delta-row-for-three-ids": (([0], [0, 3], [1, 2, 3], np.ones((1, 2))), r"shape \(1, 2\) for 3 item ids"),
    "deltas-not-2d": (([0], [0, 2], [1, 3], np.zeros(2)), r"shape \(2,\) for 2 item ids"),
    "deltas-3d": (([0], [0, 2], [1, 3], np.zeros((2, 2, 1))), r"shape \(2, 2, 1\) for 2 item ids"),
    "offsets-start-above-0": (([0, 1], [1, 1, 2], [1, 3], np.zeros((2, 2))), "from 0 to 2"),
    "offsets-decrease": (([0, 1, 2], [0, 2, 1, 2], [1, 3], np.zeros((2, 2))), "without decreasing"),
    "offsets-end-short": (([0, 1], [0, 1, 1], [1, 3], np.zeros((2, 2))), "from 0 to 2"),
    "offsets-one-too-few": (([0, 1], [0, 2], [1, 3], np.zeros((2, 2))), "2 offsets for 2 clients: need 3"),
    "ids-not-1d": (([0], [0, 2], [[1, 3]], np.zeros((2, 2))), "must be 1-D"),
}


class TestRoundUpdates:
    @pytest.mark.parametrize("transport", ["memory", "bytes"])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_round_rejected_alike_by_both_transports(self, case, transport):
        fields, error = MALFORMED[case]
        v = np.zeros((5, 2))
        with pytest.raises(ValueError, match=error):
            server_round(v, [0] * len(fields[0]), lambda c, v, t: RoundUpdates(*fields), 1, transport)
        assert np.array_equal(v, np.zeros((5, 2)))

    def test_arrays_are_read_only_views(self):
        ids, deltas = np.array([1, 3]), np.ones((2, 2))
        updates = RoundUpdates([4], [0, 2], ids, deltas)
        for array in (updates.client_ids, updates.offsets, updates.item_ids, updates.deltas):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0
        # the caller's arrays stay writable
        ids[0], deltas[0, 0] = 2, 5.0
        assert updates.item_ids[0] == 2 and updates.deltas[0, 0] == 5.0

    def test_population_round_is_read_only(self):
        ds = synthetic_dataset(6, 10, seed=1, mean_ratings_per_user=4)
        hp = make_hp(seed=2)
        v = init_model(ds.n_users, ds.n_items, hp).v
        updates = population_iteration(Population(ds, np.zeros((ds.n_users, hp.k)), hp, None), v, 1)
        assert updates.client_ids.tolist() == ds.active_users()
        assert updates.deltas.shape == (len(ds), hp.k)
        with pytest.raises(ValueError):
            updates.deltas[0] = 0.0


class TestInformationFlow:
    def test_server_sees_only_gradient_and_finish_frames(self):
        ds = synthetic_dataset(6, 10, seed=1, mean_ratings_per_user=4)
        hp = make_hp(seed=2)
        model0 = init_model(ds.n_users, ds.n_items, hp)
        pop = Population(ds, model0.u, hp, None)
        v = model0.v.copy()
        snapshot = server_begin_round(v)
        updates = population_iteration(pop, snapshot, 1)
        data = encode_updates(updates, Handshake(hp.k, ds.n_items))
        seen = list(iter_messages(data, expect_k=hp.k))
        assert seen[0] == Handshake(hp.k, ds.n_items)
        assert all(isinstance(m, (GradientMessage, FinishMessage)) for m in seen[1:])
        # bytes == memory: the decoded round is the round, bit for bit
        decoded = decode_updates(data, hp.k, ds.n_items)
        for name in ("client_ids", "offsets", "item_ids"):
            assert np.array_equal(getattr(decoded, name), getattr(updates, name))
        assert np.array_equal(decoded.deltas.view(np.uint64), updates.deltas.view(np.uint64))
        sums, counts = server_collect(decoded, len(pop), ds.n_items)
        server_end_round(v, sums, counts)


class TestOracleEquivalence:
    def test_disabled_privacy_reproduces_centralized(self):
        ds = synthetic_dataset(12, 10, seed=4, mean_ratings_per_user=4)
        hp = make_hp(k=3, eta0=0.2, seed=6)
        ref = centralized_train(ds, hp, 3)
        res = run_training(ds, hp, 3, budget=None)
        assert np.array_equal(ref.u, res.model.u)
        assert np.array_equal(ref.v, res.model.v)

    def test_single_client_round_matches_centralized_round(self):
        triples = [RatingTriple(0, j, r) for j, r in [(0, 3.0), (2, 4.0), (5, 2.0)]]
        ds = build_dataset(triples, 1, 6)
        hp = make_hp(k=2, eta0=0.3, seed=8)
        ref = centralized_train(ds, hp, 1)
        res = run_training(ds, hp, 1, budget=None)
        assert np.array_equal(ref.u, res.model.u)
        assert np.array_equal(ref.v, res.model.v)

    def test_byte_transport_equals_memory_transport(self):
        ds = synthetic_dataset(8, 9, seed=5, mean_ratings_per_user=3)
        hp = make_hp(k=2, eta0=0.1, seed=3, noise=True)
        for task, budget in (("numerical", None), ("one-class", PrivacyBudget(eps_i=1.0))):
            a = run_training(ds, hp, 4, budget=budget, task=task, transport="memory")
            b = run_training(ds, hp, 4, budget=budget, task=task, transport="bytes")
            assert np.array_equal(a.model.u, b.model.u)
            assert np.array_equal(a.model.v, b.model.v)
            assert [r.messages for r in a.curve] == [r.messages for r in b.curve]


class TestRunTraining:
    def test_a_budget_past_the_double_range_fails_closed(self):
        # eps_i / h ~ 417: the quadratic's b * b overflowed, every client
        # calibrated p* = q* = 0, and the "private" run sent nothing
        triples = [RatingTriple(i, (i + j) % 18, 3.0) for i in range(5) for j in range(12)]
        ds = build_dataset(triples, 5, 18)
        with pytest.raises(CalibrationError, match=r"^client 0: p\*=0, 1-q\*=1 violate"):
            run_training(ds, make_hp(), 3, budget=PrivacyBudget(eps_i=5000.0), z_target=4.5)
        result = run_training(ds, make_hp(), 3, budget=PrivacyBudget(eps_i=4.0), z_target=4.5)
        assert all(record.messages > 0 for record in result.curve)

    def test_deterministic_with_fixed_seed(self):
        ds = synthetic_dataset(10, 14, seed=6, mean_ratings_per_user=4)
        hp = make_hp(k=2, eta0=0.1, seed=11, noise=True)
        budget = PrivacyBudget(eps_i=1.0, eps_g=0.5)
        for task in ("numerical", "one-class"):
            a = run_training(ds, hp, 5, budget=budget, task=task)
            b = run_training(ds, hp, 5, budget=budget, task=task)
            assert np.array_equal(a.model.u, b.model.u)
            assert np.array_equal(a.model.v, b.model.v)
            assert [r.messages for r in a.curve] == [r.messages for r in b.curve]

    def test_attack_redraw_equals_emitted_send_sets(self, monkeypatch):
        # privmf attack rebuilds each client and redraws its send set as the
        # first draw of the round stream; with SGLD noise on it must still
        # reproduce the items training sent
        ds = synthetic_dataset(10, 14, seed=6, mean_ratings_per_user=4)
        hp = make_hp(k=2, eta0=0.1, seed=11, noise=True)
        budget = PrivacyBudget(eps_i=1.0, eps_g=0.5)
        sent, collected = {}, []
        collect = protocol.server_collect

        def recording(updates, n_clients, n_items):
            collected.append(updates)
            for client, ids, _ in segments(updates):
                sent[client, len(collected)] = ids  # round t is the t-th collect
            return collect(updates, n_clients, n_items)

        monkeypatch.setattr(protocol, "server_collect", recording)
        run_training(ds, hp, 3, budget=budget)
        users = ds.active_users()
        assert len(sent) == 3 * len(users)
        z_target = len(ds) / ds.n_users
        for user in users:
            rng0 = derive_rng(hp.seed, TAG_CLIENT_INIT, user)
            state = client_init(user, ds.user_items(user)[0], ds.n_items, budget, z_target, rng0)
            for t in (1, 2, 3):
                rng = derive_rng(hp.seed, TAG_CLIENT_ROUND, user, t)
                redrawn = irr(state.bits_prime, state.rr.p, state.rr.q, rng)
                assert np.array_equal(np.flatnonzero(redrawn), sent[user, t])

    @pytest.mark.parametrize("eps_g, warned", [(0.01, True), (4.0, False)])
    def test_clamped_bound_warns_once_per_run(self, caplog, eps_g, warned):
        ds = synthetic_dataset(10, 14, seed=6, mean_ratings_per_user=4)
        hp = make_hp(k=2, eta0=0.1, seed=11, noise=True)
        with caplog.at_level(logging.WARNING):
            run_training(ds, hp, 3, budget=PrivacyBudget(eps_i=1.0, eps_g=eps_g))
        records = [r.getMessage() for r in caplog.records if "not met" in r.getMessage()]
        assert len(records) == int(warned)
        if warned:
            # no bound reaches eps_g=0.01, so every client-round clamps
            assert f"in {3 * len(ds.active_users())} client-round(s)" in records[0]
            assert float(records[0].rsplit("=", 1)[1]) > eps_g

    @pytest.mark.parametrize("eps_g, warned", [(1.0, True), (None, False)])
    def test_zero_error_spread_warns_once_per_run(self, caplog, eps_g, warned):
        # user 0 has one rating, so its errors have no spread in any round
        triples = [RatingTriple(0, 0, 3.0)] + [RatingTriple(1, j, 1.0 + j) for j in range(1, 5)]
        ds = build_dataset(triples, 2, 6)
        with caplog.at_level(logging.WARNING):
            run_training(ds, make_hp(k=2), 3, budget=PrivacyBudget(eps_i=1.0, eps_g=eps_g))
        records = [r.getMessage() for r in caplog.records if "degenerate error spread" in r.getMessage()]
        assert len(records) == int(warned)
        if warned:
            assert "in 3 client-round(s)" in records[0]

    def test_excludes_users_without_ratings(self, caplog):
        triples = [RatingTriple(0, 0, 3.0), RatingTriple(0, 1, 4.0), RatingTriple(2, 1, 2.0), RatingTriple(2, 0, 5.0)]
        ds = build_dataset(triples, 3, 2)  # user 1 has nothing
        hp = make_hp(k=2, seed=12)
        with caplog.at_level(logging.WARNING):
            result = run_training(ds, hp, 2, budget=None)
        assert "excluded 1 client" in caplog.text
        model0 = init_model(3, 2, hp)
        assert np.array_equal(result.model.u[1], model0.u[1])  # untouched row

    def test_curve_records_metric_and_messages(self):
        ds = synthetic_dataset(10, 14, seed=6, mean_ratings_per_user=4)
        hp = make_hp(k=2, eta0=0.1, seed=11)
        result = run_training(ds, hp, 3, budget=None, evaluator=lambda m: 1.23)
        assert [r.t for r in result.curve] == [1, 2, 3]
        assert all(r.metric == 1.23 for r in result.curve)
        assert all(r.messages == len(ds) for r in result.curve)

    def test_unknown_task_rejected(self):
        ds = synthetic_dataset(5, 6, seed=0, mean_ratings_per_user=3)
        with pytest.raises(ValueError, match="unknown task"):
            run_training(ds, make_hp(), 1, task="ranking")

    def test_unknown_transport_rejected(self):
        ds = synthetic_dataset(5, 6, seed=0, mean_ratings_per_user=3)
        with pytest.raises(ValueError, match="unknown transport"):
            run_training(ds, make_hp(), 1, transport="byte")
