import hashlib
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import bpr_errors, bpr_margin, build_dataset
from privmf import bpr
from privmf.bpr import bpr_step, population_iteration, sd_bpr_client_iteration, sigma_bar
from privmf.codec import FinishMessage, encode_updates, iter_messages
from privmf.data import RatingTriple, SplitSpec, split, synthetic_dataset
from privmf.protocol import Population, run_training
from privmf.randresp import PrivacyBudget
from privmf.rng import TAG_CLIENT_ROUND, derive_rng
from privmf.sgld import Hyperparams, learning_rate


def make_hp(k=3, eta0=0.1, gamma=0.6, seed=0, noise=False, lam=1e-12):
    lam_vec = np.full(k, lam)
    return Hyperparams(k, eta0, gamma, lam_vec, lam_vec, seed, noise_enabled=noise)


class TestMargin:
    def test_distance_between_scores(self):
        u = np.array([1.0, 1.0])
        assert bpr_margin(u, np.array([1.0, 1.0]), np.array([0.25, 0.25])) == pytest.approx(1.5)

    def test_identical_items_have_zero_margin(self):
        u = np.array([0.3, -0.4])
        v = np.array([1.0, 2.0])
        assert bpr_margin(u, v, v) == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u, a, b = rng.normal(size=(3, 4))
            assert bpr_margin(u, a, b) == pytest.approx(-bpr_margin(u, b, a), abs=1e-12)


class TestErrors:
    def test_zero_margin(self):
        assert bpr_errors(0.0) == (-0.5, 0.5)

    def test_known_value(self):
        e_pos, e_neg = bpr_errors(1.5)
        assert e_neg == pytest.approx(1.0 / (1.0 + math.exp(1.5)), rel=1e-12)
        assert e_pos == -e_neg

    def test_limits_without_overflow(self):
        assert bpr_errors(800.0) == (0.0, 0.0)
        e_pos, e_neg = bpr_errors(-800.0)
        assert e_pos == -1.0 and e_neg == 1.0

    def test_errors_sum_to_zero(self):
        for x in np.linspace(-20, 20, 41):
            e_pos, e_neg = bpr_errors(float(x))
            assert e_pos + e_neg == 0.0

    def test_sigma_bar_matches_reference(self):
        for x in (-5.0, -0.3, 0.0, 0.7, 12.0):
            assert sigma_bar(x) == pytest.approx(math.exp(-x) / (1 + math.exp(-x)), rel=1e-12)


def pair_step(u, v_pos, v_neg, eta, hp, noise=None):
    """``(du, dpos, dneg)``: ``bpr_step`` in each role, on copies of its
    scratch operands; both roles give the same ``du``."""
    positive = np.ones(v_pos.shape[:-1], dtype=bool)

    def step(own, other, role):
        u_rows = np.array(np.broadcast_to(u, own.shape))
        pre_drawn = None if noise is None else noise.copy()
        return bpr_step(u_rows, own.copy(), other.copy(), role, eta, hp, pre_drawn)

    du, dpos = step(v_pos, v_neg, positive)
    du_neg, dneg = step(v_neg, v_pos, ~positive)
    assert np.array_equal(du.view(np.uint64), du_neg.view(np.uint64))
    return du, dpos, dneg


def finite_difference_grad(loss, x, step=1e-6):
    grad = np.zeros_like(x)
    for i in range(len(x)):
        hi, lo = x.copy(), x.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (loss(hi) - loss(lo)) / (2 * step)
    return grad


class TestStep:
    def test_correctly_ranked_pair_gives_near_zero_deltas(self):
        hp = make_hp()
        u = np.array([10.0, 0.0, 0.0])
        v_pos = np.array([5.0, 0.0, 0.0])
        v_neg = np.array([-5.0, 0.0, 0.0])
        du, dpos, dneg = pair_step(u, v_pos, v_neg, 0.1, hp)
        for d in (du, dpos, dneg):
            assert np.all(np.abs(d) < 1e-8)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        k = 5
        for _ in range(20):
            lam_u = rng.uniform(0.01, 0.5, k)
            lam_v = rng.uniform(0.01, 0.5, k)
            hp = Hyperparams(k, 1.0, 0.0, lam_u, lam_v, 0, noise_enabled=False)
            u, v_pos, v_neg = rng.normal(size=(3, k))
            eta = 0.2

            def loss(uu, vp, vn):
                x = np.dot(uu, vp) - np.dot(uu, vn)
                return (
                    -math.log(1.0 / (1.0 + math.exp(-x)))
                    + 0.5 * np.dot(uu * lam_u, uu)
                    + 0.5 * np.dot(vp * lam_v, vp)
                    + 0.5 * np.dot(vn * lam_v, vn)
                )

            du, dpos, dneg = pair_step(u, v_pos, v_neg, eta, hp)
            np.testing.assert_allclose(
                du, -eta * finite_difference_grad(lambda x: loss(x, v_pos, v_neg), u), rtol=1e-4, atol=1e-9
            )
            np.testing.assert_allclose(
                dpos, -eta * finite_difference_grad(lambda x: loss(u, x, v_neg), v_pos), rtol=1e-4, atol=1e-9
            )
            np.testing.assert_allclose(
                dneg, -eta * finite_difference_grad(lambda x: loss(u, v_pos, x), v_neg), rtol=1e-4, atol=1e-9
            )

    def test_item_deltas_have_opposite_u_components(self):
        hp = make_hp()
        rng = np.random.default_rng(3)
        u, v_pos, v_neg = rng.normal(size=(3, 3))
        _, dpos, dneg = pair_step(u, v_pos, v_neg, 0.1, hp)
        assert np.allclose(dpos, -dneg, atol=1e-12)


class TestBlockSteps:
    """The population steps all its pairs as one block; its parity with the
    per-pair reference rests on these equalities."""

    @pytest.mark.parametrize("noise", [False, True])
    @pytest.mark.parametrize("k", [2, 4, 10, 50])
    def test_block_step_equals_stacked_pair_calls(self, noise, k):
        hp = make_hp(k=k, noise=noise, lam=0.03)
        data = np.random.default_rng(k)
        u = data.normal(size=k)
        own, other = data.normal(size=(2, 7, k))
        positive = data.random(7) < 0.5
        pre_drawn = data.standard_normal((7, 3, k)) if noise else None
        eta = 0.07
        block = bpr_step(
            np.tile(u, (7, 1)), own.copy(), other.copy(), positive, eta, hp,
            None if pre_drawn is None else pre_drawn.copy(),
        )
        rows = [
            bpr_step(u.copy(), own[i].copy(), other[i].copy(), positive[i], eta, hp,
                     None if pre_drawn is None else pre_drawn[i].copy())
            for i in range(7)
        ]
        for got, expected in zip(block, zip(*rows)):
            expected = np.stack(expected)
            assert got.shape == (7, k)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("positive", [True, False])
    def test_signed_zeros_match_the_textbook_step(self, positive):
        # equal item components and a -0.0 user entry: every zero keeps the
        # sign the textbook expressions give it
        hp = make_hp(k=3, lam=0.03)
        u = np.array([0.5, -0.0, 0.0])
        own, other = np.array([1.0, 2.0, -0.0]), np.array([-1.0, 2.0, -0.0])
        v_pos, v_neg = (own, other) if positive else (other, own)
        eta = 0.1
        s = float(sigma_bar(bpr_margin(u, v_pos, v_neg)))
        du = -eta * (s * (-v_pos + v_neg) + hp.lambda_u * u)
        d_own = -eta * ((-s if positive else s) * u + hp.lambda_v * own)
        got = bpr_step(u.copy(), own.copy(), other.copy(), positive, eta, hp)
        for a, b in zip(got, (du, d_own)):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_block_dimension_mismatch(self):
        hp = make_hp(k=3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            bpr_step(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((3, 3)), np.ones(2, bool), 0.1, hp)


def make_bpr_client(hp, n_items=10, items=(1, 4, 7), seed=42, cid=0):
    """A population of one, without privacy: client ``cid`` of a one-client
    data set, set up from master seed ``seed``, with ``u0`` its factors."""
    triples = [RatingTriple(cid, j, 1.0) for j in items]
    u0 = np.full((cid + 1, hp.k), 0.05)
    return Population(build_dataset(triples, cid + 1, n_items), u0, replace(hp, seed=seed), None), u0


class TestClientIteration:
    def test_disabled_privacy_matches_reference_round(self):
        hp = make_hp(k=2, eta0=0.3, seed=1)
        master = 42
        pop, u0 = make_bpr_client(hp, seed=master)
        v = np.random.default_rng(5).normal(size=(10, hp.k))
        u_before = u0[0].copy()
        update = population_iteration(pop, v, 1)
        assert list(update.item_ids) == [1, 4, 7]

        # reference: same send-set and pairing stream, plain numpy updates
        rng = derive_rng(master, TAG_CLIENT_ROUND, 0, 1)
        eta = learning_rate(1, hp)
        _ = rng.random(10)  # the send-set draw
        unrated = np.array([0, 2, 3, 5, 6, 8, 9])
        du_acc = np.zeros(hp.k)
        expected = []
        for j in (1, 4, 7):
            partner = int(unrated[rng.integers(len(unrated))])
            x = float(np.dot(u_before, v[j]) - np.dot(u_before, v[partner]))
            s = math.exp(-x) / (1.0 + math.exp(-x)) if x >= 0 else 1.0 / (1.0 + math.exp(x))
            du_acc += -eta * (s * (-v[j] + v[partner]) + hp.lambda_u * u_before)
            expected.append(-eta * (-s * u_before + hp.lambda_v * v[j]))
        np.testing.assert_array_equal(update.deltas, np.array(expected))
        np.testing.assert_array_equal(pop.u[0], u_before + du_acc / 3)
        np.testing.assert_array_equal(u0[0], u_before)

    def test_single_rated_item_sends_one_gradient(self):
        hp = make_hp(k=2, seed=2)
        pop, _ = make_bpr_client(hp, items=(4,), seed=9, cid=3)
        update = sd_bpr_client_iteration(pop, np.zeros((10, hp.k)), 1)
        assert len(update.item_ids) == 1 and update.item_ids[0] == 4
        assert list(iter_messages(encode_updates(update)))[-1] == FinishMessage(3)

    def test_unrated_selection_sends_negative_role_delta(self):
        hp = make_hp(k=2, eta0=0.2, seed=3)
        # force the send-set to pick only unrated items: at the no-budget
        # p = 0, q = 1 it is B', here flipped to the unrated set
        pop, _ = make_bpr_client(hp, items=(0,), seed=11)
        pop.bits_prime = ~pop.bits_prime
        update = sd_bpr_client_iteration(pop, np.random.default_rng(1).normal(size=(10, hp.k)), 1)
        assert list(update.item_ids) == list(range(1, 10))

    def test_all_items_rated_warns_and_skips(self, caplog):
        hp = make_hp(k=2, seed=4)
        pop, _ = make_bpr_client(hp, n_items=3, items=(0, 1, 2), seed=13)
        with caplog.at_level(logging.WARNING):
            update = population_iteration(pop, np.zeros((3, hp.k)), 1)
        assert len(update.item_ids) == 0 and update.deltas.shape == (0, hp.k)
        # counted in the simulator-side ledger, not logged per client round
        assert pop.partnerless_rounds.tolist() == [1] and not caplog.records
        # a run logs one line for all of them: user 0 rated every item
        triples = [RatingTriple(0, j, 1.0) for j in range(3)] + [RatingTriple(1, 0, 1.0)]
        with caplog.at_level(logging.WARNING):
            run_training(build_dataset(triples, 2, 3), hp, 3, task="one-class")
        partner_warnings = [r.getMessage() for r in caplog.records if "cannot sample a pair partner" in r.getMessage()]
        assert len(partner_warnings) == 1
        assert "3 client-round(s)" in partner_warnings[0] and "has rated every item" in partner_warnings[0]

    def test_noise_on_round_is_deterministic(self):
        hp = make_hp(k=3, eta0=0.2, seed=5, noise=True, lam=0.01)
        v = np.random.default_rng(2).normal(size=(10, hp.k))
        runs = []
        for _ in range(2):
            pop, _ = make_bpr_client(hp, items=(1, 4, 7), seed=17)
            pop.p[0], pop.q[0] = 0.5, 0.9
            update = population_iteration(pop, v, 2)
            runs.append((update, pop.u[0]))
        (a, u_a), (b, u_b) = runs
        assert len(a.item_ids) > 0
        assert np.array_equal(a.item_ids, b.item_ids)
        assert np.array_equal(a.deltas.view(np.uint64), b.deltas.view(np.uint64))
        assert np.array_equal(u_a.view(np.uint64), u_b.view(np.uint64))


def sha256(*arrays) -> str:
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


# round 3's item ids and deltas, and the final u and v, of three rounds on
# the benchmark's desk one-class set (eps_i = 4, per-item average), as the
# per-client ``rng.integers`` partner draws gave them; the transports agree.
# A BLAS whose dot sums in another order would move them.
DESK_ROUND_PINS = {
    (7, False): ("207e11b5bba69a3be5d810675458437d1224aa4bc3c2f444b9d9179a503f688a",
                 "cdea9691bcd1a7cabcba85b979f81c4be5fb7db97b41e29b23e7fc5a0f00cdf3"),
    (7, True): ("4bcf20e6223f53fdd3f3c1dc80372bdac5d42b56573b32d79a413163fc149f07",
                "6cfbea16f4794eb41e6e35f6dae34d660611730c5da4b1ca08830a3b92182cd4"),
    (1009, False): ("98151a84570c59db68b635f2e2ca496333d372f4ce895642797a10075ee61151",
                    "1165325d0dfe089791fec89c105a836500269217244f6f3fcccc5d96be9192a8"),
    (1009, True): ("48d0950b41145155af10b2d9a05103a0f680bca01c3f1ae1028c1e1e31442f65",
                   "981463e93cf33b7a430eb95fadedb022a9cca10300be0e9401d178adefa08b73"),
}


@pytest.mark.parametrize(
    "seed, noise, transport",
    [(seed, noise, transport) for seed in (7, 1009)
     for noise, transport in ((False, "memory"), (False, "bytes"), (True, "memory"))],
)
def test_desk_one_class_round_is_pinned(monkeypatch, seed, noise, transport):
    dataset = synthetic_dataset(200, 400, seed=seed, mean_ratings_per_user=40, signal=1.0)
    train, _ = split(dataset, SplitSpec("leave-one-out", seed=seed))
    hp = Hyperparams.with_gamma_priors(10, 10.0, 0.6, seed=seed, noise_enabled=noise)
    rounds = []

    def recording(pop, v, t):
        rounds.append(population_iteration(pop, v, t))
        return rounds[-1]

    monkeypatch.setattr(bpr, "population_iteration", recording)
    model = run_training(train, hp, 3, budget=PrivacyBudget(eps_i=4.0), task="one-class",
                         transport=transport, per_item_average=True).model
    third = rounds[2]
    assert (sha256(third.item_ids.astype("<i8"), third.deltas.astype("<f8")),
            sha256(model.u.astype("<f8"), model.v.astype("<f8"))) == DESK_ROUND_PINS[seed, noise]
