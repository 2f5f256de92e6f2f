import numpy as np
import pytest

from oracles import build_dataset, predict, rating_error
from privmf.data import RatingTriple
from privmf.metrics import rmse
from privmf.sgld import (
    FactorModel,
    Hyperparams,
    centralized_train,
    init_model,
    item_step,
    learning_rate,
    prediction_errors,
    reduce_item_deltas,
    user_step,
)


def make_hp(k=2, eta0=0.1, gamma=0.6, seed=0, noise=False, lam=1e-8):
    lam_vec = np.full(k, lam)
    return Hyperparams(k, eta0, gamma, lam_vec, lam_vec, seed, noise_enabled=noise)


class TestLearningRate:
    def test_first_iteration_is_eta0(self):
        hp = make_hp(eta0=0.37)
        assert learning_rate(1, hp) == 0.37

    def test_decay_value(self):
        # 0.5 / 100**0.6 evaluated directly
        hp = make_hp(eta0=0.5, gamma=0.6)
        assert learning_rate(100, hp) == pytest.approx(0.031547867224009662, rel=1e-12)

    def test_zero_gamma_is_constant(self):
        hp = make_hp(eta0=0.25, gamma=0.0)
        assert [learning_rate(t, hp) for t in (1, 7, 1000)] == [0.25, 0.25, 0.25]

    def test_rejects_t_zero(self):
        with pytest.raises(ValueError):
            learning_rate(0, make_hp())


class TestPredict:
    def test_dot_product(self):
        assert predict(np.array([1.0, 0.0]), np.array([3.0, 5.0])) == 3.0

    def test_zero_vector(self):
        assert predict(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_fractional(self):
        assert predict(np.array([0.5, 0.5]), np.array([2.0, 4.0])) == 3.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict(np.zeros(2), np.zeros(3))


class TestRatingError:
    def test_positive_error(self):
        u, v = np.array([1.0, 1.0]), np.array([1.5, 2.0])
        assert rating_error(5.0, u, v) == pytest.approx(1.5)

    def test_zero_error(self):
        u, v = np.array([2.0]), np.array([2.0])
        assert rating_error(4.0, u, v) == 0.0

    def test_negative_error(self):
        u, v = np.array([2.0]), np.array([2.0])
        assert rating_error(1.0, u, v) == -3.0


class TestSteps:
    def test_user_step_zero_everything(self):
        hp = make_hp()
        rng = np.random.default_rng(0)
        delta = user_step(np.zeros(2), 0.0, np.array([1.0, 2.0]), 0.1, hp, rng)
        assert np.allclose(delta, 0.0)

    def test_user_step_value(self):
        hp = make_hp(lam=1e-12)
        delta = user_step(np.zeros(2), 1.0, np.array([1.0, 0.0]), 0.1, hp, np.random.default_rng(0))
        assert delta == pytest.approx([0.1, 0.0], abs=1e-12)

    def test_item_step_value(self):
        hp = make_hp(lam=1e-12)
        delta = item_step(np.zeros(2), 2.0, np.array([1.0, 1.0]), 0.05, hp, np.random.default_rng(0))
        assert delta == pytest.approx([0.1, 0.1], abs=1e-12)

    def test_same_rng_seed_same_noise(self):
        hp = make_hp(noise=True)
        args = (np.array([0.3, -0.2]), 1.2, np.array([0.5, 0.1]), 0.07, hp)
        d1 = item_step(*args, np.random.default_rng(42))
        d2 = item_step(*args, np.random.default_rng(42))
        assert np.array_equal(d1, d2)

    def test_noise_variance_matches_eta(self):
        # sample variance of each coordinate of (noisy - clean) should be eta_t
        hp = make_hp(k=2, noise=True)
        clean_hp = make_hp(k=2, noise=False)
        eta = 0.04
        u, e, v = np.array([0.3, -0.2]), 1.5, np.array([0.5, 0.1])
        clean = user_step(u, e, v, eta, clean_hp, np.random.default_rng(0))
        rng = np.random.default_rng(7)
        draws = np.array([user_step(u, e, v, eta, hp, rng) - clean for _ in range(10_000)])
        assert draws.var(axis=0) == pytest.approx(eta, rel=0.05)
        assert draws.mean(axis=0) == pytest.approx(0.0, abs=4 * np.sqrt(eta / 10_000))


class TestBlockSteps:
    """The distributed and centralized paths draw a round's steps as one
    block; their bitwise parity rests on these equalities."""

    def test_block_steps_equal_stacked_row_calls(self):
        hp = make_hp(k=4, noise=True, lam=0.03)
        data = np.random.default_rng(1)
        u = data.normal(size=4)
        v_rows = data.normal(size=(7, 4))
        errs = data.normal(size=7)
        eta = 0.07

        def assert_same(block_call, row_call):
            block_rng, row_rng = np.random.default_rng(5), np.random.default_rng(5)
            block = block_call(block_rng)
            rows = np.stack([row_call(i, row_rng) for i in range(7)])
            assert block.shape == (7, 4)
            assert np.array_equal(block.view(np.uint64), rows.view(np.uint64))
            assert block_rng.random() == row_rng.random()  # same stream position

        assert_same(
            lambda r: user_step(u, errs, v_rows, eta, hp, r),
            lambda i, r: user_step(u, errs[i], v_rows[i], eta, hp, r),
        )
        assert_same(
            lambda r: item_step(v_rows, errs, u, eta, hp, r),
            lambda i, r: item_step(v_rows[i], errs[i], u, eta, hp, r),
        )

    @pytest.mark.parametrize("k", [1, 3, 10, 16, 17, 50])
    def test_prediction_errors_equal_per_row_dots(self, k):
        # np.vecdot must round each row as np.dot does, on both sides of
        # BLAS's unrolled-kernel threshold
        data = np.random.default_rng(k)
        u = data.normal(size=k)
        v = data.normal(size=(30, k)) * 10.0 ** data.integers(-4, 4, size=(30, 1))
        items = np.sort(data.choice(30, size=12, replace=False))
        ratings = data.uniform(1, 5, size=12)
        expected = np.array([r - np.dot(u, v[j]) for j, r in zip(items, ratings)])
        errs = prediction_errors(u, v, items, ratings)
        assert np.array_equal(errs.view(np.uint64), expected.view(np.uint64))


def reduce_blocks(blocks, n_items, k):
    """``reduce_item_deltas`` of the rows of ``(ids, deltas)`` blocks."""
    ids = np.concatenate([np.empty(0, np.int64), *(np.asarray(i, dtype=np.int64) for i, _ in blocks)])
    deltas = np.concatenate([np.empty((0, k)), *(np.reshape(rows, (len(i), k)) for i, rows in blocks)])
    return reduce_item_deltas(ids, deltas, n_items)


def sorted_loop_reduce(blocks, n_items, k):
    """The reduction as a sort of (item, delta bytes) and a running sum."""
    pairs = [(int(j), d) for ids, deltas in blocks for j, d in zip(ids, deltas)]
    acc = np.zeros((n_items, k))
    counts = np.zeros(n_items, dtype=np.int64)
    for item, delta in sorted(pairs, key=lambda p: (p[0], p[1].tobytes())):
        acc[item] += delta
        counts[item] += 1
    return acc, counts


def random_blocks(rng, n_items=6, k=3):
    blocks = []
    for m in (0, 9, 1, 23, 14):
        ids = rng.integers(0, n_items, size=m)
        deltas = rng.normal(size=(m, k)) * 10.0 ** rng.integers(-8, 8, size=(m, 1))
        blocks.append((ids, deltas))
    # repeated rows and signed zeros
    repeated = [[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [0.0, -0.0, 1.0], [3.0, 1e300, -1e-300]]
    blocks.append((np.array([2, 2, 2, 5]) % n_items, np.array(repeated)[:, :k]))
    # ties in column 0, out of canonical order, whose later columns sum
    # differently in any other order; 1.5 * 2**16 and 1.5 differ in column 0
    # only in the exponent bits that the packed key of a small n_items drops
    item = int(rng.integers(0, n_items))
    tied = [[1.5, 1e16, 3.0], [1.5, 1.0, -7.0], [1.5, -1e16, 1e-9], [1.5 * 2**16, 1.0, 1e16], [1.5, 1.0, -7.0]]
    blocks.append((np.full(5, item), np.array(tied)[:, :k]))
    return blocks


def signed_zero_blocks(k=3):
    """Every sign pattern of zeros in every column, twice, for items 0 and 1."""
    signs = np.array(np.meshgrid(*[[0.0, -0.0]] * k)).reshape(k, -1).T
    rows = np.concatenate([signs, signs[::-1]])
    return [(np.zeros(len(rows), dtype=np.int64), rows), (np.ones(len(rows), dtype=np.int64), -rows)]


def assert_reduces_like_oracle(blocks, n_items, k):
    sums, counts = reduce_blocks(blocks, n_items, k)
    ref_sums, ref_counts = sorted_loop_reduce(blocks, n_items, k)
    assert sums.shape == (n_items, k) and counts.shape == (n_items,)
    assert np.array_equal(sums.view(np.uint64), ref_sums.view(np.uint64))
    assert np.array_equal(counts, ref_counts)
    # and under any permutation of the rows, across and within blocks
    rng = np.random.default_rng(len(blocks))
    ids = np.concatenate([np.empty(0, np.int64), *(np.asarray(b[0]) for b in blocks)])
    deltas = np.concatenate([np.empty((0, k)), *(b[1] for b in blocks)])
    perm = rng.permutation(len(ids))
    shuffled = [(ids[rows], deltas[rows]) for rows in np.array_split(perm, 3)]
    other_sums, other_counts = reduce_blocks(shuffled, n_items, k)
    assert np.array_equal(sums.view(np.uint64), other_sums.view(np.uint64))
    assert np.array_equal(counts, other_counts)


class TestReduceItemDeltas:
    def test_matches_sorted_loop_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            blocks = random_blocks(rng)
            sums, counts = reduce_blocks(blocks, 6, 3)
            ref_sums, ref_counts = sorted_loop_reduce(blocks, 6, 3)
            assert np.array_equal(sums.view(np.uint64), ref_sums.view(np.uint64))
            assert np.array_equal(counts, ref_counts)

    def test_invariant_to_shuffling_rows_across_blocks(self):
        rng = np.random.default_rng(12)
        blocks = random_blocks(rng)
        ids = np.concatenate([b[0] for b in blocks])
        deltas = np.concatenate([b[1] for b in blocks])
        sums, counts = reduce_blocks(blocks, 6, 3)
        for _ in range(5):
            perm = rng.permutation(len(ids))
            cuts = np.sort(rng.choice(np.arange(1, len(ids)), size=4, replace=False))
            shuffled = [(ids[rows], deltas[rows]) for rows in np.split(perm, cuts)]
            other_sums, other_counts = reduce_blocks(shuffled, 6, 3)
            assert np.array_equal(sums.view(np.uint64), other_sums.view(np.uint64))
            assert np.array_equal(counts, other_counts)

    @pytest.mark.parametrize("n_items", [1, 2, 6, 255, 256, 2**20 + 1])
    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_oracle_at_every_packing_shift(self, n_items, k):
        # the packed key keeps 64 - s bits of column 0, s = bits of n_items - 1
        rng = np.random.default_rng(n_items + k)
        assert_reduces_like_oracle(random_blocks(rng, n_items, k), n_items, k)

    def test_rows_tied_in_column_0(self):
        rng = np.random.default_rng(13)
        col0 = np.repeat(rng.normal(size=4), 8)
        deltas = np.column_stack([col0, rng.normal(size=(32, 2)) * 10.0 ** rng.integers(-12, 12, size=(32, 2))])
        assert_reduces_like_oracle([(rng.integers(0, 2, size=32), deltas)], 2, 3)

    def test_fully_duplicate_rows(self):
        rows = np.random.default_rng(14).normal(size=(3, 4))
        blocks = [(np.array([1, 1, 1]), rows), (np.array([1, 1, 1, 0]), np.concatenate([rows[::-1], rows[:1]]))]
        assert_reduces_like_oracle(blocks, 2, 4)

    def test_signed_zeros_in_every_column(self):
        assert_reduces_like_oracle(signed_zero_blocks(3), 2, 3)
        assert_reduces_like_oracle([(ids + 3, rows) for ids, rows in signed_zero_blocks(3)], 300, 3)

    def test_one_item_receives_every_row(self):
        rng = np.random.default_rng(15)
        blocks = [(np.full(m, 4), rng.normal(size=(m, 3)) * 10.0 ** rng.integers(-8, 8, size=(m, 1))) for m in (50, 0, 31)]
        sums, counts = reduce_blocks(blocks, 9, 3)
        assert counts.tolist() == [0, 0, 0, 0, 81, 0, 0, 0, 0]
        assert_reduces_like_oracle(blocks, 9, 3)

    def test_empty_round_and_empty_blocks(self):
        for blocks in ([], [(np.empty(0, np.int64), np.empty((0, 3)))], [([], np.empty((0, 3)))] * 2):
            sums, counts = reduce_blocks(blocks, 4, 3)
            assert np.array_equal(sums.view(np.uint64), np.zeros((4, 3)).view(np.uint64))
            assert counts.tolist() == [0, 0, 0, 0]
        sums, counts = reduce_blocks([], 0, 3)
        assert sums.shape == (0, 3) and counts.shape == (0,)

    def test_leaves_its_arguments_unchanged(self):
        rng = np.random.default_rng(16)
        blocks = random_blocks(rng)
        ids = np.concatenate([b[0] for b in blocks])
        deltas = np.concatenate([b[1] for b in blocks])
        ids_before, deltas_before = ids.copy(), deltas.copy()
        first = reduce_item_deltas(ids, deltas, 6)
        assert np.array_equal(ids, ids_before)
        assert np.array_equal(deltas.view(np.uint64), deltas_before.view(np.uint64))
        again = reduce_item_deltas(ids, deltas, 6)
        for a, b in zip(first, again):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        # read-only arguments, as a round's arrays are, reduce alike
        ids.setflags(write=False)
        deltas.setflags(write=False)
        sums, counts = reduce_item_deltas(ids, deltas, 6)
        assert np.array_equal(sums.view(np.uint64), first[0].view(np.uint64))
        assert np.array_equal(counts, first[1])

    @pytest.mark.parametrize("bad", [-1, 5, 2**40])
    def test_rejects_ids_outside_the_item_range(self, bad):
        blocks = [(np.array([0, 4]), np.zeros((2, 2))), (np.array([1, bad, 2]), np.ones((3, 2)))]
        with pytest.raises(ValueError, match=f"item id {bad} outside \\[0, 5\\)"):
            reduce_blocks(blocks, 5, 2)


def finite_difference_grad(loss, x, step=1e-6):
    grad = np.zeros_like(x)
    for i in range(len(x)):
        hi, lo = x.copy(), x.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (loss(hi) - loss(lo)) / (2 * step)
    return grad


class TestGradientOracle:
    def test_steps_match_finite_differences(self):
        # delta must equal -eta * grad of 0.5*e^2 + 0.5*x' diag(lam) x
        rng = np.random.default_rng(123)
        k = 5
        for _ in range(20):
            lam_u = rng.uniform(0.01, 0.5, k)
            lam_v = rng.uniform(0.01, 0.5, k)
            hp = Hyperparams(k, 1.0, 0.0, lam_u, lam_v, 0, noise_enabled=False)
            u, v = rng.normal(size=k), rng.normal(size=k)
            r = rng.normal()
            eta = 0.3

            def loss_u(x):
                e = r - np.dot(x, v)
                return 0.5 * e * e + 0.5 * np.dot(x * lam_u, x)

            def loss_v(x):
                e = r - np.dot(u, x)
                return 0.5 * e * e + 0.5 * np.dot(x * lam_v, x)

            e = rating_error(r, u, v)
            du = user_step(u, e, v, eta, hp, np.random.default_rng(0))
            dv = item_step(v, e, u, eta, hp, np.random.default_rng(0))
            np.testing.assert_allclose(du, -eta * finite_difference_grad(loss_u, u), rtol=1e-4, atol=1e-9)
            np.testing.assert_allclose(dv, -eta * finite_difference_grad(loss_v, v), rtol=1e-4, atol=1e-9)


def rank_one_dataset(n_users=20, n_items=15, seed=5):
    rng = np.random.default_rng(seed)
    u_true = rng.uniform(0.5, 1.5, n_users)
    v_true = rng.uniform(0.5, 1.5, n_items)
    triples = [
        RatingTriple(i, j, float(u_true[i] * v_true[j]))
        for i in range(n_users)
        for j in range(n_items)
    ]
    return build_dataset(triples, n_users, n_items, score_range=(0.0, 10.0))


class TestCentralizedTrain:
    def test_rank_one_convergence(self):
        train = rank_one_dataset()
        hp = Hyperparams(1, 1.0, 0.0, np.array([1e-6]), np.array([1e-6]), 3, noise_enabled=False)
        model = centralized_train(train, hp, 200)
        assert rmse(train, model) < 0.05

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            centralized_train(rank_one_dataset(), make_hp(k=1), 0)

    def test_single_round_changes_model(self):
        train = rank_one_dataset()
        hp = Hyperparams(1, 1.0, 0.0, np.array([1e-6]), np.array([1e-6]), 3, noise_enabled=False)
        before = init_model(train.n_users, train.n_items, hp)
        after = centralized_train(train, hp, 1)
        assert not np.array_equal(before.v, after.v)

    def test_deterministic_given_seed(self):
        train = rank_one_dataset()
        hp = Hyperparams(2, 0.5, 0.6, np.full(2, 0.01), np.full(2, 0.01), 9, noise_enabled=True)
        m1 = centralized_train(train, hp, 5)
        m2 = centralized_train(train, hp, 5)
        assert np.array_equal(m1.u, m2.u) and np.array_equal(m1.v, m2.v)


class TestHyperparams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            make_hp(k=0)
        with pytest.raises(ValueError):
            Hyperparams(2, -1.0, 0.6, np.ones(2), np.ones(2), 0)
        with pytest.raises(ValueError):
            Hyperparams(2, 1.0, 0.6, np.zeros(2), np.ones(2), 0)

    def test_gamma_priors_reproducible(self):
        a = Hyperparams.with_gamma_priors(4, 0.1, 0.6, seed=11)
        b = Hyperparams.with_gamma_priors(4, 0.1, 0.6, seed=11)
        assert np.array_equal(a.lambda_u, b.lambda_u)
        assert np.array_equal(a.lambda_v, b.lambda_v)
        assert np.all(a.lambda_u > 0)
        # Gamma(1, rate=100) has mean 0.01
        many = Hyperparams.with_gamma_priors(2000, 0.1, 0.6, seed=1)
        assert many.lambda_u.mean() == pytest.approx(0.01, rel=0.15)

    def test_prediction_errors_matches_scalar_path(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=3)
        v = rng.normal(size=(10, 3))
        items = np.array([1, 4, 7])
        ratings = np.array([1.0, 2.0, 3.0])
        errs = prediction_errors(u, v, items, ratings)
        expected = [rating_error(r, u, v[j]) for j, r in zip(items, ratings)]
        assert np.array_equal(errs, np.array(expected))
