import math

import numpy as np
import pytest

from oracles import auc_per_pair, build_dataset
from privmf import metrics
from privmf.data import RatingTriple, synthetic_dataset, SplitSpec, split
from privmf.metrics import auc, isgld_perturb, rmse
from privmf.sgld import FactorModel


def model_from_scores(scores):
    """Model whose u.v products equal the given (n_users, n_items) table."""
    scores = np.asarray(scores, dtype=float)
    return FactorModel(np.eye(scores.shape[0]), scores.T)


class TestRmse:
    def test_perfect_predictions(self):
        ds = build_dataset([RatingTriple(0, 0, 2.0), RatingTriple(0, 1, 4.0)], 1, 2)
        model = model_from_scores([[2.0, 4.0]])
        assert rmse(ds, model) == 0.0

    def test_single_error(self):
        ds = build_dataset([RatingTriple(0, 0, 4.0)], 1, 1)
        model = model_from_scores([[3.0]])
        assert rmse(ds, model) == 1.0

    def test_two_errors(self):
        ds = build_dataset([RatingTriple(0, 0, 4.0), RatingTriple(0, 1, 5.0)], 1, 2, score_range=(1, 5))
        model = model_from_scores([[1.0, 1.0]])
        assert rmse(ds, model) == pytest.approx(math.sqrt(12.5), rel=1e-12)

    def test_empty_test_rejected(self):
        ds = build_dataset([], 1, 1)
        with pytest.raises(ValueError):
            rmse(ds, model_from_scores([[0.0]]))


class TestAuc:
    def test_perfect_ranking(self):
        train = build_dataset([RatingTriple(0, 0, 5.0)], 1, 5)
        test = build_dataset([RatingTriple(0, 1, 5.0)], 1, 5)
        model = model_from_scores([[9.0, 8.0, 1.0, 1.0, 1.0]])
        assert auc(test, train, model) == 1.0

    def test_counting_with_tie(self):
        # 9 negatives: positive above 7, tied with 1, below 1 -> (7 + 0.5) / 9
        train = build_dataset([], 1, 10)
        test = build_dataset([RatingTriple(0, 0, 5.0)], 1, 10)
        scores = [5.0, 6.0, 5.0, 4.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.25]
        model = model_from_scores([scores])
        assert auc(test, train, model) == pytest.approx((7 + 0.5) / 9, rel=1e-12)

    def test_null_model_near_half(self):
        rng = np.random.default_rng(0)
        n_users, n_items = 60, 80
        train = build_dataset([], n_users, n_items)
        test = build_dataset([RatingTriple(u, int(rng.integers(n_items)), 5.0) for u in range(n_users)], n_users, n_items)
        model = FactorModel(rng.normal(size=(n_users, 4)), rng.normal(size=(n_items, 4)))
        value = auc(test, train, model)
        sigma = 1.0 / math.sqrt(12 * n_users)  # per-user AUC is roughly U(0,1) under the null
        assert abs(value - 0.5) < 3 * sigma

    def test_user_without_negatives_skipped(self):
        train = build_dataset([RatingTriple(0, j, 3.0) for j in range(4)], 2, 5)
        test = build_dataset([RatingTriple(0, 4, 5.0), RatingTriple(1, 0, 4.0)], 2, 5)
        model = model_from_scores([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]])
        value = auc(test, train, model)  # user 0 has no candidate negatives
        assert value == 1.0


    @pytest.mark.parametrize(
        "case", [*range(6), "no-negatives-mixed", "absent-from-train", "desk-leave-one-out"]
    )
    def test_matches_per_pair_mask_loop(self, case):
        test, train, model = auc_case(case)
        assert auc(test, train, model) == auc_per_pair(test, train, model)

    @pytest.mark.parametrize("k", [1, 3, 10, 50])
    @pytest.mark.parametrize("users_per_block", [1, 3, 7])
    def test_batched_scores_are_per_user_matvecs(self, monkeypatch, k, users_per_block):
        # integer factors tie often; float item rows repeated four times tie
        # exactly only where every user's scores of them round alike, which a
        # product of the stacked user rows can break in the last bits
        ds = synthetic_dataset(45, 120, seed=k, mean_ratings_per_user=6)
        train, test = split(ds, SplitSpec("random-holdout", 0.3, seed=k))
        rng = np.random.default_rng(k)
        integer = FactorModel(rng.integers(-2, 3, size=(45, k)).astype(float),
                              rng.integers(-2, 3, size=(120, k)).astype(float))
        floats = FactorModel(rng.normal(size=(45, k)), np.repeat(rng.normal(size=(30, k)), 4, axis=0))
        counts = np.diff(test.indptr)
        # blocks of ``users_per_block`` test users, an odd size, the last one shorter
        monkeypatch.setattr(metrics, "_AUC_BLOCK", users_per_block * test.n_items * int(counts.max()))
        for model in (integer, floats):
            assert auc(test, train, model) == auc_per_pair(test, train, model)

    @pytest.mark.parametrize("k", [1, 3, 10, 50])
    @pytest.mark.parametrize("n_users", [1, 3, 7, 33])
    def test_user_scores_equal_per_user_matvecs(self, k, n_users):
        rng = np.random.default_rng(k * 100 + n_users)
        users = rng.integers(0, 40, size=n_users)
        for model in (
            FactorModel(rng.normal(size=(40, k)), rng.normal(size=(1682, k))),
            FactorModel(rng.integers(-2, 3, size=(40, k)).astype(float), rng.integers(-2, 3, size=(97, k)).astype(float)),
        ):
            expected = np.stack([model.v @ model.u[user] for user in users.tolist()])
            assert np.array_equal(metrics._user_scores(model, users).view(np.uint64), expected.view(np.uint64))


def auc_case(case):
    """(test, train, model) for the per-pair reference; coarse scores make ties."""
    rng = np.random.default_rng(0)
    if isinstance(case, int):
        # several positives per user
        ds = synthetic_dataset(20, 30, seed=case, mean_ratings_per_user=8)
        train, test = split(ds, SplitSpec("random-holdout", 0.3, seed=case))
        rng = np.random.default_rng(case)
        return test, train, FactorModel(np.round(rng.normal(size=(20, 2))), np.round(rng.normal(size=(30, 2))))
    if case == "desk-leave-one-out":
        ds = synthetic_dataset(200, 400, seed=7, mean_ratings_per_user=40, signal=1.0)
        train, test = split(ds, SplitSpec("leave-one-out", seed=7))
        return test, train, FactorModel(rng.normal(size=(200, 10)), rng.normal(size=(400, 10)))
    n_users, n_items = 4, 12
    model = FactorModel(np.round(rng.normal(size=(n_users, 2))), np.round(rng.normal(size=(n_items, 2))))
    # user 2 rated every item but its test item in train: no candidate negatives
    train = [RatingTriple(0, 3, 4.0), RatingTriple(1, 0, 4.0), RatingTriple(1, 5, 2.0)]
    train += [RatingTriple(2, j, 3.0) for j in range(1, n_items)]
    test = [RatingTriple(0, 7, 5.0), RatingTriple(1, 2, 5.0), RatingTriple(1, 9, 1.0), RatingTriple(2, 0, 5.0)]
    if case == "absent-from-train":
        # user 3 has no train rows: every other item is a candidate negative
        test += [RatingTriple(3, 4, 5.0), RatingTriple(3, 11, 2.0)]
    else:
        train += [RatingTriple(3, 6, 1.0)]
        test += [RatingTriple(3, 8, 5.0)]
    return build_dataset(test, n_users, n_items), build_dataset(train, n_users, n_items), model


class TestIsgld:
    def test_support_preserved_and_clamped(self):
        train = synthetic_dataset(20, 30, seed=1, mean_ratings_per_user=6)
        perturbed = isgld_perturb(train, eps=2.0, rng=np.random.default_rng(0))
        assert [(t.user_id, t.item_id) for t in perturbed.triples] == [
            (t.user_id, t.item_id) for t in train.triples
        ]
        lo, hi = train.score_range
        assert all(lo <= t.rating <= hi for t in perturbed.triples)

    def test_large_eps_changes_little(self):
        train = synthetic_dataset(10, 15, seed=2, mean_ratings_per_user=5)
        perturbed = isgld_perturb(train, eps=1e9, rng=np.random.default_rng(1))
        diffs = [abs(a.rating - b.rating) for a, b in zip(train.triples, perturbed.triples)]
        assert max(diffs) < 1e-6

    def test_preclamp_noise_scale(self):
        # eps=2 on a width-4 range gives Laplace scale b=2; median |noise| = b ln 2
        rng = np.random.default_rng(3)
        n = 100_000
        triples = [RatingTriple(0, j, 3.0) for j in range(n)]
        train = build_dataset(triples, 1, n, score_range=(1.0, 5.0))
        raw = isgld_perturb(train, eps=2.0, rng=rng, clamp=False)
        noise = np.array([t.rating for t in raw.triples]) - 3.0
        assert np.median(np.abs(noise)) == pytest.approx(2.0 * math.log(2.0), rel=0.05)

    def test_rejects_bad_eps(self):
        train = synthetic_dataset(5, 5, seed=0, mean_ratings_per_user=3)
        with pytest.raises(ValueError):
            isgld_perturb(train, eps=0.0, rng=np.random.default_rng(0))
