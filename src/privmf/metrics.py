"""Evaluation metrics and the input-perturbation baseline."""

from __future__ import annotations

import numpy as np

from .data import RatingDataset
from .sgld import FactorModel


def rmse(test: RatingDataset, model: FactorModel) -> float:
    """Root-mean-square prediction error over the test ratings."""
    if len(test) == 0:
        raise ValueError("empty test set")
    preds = np.einsum("ij,ij->i", model.u[test.users], model.v[test.items])
    return float(np.sqrt(np.mean((test.ratings - preds) ** 2)))


# (test row, item) pairs compared at once: bounds auc's temporaries
_AUC_BLOCK = 1 << 18


def _user_scores(model: FactorModel, users: np.ndarray) -> np.ndarray:
    """Every item's score for each of ``users``, one row per user, as one
    batched gemv: a ``matmul`` of ``v`` with each user's row as a ``(k, 1)``
    column, which numpy runs as one gemv per user, so each row is that
    user's own matvec ``v @ u``. One gemm of the stacked user rows differs
    in the last bits and can flip ties."""
    return np.matmul(model.v, model.u[users][:, :, None])[..., 0]


def auc(test: RatingDataset, train: RatingDataset, model: FactorModel) -> float:
    """Leave-one-out ranking quality.

    For each test user each held-out rated item competes against every
    other item the user did not rate in train; the score is the fraction
    ranked strictly below the positive, ties counting one half. A held-out
    rating with no such item is skipped; if every one is, ``ValueError``.

    Blocks of test users are scored at once (``_user_scores``), one row
    per test row in ``test.order``.
    """
    users = np.array(test.active_users(), dtype=np.int64)
    counts = np.diff(test.indptr)[users]
    per_block = max(1, _AUC_BLOCK // (test.n_items * int(counts.max(initial=1))))
    ratios = []
    for lo in range(0, len(users), per_block):
        block = users[lo : lo + per_block]
        scores = _user_scores(model, block)
        local = np.full(train.n_users, -1)  # user id -> block position, -1 outside
        local[block] = np.arange(len(block))
        known = local[train.users]
        candidates = np.ones(scores.shape, dtype=bool)
        candidates[known[known >= 0], train.items[known >= 0]] = False
        # one row per test row, in test.order: the positive is never its own negative
        owner = np.repeat(np.arange(len(block)), counts[lo : lo + per_block])
        rows = np.arange(len(owner))
        positives = test.items[test.order[test.indptr[block[0]] : test.indptr[block[-1] + 1]]]
        negatives = candidates[owner]
        negatives[rows, positives] = False
        row_scores = scores[owner]
        pos_scores = row_scores[rows, positives][:, None]
        less = np.count_nonzero(negatives & (row_scores < pos_scores), axis=1)
        ties = np.count_nonzero(negatives & (row_scores == pos_scores), axis=1)
        n_neg = np.count_nonzero(negatives, axis=1)
        ratios.append((less + 0.5 * ties)[n_neg > 0] / n_neg[n_neg > 0])
    per_row_auc = np.concatenate([np.empty(0), *ratios])
    if not per_row_auc.size:
        raise ValueError("no held-out rating has an unrated item to rank against: each test "
                         "user rated every other item in train")
    return float(np.mean(per_row_auc))


def isgld_perturb(
    train: RatingDataset,
    eps: float,
    rng: np.random.Generator,
    clamp: bool = True,
) -> RatingDataset:
    """Value-privacy baseline: Laplace noise added to every rating.

    The noise scale is (score range width) / eps; perturbed values are
    clamped back into the declared range. Which (user, item) pairs exist
    is untouched. ``clamp=False`` exposes the raw perturbed values for
    distribution checks.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    lo, hi = train.score_range
    scale = (hi - lo) / eps
    values = train.ratings + rng.laplace(0.0, scale, size=len(train))
    if clamp:
        return train.with_ratings(np.clip(values, lo, hi), train.score_range)
    return train.with_ratings(values, (-np.inf, np.inf))
