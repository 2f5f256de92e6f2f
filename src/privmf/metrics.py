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


def auc(test: RatingDataset, train: RatingDataset, model: FactorModel) -> float:
    """Leave-one-out ranking quality.

    For each test user each held-out rated item competes against every
    other item the user did not rate in train; the score is the fraction
    ranked strictly below the positive, ties counting one half. Users with
    no candidate negatives are skipped.
    """
    per_user_auc = []
    for user in test.active_users():
        positives, _ = test.user_items(user)
        scores = model.v @ model.u[user]
        candidates = np.ones(test.n_items, dtype=bool)
        candidates[train.user_items(user)[0]] = False
        for pos_item in positives:
            # the positive itself is never its own negative
            was_candidate = candidates[pos_item]
            candidates[pos_item] = False
            neg_scores = scores[candidates]
            candidates[pos_item] = was_candidate
            if neg_scores.size == 0:
                continue
            pos_score = scores[pos_item]
            wins = np.sum(neg_scores < pos_score) + 0.5 * np.sum(neg_scores == pos_score)
            per_user_auc.append(wins / neg_scores.size)
    if not per_user_auc:
        raise ValueError("no test user had candidate negatives")
    return float(np.mean(per_user_auc))


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
