"""The benchmark's workloads: how each builds its inputs from a seed and
how it trains and scores a model.

Every workload is a closed loop: one simulated training session runs its
rounds back to back in one process, each round waiting for the previous
one. Load is set by users x items x send-set size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from privmf import data, metrics, protocol
from privmf.randresp import PrivacyBudget
from privmf.sgld import Hyperparams


@dataclass
class Inputs:
    train: data.RatingDataset
    test: data.RatingDataset
    hp: Hyperparams
    n_ratings: int


@dataclass(frozen=True)
class Workload:
    name: str
    task: str  # "numerical" (scored by RMSE) or "one-class" (scored by 1 - AUC)
    transport: str
    budget: PrivacyBudget
    per_item_average: bool
    session_rounds: int  # rounds in one training session (one learning curve)
    build: Callable[[int], Inputs]

    def error(self, inputs: Inputs, model) -> float:
        """Model error after a round; lower is better on both tasks."""
        if self.task == "numerical":
            return metrics.rmse(inputs.test, model)
        return 1.0 - metrics.auc(inputs.test, inputs.train, model)

    def train(self, inputs: Inputs, n_rounds: int, transport: str | None = None, on_round=None):
        """One ``protocol.run_training`` session, scored after every round."""

        def evaluator(model):
            err = self.error(inputs, model)
            if on_round is not None:
                on_round()
            return err

        return protocol.run_training(
            inputs.train,
            inputs.hp,
            n_rounds,
            budget=self.budget,
            task=self.task,
            transport=transport or self.transport,
            evaluator=evaluator,
            per_item_average=self.per_item_average,
        )


def _train_mean(train: data.RatingDataset) -> float:
    return float(np.mean([t.rating for t in train.triples]))


def _desk_dataset(seed: int) -> data.RatingDataset:
    # the acceptance suite's offline desk set, drawn from the workload seed
    return data.synthetic_dataset(200, 400, seed=seed, mean_ratings_per_user=40, signal=1.0)


def _build_desk_rmse(seed: int) -> Inputs:
    dataset = _desk_dataset(seed)
    train, test = data.split(dataset, data.SplitSpec("random-holdout", 0.2, seed=seed))
    hp = Hyperparams.with_gamma_priors(
        10, 0.5, 0.6, seed=seed, noise_enabled=False, init_prediction=_train_mean(train)
    )
    return Inputs(train, test, hp, len(dataset))


def _build_desk_auc(seed: int) -> Inputs:
    dataset = _desk_dataset(seed)
    train, test = data.split(dataset, data.SplitSpec("leave-one-out", seed=seed))
    hp = Hyperparams.with_gamma_priors(10, 10.0, 0.6, seed=seed, noise_enabled=False)
    return Inputs(train, test, hp, len(dataset))


def _build_ml100k_shape(seed: int) -> Inputs:
    # MovieLens-100K's shape; the file round trip stands in for reading u.data
    full = data.synthetic_dataset(943, 1682, seed=seed, mean_ratings_per_user=106)
    dataset = data.parse_ratings(data.format_ratings(full))
    train, test = data.split(dataset, data.SplitSpec("random-holdout", 0.2, seed=seed))
    # the experiment defaults for the numerical task, started at the train mean
    hp = Hyperparams.with_gamma_priors(
        50, 5e-6, 0.6, seed=seed, noise_enabled=True, init_prediction=_train_mean(train)
    )
    return Inputs(train, test, hp, len(dataset))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-rmse-private",
            task="numerical",
            transport="memory",
            budget=PrivacyBudget(eps_i=4.0, eps_g=4.0),
            per_item_average=True,
            session_rounds=25,
            build=_build_desk_rmse,
        ),
        Workload(
            name="desk-auc-bytes",
            task="one-class",
            transport="bytes",
            budget=PrivacyBudget(eps_i=4.0),
            per_item_average=True,
            session_rounds=25,
            build=_build_desk_auc,
        ),
        Workload(
            name="ml100k-shape-private",
            task="numerical",
            transport="memory",
            budget=PrivacyBudget(eps_i=4.0, eps_g=0.0625),
            per_item_average=False,
            session_rounds=2,
            build=_build_ml100k_shape,
        ),
    )
}
