"""Experiment configuration, learning-curve runs, and CSV output.

Configs are flat UTF-8 ``key = value`` files with ``#`` comments. Each run
produces one learning curve per (repetition, variant, budget combination);
curves land in ``curves.csv`` with the fixed header

    rep,budget_eps_I,budget_eps_g,variant,t,metric,value,messages

plus a repetition-averaged ``summary.csv``.
"""

from __future__ import annotations

import csv
import logging
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import RatingDataset, SplitSpec, parse_ratings, split, subsample
from .metrics import auc, isgld_perturb, rmse
from .protocol import run_training
from .randresp import PrivacyBudget
from .rng import TAG_ISGLD, TAG_REPETITION, derive_rng
from .sgld import Hyperparams

logger = logging.getLogger(__name__)

CSV_HEADER = ["rep", "budget_eps_I", "budget_eps_g", "variant", "t", "metric", "value", "messages"]
_DELIMITERS = {"auto": None, "tab": "\t", "comma": ","}  # by ``format``


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    dataset: str = ""
    fmt: str = "auto"  # auto | tab | comma
    task: str = "numerical"  # numerical | one-class
    k: int | None = None  # defaults: 50 numerical, 10 one-class
    eta0: float = 5e-6
    gamma: float = 0.6
    seed: int = 12345
    noise: bool = True
    eps_i: list[float] = field(default_factory=lambda: [4.0, 1.0, 0.25, 0.0625])
    eps_g: list[float] = field(default_factory=lambda: [4.0, 1.0, 0.25, 0.0625])
    eps_p: float | None = None  # None -> 2 * eps_i
    z_target: float | None = None  # None -> |ratings| / |users|
    iterations: int = 100
    repetitions: int = 1
    baseline_nonprivate: bool = True
    baseline_isgld: list[float] = field(default_factory=list)
    split_mode: str = ""  # default by task
    test_fraction: float = 0.2
    desk_scale: bool = False
    desk_users: int = 200
    desk_items: int = 400
    desk_min_ratings: int = 10
    score_min: float = 1.0
    score_max: float = 5.0
    per_item_average: bool = False
    init_prediction: float | str = 0.0  # a score level, or "mean" for the train mean
    output: str = "out"

    def __post_init__(self):
        if self.task not in ("numerical", "one-class"):
            raise ConfigError(f"task must be numerical or one-class, got {self.task!r}")
        if self.fmt not in _DELIMITERS:
            raise ConfigError(f"unknown format {self.fmt!r}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.k is None:
            self.k = 50 if self.task == "numerical" else 10
        if not self.split_mode:
            self.split_mode = "random-holdout" if self.task == "numerical" else "leave-one-out"
        # rejected here, before a run writes anything
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.split_mode not in ("random-holdout", "leave-one-out"):
            raise ConfigError(f"split must be random-holdout or leave-one-out, got {self.split_mode!r}")
        if self.split_mode == "random-holdout" and not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in (0,1), got {self.test_fraction}")
        if self.z_target is not None and not self.z_target > 0:
            raise ConfigError(f"z_target must be positive, got {self.z_target}")
        if not all(eps > 0 for eps in self.baseline_isgld):
            raise ConfigError(f"baseline_isgld entries must be positive, got {self.baseline_isgld}")
        for name in ("eps_i", "eps_g", "baseline_isgld"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} entries must be distinct, got {values}")
        try:  # the checks of k, eta0, gamma, seed and init_prediction, and of every budget cell
            init = 0.0 if self.init_prediction == "mean" else self.init_prediction
            Hyperparams.with_gamma_priors(self.k, self.eta0, self.gamma, self.seed, init_prediction=init)
            list(_runs(self))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def metric_name(self) -> str:
        return "rmse" if self.task == "numerical" else "auc"


_BOOL = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _bool(token: str) -> bool:
    if token.lower() not in _BOOL:
        raise ValueError(f"expected a boolean, got {token!r}")
    return _BOOL[token.lower()]


# a value's parser by its field's annotation; a field with any other
# annotation fails here, when the module loads
_PARSERS = {
    "str": str,
    "int": int,
    "int | None": lambda token: None if token == "" else int(token),
    "float": float,
    "float | None": lambda token: None if token == "" else float(token),
    "bool": _bool,
    "list[float]": lambda token: [float(p) for p in token.split(",") if p.strip()] if token else [],
    "float | str": lambda token: "mean" if token.lower() == "mean" else float(token),
}
_FIELD_PARSERS = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)}


def load_config(path: str | Path) -> ExperimentConfig:
    aliases = {"format": "fmt", "split": "split_mode"}
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, token = line.partition("=")
        key = aliases.get(key.strip(), key.strip())
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _FIELD_PARSERS[key](token.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from None
    return ExperimentConfig(**values)


def load_dataset(config: ExperimentConfig) -> RatingDataset:
    text = Path(config.dataset).read_text(encoding="utf-8")
    dataset = parse_ratings(text, _DELIMITERS[config.fmt], (config.score_min, config.score_max))
    if config.desk_scale:
        dataset = subsample(
            dataset, config.desk_users, config.desk_items, config.desk_min_ratings, config.seed
        )
    return dataset


def _evaluator(config: ExperimentConfig, train: RatingDataset, test: RatingDataset):
    if config.task == "numerical":
        return lambda model: rmse(test, model)
    return lambda model: auc(test, train, model)


def _runs(config: ExperimentConfig):
    """A repetition's runs in ``curves.csv`` order, as ``(variant, iSGLD
    eps, budget, eps_I label, eps_g label)``: the non-private baseline, each
    iSGLD baseline, then each budget cell; a one-class grid ignores eps_g.
    An ``inf`` eps_g entry in the config requests the unbounded-fake-error
    variant, whose achieved value budget is 0 (nothing is truncated, so
    sampling leaks nothing beyond the error distribution itself)."""
    if config.baseline_nonprivate:
        yield "nonprivate", None, None, None, None
    for eps in config.baseline_isgld:
        yield f"isgld_eps{eps:g}", eps, None, None, None
    for eps_i in config.eps_i:
        for eps_g in [None] if config.task == "one-class" else config.eps_g:
            if eps_g is not None and math.isinf(eps_g):
                yield "private_alpha_inf", None, PrivacyBudget(eps_i, config.eps_p), eps_i, 0.0
            else:
                yield "private", None, PrivacyBudget(eps_i, config.eps_p, eps_g), eps_i, eps_g


def _fmt_budget(v: float | None) -> str:
    if v is None:
        return ""
    return f"{v:g}"


def check_z_target(config: ExperimentConfig, dataset: RatingDataset) -> None:
    """Reject a ``z_target`` no client calibrates for; both CLI commands check it first."""
    if config.z_target is not None and not config.z_target < dataset.n_items:
        raise ConfigError(f"z_target must be below the item count {dataset.n_items}, got {config.z_target}")


def run_experiments(config: ExperimentConfig, dataset: RatingDataset | None = None) -> dict:
    """Run the configured learning-curve grid; returns output file paths.

    The grid goes to ``curves.csv.partial``, flushed after each run. Only a
    finished grid replaces ``curves.csv`` and ``summary.csv``: on any error
    the partial files are deleted, so the last run's output stays.
    """
    if dataset is None:
        dataset = load_dataset(config)
    check_z_target(config, dataset)
    out_dir = Path(config.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"curves": out_dir / "curves.csv", "summary": out_dir / "summary.csv"}
    partial = {name: path.with_name(path.name + ".partial") for name, path in paths.items()}
    # (value, messages) pairs by (budget_eps_I, budget_eps_g, variant, t, metric)
    groups: dict[tuple, list[tuple[float, int]]] = {}
    try:
        with partial["curves"].open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)

            for rep in range(config.repetitions):
                rep_seed = int(derive_rng(config.seed, TAG_REPETITION, rep).integers(2**31 - 1))
                train, test = split(
                    dataset,
                    SplitSpec(mode=config.split_mode, fraction=config.test_fraction, seed=rep_seed),
                )
                if len(train) == 0:
                    raise ConfigError("no clients with ratings")
                if len(test) == 0:
                    raise ConfigError(f"the {config.split_mode} split holds out no rating to test on")
                if config.init_prediction == "mean":
                    init_pred = float(np.mean(train.ratings))
                else:
                    init_pred = float(config.init_prediction)
                hp = Hyperparams.with_gamma_priors(
                    config.k,
                    config.eta0,
                    config.gamma,
                    seed=rep_seed,
                    noise_enabled=config.noise,
                    init_prediction=init_pred,
                )
                evaluate = _evaluator(config, train, test)

                for variant, isgld, budget, eps_i, eps_g in _runs(config):
                    data = train if isgld is None else isgld_perturb(train, isgld, derive_rng(rep_seed, TAG_ISGLD))
                    result = run_training(
                        data,
                        hp,
                        config.iterations,
                        budget=budget,
                        z_target=config.z_target,
                        task=config.task,
                        evaluator=evaluate,
                        per_item_average=config.per_item_average,
                    )
                    for record in result.curve:
                        value = f"{record.metric:.6f}"
                        key = (_fmt_budget(eps_i), _fmt_budget(eps_g), variant, record.t, config.metric_name)
                        writer.writerow([rep, *key, value, record.messages])
                        groups.setdefault(key, []).append((float(value), record.messages))
                    fh.flush()

        _write_summary(partial["summary"], groups)
    except BaseException:
        for path in partial.values():
            path.unlink(missing_ok=True)
        raise
    for name, path in paths.items():
        os.replace(partial[name], path)
    logger.info("wrote %s and %s", paths["curves"], paths["summary"])
    return paths


def _write_summary(path: Path, groups: dict[tuple, list[tuple[float, int]]]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["budget_eps_I", "budget_eps_g", "variant", "t", "metric", "mean", "std", "reps", "messages_mean"]
        )
        for key in sorted(groups, key=lambda k: (k[2], k[0], k[1], k[3])):
            vals, msgs = (np.array(column, dtype=np.float64) for column in zip(*groups[key]))
            writer.writerow([*key, f"{vals.mean():.6f}", f"{vals.std():.6f}", len(vals), f"{msgs.mean():.1f}"])
