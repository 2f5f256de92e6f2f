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
from dataclasses import dataclass, field
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
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.k is None:
            self.k = 50 if self.task == "numerical" else 10
        if not self.split_mode:
            self.split_mode = "random-holdout" if self.task == "numerical" else "leave-one-out"
        # rejected here, before a run writes anything
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.split_mode == "random-holdout" and not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in (0,1), got {self.test_fraction}")
        try:  # the checks of k, eta0, gamma and seed
            Hyperparams.with_gamma_priors(self.k, self.eta0, self.gamma, self.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def metric_name(self) -> str:
        return "rmse" if self.task == "numerical" else "auc"


_BOOL = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _parse_value(key: str, token: str):
    list_float = {"eps_i", "eps_g", "baseline_isgld"}
    scalar_float = {"eta0", "gamma", "test_fraction", "score_min", "score_max"}
    optional_float = {"eps_p", "z_target"}
    scalar_int = {"k", "seed", "iterations", "repetitions", "desk_users", "desk_items", "desk_min_ratings"}
    boolean = {"noise", "baseline_nonprivate", "desk_scale", "per_item_average"}
    if key == "init_prediction":
        return "mean" if token.lower() == "mean" else float(token)
    if key in list_float:
        return [float(p) for p in token.split(",") if p.strip()] if token else []
    if key in scalar_float:
        return float(token)
    if key in optional_float:
        return None if token == "" else float(token)
    if key in scalar_int:
        return int(token)
    if key in boolean:
        try:
            return _BOOL[token.lower()]
        except KeyError:
            raise ConfigError(f"{key}: expected a boolean, got {token!r}") from None
    return token  # string-valued keys


def load_config(path: str | Path) -> ExperimentConfig:
    known = {f for f in ExperimentConfig.__dataclass_fields__}
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
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, token.strip())
    return ExperimentConfig(**values)


def load_dataset(config: ExperimentConfig) -> RatingDataset:
    delimiter = {"auto": None, "tab": "\t", "comma": ","}.get(config.fmt)
    if config.fmt not in ("auto", "tab", "comma"):
        raise ConfigError(f"unknown format {config.fmt!r}")
    text = Path(config.dataset).read_text(encoding="utf-8")
    dataset = parse_ratings(text, delimiter, (config.score_min, config.score_max))
    if config.desk_scale:
        dataset = subsample(
            dataset, config.desk_users, config.desk_items, config.desk_min_ratings, config.seed
        )
    return dataset


def _evaluator(config: ExperimentConfig, train: RatingDataset, test: RatingDataset):
    if config.task == "numerical":
        return lambda model: rmse(test, model)
    return lambda model: auc(test, train, model)


def _runs(config: ExperimentConfig, train: RatingDataset, rep_seed: int):
    """A repetition's runs in ``curves.csv`` order, as ``(variant, train
    set, budget, eps_I label, eps_g label)``: the non-private baseline, each
    iSGLD baseline, then each budget cell. An ``inf`` eps_g entry in the
    config requests the unbounded-fake-error variant, whose achieved value
    budget is 0 (nothing is truncated, so sampling leaks nothing beyond the
    error distribution itself)."""
    if config.baseline_nonprivate:
        yield "nonprivate", train, None, None, None
    for eps in config.baseline_isgld:
        yield f"isgld_eps{eps:g}", isgld_perturb(train, eps, derive_rng(rep_seed, TAG_ISGLD)), None, None, None
    for eps_i in config.eps_i:
        for eps_g in [None] if config.task == "one-class" else config.eps_g:
            unbounded = eps_g is not None and math.isinf(eps_g)
            budget = PrivacyBudget(eps_i=eps_i, eps_p=config.eps_p, eps_g=None if unbounded else eps_g)
            if unbounded:
                yield "private_alpha_inf", train, budget, eps_i, 0.0
            else:
                yield "private", train, budget, eps_i, eps_g


def _fmt_budget(v: float | None) -> str:
    if v is None:
        return ""
    return f"{v:g}"


def run_experiments(config: ExperimentConfig, dataset: RatingDataset | None = None) -> dict:
    """Run the configured learning-curve grid; returns output file paths."""
    if dataset is None:
        dataset = load_dataset(config)
    out_dir = Path(config.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    curves_path = out_dir / "curves.csv"
    summary_path = out_dir / "summary.csv"

    rows_for_summary: list[dict] = []
    with curves_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)

        for rep in range(config.repetitions):
            rep_seed = int(derive_rng(config.seed, TAG_REPETITION, rep).integers(2**31 - 1))
            train, test = split(
                dataset,
                SplitSpec(mode=config.split_mode, fraction=config.test_fraction, seed=rep_seed),
            )
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

            for variant, data, budget, eps_i, eps_g in _runs(config, train, rep_seed):
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
                    row = {
                        "rep": rep,
                        "budget_eps_I": _fmt_budget(eps_i),
                        "budget_eps_g": _fmt_budget(eps_g),
                        "variant": variant,
                        "t": record.t,
                        "metric": config.metric_name,
                        "value": f"{record.metric:.6f}",
                        "messages": record.messages,
                    }
                    writer.writerow([row[c] for c in CSV_HEADER])
                    rows_for_summary.append(row)
                fh.flush()

    _write_summary(summary_path, rows_for_summary)
    logger.info("wrote %s and %s", curves_path, summary_path)
    return {"curves": curves_path, "summary": summary_path}


def _write_summary(path: Path, rows: list[dict]) -> None:
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (row["budget_eps_I"], row["budget_eps_g"], row["variant"], row["t"], row["metric"])
        groups.setdefault(key, []).append(row)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["budget_eps_I", "budget_eps_g", "variant", "t", "metric", "mean", "std", "reps", "messages_mean"]
        )
        for key in sorted(groups, key=lambda k: (k[2], k[0], k[1], k[3])):
            vals = np.array([float(r["value"]) for r in groups[key]])
            msgs = np.array([float(r["messages"]) for r in groups[key]])
            writer.writerow(
                list(key[:3])
                + [key[3], key[4], f"{vals.mean():.6f}", f"{vals.std():.6f}", len(vals), f"{msgs.mean():.1f}"]
            )
