import csv
import math
import re
from pathlib import Path

import pytest

from privmf.cli import main
from privmf.data import SplitSpec, format_ratings, split, synthetic_dataset
from privmf.experiment import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    load_config,
    load_dataset,
    run_experiments,
)
from privmf.metrics import isgld_perturb, rmse
from privmf.protocol import run_training
from privmf.randresp import PrivacyBudget, calibrate
from privmf.rng import TAG_ISGLD, TAG_REPETITION, derive_rng
from privmf.sgld import Hyperparams


@pytest.fixture()
def ratings_file(tmp_path):
    ds = synthetic_dataset(30, 40, seed=21, mean_ratings_per_user=8)
    path = tmp_path / "ratings.tsv"
    path.write_text(format_ratings(ds), encoding="utf-8")
    return path


def write_config(tmp_path, ratings_file, **overrides):
    lines = {
        "dataset": str(ratings_file),
        "task": "numerical",
        "k": "3",
        "eta0": "0.1",
        "gamma": "0.6",
        "seed": "5",
        "noise": "false",
        "eps_i": "1",
        "eps_g": "1",
        "iterations": "3",
        "repetitions": "2",
        "baseline_nonprivate": "true",
        "baseline_isgld": "",
        "output": str(tmp_path / "out"),
    }
    lines.update(overrides)
    text = "# experiment settings\n" + "\n".join(f"{k} = {v}" for k, v in lines.items()) + "\n"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text, encoding="utf-8")
    return cfg


class TestConfig:
    def test_parse_types_and_comments(self, tmp_path, ratings_file):
        # float reads inf and infinity in any case, around whitespace
        for eps_g, expected in (("inf,4", [math.inf, 4.0]), ("INF, 4", [math.inf, 4.0]),
                                (" Infinity", [math.inf]), ("4, Infinity ", [4.0, math.inf])):
            cfg = write_config(tmp_path, ratings_file, eps_i="4, 1, 0.25", eps_g=eps_g)
            config = load_config(cfg)
            assert config.k == 3
            assert config.eps_i == [4.0, 1.0, 0.25]
            assert config.eps_g == expected, eps_g
            assert config.noise is False
            assert config.repetitions == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(cfg)

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            load_config(cfg)

    def test_task_defaults(self):
        numerical = ExperimentConfig(dataset="x")
        assert numerical.k == 50 and numerical.split_mode == "random-holdout"
        one_class = ExperimentConfig(dataset="x", task="one-class")
        assert one_class.k == 10 and one_class.split_mode == "leave-one-out"

    def test_init_prediction_mean_token(self, tmp_path, ratings_file):
        cfg = write_config(tmp_path, ratings_file, init_prediction="mean")
        assert load_config(cfg).init_prediction == "mean"


class TestRunExperiments:
    def test_csv_layout_and_determinism(self, tmp_path, ratings_file):
        cfg = write_config(tmp_path, ratings_file)
        config = load_config(cfg)
        paths = run_experiments(config)
        text = Path(paths["curves"]).read_text(encoding="utf-8")
        with open(paths["curves"], newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER
        # 2 reps x (nonprivate + one budget cell) x 3 rounds
        assert len(rows) - 1 == 2 * 2 * 3
        variants = {r[3] for r in rows[1:]}
        assert variants == {"nonprivate", "private"}

        paths2 = run_experiments(config)
        assert Path(paths2["curves"]).read_text(encoding="utf-8") == text
        assert Path(paths["summary"]).exists()

    def test_alpha_inf_variant_recorded_as_zero_budget(self, tmp_path, ratings_file):
        cfg = write_config(tmp_path, ratings_file, eps_g="inf", baseline_nonprivate="false")
        paths = run_experiments(load_config(cfg))
        with open(paths["curves"], newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert {r[3] for r in rows} == {"private_alpha_inf"}
        assert {r[2] for r in rows} == {"0"}

    def test_one_class_runs_auc(self, tmp_path, ratings_file):
        cfg = write_config(
            tmp_path, ratings_file, task="one-class", k="2", eps_i="4", iterations="2", repetitions="1"
        )
        paths = run_experiments(load_config(cfg))
        with open(paths["curves"], newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert {r[5] for r in rows} == {"auc"}
        assert {r[3] for r in rows} == {"nonprivate", "private"}

    def test_full_budget_grid_yields_16_cells(self, tmp_path, ratings_file):
        cfg = write_config(
            tmp_path,
            ratings_file,
            eps_i="4,1,0.25,0.0625",
            eps_g="4,1,0.25,0.0625",
            iterations="1",
            repetitions="1",
            baseline_nonprivate="false",
        )
        paths = run_experiments(load_config(cfg))
        with open(paths["curves"], newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        cells = {(r[1], r[2]) for r in rows}
        assert len(cells) == 16

    def test_isgld_baseline_rows(self, tmp_path, ratings_file):
        cfg = write_config(tmp_path, ratings_file, baseline_isgld="4,2", baseline_nonprivate="false", eps_i="", eps_g="")
        paths = run_experiments(load_config(cfg))
        with open(paths["curves"], newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert {r[3] for r in rows} == {"isgld_eps4", "isgld_eps2"}

    def test_curves_rows_are_the_direct_runs_in_order(self, tmp_path, ratings_file):
        # every kind of variant: the non-private and iSGLD baselines, then
        # per eps_i the unbounded (inf) and the bounded eps_g cells
        cfg = write_config(tmp_path, ratings_file, baseline_isgld="4,2", eps_i="1,0.5", eps_g="inf,1", iterations="2")
        config = load_config(cfg)
        paths = run_experiments(config)
        dataset = load_dataset(config)
        expected = [CSV_HEADER]
        for rep in range(2):
            rep_seed = int(derive_rng(config.seed, TAG_REPETITION, rep).integers(2**31 - 1))
            train, test = split(dataset, SplitSpec("random-holdout", 0.2, rep_seed))
            hp = Hyperparams.with_gamma_priors(3, 0.1, 0.6, seed=rep_seed, noise_enabled=False)
            runs = [("nonprivate", train, None, "", "")]
            for eps in (4.0, 2.0):
                runs.append((f"isgld_eps{eps:g}", isgld_perturb(train, eps, derive_rng(rep_seed, TAG_ISGLD)), None, "", ""))
            for eps_i in (1.0, 0.5):
                runs.append(("private_alpha_inf", train, PrivacyBudget(eps_i=eps_i), f"{eps_i:g}", "0"))
                runs.append(("private", train, PrivacyBudget(eps_i=eps_i, eps_g=1.0), f"{eps_i:g}", "1"))
            for variant, data, budget, eps_i, eps_g in runs:
                result = run_training(data, hp, 2, budget=budget, evaluator=lambda model: rmse(test, model))
                expected += [
                    [str(rep), eps_i, eps_g, variant, str(r.t), "rmse", f"{r.metric:.6f}", str(r.messages)]
                    for r in result.curve
                ]
        with open(paths["curves"], newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == expected
        assert len(expected) == 1 + 2 * 7 * 2


class TestCli:
    def test_calibrate_prints_params(self, capsys):
        rc = main(["calibrate", "--eps-i", "4", "--h", "20", "--items", "1682", "--z", "106.04"])
        assert rc == 0
        out = capsys.readouterr().out
        expected = calibrate(4.0, 20, 1682, 106.04)
        assert f"{expected.p_star:.12g}" in out
        assert f"{expected.q:.12g}" in out

    def test_calibrate_infeasible_is_error(self, capsys):
        rc = main(["calibrate", "--eps-i", "4", "--h", "100", "--items", "100", "--z", "200"])
        assert rc == 1
        assert "violates" in capsys.readouterr().err

    def test_run_and_attack(self, tmp_path, ratings_file, capsys):
        cfg = write_config(tmp_path, ratings_file, iterations="2", repetitions="1")
        assert main(["run", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "curves:" in out
        cfg2 = write_config(tmp_path, ratings_file, iterations="50")
        assert main(["attack", "--config", str(cfg2)]) == 0
        out = capsys.readouterr().out
        assert "accuracy vs B" in out

    @pytest.mark.parametrize(
        "key, value, error",
        [
            ("iterations", "0", "iterations must be >= 1"),
            ("k", "0", "k must be >= 1"),
            ("eta0", "-1", "eta0 must be positive"),
            ("test_fraction", "1.5", r"test_fraction must be in \(0,1\)"),
        ],
    )
    def test_rejected_config_leaves_the_last_results(self, tmp_path, ratings_file, capsys, key, value, error):
        settings = {"iterations": "2", "repetitions": "1"}
        assert main(["run", "--config", str(write_config(tmp_path, ratings_file, **settings))]) == 0
        out = tmp_path / "out"
        before = {name: (out / name).read_bytes() for name in ("curves.csv", "summary.csv")}
        capsys.readouterr()
        bad = write_config(tmp_path, ratings_file, **{**settings, key: value})
        assert main(["run", "--config", str(bad)]) == 1
        assert re.search(error, capsys.readouterr().err)
        assert {name: (out / name).read_bytes() for name in before} == before

    @pytest.mark.parametrize(
        "eps_p, first_block",
        [
            ("", ["clients attacked   : 30 (skipped 0)", "0.6395", "0.4694", "0.9018"]),
            ("6", ["clients attacked   : 8 (skipped 22)", "0.7204", "0.6579", "0.9539"]),
            ("3", ["clients attacked   : 0 (skipped 30)", "0.0000", "0.0000", "0.0000"]),
        ],
    )
    def test_attack_prints_one_block_per_eps_i(self, tmp_path, ratings_file, capsys, eps_p, first_block):
        # the eps_i[0] figures are those the attack printed when it re-implemented
        # client_init; eps_p = 6 makes calibration fail for 22 of the 30 clients,
        # eps_p = 3 for all of them
        cfg = write_config(tmp_path, ratings_file, eps_i="4, 1", eps_p=eps_p, iterations="6")
        assert main(["attack", "--config", str(cfg)]) == 0
        blocks = [b.splitlines() for b in capsys.readouterr().out.strip().split("\n\n")]
        assert [b[2] for b in blocks] == ["eps_i              : 4", "eps_i              : 1"]
        assert all(len(b) == 6 and b[1] == "rounds observed    : 6" for b in blocks)
        head, *figures = first_block
        assert blocks[0][0] == head
        assert [line.split(": ")[1] for line in blocks[0][3:]] == figures

    def test_attack_counts_only_clients_with_ratings(self, tmp_path, ratings_file, capsys):
        # desk_min_ratings = 0 keeps users with no rating among the 4 kept
        # items; they are not clients and the attack does not count them
        cfg = write_config(
            tmp_path, ratings_file, eps_i="4", iterations="6",
            desk_scale="true", desk_users="30", desk_items="4", desk_min_ratings="0",
        )
        dataset = load_dataset(load_config(cfg))
        active = len(dataset.active_users())
        assert active < dataset.n_users == 30
        assert main(["attack", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"clients attacked   : {active} (skipped 0)"
