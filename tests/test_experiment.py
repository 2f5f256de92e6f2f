import csv
import math
import re
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
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

    @pytest.mark.parametrize(
        "key, token, error",
        [
            ("k", "two", "invalid literal for int() with base 10: 'two'"),
            ("eta0", "fast", "could not convert string to float: 'fast'"),
            ("eps_i", "4, one", "could not convert string to float: ' one'"),
            ("init_prediction", "median", "could not convert string to float: 'median'"),
            ("noise", "maybe", "expected a boolean, got 'maybe'"),
        ],
    )
    def test_malformed_value_names_file_line_and_key(self, tmp_path, ratings_file, key, token, error):
        cfg = write_config(tmp_path, ratings_file, **{key: token})
        line = cfg.read_text(encoding="utf-8").splitlines().index(f"{key} = {token}") + 1
        with pytest.raises(ConfigError) as info:
            load_config(cfg)
        assert str(info.value) == f"{cfg}:{line}: {key}: {error}"

    def test_task_defaults(self):
        numerical = ExperimentConfig(dataset="x")
        assert numerical.k == 50 and numerical.split_mode == "random-holdout"
        one_class = ExperimentConfig(dataset="x", task="one-class")
        assert one_class.k == 10 and one_class.split_mode == "leave-one-out"

    def test_init_prediction_mean_token(self, tmp_path, ratings_file):
        cfg = write_config(tmp_path, ratings_file, init_prediction="mean")
        assert load_config(cfg).init_prediction == "mean"

    def test_every_key_loads_to_its_value(self, tmp_path):
        # every field set away from its default, through the format and
        # split spellings; together they use every annotation's parser
        cfg = tmp_path / "all.cfg"
        cfg.write_text(
            "dataset = data.csv\nformat = comma\ntask = one-class\nk = 7\neta0 = 0.01\ngamma = 0.5\n"
            "seed = 9\nnoise = no\neps_i = 2, 0.5\neps_g = inf, 3\neps_p = 6\nz_target = 12.5\n"
            "iterations = 7\nrepetitions = 3\nbaseline_nonprivate = FALSE\nbaseline_isgld = 8\n"
            "split = random-holdout\ntest_fraction = 0.3\ndesk_scale = yes\ndesk_users = 50\n"
            "desk_items = 60\ndesk_min_ratings = 4\nscore_min = 0\nscore_max = 10\n"
            "per_item_average = 1\ninit_prediction = Mean\noutput = results\n",
            encoding="utf-8",
        )
        expected = ExperimentConfig(
            dataset="data.csv", fmt="comma", task="one-class", k=7, eta0=0.01, gamma=0.5, seed=9,
            noise=False, eps_i=[2.0, 0.5], eps_g=[math.inf, 3.0], eps_p=6.0, z_target=12.5,
            iterations=7, repetitions=3, baseline_nonprivate=False, baseline_isgld=[8.0],
            split_mode="random-holdout", test_fraction=0.3, desk_scale=True, desk_users=50,
            desk_items=60, desk_min_ratings=4, score_min=0.0, score_max=10.0,
            per_item_average=True, init_prediction="mean", output="results",
        )
        config = load_config(cfg)
        assert config == expected
        # split is not the one-class default either
        defaults = {f.name: f.default if f.default_factory is MISSING else f.default_factory() for f in fields(config)}
        assert [name for name, value in defaults.items() if getattr(config, name) == value] == []

    def test_empty_optional_value_is_its_default(self, tmp_path, ratings_file):
        config = load_config(write_config(tmp_path, ratings_file, k="", eps_p="", z_target=""))
        assert (config.k, config.eps_p, config.z_target) == (50, None, None)

    def test_unknown_format_rejected_at_load(self, tmp_path, ratings_file):
        with pytest.raises(ConfigError, match="^unknown format 'tsv'$"):
            load_config(write_config(tmp_path, ratings_file, format="tsv"))


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

    @pytest.mark.parametrize(
        "overrides, runs",
        [
            # the iSGLD and non-private baselines, an unbounded and a bounded
            # eps_g cell per eps_i, over 2 repetitions
            ({"baseline_isgld": "4", "eps_i": "4,1", "eps_g": "inf,1", "iterations": "2"}, 6),
            ({"task": "one-class", "k": "2", "eps_i": "4,1", "repetitions": "3", "iterations": "2"}, 3),
        ],
    )
    def test_summary_is_the_curves_averaged_over_repetitions(self, tmp_path, ratings_file, overrides, runs):
        paths = run_experiments(load_config(write_config(tmp_path, ratings_file, **overrides)))
        with open(paths["curves"], newline="", encoding="utf-8") as fh:
            curves = list(csv.DictReader(fh))
        by_key: dict[tuple, list[dict]] = {}
        for row in curves:
            key = (row["budget_eps_I"], row["budget_eps_g"], row["variant"], int(row["t"]), row["metric"])
            by_key.setdefault(key, []).append(row)
        # one row per group, by variant, then the eps_I and eps_g labels as text, then round
        expected = [["budget_eps_I", "budget_eps_g", "variant", "t", "metric", "mean", "std", "reps", "messages_mean"]]
        for key in sorted(by_key, key=lambda k: (k[2], k[0], k[1], k[3])):
            values = np.array([float(row["value"]) for row in by_key[key]])
            messages = np.array([int(row["messages"]) for row in by_key[key]])
            expected.append([*key[:3], str(key[3]), key[4], f"{values.mean():.6f}", f"{values.std():.6f}",
                             str(len(values)), f"{messages.mean():.1f}"])
        with open(paths["summary"], newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == expected
        reps = int(overrides.get("repetitions", "2"))
        assert len(expected) - 1 == runs * 2 and len(curves) == reps * runs * 2
        assert {row[7] for row in expected[1:]} == {str(reps)}


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
            ("eta0", "nan", r"eta0 must be positive and finite, got nan"),
            ("eta0", "inf", r"eta0 must be positive and finite, got inf"),
            ("gamma", "nan", r"gamma must be non-negative and finite, got nan"),
            ("gamma", "inf", r"gamma must be non-negative and finite, got inf"),
            ("eps_i", "nan", "eps_i must be positive, got nan"),
            # a value listed twice would run its cells twice; inf and Infinity are one value
            ("eps_g", "1, 1", r"eps_g entries must be distinct, got \[1.0, 1.0\]"),
            ("eps_g", "inf, Infinity", r"eps_g entries must be distinct, got \[inf, inf\]"),
            ("eps_i", "4, 1, 4", "eps_i entries must be distinct"),
            ("baseline_isgld", "2, 2", "baseline_isgld entries must be distinct"),
            ("test_fraction", "1.5", r"test_fraction must be in \(0,1\)"),
            ("eps_i", "0", "eps_i must be positive"),
            ("eps_g", "-1", "eps_g must be positive"),
            ("eps_p", "0", "eps_p must be positive"),
            ("z_target", "0", "z_target must be positive"),
            ("z_target", "100", "z_target must be below the item count 38"),
            ("baseline_isgld", "0", "baseline_isgld entries must be positive"),
            # a holdout that rounds to every rating leaves none to train on
            ("test_fraction", "0.999", "^error: no clients with ratings\n$"),
            ("split", "k-fold", "split must be random-holdout or leave-one-out"),
            # a split that holds out nothing leaves nothing to score: a 0.1
            # holdout of three ratings, and leave-one-out of one rating per user
            ("test_fraction", {"test_fraction": "0.1", "ratings": "0\t0\t4\n1\t1\t3\n2\t2\t5\n"},
             "^error: the random-holdout split holds out no rating to test on\n$"),
            ("task", {"task": "one-class", "ratings": "0\t0\t4\n1\t1\t3\n2\t2\t5\n"},
             "^error: the leave-one-out split holds out no rating to test on\n$"),
            # leave-one-out holds out one of two ratings per user, but each
            # user rated both items, so no held-out item has one to rank against
            ("task", {"task": "one-class", "ratings": "0\t0\t4\n0\t1\t3\n1\t0\t5\n1\t1\t2\n"},
             "^error: no held-out rating has an unrated item to rank against"),
            # no client calibrates for eps_p = 0.5: the non-private baseline
            # has run by the time the first private run fails
            ("eps_p", "0.5", r"^error: client \d+: inverted p="),
            # the split is checked before the train mean is taken
            ("init_prediction", {"init_prediction": "mean", "test_fraction": "0.999"},
             "^error: no clients with ratings\n$"),
            # an infinite budget would calibrate no perturbation: rejected at load
            ("eps_i", "inf", "^error: eps_i must be finite, got inf\n$"),
            ("eps_i", "4, inf", "^error: eps_i must be finite, got inf\n$"),
            ("eps_p", "inf", "^error: eps_p must be finite, got inf\n$"),
            ("eps_p", "nan", "^error: eps_p must be positive, got nan\n$"),
            ("init_prediction", "nan", "^error: init_prediction must be finite, got nan\n$"),
            ("init_prediction", "inf", "^error: init_prediction must be finite, got inf\n$"),
            ("init_prediction", "-inf", "^error: init_prediction must be finite, got -inf\n$"),
        ],
    )
    def test_rejected_config_leaves_the_last_results(self, tmp_path, ratings_file, capsys, key, value, error):
        settings = {"iterations": "2", "repetitions": "1"}
        assert main(["run", "--config", str(write_config(tmp_path, ratings_file, **settings))]) == 0
        out = tmp_path / "out"
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(before) == ["curves.csv", "summary.csv"]
        capsys.readouterr()
        # a dict value is several settings; its "ratings" lines are the data set
        overrides = dict(value) if isinstance(value, dict) else {key: value}
        if "ratings" in overrides:
            ratings_file = tmp_path / "bad.tsv"
            ratings_file.write_text(overrides.pop("ratings"), encoding="utf-8")
        bad = write_config(tmp_path, ratings_file, **{**settings, **overrides})
        assert main(["run", "--config", str(bad)]) == 1
        assert re.search(error, capsys.readouterr().err)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_failed_run_leaves_the_last_results(self, tmp_path, ratings_file, monkeypatch):
        config = load_config(write_config(tmp_path, ratings_file, iterations="2", repetitions="1"))
        run_experiments(config)
        out = tmp_path / "out"
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        calls = []

        def second_run_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                assert (out / "curves.csv.partial").exists()
                raise RuntimeError("run 2 failed")
            return run_training(*args, **kwargs)

        monkeypatch.setattr("privmf.experiment.run_training", second_run_fails)
        with pytest.raises(RuntimeError, match="run 2 failed"):
            run_experiments(config)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize(
        "setting, error",
        [
            # an output that names a file, and a data set that names a directory
            ("output", r"^error: \[Errno 17\] File exists: .*ratings\.tsv'\n$"),
            ("dataset", r"^error: \[Errno 21\] Is a directory: .*'\n$"),
        ],
    )
    def test_os_error_is_one_line(self, tmp_path, ratings_file, capsys, setting, error):
        target = {"output": str(ratings_file), "dataset": str(tmp_path)}[setting]
        cfg = write_config(tmp_path, ratings_file, iterations="2", repetitions="1", **{setting: target})
        assert main(["run", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(error, captured.err)

    @pytest.mark.parametrize("z_target", ["38", "100"])
    def test_attack_rejects_what_run_rejects(self, tmp_path, ratings_file, capsys, z_target):
        # a z_target at or above the item count: both commands exit 1 with one text
        cfg = write_config(tmp_path, ratings_file, z_target=z_target, iterations="6")
        errors = []
        for command in ("run", "attack"):
            assert main([command, "--config", str(cfg)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors == [f"error: z_target must be below the item count 38, got {float(z_target)}\n"] * 2

    def test_run_without_clients_is_error(self, tmp_path, capsys):
        # a 0.9 holdout of two ratings leaves no rating to train on
        path = tmp_path / "two.tsv"
        path.write_text("0\t0\t4\n1\t1\t3\n", encoding="utf-8")
        assert main(["run", "--config", str(write_config(tmp_path, path, test_fraction="0.9"))]) == 1
        assert capsys.readouterr().err == "error: no clients with ratings\n"

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
