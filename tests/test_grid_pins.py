"""Three small learning-curve grids through ``run_experiments``, pinned by
hash: ``curves.csv``, ``summary.csv`` and the final model of each cell, so
a change that moves any stream, model bit or output byte of a grid fails
here. Each cell's ``run_training`` call is recorded in grid order."""

import hashlib
import math

import pytest

from privmf import experiment
from privmf.data import synthetic_dataset
from privmf.experiment import ExperimentConfig, run_experiments

COMMON = dict(k=3, eta0=0.1, gamma=0.6, seed=5, iterations=3, baseline_isgld=[])
GRIDS = {
    # every variant of a noisy numerical grid: the baseline, one iSGLD
    # baseline, and bounded and unbounded fake errors at two eps_I
    "numerical-noise": dict(task="numerical", noise=True, init_prediction="mean", eps_i=[4.0, 1.0],
                            eps_g=[4.0, 0.0625, math.inf], baseline_isgld=[1.0], repetitions=2),
    "one-class": dict(task="one-class", noise=True, eps_i=[4.0, 1.0], per_item_average=True, repetitions=2),
    "numerical-nonprivate": dict(task="numerical", noise=False, eps_i=[], eps_g=[], repetitions=1),
}

# sha256 of curves.csv and summary.csv, then the first 16 hex digits of the
# sha256 of each cell's final u then v, as little-endian float64
GRID_PINS = {
    "numerical-noise": (
        ["10afa774df9b2ff427e1ccc7a5e116c91532d7465f1144dd0d7c3cc286d783b0",
         "eb427f685591786c2021784e654c9bac4227d3a5dab09ba3a69e187fde45df41"],
        ["214b928affab803d", "97df0c71affc262c", "8ee16b2d4c4d3aa1", "ffa386a5fa646abb",
         "d2e0ca34a0fe5c7c", "6d2b4fa67edf46a5", "60e7fd64440425e3", "cf7d009fcb6eca4e",
         "6cd857ee42e8146c", "2383378466e639a9", "e92ce1a55003b064", "ffeb4491dbdda22d",
         "991a03e5e24e2b69", "1cb589ca527f7781", "adce1b8bb0dd739f", "d1f888a4f1ed2064"],
    ),
    "one-class": (
        ["e7097575e4d07b9192ae2822db6d7da9975feb1ec13a679744eafdcb09e281d9",
         "1a7041ada855c7e6be787e3a5feceff172208e5e4b17195000b3928ec593ea01"],
        ["e1f1104675af22eb", "93e596444fef8148", "beac393d2924e556", "f10be0c96c691977",
         "c756e43e2ad7101c", "e364a6fa80d56518"],
    ),
    "numerical-nonprivate": (
        ["59911f8b0e6242b94ced6d109c6d6a3415927636b2465a755857fc198ea4676b",
         "b25546226032798c8b56e019cfe8bb6692daac8c9afb696c132a1bdcb239edaa"],
        ["3604431281cbc01d"],
    ),
}


def grid_digests(name, out, monkeypatch):
    models = []

    def recording(*args, **kwargs):
        result = run_training(*args, **kwargs)
        models.append(result.model)
        return result

    run_training = experiment.run_training
    monkeypatch.setattr(experiment, "run_training", recording)
    config = ExperimentConfig(**{**COMMON, **GRIDS[name], "output": str(out)})
    paths = run_experiments(config, synthetic_dataset(30, 40, seed=21, mean_ratings_per_user=8))
    files = [hashlib.sha256(paths[f].read_bytes()).hexdigest() for f in ("curves", "summary")]
    cells = [
        hashlib.sha256(m.u.astype("<f8").tobytes() + m.v.astype("<f8").tobytes()).hexdigest()[:16]
        for m in models
    ]
    return files, cells


@pytest.mark.parametrize("name", list(GRIDS))
def test_grid_is_pinned(name, tmp_path, monkeypatch):
    assert grid_digests(name, tmp_path, monkeypatch) == GRID_PINS[name]
