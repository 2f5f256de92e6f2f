"""The final model of each benchmark workload, pinned by hash: three rounds
of ``perfbench/workloads.py``'s workloads at the seeds the benchmark runs,
so a change that moves any model bit of a benchmarked run fails here."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# sha256 of the final u then v, as little-endian float64, after 3 rounds
WORKLOAD_PINS = {
    ("desk-rmse-private", 7): "40ad268c03e9242150d6cd6115bb110fc71b6278aacc2cc34baeedf63e0ef481",
    ("desk-auc-bytes", 7): "cdea9691bcd1a7cabcba85b979f81c4be5fb7db97b41e29b23e7fc5a0f00cdf3",
    ("ml100k-shape-private", 7): "37998e9d680171ca5b2e1b7a1debf3ed00f3c5649e9c1a6f6c444b7d40236cd2",
    ("desk-rmse-private", 1009): "24189433bbe670e1c1cdda42998073e07e84649843186080f99c7ddad250e365",
    ("desk-auc-bytes", 1009): "1165325d0dfe089791fec89c105a836500269217244f6f3fcccc5d96be9192a8",
    ("ml100k-shape-private", 1009): "c1d783c2d16f7255cb9160f2aae06edb793edd9d780b944d73900bd2512c8691",
}


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name, seed", list(WORKLOAD_PINS))
def test_workload_model_is_pinned(name, seed):
    workload = load_workloads()[name]
    model = workload.train(workload.build(seed), 3).model
    digest = hashlib.sha256(model.u.astype("<f8").tobytes() + model.v.astype("<f8").tobytes())
    assert digest.hexdigest() == WORKLOAD_PINS[name, seed]
