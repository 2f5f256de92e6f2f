"""The benchmark binds package functions by module and attribute name
(``perfbench/run.py``'s ``layer_targets``); a rename must fail here, in the
test suite, and not only in a traced benchmark run."""

import importlib.util
import inspect
import os
import sys
from pathlib import Path
from unittest import mock

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def load_bench_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    with mock.patch.dict(os.environ):  # the runner pins BLAS threads on import
        spec.loader.exec_module(module)
    return module


def test_every_layer_target_resolves():
    targets = load_bench_runner().layer_targets({})
    assert targets
    for module, attr, name, _, generator in targets:
        fn = getattr(module, attr, None)
        assert callable(fn), f"{name}: {module.__name__}.{attr} is gone"
        assert inspect.isgeneratorfunction(fn) == generator, f"{name}: generator kind changed"
