"""Outside-in span tracer for the privmf benchmark.

It times the package's public functions by replacing them, at every module
attribute that names them, with a wrapper that records a span. Nothing
under ``src/`` changes: ``install`` patches and ``uninstall`` restores.

A span has a name, a start, an end, the span that was open when it began
(its parent) and a run id set by the caller. Spans are kept in compact
column arrays in memory and written out once with ``save``. A span's self
time is its duration minus the durations of its direct children.

Generator functions (``codec.iter_messages``) get one span per ``next``,
so decode time lands in the decoder and not in the caller that created
the generator.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name = array("H")
        self._parent = array("i")
        self._run = array("H")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.run_id = 0

    def _enter(self, name_id: int) -> int:
        sid = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._run.append(self.run_id)
        self._end.append(0.0)
        self._stack.append(sid)
        self._start.append(time.perf_counter())
        return sid

    def _exit(self, sid: int) -> None:
        self._end[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, observe, generator: bool):
        name_id = len(self.names)
        self.names.append(name)
        enter, leave = self._enter, self._exit

        if generator:

            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    sid = enter(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        leave(sid)
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            sid = enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(sid)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Patch each ``(module, attr, span name, observe, generator)`` target
        in every loaded ``privmf`` module that binds the same object."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and key.split(".")[0] == "privmf"
        ]
        for module, attr, name, observe, generator in targets:
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, observe, generator)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patches.append((m, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self._run, dtype=np.uint16).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def summary(self, runs) -> dict[str, tuple[float, int]]:
        """(self seconds, span count) per span name over the given run ids."""
        cols = self.columns()
        dur = cols["end"] - cols["start"]
        child = np.zeros(len(dur))
        has_parent = cols["parent"] >= 0
        np.add.at(child, cols["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        keep = np.isin(cols["run"], list(runs))
        n_names = len(self.names)
        seconds = np.bincount(cols["name"][keep], weights=self_time[keep], minlength=n_names)
        counts = np.bincount(cols["name"][keep], minlength=n_names)
        return {n: (float(seconds[i]), int(counts[i])) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())
