"""privmf benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload desk-rmse-private --seed 7 --seconds 30 --trace 0

Run from the repository root. The process builds the workload's inputs
from ``--seed``, sets up several times, then runs training sessions through
``protocol.run_training`` back to back for about ``--seconds`` seconds.
Correctness checks run afterwards, outside the timed region. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give each metric with its
unit and the sample counts. The exit code is 1 when a check fails.

With ``--trace 1`` the run first times one untraced session, then times the
package's public functions from outside (see ``tracer.py``) and reports
per-layer metrics instead, plus the trace overhead. Spans are written to
``.perfbench/trace-<workload>.npz``.
"""

from __future__ import annotations

import os

# single-threaded numerics; must precede the first numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import logging
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# data builds per run (setup_s takes their median): at least SETUP_REPS,
# more while they fit in SETUP_SECONDS, so cheap set-ups get more samples
SETUP_REPS = 3
SETUP_SECONDS = 1.0
MAX_SETUP_REPS = 20
MIN_SESSIONS = 2  # the determinism check compares sessions of one run
CHECK_ROUNDS = 1  # rounds of the untimed calibration check pass
BYTES_PREFIX_ROUNDS = 3  # rounds compared between bytes and memory transport
BUDGET_RTOL = 1e-9


def git_commit(root: Path) -> str:
    """Commit of a git checkout, read without running git; "unknown" otherwise."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class WarningCounter(logging.Handler):
    """Counts WARNING records per logger, and the client-rounds that skipped
    a fake item (each is a failed op)."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.per_logger: Counter[str] = Counter()
        self.skipped_ops: set[tuple[int, int, int]] = set()
        self.session = 0
        self.round = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.per_logger[record.name] += 1
        if record.name == "privmf.protocol" and "skipping item" in record.msg:
            self.skipped_ops.add((self.session, self.round, int(record.args[0])))

    def total(self) -> int:
        return sum(self.per_logger.values())


@dataclass
class Session:
    wall: float
    rounds: list[float]
    messages: list[int]
    error: float
    model: object

    @property
    def init_seconds(self) -> float:
        """``run_training``'s wall time outside its rounds: the client init."""
        return self.wall - sum(self.rounds)


class Bench:
    def __init__(self, workload, seed: int, warnings: WarningCounter):
        self.w = workload
        self.seed = seed
        self.warnings = warnings
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def build(self, reps: int, min_seconds: float = 0.0):
        times: list[float] = []
        while len(times) < reps or (sum(times) < min_seconds and len(times) < MAX_SETUP_REPS):
            started = time.perf_counter()
            inputs = self.w.build(self.seed)
            times.append(time.perf_counter() - started)
        self.n_clients = sum(1 for pairs in inputs.train.per_user.values() if pairs)
        return inputs, times

    def session(self, inputs, index: int) -> Session | None:
        rounds = self.w.session_rounds
        self.attempted += self.n_clients * rounds
        self.warnings.session, self.warnings.round = index, 0

        def on_round():
            self.warnings.round += 1

        started = time.perf_counter()
        try:
            result = self.w.train(inputs, rounds, on_round=on_round)
        except Exception:  # a failed session is a measured outcome
            traceback.print_exc()
            self.failed += self.n_clients * (rounds - self.warnings.round)
            self.problems.append(f"session {index} raised")
            return None
        wall = time.perf_counter() - started
        return Session(
            wall,
            [r.seconds for r in result.curve],
            [r.messages for r in result.curve],
            result.final_metric(),
            result.model,
        )

    def sessions(self, inputs, seconds: float, first_index: int, tracer=None) -> list[Session]:
        """Sessions back to back, stopping before one that would end past ``seconds``."""
        out: list[Session] = []
        started = time.perf_counter()
        while True:
            index = first_index + len(out)
            if tracer is not None:
                tracer.run_id = index
            s = self.session(inputs, index)
            if s is None:
                return out
            out.append(s)
            elapsed = time.perf_counter() - started
            if len(out) >= MIN_SESSIONS and elapsed * (len(out) + 1) / len(out) > seconds:
                return out

    def check(self, inputs, sessions: list[Session]) -> tuple[int, int, int]:
        """Untimed correctness gate; returns (budget misses, clamped, solve_alpha calls)."""
        from privmf import fakegrad, protocol, randresp
        from tracer import Tracer

        first = sessions[0] if sessions else None
        for s in sessions[1:]:
            if s.error != first.error or s.messages != first.messages:
                self.problems.append("final error or gradients per round differ between sessions")
            elif not (np.array_equal(s.model.u, first.model.u) and np.array_equal(s.model.v, first.model.v)):
                self.problems.append("final model differs between sessions")
        for s in sessions:
            if not (np.all(np.isfinite(s.model.u)) and np.all(np.isfinite(s.model.v))):
                self.problems.append("final model is not finite")
                break

        states, clamped = [], []
        capture = Tracer()
        capture.install([
            (protocol, "client_init", "protocol.client_init", lambda a, k, r: states.append(r), False),
            (fakegrad, "solve_alpha", "fakegrad.solve_alpha", lambda a, k, r: clamped.append(r.clamped), False),
        ])
        rounds = BYTES_PREFIX_ROUNDS if self.w.transport == "bytes" else CHECK_ROUNDS
        try:
            try:
                prefix = self.w.train(inputs, rounds)
            finally:
                capture.uninstall()
            memory = self.w.train(inputs, rounds, transport="memory") if self.w.transport == "bytes" else prefix
        except Exception:  # reported as a failed check
            traceback.print_exc()
            self.problems.append("check pass raised")
            return 0, 0, 0
        budget = self.w.budget
        misses = 0
        for st in states:
            rr = st.rr
            eps_i = randresp.epsilon_i_of(rr.p_star, rr.q_star, rr.h)
            eps_p = randresp.epsilon_p_of(rr.f, rr.h)
            if abs(eps_i - budget.eps_i) > BUDGET_RTOL * budget.eps_i or abs(
                eps_p - budget.resolved_eps_p()
            ) > BUDGET_RTOL * budget.resolved_eps_p():
                misses += 1
        if misses:
            self.problems.append(f"{misses} client(s) miss the requested eps_i/eps_p")
        if len(states) != self.n_clients:
            self.problems.append(f"captured {len(states)} client inits for {self.n_clients} clients")
        if not (np.array_equal(prefix.model.u, memory.model.u)
                and np.array_equal(prefix.model.v, memory.model.v)):
            self.problems.append("bytes transport and memory transport give different models")
        return misses, sum(clamped), len(clamped)

    def result_failed(self) -> int:
        if self.problems:
            return self.attempted
        return min(self.attempted, self.failed + len(self.warnings.skipped_ops))


def end_to_end(setup_times: list[float], sessions: list[Session], peak_rss_mb: float) -> dict:
    data_s = statistics.median(setup_times)
    rounds = [r for s in sessions for r in s.rounds]
    round_seconds = sum(rounds)
    return {
        "rounds_per_s": (len(rounds) / round_seconds, "1/s"),
        "messages_per_s": (sum(sum(s.messages) for s in sessions) / round_seconds, "1/s"),
        "round_s_p50": (statistics.median(rounds), "s"),
        "setup_s": (data_s + statistics.median(s.init_seconds for s in sessions), "s"),
        "wall_s": (data_s + statistics.median(s.wall for s in sessions), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "final_error": (sessions[0].error, "score"),
    }


def layer_targets(obs: dict):
    from privmf import bpr, codec, data, fakegrad, metrics, protocol, randresp, sgld

    def on_sample(args, kwargs, result):
        mu, sigma, alpha = args[:3]
        obs["samples"].append((mu, sigma, alpha))
        obs["fakes"] += np.size(result)

    def on_alpha(args, kwargs, result):
        obs["clamped"] += int(result.clamped)

    def on_encode(args, kwargs, result):
        obs["bytes"] += len(result)

    plain = [
        (data, "synthetic_dataset", None), (data, "format_ratings", None),
        (data, "parse_ratings", None), (data, "split", None),
        (randresp, "calibrate", None), (randresp, "prr", None), (randresp, "irr", None),
        (sgld, "prediction_errors", None), (sgld, "user_step", None),
        (sgld, "item_step", None), (sgld, "reduce_item_deltas", None),
        (fakegrad, "error_stats", None), (fakegrad, "solve_alpha", on_alpha),
        (fakegrad, "sample_fake_errors", on_sample), (fakegrad, "sample_fake_error", on_sample),
        (codec, "encode_message", on_encode),
        (protocol, "run_training", None), (protocol, "client_init", None),
        (protocol, "client_iteration", None), (protocol, "server_round", None),
        (protocol, "server_begin_round", None), (protocol, "server_collect", None),
        (protocol, "server_end_round", None), (protocol, "assemble_model", None),
        (bpr, "sd_bpr_client_iteration", None), (bpr, "bpr_step", None),
        (metrics, "rmse", None), (metrics, "auc", None),
    ]
    targets = [(m, a, f"{m.__name__.split('.')[-1]}.{a}", fn, False) for m, a, fn in plain]
    targets.append((codec, "iter_messages", "codec.iter_messages", None, True))
    return targets


def per_layer(tracer, obs, sessions: list[Session], misses: int, warnings: int,
              overhead: float, n_ratings: int) -> dict:
    """Per-layer metrics; the traced set-up is run id 0, sessions are 1..n."""
    from privmf import fakegrad

    n = len(sessions)
    setup = tracer.summary([0])
    run = tracer.summary(range(1, n + 1))

    def self_s(name):
        return run.get(name, (0.0, 0))[0] / n

    def calls(name):
        return run.get(name, (0.0, 0))[1] / n

    n_rounds = sum(len(s.rounds) for s in sessions)
    covered = [fakegrad.coverage(alpha, mu, sigma) for mu, sigma, alpha in obs["samples"]]
    return {
        "data.synth_s": (setup.get("data.synthetic_dataset", (0.0, 0))[0], "s"),
        "data.format_s": (setup.get("data.format_ratings", (0.0, 0))[0], "s"),
        "data.parse_s": (setup.get("data.parse_ratings", (0.0, 0))[0], "s"),
        "data.split_s": (setup.get("data.split", (0.0, 0))[0], "s"),
        "data.ratings": (n_ratings, "count"),
        "randresp.calibrate_s": (self_s("randresp.calibrate"), "s"),
        "randresp.prr_s": (self_s("randresp.prr"), "s"),
        "randresp.irr_s": (self_s("randresp.irr"), "s"),
        "randresp.irr_calls": (calls("randresp.irr"), "count"),
        "randresp.budget_misses": (misses, "count"),
        "sgld.errors_s": (self_s("sgld.prediction_errors"), "s"),
        "sgld.user_step_s": (self_s("sgld.user_step"), "s"),
        "sgld.item_step_s": (self_s("sgld.item_step"), "s"),
        "sgld.step_calls": (calls("sgld.user_step") + calls("sgld.item_step"), "count"),
        "sgld.reduce_s": (self_s("sgld.reduce_item_deltas"), "s"),
        "fakegrad.stats_s": (self_s("fakegrad.error_stats"), "s"),
        "fakegrad.solve_alpha_s": (self_s("fakegrad.solve_alpha"), "s"),
        "fakegrad.sample_s": (
            self_s("fakegrad.sample_fake_errors") + self_s("fakegrad.sample_fake_error"), "s"),
        "fakegrad.fakes": (obs["fakes"] / n, "count"),
        "fakegrad.accept_ratio": (sum(covered) / len(covered) if covered else 0.0, "ratio"),
        "fakegrad.clamped": (obs["clamped"] / n, "count"),
        "codec.encode_s": (self_s("codec.encode_message"), "s"),
        "codec.decode_s": (self_s("codec.iter_messages"), "s"),
        "codec.frames": (calls("codec.encode_message"), "count"),
        "codec.bytes_per_round": (obs["bytes"] / n_rounds, "B/round"),
        "protocol.client_init_s": (self_s("protocol.client_init"), "s"),
        "protocol.client_self_s": (self_s("protocol.client_iteration"), "s"),
        "protocol.collect_self_s": (self_s("protocol.server_collect"), "s"),
        "protocol.apply_s": (self_s("protocol.server_end_round"), "s"),
        "protocol.gradients_per_round": (
            sum(sum(s.messages) for s in sessions) / n_rounds, "count/round"),
        "protocol.warnings": (warnings / n, "count"),
        "bpr.client_self_s": (self_s("bpr.sd_bpr_client_iteration"), "s"),
        "bpr.step_s": (self_s("bpr.bpr_step"), "s"),
        "bpr.step_calls": (calls("bpr.bpr_step"), "count"),
        "metrics.eval_s": (self_s("metrics.rmse") + self_s("metrics.auc"), "s"),
        "trace.overhead": (overhead, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "privmf" / "__init__.py").is_file():
        print(f"perfbench: no privmf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import privmf
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workload = WORKLOADS[args.workload]

    env = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(ROOT),
        "privmf": privmf.__version__,
    }
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    warnings = WarningCounter()
    logging.getLogger("privmf").addHandler(warnings)
    bench = Bench(workload, args.seed, warnings)

    if args.trace:
        from tracer import Tracer

        inputs, _ = bench.build(1)
        reference = bench.session(inputs, 0)
        tracer = Tracer()
        obs = {"samples": [], "fakes": 0, "clamped": 0, "bytes": 0}
        tracer.install(layer_targets(obs))
        try:
            tracer.run_id = 0
            inputs, _ = bench.build(1)
            warnings_before = warnings.total()
            sessions = bench.sessions(inputs, args.seconds, first_index=1, tracer=tracer)
            traced_warnings = warnings.total() - warnings_before
        finally:
            tracer.uninstall()
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"trace-{workload.name}.npz")
    else:
        inputs, setup_times = bench.build(SETUP_REPS, SETUP_SECONDS)
        sessions = bench.sessions(inputs, args.seconds, first_index=0)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    misses, clamped, alpha_calls = bench.check(inputs, sessions)
    if not sessions:
        bench.problems.append("no session completed")

    print(f"fakegrad.clamped {clamped} of {alpha_calls} solve_alpha calls "
          f"({CHECK_ROUNDS if workload.transport != 'bytes' else BYTES_PREFIX_ROUNDS}-round check pass)")
    print("warnings per logger " + json.dumps(dict(warnings.per_logger), sort_keys=True))
    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}")

    metrics: dict = {}
    if sessions and not (args.trace and reference is None):
        rounds = sorted(r for s in sessions for r in s.rounds)
        line = f"samples: {len(sessions)} sessions x {workload.session_rounds} rounds = {len(rounds)} rounds"
        if len(rounds) >= 100:
            line += f"; round_s_p90 {statistics.quantiles(rounds, n=10)[-1]:.6f} s"
        print(line)
        if args.trace:
            overhead = statistics.median(rounds) / statistics.median(reference.rounds) - 1.0
            metrics = per_layer(tracer, obs, sessions, misses, traced_warnings, overhead,
                                inputs.n_ratings)
        else:
            metrics = end_to_end(setup_times, sessions, peak_rss)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")

    failed = bench.result_failed()
    correct = not bench.problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
