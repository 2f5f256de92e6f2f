"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--jobs 1] [--out FILE]

Run from the repository root. Each run is its own process, started from
the ``command`` in ``BENCHMARK.json`` with its ``run_seconds``; at most
``--jobs`` (never more than the core count) run at a time. For every
workload and metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
interquartile distance as a share of the median, next to the metric's bound.
``--out`` writes the runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}\n")
    return {"workload": workload, "seed": seed, "exit": proc.returncode, "env": env, "result": result}


def summarise(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    jobs = max(1, min(args.jobs, os.cpu_count() or 1))
    runs_todo = [(w, s) for w in workloads for s in parse_seeds(args.seeds)]
    with ThreadPoolExecutor(jobs) as pool:
        futures = [pool.submit(run_one, spec["command"], w, s, spec["run_seconds"], args.trace)
                   for w, s in runs_todo]
        runs = [f.result() for f in futures]

    ok = all(r["exit"] == 0 and r["result"] and r["result"]["correct"] for r in runs)
    summary: dict = {}
    for w in workloads:
        results = [r["result"] for r in runs if r["workload"] == w and r["result"]]
        print(f"== {w}: {len(results)} runs, "
              f"{sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)} ops failed")
        summary[w] = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results if m["name"] in r["metrics"]]
            if not values:
                continue
            s = summarise(values)
            summary[w][m["name"]] = s
            bound = m.get("bound")
            flag = "" if bound is None else f"  bound {bound:.3f}" + (
                "  (over bound/3)" if s["spread"] > bound / 3 else "")
            print(f"  {m['name']:30s} {s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] "
                  f"{m['unit']}  spread {s['spread']:.4f}{flag}")

    if args.out:
        record = {
            "seeds": parse_seeds(args.seeds),
            "trace": args.trace,
            "run_seconds": spec["run_seconds"],
            "host": {"python": platform.python_version(), "nproc": os.cpu_count(),
                     "machine": platform.machine()},
            "summary": summary,
            "runs": runs,
        }
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
