#!/usr/bin/env python3
"""Repeat benchmark runs over seeds, report their spread, and record a baseline.

    python3 bench/baseline.py                              # 10 seeds, every workload
    python3 bench/baseline.py --workloads dense-elim --seeds 5
    python3 bench/baseline.py --write                      # also traced runs, then bench/baseline.json

Run from the root of a checkout.  For every end-to-end metric it prints the
median of the runs and the spread, the distance between the first and third
quartile as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  Runs are made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEEDS = (0xC0FFEE, 1, 2, 3, 4, 5, 6, 7, 8, 9)


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect outputs\n{proc.stderr}")
    result["run_s"] = time.perf_counter() - start
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--seeds", type=int, default=len(SEEDS), help="how many of the seeds to run")
    parser.add_argument("--write", action="store_true", help="write bench/baseline.json")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    sys.path.insert(0, BENCH_DIR)
    import run

    run.load_library()
    import workloads

    report = {}
    for name in names:
        runs = [bench_run(name, seed, seconds, 0) for seed in SEEDS[: args.seeds]]
        entry = {"end_to_end": {}, "run_s": statistics.median(r["run_s"] for r in runs)}
        print(f"{name}: {len(runs)} runs, median {entry['run_s']:.1f} s each")
        for metric in spec["end_to_end"]:
            stats = summary([r["metrics"][metric["name"]]["value"] for r in runs])
            entry["end_to_end"][metric["name"]] = stats
            flag = "" if stats["spread"] < metric["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {metric['name']:14s} median {stats['median']:12.4f} {metric['unit']:5s} "
                  f"spread {stats['spread']:.4f} bound {metric['bound']}{flag}  "
                  f"{[round(v, 4) for v in stats['values']]}")
        if args.write:
            w = workloads.WORKLOADS[name]
            traced = bench_run(name, w.default_seed, seconds, 1)
            entry.update(why=w.why, default_seed=w.default_seed, operation=w.operation,
                         per_layer={k: v["value"] for k, v in traced["metrics"].items()})
        report[name] = entry
    if args.write:
        baseline = {
            "commit": git_commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "run_seconds": seconds,
            "seeds": list(SEEDS[: args.seeds]),
            "metrics": {m["name"]: {"unit": m["unit"], "better": m["better"], **({"bound": m["bound"]} if "bound" in m else {})}
                        for m in spec["end_to_end"] + spec["per_layer"]},
            "workloads": report,
        }
        with open(os.path.join(BENCH_DIR, "baseline.json"), "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
