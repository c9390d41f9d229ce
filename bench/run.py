#!/usr/bin/env python3
"""Benchmark of the omega-lie library, run from the root of a checkout.

    python3 bench/run.py --workload verify-paper --seed 12648430 --seconds 20 --trace 0

One run imports the library from ``src/`` of the checkout, builds the
workload's inputs from ``--seed``, and measures whole passes, single-threaded
in this one process, for ``--seconds`` seconds and at least ``MIN_PASSES``
passes.  The first pass is gated in full (against ``bench/reference.json`` at
the default seed, by exact independent checks at any other seed); every later
pass must reproduce its outputs exactly.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics of the traced
ones, and writes their spans to ``bench/out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Exit code 0 on a completed run (also when outputs are wrong: ``correct``
says so), 2 when the library or the reference cannot be loaded.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# The slowest operation of local-sweep and verify-paper runs once per pass, so
# eleven passes keep that operation's samples on both sides of the tail cut.
MIN_PASSES = 11
MIN_TRACED_PASSES = 3
SETUP_RUNS = 5
TAIL_BEYOND = 10

_SETUP_CHILD = """
import json, sys, time
src, bench, name, seed = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
t0 = time.perf_counter()
sys.path.insert(0, src)
import omega_lie, omega_lie.cli, omega_lie.verification
t1 = time.perf_counter()
sys.path.insert(0, bench)
import speed, workloads
t2 = time.perf_counter()
workloads.WORKLOADS[name].inputs(seed)
t3 = time.perf_counter()
scale = speed.REFERENCE_S / speed.kernel_seconds()
print(json.dumps({"import_s": t1 - t0, "inputs_s": t3 - t2, "scale": scale}))
"""


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """Highest percentile with at least ``beyond`` samples above it: ``(percentile, value)``.

    That is the ``beyond + 1``-th largest sample; at or below it lie
    ``n - beyond`` of the ``n`` samples.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"a tail with {beyond} samples beyond it needs more than {beyond} samples, got {n}")
    ordered = sorted(values)
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]


def load_library():
    """Import ``omega_lie`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import omega_lie
    except ImportError as exc:
        raise SystemExit(f"error: cannot import omega_lie from {SRC}: {exc}") from None
    where = os.path.dirname(os.path.abspath(omega_lie.__file__))
    if where != os.path.join(SRC, "omega_lie"):
        raise SystemExit(f"error: omega_lie was imported from {where}, not from {SRC}")
    from omega_lie import algebra, catalog, cli, linalg, local, solvers, verification

    return {
        "omega_lie": omega_lie,
        "algebra": algebra,
        "catalog": catalog,
        "cli": cli,
        "linalg": linalg,
        "local": local,
        "solvers": solvers,
        "verification": verification,
    }


def load_reference(name: str) -> dict:
    try:
        with open(REFERENCE, encoding="utf-8") as handle:
            return json.load(handle)[name]
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"error: cannot load the {name} reference from {REFERENCE}: {exc}") from None


def measure_setup(name: str, seed: int) -> dict:
    """Median, over fresh interpreters, of importing the library and building the inputs."""
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, SRC, BENCH_DIR, name, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": statistics.median((s["import_s"] + s["inputs_s"]) * s["scale"] for s in samples),
        "import_s": statistics.median(s["import_s"] for s in samples),
        "inputs_s": statistics.median(s["inputs_s"] for s in samples),
        "scale": statistics.median(s["scale"] for s in samples),
    }


class Run:
    """Passes of one workload with their gate."""

    def __init__(self, workloads, spans, modules: dict, name: str, seed: int):
        self.wl = workloads
        self.spans = spans
        self.modules = modules
        self.targets = spans.layer_targets(modules["verification"])
        self.workload = workloads.WORKLOADS[name]
        self.seed = seed
        self.reference = load_reference(name)
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.expected = None  # records of the first pass, once it is gated

    def timed_pass(self, tracer=None):
        """Fresh inputs, then one timed pass with speed marks (see ``speed.py``).

        An untraced pass is marked between operations and at calls into the
        library too; a traced pass (``tracer``) only before and after, so no
        kernel run falls inside its spans.
        Returns ``(measured seconds, reference seconds, outcomes, timeline)``.
        """
        inputs = self.workload.inputs(self.seed)
        gc.collect()
        timeline = speed.Timeline()
        timeline.mark()
        patch = tracer or self.spans.speed_marks(self.modules, self.targets, timeline)
        patch.install()
        start = time.perf_counter()
        try:
            outcomes = self.workload.run_pass(inputs, None if tracer else timeline)
        finally:
            end = time.perf_counter()
            patch.uninstall()
            timeline.mark()
        self._gate(outcomes)
        return timeline.measured_seconds(start, end), timeline.reference_seconds(start, end), outcomes, timeline

    def _gate(self, outcomes) -> None:
        """Gate the first pass in full; every later pass must reproduce its records."""
        self.attempted += len(outcomes)
        self.failures += self.wl.outcome_failures(self.workload, outcomes, self.seed, self.reference, self.expected)
        if self.expected is None:
            self.expected = {}
            for o in outcomes:
                if o.error is None:
                    try:
                        self.expected[o.label] = self.workload.record(o)
                    except Exception:  # already counted as failed by the gate
                        pass


def run_untraced(run: Run, seconds: float) -> tuple[dict, list[str]]:
    setup = measure_setup(run.workload.name, run.seed)
    measured, walls, ops, pass_p50 = [], [], [], []
    while sum(measured) < seconds or len(measured) < MIN_PASSES:
        wall, reference, outcomes, timeline = run.timed_pass()
        measured.append(wall)
        walls.append(reference)
        latencies = [timeline.reference_seconds(o.start, o.end) for o in outcomes]
        ops += latencies
        pass_p50.append(statistics.median(latencies))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pct, tail_s = tail(ops)
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (1000.0 * statistics.median(pass_p50), "ms"),
        "op_tail_ms": (1000.0 * tail_s, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes = [
        f"passes {len(walls)}, measured {sum(measured):.2f} s, operations {len(ops)}",
        f"times are reference seconds (speed.py): measured median wall {statistics.median(measured):.4f} s, "
        f"scale {statistics.median(walls) / statistics.median(measured):.4f} (passes), {setup['scale']:.4f} (setup)",
        f"op_tail_ms is p{pct:.2f} of {len(ops)} operation samples ({TAIL_BEYOND} beyond it)",
        f"setup_s = import_s {setup['import_s']:.4f} + inputs_s {setup['inputs_s']:.4f} "
        f"(median of {SETUP_RUNS} fresh interpreters)",
    ]
    return metrics, notes


def run_traced(run: Run, seconds: float) -> tuple[dict, list[str]]:
    spans_module = run.spans
    tracer = spans_module.Tracer(run.modules, run.targets)
    measured, plain, traced, per_pass, tables, dumps = 0.0, [], [], [], [], []
    while measured < seconds or min(len(plain), len(traced)) < MIN_TRACED_PASSES:
        if len(plain) <= len(traced):
            wall, reference, _, _ = run.timed_pass()
            measured += wall
            plain.append(reference)
            continue
        tracer.reset()
        origin = time.perf_counter()
        wall, reference, _, _ = run.timed_pass(tracer)
        measured += wall
        traced.append(reference)
        per_pass.append(spans_module.pass_metrics(tracer.spans, tracer.counts, tracer.distinct, wall))
        tables.append(spans_module.group_seconds(tracer.spans))
        dumps.append(
            {
                "wall_s": wall,
                "spans": [[s.id, s.parent, s.group, s.name, s.start - origin, s.end - origin] for s in tracer.spans],
            }
        )
    metrics = {"trace.wall_s": (statistics.median(traced), "s")}
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    for name in per_pass[0]:
        unit = "%" if name.endswith("pct") else ("ratio" if name.endswith("ratio") else "count")
        if name == "linalg.basis_bits_max":
            unit = "bits"
        metrics[name] = (statistics.median(p[name] for p in per_pass), unit)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{run.workload.name}-{run.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": run.workload.name, "seed": run.seed, "passes": dumps}, handle)
    notes = [f"untraced passes {len(plain)}, traced passes {len(traced)}; spans written to {os.path.relpath(path, ROOT)}"]
    notes.append("measured seconds per traced pass (median), span total / self:")
    for group in sorted({g for t in tables for g in t}):
        total = statistics.median(t.get(group, {}).get("total", 0.0) for t in tables)
        own = statistics.median(t.get(group, {}).get("self", 0.0) for t in tables)
        notes.append(f"  {group:32s} {total:10.4f} {own:10.4f}")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="input seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules = load_library()
    sys.path.insert(0, BENCH_DIR)
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(workloads.WORKLOADS)})")
    seed = workloads.WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    run = Run(workloads, spans, modules, args.workload, seed)
    if args.trace:
        metrics, notes = run_traced(run, args.seconds)
    else:
        metrics, notes = run_untraced(run, args.seconds)

    print(f"workload {args.workload}, seed {seed}, trace {args.trace}")
    for line in notes:
        print(line)
    fail_ratio = len(run.failures) / run.attempted if run.attempted else 1.0
    print(f"{'fail_ratio':32s} {fail_ratio:14.6f} ratio  ({len(run.failures)} of {run.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    for label, reason in run.failures[:20]:
        print(f"FAILED {label}: {reason}", file=sys.stderr)
    result = {
        "correct": not run.failures and run.attempted > 0,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
