"""Tests of the benchmark's own machinery.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import os
import random
import sys
import types
import unittest
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from omega_lie import catalog, linalg  # noqa: E402


class FakeClock:
    """Returns 0, 1, 2, ... on successive calls."""

    def __init__(self):
        self.now = -1.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestSelfTime(unittest.TestCase):
    def test_self_time_is_span_minus_union_of_children(self):
        parent = spans.Span(0, "p", "solvers.solve", "solvers", 0.0, 10.0, -1)
        children = [
            spans.Span(1, "a", "linalg.elim", "linalg", 1.0, 3.0, 0),
            spans.Span(2, "b", "linalg.elim", "linalg", 2.0, 5.0, 0),  # overlaps a
            spans.Span(3, "c", "linalg.elim", "linalg", 8.0, 12.0, 0),  # runs past the parent
            spans.Span(4, "d", "local.closure", "local", 1.5, 2.5, 1),  # grandchild, inside a
        ]
        selfs = spans.self_times([parent] + children)
        # union of the children within [0, 10] is [1, 5] + [8, 10] = 6
        self.assertEqual(selfs[0], 10.0 - 6.0)
        self.assertEqual(selfs[1], 2.0 - 1.0)
        self.assertEqual(selfs[3], 4.0)

    def test_union_length_merges_and_clips(self):
        self.assertEqual(spans.union_length([(1, 3), (2, 5), (6, 7)], 0, 10), 5)
        self.assertEqual(spans.union_length([(-5, 2), (9, 20)], 0, 10), 3)
        self.assertEqual(spans.union_length([], 0, 10), 0)

    def test_tracer_self_time_excludes_calls_into_other_modules(self):
        low = types.ModuleType("low")
        low.leaf = lambda: None
        high = types.ModuleType("high")

        def outer():
            low.leaf()
            low.leaf()

        high.outer = outer
        tracer = spans.Tracer(
            {"high": high, "low": low},
            [spans.Target("high", "outer", "solvers.outer"), spans.Target("low", "leaf", "linalg.leaf")],
            clock=FakeClock(),
        )
        with tracer:
            high.outer()
        self.assertFalse(hasattr(low.leaf, "__wrapped__"))  # uninstalled
        names = [(s.name, s.parent) for s in tracer.spans]
        self.assertEqual(names, [("outer", -1), ("leaf", 0), ("leaf", 0)])
        # outer spans clock ticks 0..5, each leaf one tick: self time 5 - 2.
        self.assertEqual(spans.self_times(tracer.spans)[0], 3.0)
        self.assertEqual(spans.group_seconds(tracer.spans)["solvers"]["self"], 3.0)

    def test_call_within_one_module_opens_no_span(self):
        mod = types.ModuleType("mod")
        mod.inner = lambda: None

        def outer():
            mod.inner()

        mod.outer = outer
        tracer = spans.Tracer(
            {"mod": mod},
            [spans.Target("mod", "outer", "solvers.a"), spans.Target("mod", "inner", "solvers.b")],
        )
        with tracer:
            mod.outer()
            mod.inner()
        self.assertEqual([s.name for s in tracer.spans], ["outer", "inner"])


class TestTail(unittest.TestCase):
    def test_tail_leaves_ten_samples_beyond(self):
        values = list(range(1, 101))
        random.Random(1).shuffle(values)
        self.assertEqual(run.tail(values), (90.0, 90))

    def test_tail_of_eleven_samples_is_the_smallest(self):
        self.assertEqual(run.tail([5.0] + [9.0] * 10), (100.0 * 1 / 11, 5.0))

    def test_tail_needs_more_than_ten_samples(self):
        with self.assertRaises(ValueError):
            run.tail([1.0] * 10)


class TestSpeedScale(unittest.TestCase):
    def test_interval_is_scaled_by_the_kernel_times_on_both_sides(self):
        timeline = speed.Timeline()
        timeline.marks = [(0.0, 1.0), (5.0, 7.0), (9.0, 12.0)]  # kernel runs of 1, 2 and 3 s
        ref = speed.REFERENCE_S
        self.assertAlmostEqual(timeline.reference_seconds(2.0, 4.0), 2.0 * ref / 1.5)
        # [0.5, 10] keeps [1, 5] at speed 1.5 and [7, 9] at speed 2.5; kernel time is left out.
        self.assertAlmostEqual(timeline.reference_seconds(0.5, 10.0), 4.0 * ref / 1.5 + 2.0 * ref / 2.5)
        self.assertAlmostEqual(timeline.measured_seconds(0.5, 10.0), 9.5 - 0.5 - 2.0 - 1.0)

    def test_kernel_is_deterministic(self):
        self.assertEqual(speed.kernel(), speed.kernel())


class TestGate(unittest.TestCase):
    def setUp(self):
        self.workload = workloads.WORKLOADS["solve-ladder"]
        self.alg = catalog.get("sl2")
        self.good = workloads.solve("der", self.alg)
        self.reference = {"der/n3": self.workload.record(workloads.Outcome("der/n3", 0.0, 0.0, self.good))}

    def outcomes(self):
        basis = [list(row) for row in self.good.space.basis]
        basis[0][-1] += Fraction(1, 7)
        corrupted = dataclasses.replace(
            self.good, space=linalg.SubspaceBasis(9, tuple(tuple(r) for r in basis))
        )
        return [
            workloads.Outcome("der/n3", 0.0, 0.01, self.good, context=self.alg),
            workloads.Outcome("der/n3", 0.0, 0.01, corrupted, context=self.alg),
            workloads.Outcome("der/n3", 0.0, 0.01, error="ZeroDivisionError: boom"),
        ]

    def test_corrupted_basis_and_exception_fail_at_other_seeds(self):
        failures = workloads.outcome_failures(self.workload, self.outcomes(), 7, self.reference)
        self.assertEqual(len(failures), 2)
        self.assertIn("residual", failures[0][1])
        self.assertIn("ZeroDivisionError", failures[1][1])

    def test_corrupted_basis_and_exception_fail_at_the_default_seed(self):
        failures = workloads.outcome_failures(
            self.workload, self.outcomes(), self.workload.default_seed, self.reference
        )
        self.assertEqual([reason for _, reason in failures][0], "output differs from the reference")
        self.assertEqual(len(failures), 2)

    def test_timed_pass_must_reproduce_the_gated_pass(self):
        failures = workloads.outcome_failures(self.workload, self.outcomes(), 7, {}, expected=self.reference)
        self.assertEqual(len(failures), 2)

    def test_fail_ratio_counts_failed_operations(self):
        gate = run.Run.__new__(run.Run)
        gate.wl, gate.workload, gate.seed, gate.reference = workloads, self.workload, 7, self.reference
        gate.attempted, gate.failures, gate.expected = 0, [], None
        gate._gate(self.outcomes())
        self.assertEqual((len(gate.failures), gate.attempted), (2, 3))


if __name__ == "__main__":
    unittest.main()
