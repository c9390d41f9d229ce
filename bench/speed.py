"""Host speed, measured beside the timed work, to scale times to one reference speed.

On a shared host the same Python code can run at speeds that differ by up to
a factor of two for minutes at a time, which no number of repetitions
averages away.  Every time the benchmark reports is therefore scaled:

    reported = measured * REFERENCE_S / kernel

where ``kernel`` is the mean time of a fixed calibration kernel run right
before and right after the timed interval; during a pass the kernel runs
again between operations every ``MARK_EVERY_S`` seconds.  The kernel is an
exact sparse elimination over ``Fraction`` written here, so it exercises the
same kind of
interpreter work as the library without depending on any library code: no
change to ``src/`` can move it.  ``REFERENCE_S`` is about the kernel's time
in the fast phase of the 2-vCPU, 2.1 GHz Xeon host the baseline was recorded
on (Python 3.11), so reported times read as seconds on that host at that
speed.  The measured times and the scale are printed beside the reported ones.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

REFERENCE_S = 0.0075
MARK_EVERY_S = 0.2

_rng = random.Random(7)
_ROWS = tuple(
    {j: Fraction(_rng.choice((-3, -2, -1, 1, 2, 3))) for j in _rng.sample(range(24), 6)} for _ in range(40)
)


def kernel() -> int:
    """Reduced row echelon form of a fixed 40 x 24 sparse rational matrix; returns the rank."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in _ROWS:
        residue = dict(row)
        for col in [c for c in residue if c in pivots]:
            coeff = residue.get(col)
            if not coeff:
                continue
            for c, v in pivots[col].items():
                acc = residue.get(c, 0) - coeff * v
                if acc:
                    residue[c] = acc
                else:
                    residue.pop(c, None)
        if not residue:
            continue
        pivot = min(residue)
        lead = residue[pivot]
        residue = {c: v / lead for c, v in residue.items()}
        for other in pivots.values():
            coeff = other.get(pivot)
            if coeff:
                for c, v in residue.items():
                    acc = other.get(c, 0) - coeff * v
                    if acc:
                        other[c] = acc
                    else:
                        other.pop(c, None)
        pivots[pivot] = residue
    return len(pivots)


def kernel_seconds(repeats: int = 3, clock=time.perf_counter) -> float:
    """Median seconds of ``repeats`` kernel runs."""
    samples = []
    for _ in range(repeats):
        start = clock()
        kernel()
        samples.append(clock() - start)
    return sorted(samples)[len(samples) // 2]


class Timeline:
    """Kernel runs at points in time, to convert measured intervals to reference seconds.

    ``mark`` runs the kernel once.  An interval between two marks is scaled by
    the mean of the kernel times on its two sides, so speed changes during a
    pass are followed at the granularity of the marks.  Time spent in the
    kernel itself is never counted.
    """

    def __init__(self, every: float = MARK_EVERY_S, clock=time.perf_counter):
        self.every = every
        self.clock = clock
        self.marks: list[tuple[float, float]] = []  # (start, end) of each kernel run

    def mark(self) -> None:
        start = self.clock()
        kernel()
        self.marks.append((start, self.clock()))

    def maybe_mark(self) -> None:
        """Mark when ``every`` seconds have passed since the last mark."""
        if not self.marks or self.clock() - self.marks[-1][1] >= self.every:
            self.mark()

    def reference_seconds(self, a: float, b: float) -> float:
        """Seconds of ``[a, b]`` outside kernel runs, scaled to the reference speed.

        ``[a, b]`` must lie between the first and the last mark.
        """
        total = 0.0
        for (s0, e0), (s1, e1) in zip(self.marks, self.marks[1:]):
            lo, hi = max(a, e0), min(b, s1)
            if hi > lo:
                total += (hi - lo) * REFERENCE_S / (((e0 - s0) + (e1 - s1)) / 2.0)
        return total

    def measured_seconds(self, a: float, b: float) -> float:
        """Seconds of ``[a, b]`` outside kernel runs, unscaled."""
        inside = sum(max(0.0, min(b, e) - max(a, s)) for s, e in self.marks)
        return (b - a) - inside
