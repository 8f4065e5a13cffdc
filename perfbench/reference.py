"""The speed reference: a fixed pure-Python loop timed next to every batch.

On a shared 2-vCPU host (Intel Xeon, Python 3.11.7) the speed of one
core drifted by up to a third over tens of seconds, and a slow phase
could cover a whole 30 s run, so raw wall times of separate runs were
not comparable. The benchmark therefore times
this loop before and after each batch and each set-up probe, and reports
each time scaled to a fixed loop time:

    normalized = wall * REFERENCE_NOMINAL_S / (mean loop time around it)

The loop does the kind of work afkit does (fraction-free integer
elimination, Fraction sums, tuple-keyed dict stores) and uses no afkit
code, so a change to the library moves the normalized times exactly as
it moves the raw ones. Raw times are reported next to them.
"""

from __future__ import annotations

import time
from fractions import Fraction

# About the loop's median time on that host; it only fixes the scale.
REFERENCE_NOMINAL_S = 0.015

_MATRIX = tuple(
    tuple((i * 7 + j * 13) % 17 - 8 + (5 if i == j else 0) for j in range(7)) for i in range(7)
)


def _work() -> int:
    acc = 0
    for rep in range(45):
        m = [list(row) for row in _MATRIX]
        prev = 1
        n = len(m)
        for k in range(n - 1):
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
            prev = m[k][k] or 1
        acc += m[n - 1][n - 1]
        f = Fraction(0)
        store = {}
        for t in range(1, 60):
            f += Fraction(t, t + rep + 1)
            store[(t, rep)] = f
        acc += len(store)
    return acc


def reference_seconds() -> float:
    """Wall time of one pass of the fixed loop."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def normalize(wall: float, ref_before: float, ref_after: float) -> float:
    return wall * REFERENCE_NOMINAL_S * 2 / (ref_before + ref_after)
