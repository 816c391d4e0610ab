"""A fixed pure-Python load that measures how fast the machine runs right now.

The machine the benchmark targets is a small share of a shared host, and its
speed drifts by tens of percent over minutes.  A timed run interleaves calls
of :func:`chunk` with its cases, about one per 50 ms of case work, and
divides every case time of a pass by the pass's mean chunk time over
``NOMINAL_S``, so a time reads as it would at the nominal speed.  The load is exact integer arithmetic on
short coordinate tuples with gcd reduction, like the package's field
arithmetic, and does not touch the package: a change to the package cannot
change it.
"""

from __future__ import annotations

import gc
import time
from math import gcd

# About the mean seconds of one chunk on a 2-core Intel Xeon VM, Python 3.11.7.
NOMINAL_S = 0.002
# Reference seconds of case work per calibration chunk.
CASE_S_PER_CHUNK = 0.05
_DEGREE = 8
_ROUNDS = 60


def _mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two polynomials modulo x^8 + 1, reduced by the content."""
    out = [0] * _DEGREE
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                k = i + j
                if k < _DEGREE:
                    out[k] += x * y
                else:
                    out[k - _DEGREE] -= x * y
    g = 0
    for c in out:
        g = gcd(g, c)
    return tuple(c // g for c in out) if g > 1 else tuple(out)


def chunks_for(case_s: float) -> int:
    """Chunks to run before a case of ``case_s`` reference seconds."""
    return max(1, round(case_s / CASE_S_PER_CHUNK))


def chunk() -> float:
    """Run the fixed load once; returns its wall time in seconds.

    The garbage collector is off meanwhile, so that a collection of the
    package's objects, which the load's allocations could set off, is not
    timed here."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed_load()
    finally:
        if enabled:
            gc.enable()


def _timed_load() -> float:
    start = time.perf_counter()
    a = (6, -2, 8, 2, -10, 18, 4, -12)
    seen: dict[tuple[int, ...], int] = {}
    for r in range(_ROUNDS):
        b = (r, 7, -1, 8, r % 5, -8, 1, 2 * r + 1)
        c = _mul(a, _mul(b, b))
        seen[c] = seen.get(c, 0) + r
    if len(seen) != _ROUNDS:
        raise RuntimeError("calibration load lost its results")
    return time.perf_counter() - start
