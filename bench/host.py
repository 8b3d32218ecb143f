"""Host speed: a fixed reference kernel and the rescaling it allows.

The benchmark runs on a few cores of a shared host whose speed swings by a
third or more within seconds, as other tenants start and stop.  The run
times a fixed pure-Python kernel about seven times a second between ops, and
rescales each op's wall time by the kernel's time around it to what it would
have been on a host where the kernel takes REF_S.  The kernel does the kind
of work the package does (Gaussian elimination over F_p on lists, JSON
round trips, small-object allocation, and small immutable matrices over a
frozen field spec multiplied together), so that a slow host stretches both
alike.  The kernel never calls the package, so a change to the package moves
the rescaled times as much as the wall times.  The kernel and REF_S must stay
fixed for figures to be comparable across commits.
"""

from __future__ import annotations

import bisect
import json
import random
import statistics
import time
from dataclasses import dataclass

REF_S = 0.006          # the kernel's time on the nominal host
REF_EVERY_S = 0.15     # op time between two kernel runs
WINDOW_S = 3.0         # kernel runs within this span around an op set its scale
SPIN_ITERATIONS = 300_000

_P = 2**31 - 1
_rng = random.Random(20200408)
_MATRICES = [[[_rng.randrange(_P) for _ in range(12)] for _ in range(12)] for _ in range(3)]
_DOC = json.dumps({"steps": _MATRICES, "dims": list(range(40))})


def _rank(rows: list, p: int) -> int:
    m = [[x % p for x in row] for row in rows]
    r = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return r


@dataclass(frozen=True)
class _Field:
    p: int


class _Matrix:
    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: _Field, rows: int, cols: int, entries) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries",
                           tuple(tuple(x % field.p for x in row) for row in entries))

    def __setattr__(self, name, value):
        raise AttributeError("immutable")


def _mul(a: _Matrix, b: _Matrix) -> _Matrix:
    if a.field != b.field:
        raise ValueError("fields differ")
    cols = list(zip(*b.entries))
    return _Matrix(a.field, a.rows, b.cols,
                   [[sum(x * y for x, y in zip(row, col)) % a.field.p for col in cols]
                    for row in a.entries])


def _small_products() -> int:
    total = 0
    for k in range(80):
        p = (2, 5, _P)[k % 3]
        n = 1 + k % 4
        a = _Matrix(_Field(p), n, n, [[i * 7 + j + k for j in range(n)] for i in range(n)])
        b = _Matrix(_Field(p), n, n, [[i + j * 3 + k for j in range(n)] for i in range(n)])
        total += _mul(a, b).entries[0][0]
    return total


def kernel() -> int:
    """The fixed reference work."""
    total = sum(_rank(m, p) for m in _MATRICES for p in (2, 5, _P))
    total += len(json.dumps(json.loads(_DOC)))
    objects = [(i, {"a": i, "b": [i, i]}) for i in range(2000)]
    return total + len(objects) + _small_products()


def time_kernel() -> tuple[float, float]:
    """(midpoint, seconds) of one kernel run."""
    t0 = time.perf_counter()
    kernel()
    t1 = time.perf_counter()
    return (t0 + t1) / 2, t1 - t0


def kernel_s() -> float:
    """Median kernel time over three back-to-back runs."""
    return statistics.median(time_kernel()[1] for _ in range(3))


def rescale(walls: list, mids: list, refs: list) -> list:
    """Each wall time, taken at midpoint mids[i], times REF_S over the median
    kernel time of refs (sorted (midpoint, seconds) pairs) within WINDOW_S of
    it, always counting the nearest run on either side."""
    times = [t for t, _ in refs]
    out = []
    for wall, mid in zip(walls, mids):
        at = bisect.bisect_left(times, mid)
        lo = min(bisect.bisect_left(times, mid - WINDOW_S / 2), max(at - 1, 0))
        hi = max(bisect.bisect_right(times, mid + WINDOW_S / 2), min(at + 1, len(times)))
        out.append(wall * REF_S / statistics.median(s for _, s in refs[lo:hi]))
    return out


def spin_ms() -> float:
    """A fixed pure-Python loop, timed to show host speed drift."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(SPIN_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1000
