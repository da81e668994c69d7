"""Machine-speed calibration for reported times.

On a shared machine the speed available to one process can change by half
within seconds as other tenants come and go, and such shifts move every
timing of a run together.  A fixed loop shaped like the engine's hot paths
(a bitmask adjacency scan like ``freeze`` validation, and small numpy
updates like the dense oracle) is timed every ``EVERY_S`` seconds between
requests, outside the timed region.  A request's time is then scaled by
``REFERENCE_S`` over the mean of the loop times measured just before and
just after it: reported times are what the request would take on a
machine that runs the loop in ``REFERENCE_S``.
The loop does not touch stabgraph, so no change to the program moves it.
"""

from __future__ import annotations

import bisect
import random
import time

import numpy as np

REFERENCE_S = 0.010  # about the loop's time on a quiet 2-core Xeon sandbox
EVERY_S = 0.25


def _sparse_rows(n: int, edges: int) -> tuple:
    rng = random.Random(0)
    rows = [0] * n
    for _ in range(edges):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return tuple(rows)


_ROWS = _sparse_rows(1024, 3072)
_INDEX = np.arange(256)


def loop_seconds() -> float:
    """Time one pass of the fixed calibration loop: a symmetric-adjacency
    scan of a sparse 1024-node bitmask graph, and masked updates of a
    256-amplitude complex vector with a norm after each."""
    t0 = time.perf_counter()
    for _ in range(4):
        rows = list(_ROWS)
        for j, row in enumerate(rows):
            while row:
                low = row & -row
                if not (rows[low.bit_length() - 1] >> j) & 1:
                    raise AssertionError("calibration graph is not symmetric")
                row ^= low
        tuple(rows)
    amps = np.full(_INDEX.size, 1 / 16, dtype=complex)
    for _ in range(12):
        for q in range(8):
            amps[((_INDEX >> q) & 1) == 1] *= 1j
            np.linalg.norm(amps)
    return time.perf_counter() - t0


class Speedometer:
    """Loop timings taken during a run, and the scale they imply."""

    def __init__(self) -> None:
        self.at: list = []  # midpoint of each measurement
        self.took: list = []

    def measure(self) -> None:
        start = time.perf_counter()
        took = loop_seconds()
        self.at.append(start + took / 2)
        self.took.append(took)

    def maybe_measure(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] > EVERY_S:
            self.measure()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean loop time around [start, end]."""
        before = bisect.bisect_right(self.at, start) - 1
        after = bisect.bisect_left(self.at, end)
        near = [self.took[i] for i in (before, after) if 0 <= i < len(self.took)]
        return REFERENCE_S * len(near) / sum(near)
