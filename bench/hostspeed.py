"""Host-speed reference: rescales measured times to a fixed nominal host speed.

On a shared virtual machine the same code runs up to about 30% slower or
faster for stretches of seconds to minutes, and every hqmmsym operation
slows or speeds up together.  Medians of raw wall times then move with
the host, not with the program.  The benchmark therefore times a fixed
reference sample (small-array numpy calls and a Python loop, the mix
hqmmsym itself runs) between operations, at most every ``INTERVAL_S``
seconds.  Each operation's time is multiplied by
``REFERENCE_S`` over the median of the reference samples taken within
``WINDOW_S`` seconds of it.  The result is the time the operation would
take on a host where one reference sample takes ``REFERENCE_S``.  The
reference code is the benchmark's own and calls nothing in hqmmsym, so a
change to the program moves the rescaled times as much as the raw ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Nominal seconds of one reference sample: about its median on a shared
# 2-vCPU Intel Xeon virtual machine with Python 3.11 and numpy 2.4.
REFERENCE_S = 2.0e-3
INTERVAL_S = 0.1
WINDOW_S = 1.5

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_B = _rng.standard_normal((3, 3)) + 1j * _rng.standard_normal((3, 3))


def reference_sample() -> float:
    """Seconds of one fixed unit of reference work."""
    start = time.perf_counter()
    for _ in range(30):
        k = np.kron(_A, _B)
        m = k @ k.conj().T
        np.linalg.svd(_A, compute_uv=False)
        np.trace(m).real
        sum(i * i for i in range(50))
    return time.perf_counter() - start


class SpeedTrack:
    """Reference samples taken during a loop, with the time each was taken."""

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        now = time.perf_counter()
        self.seconds.append(reference_sample())
        self.at.append(now)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.at[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor for an operation run from ``start`` to ``end``."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        return REFERENCE_S / statistics.median(self.seconds[lo:hi] or self.seconds)
