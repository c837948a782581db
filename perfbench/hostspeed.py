"""Host speed calibration for the end-to-end times.

The reference host's speed drifts by up to a third over tens of seconds,
while the process keeps its CPU (see NOTES.md, "Steadiness and the
bounds"). A fixed piece of work that touches no hypopep code, a pure
Python loop and a few small BLAS calls, is timed between items. Each
end-to-end time is scaled by ``REFERENCE_S`` over the calibration time
measured around it, so it reads as on the reference host at its reference
speed. The raw times are printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.0084  # about the median calibration time on the reference machine
EVERY_S = 0.25  # least wall time between two samples of a timed loop

_A = np.random.default_rng(0).standard_normal((60, 60))
_SHIFT = 60.0 * np.eye(60)


def calibration_seconds() -> float:
    """Wall time of the fixed calibration work."""
    start = time.perf_counter()
    acc = 0
    for k in range(40000):
        acc += k * k
    for _ in range(60):
        np.linalg.cholesky(_A @ _A.T + _SHIFT)
    return time.perf_counter() - start


class HostClock:
    """Calibration samples taken between items, at most every ``EVERY_S`` seconds."""

    def __init__(self):
        calibration_seconds()  # warm-up, not kept
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> None:
        self.samples.append(calibration_seconds())
        self._last = time.perf_counter()

    def tick(self) -> int:
        """Sample when due; return the index of the latest sample."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()
        return len(self.samples) - 1

    def scale(self, k: int) -> float:
        """Host-to-reference factor for an item run between samples k and k + 1.

        The median of the eight samples around that gap (about 2 s of wall
        time) follows the host's phases and damps one sample's jitter.
        """
        return REFERENCE_S / statistics.median(self.samples[max(k - 3, 0):k + 5])

    def speed(self) -> float:
        """Host speed relative to the reference: above 1 is faster."""
        return REFERENCE_S / statistics.fmean(self.samples)

