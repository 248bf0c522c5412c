"""Machine-speed probes: a fixed pure-Python loop timed next to the work.

Shared hosts drift in speed by 20-30 % within seconds and between runs,
which moves raw wall-clock medians by more than any bound worth gating on.
So the in-process timings (set-up and the offline-merge, doc-storage and
room-relay stages) are scaled to a *reference machine*, one on which
``probe()`` takes exactly ``REFERENCE_PROBE_S``.  Each sample is divided by
the speed factor measured by probes taken right before and after it, so a
slow stretch of the host slows the probe as much as the work and cancels
out.

The probe is benchmark code that no library change can touch; a change that
makes the library faster or slower moves the scaled figures exactly as it
moves the raw ones.
"""

from __future__ import annotations

import time

__all__ = ["REFERENCE_PROBE_S", "probe", "calibration_ms", "Speed"]

PROBE_ITERATIONS = 10_000
#: The probe's time on the reference machine.
REFERENCE_PROBE_S = 0.001
#: Iterations of the loop printed as context with every run.
CALIBRATION_ITERATIONS = 300_000


def _loop(iterations: int) -> float:
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total = (total + i * i) % 1_000_003
    return time.perf_counter() - start


def probe() -> float:
    """Seconds one probe takes on the host, now."""
    return _loop(PROBE_ITERATIONS)


def calibration_ms() -> float:
    """The fixed calibration loop's time in ms (context for every run)."""
    return _loop(CALIBRATION_ITERATIONS) * 1000.0


class Speed:
    """Brackets a piece of work with probes.

    Usage::

        speed = Speed()          # probe before
        ...work...
        factor = speed.factor()  # probe after; >1 means slower than reference

    Divide a duration measured in between by ``factor`` to get reference
    seconds (multiply a rate).
    """

    def __init__(self) -> None:
        self._before = probe()

    def factor(self) -> float:
        return (self._before + probe()) / 2.0 / REFERENCE_PROBE_S
