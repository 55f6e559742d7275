"""Reference-speed clock: operation times that cancel the host's speed drift.

Imports nothing from the repository, so it can also time the imports.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Tuple

REFERENCE_LOOP_S = 0.01
"""Nominal duration of one calibration loop.  Reported times are wall times
rescaled to a machine on which :func:`_reference_loop` takes exactly this
long, so drift of the host's speed between and within runs cancels."""


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: Tuple[int, int], value: float) -> None:
        self.key = key
        self.value = value


def _reference_loop() -> float:
    """Fixed pure-Python work: small-object allocation and dict traffic, like
    the planner's own.  Of the loops tried, this one tracked the host's
    speed drift on the workloads most closely."""
    items = [_Item((i, i + 1), float(i)) for i in range(20000)]
    table = {item.key: item.value * 0.5 for item in items}
    return sum(table.values())


def calibrate() -> float:
    """Current duration of the reference loop (best of three)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - started)
    return best


class Clock:
    """Times operations in reference seconds (see :data:`REFERENCE_LOOP_S`).

    The reference loop is timed after every operation; an operation's wall
    time is scaled by the mean loop time measured just before and after it.
    ``calibrated=False`` (traced rounds) reports plain wall seconds and runs
    no loop, so the traced round contains nothing but the workload.
    """

    def __init__(self, calibrated: bool = True) -> None:
        self.calibrated = calibrated
        self.last = calibrate() if calibrated else REFERENCE_LOOP_S
        self.wall_s = 0.0

    def measure(self, fn: Callable, *args: Any, **kwargs: Any) -> Tuple[Any, float]:
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - started
        self.wall_s += wall
        if not self.calibrated:
            return result, wall
        before, self.last = self.last, calibrate()
        return result, wall * REFERENCE_LOOP_S / ((before + self.last) / 2.0)
