"""Transient control schedules.

"For three of the engine components — compressor, combustor, and nozzle
— transient control schedules are provided ... widgets that allow the
user the option of varying the stator angle by specifying angles at
certain times during the transient with TESS interpolating the angle at
other times." (paper §3.2)

A :class:`Schedule` is a piecewise-linear time function built from
(time, value) breakpoints; before the first and after the last
breakpoint it holds the end values.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Tuple

__all__ = ["Schedule", "ScheduleError"]


class ScheduleError(Exception):
    """Bad schedule definition."""


@dataclass(frozen=True)
class Schedule:
    """A piecewise-linear control schedule."""

    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ScheduleError("a schedule needs at least one breakpoint")
        times = [t for t, _ in self.points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ScheduleError(f"breakpoint times must strictly increase: {times}")

    @classmethod
    def constant(cls, value: float) -> "Schedule":
        return cls(((0.0, value),))

    @classmethod
    def of(cls, *points: Tuple[float, float]) -> "Schedule":
        return cls(tuple(points))

    def value(self, t: float) -> float:
        """The interpolated value at time ``t``."""
        pts = self.points
        if t <= pts[0][0]:
            return pts[0][1]
        if t >= pts[-1][0]:
            return pts[-1][1]
        times = [p[0] for p in pts]
        i = bisect_right(times, t)
        t0, v0 = pts[i - 1]
        t1, v1 = pts[i]
        f = (t - t0) / (t1 - t0)
        return v0 + f * (v1 - v0)

    def __call__(self, t: float) -> float:
        return self.value(t)

    def shifted(self, dv: float) -> "Schedule":
        """A copy with every value offset by ``dv`` (trim adjustments)."""
        return Schedule(tuple((t, v + dv) for t, v in self.points))

    def scaled(self, factor: float) -> "Schedule":
        return Schedule(tuple((t, v * factor) for t, v in self.points))
