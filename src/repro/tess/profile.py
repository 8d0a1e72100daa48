"""Flight profiles: "start" the engine and "fly" it.

Section 2.4: the executive's capabilities "include being able to 'start'
the engine and 'fly' it through a flight profile."  A
:class:`FlightProfile` is a time-parameterized trajectory of altitude,
Mach number, and fuel flow; :func:`fly_profile` steps the engine through
it as a sequence of quasi-steady transient legs, re-balancing the
atmosphere at each sample while the rotor dynamics integrate
continuously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .atmosphere import FlightCondition
from .engine import TwinSpoolTurbofan
from .schedules import Schedule

__all__ = ["ProfilePoint", "FlightProfile", "ProfileResult", "fly_profile"]


@dataclass(frozen=True)
class ProfilePoint:
    """One breakpoint of a flight profile."""

    time_s: float
    altitude_m: float
    mach: float
    fuel_kgs: float


@dataclass(frozen=True)
class FlightProfile:
    """A piecewise-linear mission: altitude, Mach, and throttle vs time."""

    points: Tuple[ProfilePoint, ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("a flight profile needs at least two points")
        times = [p.time_s for p in self.points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"profile times must strictly increase: {times}")

    @classmethod
    def of(cls, *points: Tuple[float, float, float, float]) -> "FlightProfile":
        """Build from (time, altitude, mach, fuel) tuples."""
        return cls(tuple(ProfilePoint(*p) for p in points))

    def _schedule(self, attr: str) -> Schedule:
        return Schedule(tuple((p.time_s, getattr(p, attr)) for p in self.points))

    @property
    def altitude(self) -> Schedule:
        return self._schedule("altitude_m")

    @property
    def mach(self) -> Schedule:
        return self._schedule("mach")

    @property
    def fuel(self) -> Schedule:
        return self._schedule("fuel_kgs")

    def condition_at(self, t: float) -> FlightCondition:
        return FlightCondition(
            altitude_m=self.altitude.value(t), mach=self.mach.value(t)
        )


@dataclass
class ProfileResult:
    """Sampled engine state along the flown profile."""

    t: np.ndarray
    altitude: np.ndarray
    mach: np.ndarray
    wf: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    thrust: np.ndarray
    t4: np.ndarray

    @property
    def max_t4(self) -> float:
        return float(self.t4.max())


def fly_profile(
    engine: TwinSpoolTurbofan,
    profile: FlightProfile,
    dt: float = 0.05,
    leg_seconds: float = 1.0,
    method: str = "Modified Euler",
) -> ProfileResult:
    """Fly the engine through a profile.

    The profile is split into legs of at most ``leg_seconds``; within a
    leg the flight condition is frozen at its midpoint (quasi-steady
    atmosphere) while fuel flow follows its schedule and the rotors
    integrate continuously — state (spool speeds, gas-path solution)
    carries across leg boundaries.
    """
    t0 = profile.points[0].time_s
    t_end = profile.points[-1].time_s
    # start: balance at the initial point
    start = engine.balance(profile.condition_at(t0), profile.fuel.value(t0))
    n1, n2 = start.n1, start.n2

    ts: List[float] = [t0]
    rows: List[Tuple[float, ...]] = [
        (profile.altitude.value(t0), profile.mach.value(t0),
         start.wf, n1, n2, start.thrust_N, start.t4)
    ]

    t = t0
    while t < t_end - 1e-12:
        leg_end = min(t + leg_seconds, t_end)
        mid = 0.5 * (t + leg_end)
        flight = profile.condition_at(mid)
        # shift the fuel schedule into leg-local time
        fuel = Schedule(
            tuple(
                (bp - t, profile.fuel.value(bp))
                for bp in _leg_breakpoints(profile, t, leg_end)
            )
        )
        # integrate the rotors through the leg, carrying spool state
        op0 = engine.balance(
            flight, fuel.value(0.0),
            x0=np.concatenate([engine._last_x, [n1, n2]]),
        )
        # override the balanced speeds with the carried dynamic state
        op0.n1, op0.n2 = n1, n2
        engine._last_x = op0.x.copy()
        res = engine.transient(
            flight, fuel, t_end=leg_end - t, dt=dt, method=method, start=op0
        )
        n1, n2 = float(res.n1[-1]), float(res.n2[-1])
        for i in range(1, res.t.size):
            ti = t + float(res.t[i])
            ts.append(ti)
            rows.append(
                (profile.altitude.value(ti), profile.mach.value(ti),
                 float(res.wf[i]), float(res.n1[i]), float(res.n2[i]),
                 float(res.thrust[i]), float(res.t4[i]))
            )
        t = leg_end

    arr = np.array(rows)
    return ProfileResult(
        t=np.array(ts),
        altitude=arr[:, 0],
        mach=arr[:, 1],
        wf=arr[:, 2],
        n1=arr[:, 3],
        n2=arr[:, 4],
        thrust=arr[:, 5],
        t4=arr[:, 6],
    )


def _leg_breakpoints(profile: FlightProfile, t0: float, t1: float) -> List[float]:
    """Schedule sample times covering [t0, t1] including interior
    profile breakpoints."""
    pts = [t0]
    for p in profile.points:
        if t0 < p.time_s < t1:
            pts.append(p.time_s)
    pts.append(t1)
    return pts
