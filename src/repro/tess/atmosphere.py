"""The standard atmosphere and flight conditions.

The simulation executive lets the user "choose a set of operating
conditions, i.e., high or low altitude, moist or dry air" (paper §2.4).
This module provides the 1976 US standard atmosphere (troposphere +
lower stratosphere), a humidity correction, and the ram (total)
conditions seen by the engine inlet at a flight Mach number.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gas import R_AIR

__all__ = ["Ambient", "standard_atmosphere", "FlightCondition"]

T_SL = 288.15  # K
P_SL = 101325.0  # Pa
LAPSE = 0.0065  # K/m
TROPOPAUSE = 11000.0  # m
T_STRAT = 216.65  # K
G0 = 9.80665  # m/s^2


@dataclass(frozen=True)
class Ambient:
    """Static ambient conditions at altitude."""

    altitude_m: float
    Ts: float  # static temperature, K
    Ps: float  # static pressure, Pa

    @property
    def speed_of_sound(self) -> float:
        return float(np.sqrt(1.4 * R_AIR * self.Ts))


def standard_atmosphere(altitude_m: float, humidity: float = 0.0) -> Ambient:
    """ISA static conditions at ``altitude_m`` (0..20 km).

    ``humidity`` is the specific-humidity fraction (0 = dry, ~0.03 =
    tropical moist air); moist air is slightly less dense, modelled as a
    virtual-temperature increase.
    """
    if not 0.0 <= altitude_m <= 20000.0:
        raise ValueError(f"altitude {altitude_m} m outside model range 0..20000")
    if not 0.0 <= humidity <= 0.05:
        raise ValueError(f"humidity fraction {humidity} outside 0..0.05")
    if altitude_m <= TROPOPAUSE:
        Ts = T_SL - LAPSE * altitude_m
        Ps = P_SL * (Ts / T_SL) ** (G0 / (LAPSE * R_AIR))
    else:
        Ts = T_STRAT
        p_tp = P_SL * (T_STRAT / T_SL) ** (G0 / (LAPSE * R_AIR))
        Ps = p_tp * np.exp(-G0 * (altitude_m - TROPOPAUSE) / (R_AIR * T_STRAT))
    # virtual temperature: Tv = T (1 + 0.61 q)
    Ts = Ts * (1.0 + 0.61 * humidity)
    return Ambient(altitude_m=altitude_m, Ts=float(Ts), Ps=float(Ps))


@dataclass(frozen=True)
class FlightCondition:
    """Altitude + Mach (+ humidity): one point of a flight profile."""

    altitude_m: float = 0.0
    mach: float = 0.0
    humidity: float = 0.0

    # A condition is immutable, so its atmosphere is evaluated once, on
    # first use: ``cached_property`` keeps it in the instance
    # ``__dict__``, which a frozen dataclass still has and which
    # equality, hashing, ``dataclasses.replace`` and the op-cache keys
    # (``opkey.stable_value`` reads ``dataclasses.fields``) never read.
    # An out-of-range condition raises on every use: nothing is kept.

    @cached_property
    def _ambient(self) -> Ambient:
        return standard_atmosphere(self.altitude_m, self.humidity)

    def ambient(self) -> Ambient:
        return self._ambient

    def ram_conditions(self) -> tuple:
        """Free-stream total temperature and pressure (Tt0, Pt0)."""
        amb = self._ambient
        m2 = self.mach * self.mach
        Tt = amb.Ts * (1.0 + 0.2 * m2)
        Pt = amb.Ps * (1.0 + 0.2 * m2) ** 3.5
        return float(Tt), float(Pt)

    @cached_property
    def flight_speed(self) -> float:
        """True airspeed, m/s."""
        return self.mach * self._ambient.speed_of_sound
