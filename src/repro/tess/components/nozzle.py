"""Convergent exhaust nozzle.

The nozzle closes the engine balance: its flow capacity at the current
upstream state must equal the flow delivered by the core.  It also
produces the engine's thrust figure.  Each method computes the gas
model's ``gamma`` in its own body (see :mod:`repro.tess.gas`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

from ..gas import _CP_A, _CP_B, _PRODUCTS_FACTOR, R_AIR, GasState

__all__ = ["ConvergentNozzle"]

_NOT_SIZED = "nozzle not sized; run the design closure first"


@dataclass(frozen=True)
class ConvergentNozzle:
    """A fixed-geometry convergent nozzle.

    ``area_m2`` — effective throat area; ``None`` until the design
    closure sizes it (see :meth:`sized`).
    """

    cd: float = 0.98  # discharge coefficient
    area_m2: float = None  # type: ignore[assignment]

    def sized_for(self, state: GasState, ps_ambient: float) -> "ConvergentNozzle":
        """Size the throat so this state passes exactly ``state.W``."""
        unit = ConvergentNozzle(cd=self.cd, area_m2=1.0)
        w_unit = unit.flow_capacity(state, ps_ambient)
        return ConvergentNozzle(cd=self.cd, area_m2=state.W / w_unit)

    def pressure_ratio_critical(self, state: GasState) -> float:
        Tt, far = state.Tt, state.far
        c = (_CP_A + _CP_B * Tt) * (1.0 + _PRODUCTS_FACTOR * far / (1.0 + far))
        g = c / (c - R_AIR)  # gamma(Tt, far)
        return ((g + 1.0) / 2.0) ** (g / (g - 1.0))

    def flow_capacity(self, state: GasState, ps_ambient: float) -> float:
        """Mass flow the nozzle passes for the given upstream state, kg/s."""
        if self.area_m2 is None:
            raise ValueError(_NOT_SIZED)
        W, Tt, Pt, far = state
        c = (_CP_A + _CP_B * Tt) * (1.0 + _PRODUCTS_FACTOR * far / (1.0 + far))
        g = c / (c - R_AIR)  # gamma(Tt, far)
        npr = Pt / ps_ambient
        if npr < 1.0:
            return 0.0  # backflow regime: no forward flow
        if npr >= ((g + 1.0) / 2.0) ** (g / (g - 1.0)):  # pressure_ratio_critical
            # choked: W = Cd A Pt/sqrt(Tt) * sqrt(g/R) * (2/(g+1))^((g+1)/(2(g-1)))
            const = sqrt(g / R_AIR) * (2.0 / (g + 1.0)) ** ((g + 1.0) / (2.0 * (g - 1.0)))
            return self.cd * self.area_m2 * Pt / sqrt(Tt) * const
        # unchoked: exit static pressure = ambient
        m2 = 2.0 / (g - 1.0) * (npr ** ((g - 1.0) / g) - 1.0)
        mach = sqrt(max(m2, 0.0))
        t_exit = Tt / (1.0 + 0.5 * (g - 1.0) * m2)
        rho = ps_ambient / (R_AIR * t_exit)
        v = mach * sqrt(g * R_AIR * t_exit)
        return self.cd * self.area_m2 * rho * v

    def gross_thrust(self, state: GasState, ps_ambient: float) -> float:
        """Gross thrust, N (momentum + pressure term when choked)."""
        if self.area_m2 is None:
            raise ValueError(_NOT_SIZED)
        W, Tt, Pt, far = state
        c = (_CP_A + _CP_B * Tt) * (1.0 + _PRODUCTS_FACTOR * far / (1.0 + far))
        g = c / (c - R_AIR)  # gamma(Tt, far)
        npr = Pt / ps_ambient
        if npr <= 1.0:
            return 0.0
        if npr >= self.pressure_ratio_critical(state):
            # sonic exit
            t_exit = Tt * 2.0 / (g + 1.0)
            v_exit = sqrt(g * R_AIR * t_exit)
            ps_exit = Pt * (2.0 / (g + 1.0)) ** (g / (g - 1.0))
            w = self.flow_capacity(state, ps_ambient)
            return w * v_exit + (ps_exit - ps_ambient) * self.area_m2
        m2 = 2.0 / (g - 1.0) * (npr ** ((g - 1.0) / g) - 1.0)
        t_exit = Tt / (1.0 + 0.5 * (g - 1.0) * m2)
        v_exit = sqrt(max(m2, 0.0) * g * R_AIR * t_exit)
        w = self.flow_capacity(state, ps_ambient)
        return w * v_exit

    def net_thrust(self, state: GasState, ps_ambient: float, flight_speed: float) -> float:
        """Net thrust = gross thrust - ram drag, N."""
        return self.gross_thrust(state, ps_ambient) - state.W * flight_speed
