"""Turbine: work extraction.

The balance formulation treats each turbine as choked at its inlet: the
engine-level residual pins the inlet corrected flow to the design value
(set by the design closure), while the expansion ratio is a balance
unknown from which the delivered power follows.
:meth:`Turbine.expand_with_ratio` computes the gas model in its own
body (see :mod:`repro.tess.gas`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

from ..gas import (
    _CP_A,
    _CP_B,
    _PRODUCTS_FACTOR,
    R_AIR,
    GasState,
    gamma,
    temperature_from_enthalpy,
)

__all__ = ["Turbine", "TurbineOperatingPoint"]


@dataclass(frozen=True)
class TurbineOperatingPoint:
    state_out: GasState
    power_W: float  # shaft power delivered, W (positive)
    pressure_ratio: float  # Pt_in / Pt_out, > 1


@dataclass(frozen=True)
class Turbine:
    """A work turbine with constant isentropic efficiency.

    ``wc_design`` — the choked inlet corrected flow; ``None`` until the
    design closure sets it (see :meth:`sized`).
    """

    efficiency: float = 0.89
    wc_design: float = None  # type: ignore[assignment]

    def sized(self, wc_design: float) -> "Turbine":
        """A copy pinned to a design corrected flow (design closure)."""
        return Turbine(efficiency=self.efficiency, wc_design=wc_design)

    def flow_error(self, state_in: GasState) -> float:
        """Normalized deviation of inlet corrected flow from choked."""
        if self.wc_design is None:
            raise ValueError("turbine not sized; run the design closure first")
        return (state_in.corrected_flow - self.wc_design) / self.wc_design

    def expand_with_ratio(self, state_in: GasState, pr: float) -> TurbineOperatingPoint:
        """Expand through total-pressure ratio ``pr`` = Pt_in/Pt_out."""
        if pr < 1.0:
            raise ValueError(f"turbine expansion ratio {pr} < 1")
        W, Tt, Pt, far = state_in
        scale = 1.0 + _PRODUCTS_FACTOR * far / (1.0 + far)  # gas._far_scale
        c = (_CP_A + _CP_B * Tt) * scale
        g = c / (c - R_AIR)  # gamma(Tt, far)
        Tt_ideal = Tt * pr ** (-(g - 1.0) / g)
        ht = (_CP_A * Tt + 0.5 * _CP_B * Tt * Tt) * scale  # state_in.ht
        dh_ideal = ht - (_CP_A * Tt_ideal + 0.5 * _CP_B * Tt_ideal * Tt_ideal) * scale
        dh = dh_ideal * self.efficiency
        h = ht - dh  # temperature_from_enthalpy(h, far):
        disc = _CP_A * _CP_A + 2.0 * _CP_B * h / scale
        if disc < 0:
            raise ValueError(f"enthalpy {h} out of range")
        Tt_out = (-_CP_A + sqrt(disc)) / _CP_B
        return TurbineOperatingPoint(
            state_out=GasState(W, Tt_out, Pt / pr, far), power_W=W * dh, pressure_ratio=pr
        )

    def expand_to_power(self, state_in: GasState, power_W: float) -> TurbineOperatingPoint:
        """Expand just enough to deliver ``power_W`` (design sizing use)."""
        if power_W < 0:
            raise ValueError(f"negative turbine power {power_W}")
        dh = power_W / state_in.W
        h_out = state_in.ht - dh
        Tt_out = temperature_from_enthalpy(h_out, state_in.far)
        dh_ideal = dh / self.efficiency
        Tt_ideal = temperature_from_enthalpy(state_in.ht - dh_ideal, state_in.far)
        g = gamma(state_in.Tt, state_in.far)
        pr = (state_in.Tt / Tt_ideal) ** (g / (g - 1.0))
        state_out = state_in.with_(Tt=Tt_out, Pt=state_in.Pt / pr)
        return TurbineOperatingPoint(state_out=state_out, power_W=power_W, pressure_ratio=pr)
