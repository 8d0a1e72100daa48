"""Flow-splitting and flow-mixing components: bleed, splitter, mixer.
The mixer computes the gas model in its own body (see
:mod:`repro.tess.gas`)."""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Tuple

from ..gas import _CP_A, _CP_B, _PRODUCTS_FACTOR, GasState

__all__ = ["Bleed", "Splitter", "MixingVolume"]


@dataclass(frozen=True)
class Bleed:
    """Extract a fraction of the stream (cooling/customer bleed)."""

    fraction: float = 0.03

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError(f"bleed fraction {self.fraction} outside [0, 1)")

    def run(self, state_in: GasState) -> Tuple[GasState, GasState]:
        """Returns (main stream, bleed stream)."""
        W, Tt, Pt, far = state_in
        wb = W * self.fraction
        return GasState(W - wb, Tt, Pt, far), GasState(wb, Tt, Pt, far)


@dataclass(frozen=True)
class Splitter:
    """Divide the fan discharge into core and bypass streams."""

    def split(self, state_in: GasState, bypass_ratio: float) -> Tuple[GasState, GasState]:
        """Returns (core, bypass); ``bypass_ratio`` = W_bypass/W_core."""
        if bypass_ratio < 0:
            raise ValueError(f"negative bypass ratio {bypass_ratio}")
        W, Tt, Pt, far = state_in
        w_core = W / (1.0 + bypass_ratio)
        return GasState(w_core, Tt, Pt, far), GasState(W - w_core, Tt, Pt, far)


@dataclass(frozen=True)
class MixingVolume:
    """Mix two coaxial streams (F100 core + bypass ahead of the nozzle).

    Mass and energy are conserved exactly; the mixed total pressure is
    the mass-flow-weighted average (a standard 0-D approximation — the
    balance solver separately drives the streams' pressures together,
    so the approximation error is small at the solution).
    """

    def mix(self, a: GasState, b: GasState) -> GasState:
        wa, ta, pa, fa = a
        wb, tb, pb, fb = b
        w = wa + wb
        if w <= 0:
            raise ValueError("mixing zero total flow")
        ha = (_CP_A * ta + 0.5 * _CP_B * ta * ta) * (1.0 + _PRODUCTS_FACTOR * fa / (1.0 + fa))
        hb = (_CP_A * tb + 0.5 * _CP_B * tb * tb) * (1.0 + _PRODUCTS_FACTOR * fb / (1.0 + fb))
        h = (wa * ha + wb * hb) / w
        # combine fuel-air ratios through the air flows
        wa_air = wa / (1.0 + fa)
        wb_air = wb / (1.0 + fb)
        wf = fa * wa_air + fb * wb_air
        far = wf / (wa_air + wb_air)
        # temperature_from_enthalpy(h, far)
        scale = 1.0 + _PRODUCTS_FACTOR * far / (1.0 + far)
        disc = _CP_A * _CP_A + 2.0 * _CP_B * h / scale
        if disc < 0:
            raise ValueError(f"enthalpy {h} out of range")
        Tt = (-_CP_A + sqrt(disc)) / _CP_B
        Pt = (wa * pa + wb * pb) / w
        return GasState(w, Tt, Pt, far)

    def pressure_imbalance(self, a: GasState, b: GasState) -> float:
        """Normalized static-pressure mismatch at the mixing plane; the
        balance drives this to zero."""
        return (a.Pt - b.Pt) / max(a.Pt, b.Pt)
