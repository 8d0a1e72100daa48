"""Afterburner (augmentor): reheat between the mixer and the nozzle.

The F100 is an augmented turbofan.  The augmentor burns additional fuel
in the mixed stream; because the nozzle is choked, lighting it requires
opening the variable nozzle (W ~ Pt/sqrt(Tt): hotter flow needs more
area for the same mass flow), which the engine model exposes through
its nozzle-area factor.  :meth:`Afterburner.burn` computes the gas
model in its own body (see :mod:`repro.tess.gas`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

from ..gas import _CP_A, _CP_B, _PRODUCTS_FACTOR, FUEL_LHV, GasState

__all__ = ["Afterburner"]


@dataclass(frozen=True)
class Afterburner:
    """A simple augmentor: lower efficiency and higher pressure loss
    than the main burner, with its own temperature limit."""

    efficiency: float = 0.92
    dpqp_dry: float = 0.01  # flameholder drag, always paid
    dpqp_wet: float = 0.05  # additional loss when lit
    t_max: float = 2100.0

    def burn(self, state_in: GasState, wf_ab: float) -> GasState:
        """Pass through (dry) or reheat (wet) the incoming stream."""
        if wf_ab < 0:
            raise ValueError(f"negative afterburner fuel flow {wf_ab}")
        W, Tt, Pt, far = state_in
        if wf_ab == 0.0:
            return GasState(W, Tt, Pt * (1.0 - self.dpqp_dry), far)
        w_air = W / (1.0 + far)
        far_out = (far * w_air + wf_ab) / w_air
        w_out = W + wf_ab
        ht = (_CP_A * Tt + 0.5 * _CP_B * Tt * Tt) * (
            1.0 + _PRODUCTS_FACTOR * far / (1.0 + far)
        )  # state_in.ht
        h_out = (W * ht + wf_ab * FUEL_LHV * self.efficiency) / w_out
        # temperature_from_enthalpy(h_out, far_out)
        scale = 1.0 + _PRODUCTS_FACTOR * far_out / (1.0 + far_out)
        disc = _CP_A * _CP_A + 2.0 * _CP_B * h_out / scale
        if disc < 0:
            raise ValueError(f"enthalpy {h_out} out of range")
        tt_out = (-_CP_A + sqrt(disc)) / _CP_B
        if tt_out > self.t_max:
            raise ValueError(
                f"augmentor exit temperature {tt_out:.0f} K exceeds the "
                f"{self.t_max:.0f} K limit"
            )
        return GasState(w_out, tt_out, Pt * (1.0 - self.dpqp_dry - self.dpqp_wet), far_out)
