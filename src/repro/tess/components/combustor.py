"""Combustor: energy addition from fuel burn.  :meth:`Combustor.burn`
computes the gas model in its own body (see :mod:`repro.tess.gas`)."""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

from ..gas import _CP_A, _CP_B, _PRODUCTS_FACTOR, FUEL_LHV, GasState

__all__ = ["Combustor"]


@dataclass(frozen=True)
class Combustor:
    """A constant-efficiency combustor with a fractional pressure loss."""

    efficiency: float = 0.985
    dpqp: float = 0.05  # total-pressure loss fraction
    t_max: float = 2200.0  # structural temperature limit, K

    def burn(self, state_in: GasState, wf: float) -> GasState:
        """Burn ``wf`` kg/s of fuel into the stream.

        Energy balance on total enthalpy: the products' enthalpy flow
        equals the incoming enthalpy flow plus released heat; the fuel's
        sensible enthalpy is neglected (standard 0-D practice).
        """
        if wf < 0:
            raise ValueError(f"negative fuel flow {wf}")
        W, Tt, Pt, far = state_in
        w_air = W / (1.0 + far)
        far_out = (far * w_air + wf) / w_air
        w_out = W + wf
        ht = (_CP_A * Tt + 0.5 * _CP_B * Tt * Tt) * (
            1.0 + _PRODUCTS_FACTOR * far / (1.0 + far)
        )  # state_in.ht
        h_out = (W * ht + wf * FUEL_LHV * self.efficiency) / w_out
        # temperature_from_enthalpy(h_out, far_out)
        scale = 1.0 + _PRODUCTS_FACTOR * far_out / (1.0 + far_out)
        disc = _CP_A * _CP_A + 2.0 * _CP_B * h_out / scale
        if disc < 0:
            raise ValueError(f"enthalpy {h_out} out of range")
        Tt_out = (-_CP_A + sqrt(disc)) / _CP_B
        if Tt_out > self.t_max:
            raise ValueError(
                f"combustor exit temperature {Tt_out:.0f} K exceeds the "
                f"{self.t_max:.0f} K limit (fuel flow {wf:.3f} kg/s too high)"
            )
        return GasState(w_out, Tt_out, Pt * (1.0 - self.dpqp), far_out)
