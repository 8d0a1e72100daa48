"""Compressor (and fan — a fan is a low-pressure compressor instance).

Map-driven: corrected speed and the map beta parameter determine flow,
pressure ratio, and efficiency; the work absorbed comes from the
enthalpy rise at the map efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

from ..gas import GasState, enthalpy, gamma, temperature_from_enthalpy
from ..maps import CompressorMap

__all__ = ["Compressor", "CompressorOperatingPoint"]


@dataclass(frozen=True)
class CompressorOperatingPoint:
    """Everything a compressor evaluation produces."""

    state_out: GasState
    power_W: float  # shaft power absorbed, W (positive)
    pressure_ratio: float
    efficiency: float
    corrected_speed: float
    map_flow_kgs: float  # physical flow the map wants at this point


@dataclass(frozen=True)
class Compressor:
    """A mapped axial compressor.

    ``t_ref`` is the design inlet total temperature the map's corrected
    speed is referenced to: at design conditions (N = 1, inlet at
    ``t_ref``) the corrected speed is exactly 1.  A fan breathing
    ambient air keeps the 288.15 K default; an HPC behind a fan gets
    its design inlet temperature from the engine's design closure.
    """

    map: CompressorMap
    n_design_rpm: float = 10000.0  # only sets the rpm display scale
    t_ref: float = 288.15

    def corrected_speed(self, N: float, state_in: GasState) -> float:
        """Map corrected speed: mechanical speed fraction over the
        square root of inlet temperature relative to design."""
        return N / sqrt(state_in.Tt / self.t_ref)

    def map_physical_flow(
        self, state_in: GasState, N: float, beta: float, stator_angle: float = 0.0
    ) -> float:
        """The physical flow the map pumps at this inlet condition."""
        Nc = self.corrected_speed(N, state_in)
        wc = self.map.corrected_flow(Nc, beta, stator_angle)
        theta = state_in.Tt / 288.15
        delta = state_in.Pt / 101325.0
        return wc * delta / sqrt(theta)

    def operate(
        self, state_in: GasState, N: float, beta: float, stator_angle: float = 0.0
    ) -> CompressorOperatingPoint:
        """Compress the incoming stream.

        Uses ``state_in.W`` as the through-flow (continuity is enforced
        by the engine-level balance, whose residual compares ``W`` with
        :meth:`map_physical_flow`)."""
        Nc = self.corrected_speed(N, state_in)
        pr = self.map.pressure_ratio(Nc, beta)
        eta = self.map.efficiency(Nc, beta)
        g = gamma(state_in.Tt, state_in.far)
        Tt_ideal = state_in.Tt * pr ** ((g - 1.0) / g)
        dh_ideal = enthalpy(Tt_ideal, state_in.far) - state_in.ht
        dh = dh_ideal / eta
        Tt_out = temperature_from_enthalpy(state_in.ht + dh, state_in.far)
        state_out = state_in.with_(Tt=Tt_out, Pt=state_in.Pt * pr)
        return CompressorOperatingPoint(
            state_out=state_out,
            power_W=state_in.W * dh,
            pressure_ratio=pr,
            efficiency=eta,
            corrected_speed=Nc,
            map_flow_kgs=self.map_physical_flow(state_in, N, beta, stator_angle),
        )
