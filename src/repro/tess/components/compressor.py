"""Compressor (and fan — a fan is a low-pressure compressor instance).

Map-driven: corrected speed and the map beta parameter determine flow,
pressure ratio, and efficiency; the work absorbed comes from the
enthalpy rise at the map efficiency.  :meth:`Compressor.operate`
computes the gas model in its own body (see :mod:`repro.tess.gas`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

from ..gas import _CP_A, _CP_B, _PRODUCTS_FACTOR, R_AIR, GasState
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
        W, Tt, Pt, far = state_in
        Nc = N / sqrt(Tt / self.t_ref)  # corrected_speed
        pr = self.map.pressure_ratio(Nc, beta)
        eta = self.map.efficiency(Nc, beta)
        scale = 1.0 + _PRODUCTS_FACTOR * far / (1.0 + far)  # gas._far_scale
        c = (_CP_A + _CP_B * Tt) * scale
        g = c / (c - R_AIR)  # gamma(Tt, far)
        Tt_ideal = Tt * pr ** ((g - 1.0) / g)
        ht = (_CP_A * Tt + 0.5 * _CP_B * Tt * Tt) * scale  # state_in.ht
        dh_ideal = (_CP_A * Tt_ideal + 0.5 * _CP_B * Tt_ideal * Tt_ideal) * scale - ht
        dh = dh_ideal / eta
        h = ht + dh  # temperature_from_enthalpy(h, far):
        disc = _CP_A * _CP_A + 2.0 * _CP_B * h / scale
        if disc < 0:
            raise ValueError(f"enthalpy {h} out of range")
        Tt_out = (-_CP_A + sqrt(disc)) / _CP_B
        state_out = GasState(W, Tt_out, Pt * pr, far)
        # map_physical_flow at the same corrected speed
        wc = self.map.corrected_flow(Nc, beta, stator_angle)
        return CompressorOperatingPoint(
            state_out=state_out,
            power_W=W * dh,
            pressure_ratio=pr,
            efficiency=eta,
            corrected_speed=Nc,
            map_flow_kgs=wc * (Pt / 101325.0) / sqrt(Tt / 288.15),
        )
