"""Level-1 cycle analysis: the steady-state thermodynamic model.

NPSS fidelity level 1 is "a steady-state thermodynamic model" (paper
§2.1) — no maps, no balancing: given the cycle parameters (overall
pressure ratio, bypass ratio, turbine inlet temperature, component
efficiencies) the design-point performance follows directly from the
Brayton cycle.  This is the quick-look tool an engine designer runs
before committing to the mapped, balanced level-1.5/2 deck in
:mod:`repro.tess.engine` — and the two must agree at the design point,
which the tests check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atmosphere import FlightCondition
from .components import Combustor, ConvergentNozzle, Inlet, MixingVolume, Splitter
from .gas import GasState, enthalpy, gamma, temperature_from_enthalpy

__all__ = ["CycleInputs", "CycleSummary", "cycle_point"]


@dataclass(frozen=True)
class CycleInputs:
    """Design-point cycle parameters of a mixed-flow twin-spool turbofan."""

    airflow_kgs: float = 103.0
    fan_pr: float = 3.0
    overall_pr: float = 24.0
    bypass_ratio: float = 0.6
    t4_K: float = 1600.0
    fan_eta: float = 0.86
    hpc_eta: float = 0.85
    hpt_eta: float = 0.89
    lpt_eta: float = 0.90
    burner_eta: float = 0.985
    burner_dpqp: float = 0.05
    inlet_recovery: float = 0.99
    mech_eta: float = 0.995
    flight: FlightCondition = FlightCondition(0.0, 0.0)


@dataclass(frozen=True)
class CycleSummary:
    """Level-1 outputs."""

    thrust_N: float
    fuel_kgs: float
    sfc_kg_per_Ns: float
    t3_K: float
    t5_K: float
    core_power_MW: float


def _compress(state: GasState, pr: float, eta: float) -> GasState:
    g = gamma(state.Tt, state.far)
    tt_ideal = state.Tt * pr ** ((g - 1.0) / g)
    dh = (enthalpy(tt_ideal, state.far) - state.ht) / eta
    return state.with_(
        Tt=temperature_from_enthalpy(state.ht + dh, state.far), Pt=state.Pt * pr
    )


def _expand_power(state: GasState, power_W: float, eta: float) -> GasState:
    dh = power_W / state.W
    tt_out = temperature_from_enthalpy(state.ht - dh, state.far)
    tt_ideal = temperature_from_enthalpy(state.ht - dh / eta, state.far)
    g = gamma(state.Tt, state.far)
    pr = (state.Tt / tt_ideal) ** (g / (g - 1.0))
    return state.with_(Tt=tt_out, Pt=state.Pt / pr)


def cycle_point(inputs: CycleInputs = CycleInputs()) -> CycleSummary:
    """One pass through the ideal-component cycle at the design point."""
    if inputs.overall_pr <= inputs.fan_pr:
        raise ValueError("overall_pr must exceed fan_pr")
    if inputs.t4_K <= 400.0:
        raise ValueError("turbine inlet temperature too low to close the cycle")

    amb = inputs.flight.ambient()
    face = Inlet(recovery=inputs.inlet_recovery).capture(
        inputs.flight, inputs.airflow_kgs
    )
    fan_out = _compress(face, inputs.fan_pr, inputs.fan_eta)
    p_fan = face.W * (fan_out.ht - face.ht)
    core, bypass = Splitter().split(fan_out, inputs.bypass_ratio)
    hpc_pr = inputs.overall_pr / inputs.fan_pr
    hpc_out = _compress(core, hpc_pr, inputs.hpc_eta)
    p_hpc = core.W * (hpc_out.ht - core.ht)

    # fuel flow to reach T4 (exact from the enthalpy balance)
    w_air = hpc_out.W / (1.0 + hpc_out.far)

    def t4_for(wf: float) -> float:
        return Combustor(
            efficiency=inputs.burner_eta, dpqp=inputs.burner_dpqp
        ).burn(hpc_out, wf).Tt

    # bisection: T4 is monotone in fuel flow
    lo, hi = 0.0, 0.08 * w_air
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if t4_for(mid) < inputs.t4_K:
            lo = mid
        else:
            hi = mid
    wf = 0.5 * (lo + hi)
    burned = Combustor(efficiency=inputs.burner_eta, dpqp=inputs.burner_dpqp).burn(
        hpc_out, wf
    )

    hpt_out = _expand_power(burned, p_hpc / inputs.mech_eta, inputs.hpt_eta)
    lpt_out = _expand_power(hpt_out, p_fan / inputs.mech_eta, inputs.lpt_eta)
    # equalize the mixing plane as the design closure does
    if lpt_out.Pt >= bypass.Pt:
        core_exit = lpt_out.with_(Pt=bypass.Pt)
        byp_exit = bypass
    else:
        core_exit = lpt_out
        byp_exit = bypass.with_(Pt=lpt_out.Pt)
    mixed = MixingVolume().mix(core_exit, byp_exit)
    nozzle = ConvergentNozzle().sized_for(mixed, amb.Ps)
    thrust = nozzle.net_thrust(mixed, amb.Ps, inputs.flight.flight_speed)

    return CycleSummary(
        thrust_N=float(thrust),
        fuel_kgs=float(wf),
        sfc_kg_per_Ns=float(wf / thrust) if thrust > 0 else float("inf"),
        t3_K=float(hpc_out.Tt),
        t5_K=float(lpt_out.Tt),
        core_power_MW=float((p_fan + p_hpc) / 1e6),
    )
