"""The TESS engine model: a twin-spool mixed-flow turbofan (the F100).

TESS "represents each of the principal components of an engine as an AVS
module.  An engine is constructed ... by connecting the modules to
represent the airflow through the engine" (paper §3.2).  The numerical
heart is here: the component chain, the design closure that sizes the
turbines/nozzle/duct losses for a consistent design point, the
steady-state balance ("TESS first attempts to balance the engine at the
initial operating point"), and the transient driver.

Balance formulation
-------------------
Unknowns (steady): [beta_fan, beta_hpc, bypass_ratio, pr_hpt, pr_lpt,
N1, N2].  Residuals: core-flow match at the HPC, choked-flow match at
each turbine inlet, mixing-plane pressure balance, nozzle flow match,
and the two shaft power balances.  All residuals are normalized, and
the design closure guarantees the design point is an exact root.

During a transient the spool speeds become ODE states; the remaining
five algebraic unknowns are re-balanced at every derivative evaluation
(quasi-steady gas path, dynamic rotors — the standard 0-D transient
deck structure).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

import numpy as np

from ..solvers import ODEResult, integrate, newton_flow_rk4, newton_raphson
from .atmosphere import FlightCondition
from .components import (
    Afterburner,
    Bleed,
    Combustor,
    Compressor,
    ConvergentNozzle,
    Duct,
    Inlet,
    MixingVolume,
    Shaft,
    Splitter,
    Turbine,
)
from .gas import GasState
from .hosts import ComponentHost, LocalHost
from .maps import MapError, load_map
from .opkey import spec_memo
from .schedules import Schedule

__all__ = [
    "EngineSpec", "SizedDeck", "design_closure", "sized_deck",
    "TwinSpoolTurbofan", "OperatingPoint", "TransientResult",
]


@dataclass(frozen=True)
class EngineSpec:
    """Design parameters of a twin-spool mixed-flow turbofan."""

    name: str = "f100"
    fan_map: str = "f100-fan.map"
    hpc_map: str = "f100-hpc.map"
    bypass_ratio_design: float = 0.6
    wf_design: float = 1.5  # kg/s fuel at design
    inlet_recovery: float = 0.99
    duct_core_loss: float = 0.015  # fan -> HPC duct
    bleed_fraction: float = 0.02  # overboard customer bleed
    burner_efficiency: float = 0.985
    burner_loss: float = 0.05
    hpt_efficiency: float = 0.89
    lpt_efficiency: float = 0.90
    mech_efficiency: float = 0.995
    low_inertia: float = 2.2  # kg m^2
    high_inertia: float = 1.3
    low_omega_design: float = 1050.0  # rad/s (~10000 rpm)
    high_omega_design: float = 1430.0  # rad/s (~13650 rpm)
    nozzle_cd: float = 0.98
    ab_efficiency: float = 0.92
    ab_dpqp_dry: float = 0.01
    ab_dpqp_wet: float = 0.05


@dataclass
class OperatingPoint:
    """A fully evaluated engine state."""

    flight: FlightCondition
    wf: float
    n1: float
    n2: float
    x: np.ndarray  # [beta_fan, beta_hpc, bpr, pr_hpt, pr_lpt]
    residuals: np.ndarray
    stations: Dict[str, GasState]
    powers: Dict[str, float]
    thrust_N: float
    converged: bool = True
    diagnostics: Dict[str, float] = field(default_factory=dict)

    @property
    def sfc(self) -> float:
        """Thrust-specific fuel consumption, kg/(N s)."""
        return self.wf / self.thrust_N if self.thrust_N > 0 else float("inf")

    @property
    def t4(self) -> float:
        return self.stations["4"].Tt

    @property
    def airflow(self) -> float:
        return self.stations["2"].W

    @property
    def bypass_ratio(self) -> float:
        return float(self.x[2])


@dataclass
class TransientResult:
    """Time histories from a transient run."""

    t: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    thrust: np.ndarray
    t4: np.ndarray
    wf: np.ndarray
    method: str
    ode: ODEResult


class LastEvaluation:
    """The operating point of a solve's last residual evaluation.

    Every residual evaluation is one sweep of the gas path — on a
    distributed host, one sweep of remote calls.  A solve that converges
    has as a rule just evaluated the root it accepts, so each steady
    solve site records every point its residual evaluates and asks
    :meth:`at` for the accepted ``x`` before it sweeps once more: only
    when the last evaluation was elsewhere (a finite-difference probe,
    or an acceptance on step size that skips the confirming evaluation)
    does the site evaluate again."""

    __slots__ = ("x", "op")

    def __init__(self) -> None:
        self.x: Optional[np.ndarray] = None
        self.op: Optional[OperatingPoint] = None

    def keep(self, x: np.ndarray, op: OperatingPoint) -> OperatingPoint:
        """Record ``op`` as the point evaluated at ``x``; returns it."""
        self.x, self.op = np.array(x, copy=True), op
        return op

    def at(self, x: np.ndarray) -> Optional[OperatingPoint]:
        """The kept point if the last evaluation was at ``x``, bit for
        bit; otherwise None."""
        if self.x is not None and np.array_equal(self.x, x):
            return self.op
        return None


@dataclass(frozen=True)
class SizedDeck:
    """What the design closure derives from an :class:`EngineSpec`: the
    component chain (every component is frozen, so all engines of one
    deck share these objects) and the design point."""

    inlet: Inlet
    fan: Compressor
    splitter: Splitter
    duct_core: Duct
    bleed: Bleed
    hpc: Compressor
    burner: Combustor
    hpt: Turbine
    lpt: Turbine
    duct_mixer: Duct  # core-side loss equalizing the mixing plane
    duct_bypass: Duct
    mixer: MixingVolume
    augmentor: Afterburner
    nozzle: ConvergentNozzle
    low_shaft: Shaft
    high_shaft: Shaft
    design_x: Tuple[float, ...]  # [beta_fan, beta_hpc, bpr, pr_hpt, pr_lpt]
    design_core_flow: float


def design_closure(spec: EngineSpec) -> SizedDeck:
    """Size turbines, nozzle, mixer-duct loss, and scale the HPC map so
    the design point is an exact balance root.  A pure function of the
    deck; engines go through the memoised :func:`sized_deck`."""
    inlet = Inlet(recovery=spec.inlet_recovery)
    fan = Compressor(map=load_map(spec.fan_map))
    splitter = Splitter()
    duct_core = Duct(dpqp=spec.duct_core_loss)
    bleed = Bleed(fraction=spec.bleed_fraction)
    burner = Combustor(efficiency=spec.burner_efficiency, dpqp=spec.burner_loss)
    augmentor = Afterburner(
        efficiency=spec.ab_efficiency, dpqp_dry=spec.ab_dpqp_dry,
        dpqp_wet=spec.ab_dpqp_wet,
    )
    mixer = MixingVolume()
    fc = FlightCondition(altitude_m=0.0, mach=0.0)
    amb = fc.ambient()
    # fan and through-flow at design
    face = inlet.capture(fc, W=1.0)
    w_fan = fan.map_physical_flow(face, 1.0, 0.5)
    face = face.with_(W=w_fan)
    fan_op = fan.operate(face, 1.0, 0.5)
    core, bypass = splitter.split(fan_op.state_out, spec.bypass_ratio_design)
    core = duct_core.run(core)
    core, _ = bleed.run(core)
    # scale the HPC map so its design corrected flow equals the core's,
    # and reference its corrected speed to the design inlet temperature
    raw_map = load_map(spec.hpc_map)
    hpc = Compressor(
        map=replace(raw_map, wc_design=core.corrected_flow), t_ref=core.Tt
    )
    hpc_op = hpc.operate(core, 1.0, 0.5)
    burned = burner.burn(hpc_op.state_out, spec.wf_design)
    # HPT sized: choked at the design burner-exit corrected flow and
    # delivering exactly the HPC demand
    hpt = Turbine(efficiency=spec.hpt_efficiency).sized(burned.corrected_flow)
    p_hpt = hpc_op.power_W / spec.mech_efficiency
    hpt_op = hpt.expand_to_power(burned, p_hpt)
    # LPT likewise for the fan demand
    lpt = Turbine(efficiency=spec.lpt_efficiency).sized(hpt_op.state_out.corrected_flow)
    p_lpt = fan_op.power_W / spec.mech_efficiency
    lpt_op = lpt.expand_to_power(hpt_op.state_out, p_lpt)
    # equalize the mixing plane: put the adjustable loss on whichever
    # side runs higher at design
    pt_core, pt_byp = lpt_op.state_out.Pt, bypass.Pt
    if pt_core >= pt_byp:
        duct_mixer = Duct(dpqp=1.0 - pt_byp / pt_core)
        duct_bypass = Duct(dpqp=0.0)
    else:
        duct_mixer = Duct(dpqp=0.0)
        duct_bypass = Duct(dpqp=1.0 - pt_core / pt_byp)
    core_exit = duct_mixer.run(lpt_op.state_out)
    byp_exit = duct_bypass.run(bypass)
    mixed = augmentor.burn(mixer.mix(core_exit, byp_exit), 0.0)
    return SizedDeck(
        inlet=inlet, fan=fan, splitter=splitter, duct_core=duct_core,
        bleed=bleed, hpc=hpc, burner=burner, hpt=hpt, lpt=lpt,
        duct_mixer=duct_mixer, duct_bypass=duct_bypass, mixer=mixer,
        augmentor=augmentor,
        nozzle=ConvergentNozzle(cd=spec.nozzle_cd).sized_for(mixed, amb.Ps),
        low_shaft=Shaft(
            inertia=spec.low_inertia, omega_design=spec.low_omega_design,
            mech_eff=spec.mech_efficiency,
        ),
        high_shaft=Shaft(
            inertia=spec.high_inertia, omega_design=spec.high_omega_design,
            mech_eff=spec.mech_efficiency,
        ),
        design_x=(
            0.5, 0.5, spec.bypass_ratio_design,
            hpt_op.pressure_ratio, lpt_op.pressure_ratio,
        ),
        design_core_flow=core.W,
    )


@spec_memo
def sized_deck(spec: EngineSpec) -> SizedDeck:
    """:func:`design_closure`, computed once per deck and shared the way
    :func:`~repro.tess.maps.load_map` shares the fan map."""
    return design_closure(spec)


class TwinSpoolTurbofan:
    """A sized, solvable engine."""

    # indices into the algebraic unknown vector
    IDX_BETA_FAN, IDX_BETA_HPC, IDX_BPR, IDX_PR_HPT, IDX_PR_LPT = range(5)

    def __init__(
        self,
        spec: EngineSpec = EngineSpec(),
        host: Optional[ComponentHost] = None,
        jac_reuse: bool = True,
    ):
        self.spec = spec
        self.host = host or LocalHost()
        # quasi-Newton reuse for the transient gas-path solves: keep the
        # previous step's Jacobian and let Broyden updates maintain it,
        # re-probing only when the iteration degrades.  False restores
        # the rebuild-every-iteration oracle.
        self.jac_reuse = jac_reuse
        # the components are the deck's (shared, frozen); the arrays
        # below are this engine's own
        deck = sized_deck(spec)
        self.inlet = deck.inlet
        self.fan = deck.fan
        self.splitter = deck.splitter
        self.duct_core = deck.duct_core
        self.bleed = deck.bleed
        self.hpc = deck.hpc
        self.burner = deck.burner
        self.hpt = deck.hpt
        self.lpt = deck.lpt
        self.duct_mixer = deck.duct_mixer
        self.duct_bypass = deck.duct_bypass
        self.mixer = deck.mixer
        self.augmentor = deck.augmentor
        self.nozzle = deck.nozzle
        self.low_shaft = deck.low_shaft
        self.high_shaft = deck.high_shaft
        self._design_x = np.array(deck.design_x)
        self._design_core_flow = deck.design_core_flow
        # warm-start cache for the transient algebraic solves; _prev_x
        # enables the secant extrapolation predictor under jac_reuse
        self._last_x = self._design_x.copy()
        self._prev_x: Optional[np.ndarray] = None
        self._x_hist: list = []
        # carried gas-path Jacobian (jac_reuse) and the per-transient
        # operating-point memo for the trajectory sampling pass
        self._jac: Optional[np.ndarray] = None
        self._op_memo: Optional[Dict[tuple, OperatingPoint]] = None
        # the last steady solve's report (x + jacobian): the warm-start
        # state a serving session carries between its operating points
        self.steady_report = None

    # ------------------------------------------------------------------ design
    @property
    def design_x(self) -> np.ndarray:
        return self._design_x.copy()

    # ----------------------------------------------------------------- forward
    def evaluate(
        self,
        flight: FlightCondition,
        wf: float,
        n1: float,
        n2: float,
        x: np.ndarray,
        fan_stator: float = 0.0,
        hpc_stator: float = 0.0,
        nozzle_area_factor: float = 1.0,
        ab_fuel: float = 0.0,
    ) -> OperatingPoint:
        """One forward pass through the gas path; returns the operating
        point with its five algebraic residuals.

        The pass computes in Python floats (solvers and schedules hand
        in numpy scalars and arrays), bitwise what numpy scalar
        arithmetic gives: while air reaches the combustor, every station
        field and ``thrust_N`` is a ``float``.  When none does (a fan
        stator closed to -100 deg or beyond, an infinite bypass ratio),
        the core flow is an ``np.float64`` from there on, so the
        divisions by it give numpy's inf/NaN with a warning, as they
        always did, where a float would raise.  docs/PERFORMANCE.md,
        "Third pass: a cold point on plain floats", audits every
        operation of the pass."""
        x = np.asarray(x, dtype=float)
        beta_fan, beta_hpc, bpr, pr_hpt, pr_lpt = x.tolist()
        wf, n1, n2 = float(wf), float(n1), float(n2)
        fan_stator, hpc_stator = float(fan_stator), float(hpc_stator)
        nozzle_area_factor, ab_fuel = float(nozzle_area_factor), float(ab_fuel)
        host = self.host
        amb = flight.ambient()

        face = self.inlet.capture(flight, W=1.0)
        w_fan = self.fan.map_physical_flow(face, n1, beta_fan, fan_stator)
        face = GasState(w_fan, face.Tt, face.Pt, face.far)
        fan_op = self.fan.operate(face, n1, beta_fan, fan_stator)
        core, bypass = self.splitter.split(fan_op.state_out, bpr)
        # the two branch ducts are data-independent: a host with
        # concurrent resources overlaps their round trips
        bypass, core = host.duct_pair((
            ("bypass", self.duct_bypass, bypass),
            ("core", self.duct_core, core),
        ))
        core, _bleed_flow = self.bleed.run(core)
        if not core.W > 0.0:
            # no air reaches the combustor: numpy carries the divisions
            # by this flow (see the docstring)
            core = core.with_(W=np.float64(core.W))
        hpc_op = self.hpc.operate(core, n2, beta_hpc, hpc_stator)
        r_core_flow = (core.W - hpc_op.map_flow_kgs) / self._design_core_flow
        burned = host.combustor(self.burner, hpc_op.state_out, wf)
        r_hpt = self.hpt.flow_error(burned)
        hpt_op = self.hpt.expand_with_ratio(burned, pr_hpt)
        r_lpt = self.lpt.flow_error(hpt_op.state_out)
        lpt_op = self.lpt.expand_with_ratio(hpt_op.state_out, pr_lpt)
        core_exit = host.duct("mixer-entry", self.duct_mixer, lpt_op.state_out)
        r_mix = self.mixer.pressure_imbalance(core_exit, bypass)
        mixed = self.augmentor.burn(self.mixer.mix(core_exit, bypass), ab_fuel)
        nozzle = self.nozzle
        if nozzle_area_factor != 1.0:
            nozzle = replace(nozzle, area_m2=nozzle.area_m2 * nozzle_area_factor)
        wcap, thrust = host.nozzle(nozzle, mixed, amb.Ps, flight.flight_speed)
        r_noz = (wcap - mixed.W) / w_fan

        return OperatingPoint(
            flight=flight,
            wf=wf,
            n1=n1,
            n2=n2,
            x=x.copy(),
            residuals=np.array([r_core_flow, r_hpt, r_lpt, r_mix, r_noz]),
            stations={
                "2": face,
                "13": fan_op.state_out,
                "16": bypass,
                "25": core,
                "3": hpc_op.state_out,
                "4": burned,
                "45": hpt_op.state_out,
                "5": lpt_op.state_out,
                "6": core_exit,
                "7": mixed,
            },
            powers={
                "fan": fan_op.power_W,
                "hpc": hpc_op.power_W,
                "hpt": hpt_op.power_W,
                "lpt": lpt_op.power_W,
            },
            thrust_N=thrust,
            diagnostics={
                "fan_surge_margin": self.fan.map.surge_margin(
                    fan_op.corrected_speed, beta_fan
                ),
                "hpc_surge_margin": self.hpc.map.surge_margin(
                    hpc_op.corrected_speed, beta_hpc
                ),
            },
        )

    # ----------------------------------------------------------------- steady
    def balance(
        self,
        flight: FlightCondition,
        wf: float,
        method: str = "Newton-Raphson",
        tol: float = 1e-8,
        x0: Optional[np.ndarray] = None,
        jac0: Optional[np.ndarray] = None,
        **schedule_values,
    ) -> OperatingPoint:
        """Balance the engine at an operating point (steady state).

        Solves the 7-dimensional system (5 gas-path residuals + 2 shaft
        power balances) for the algebraic unknowns and both spool
        speeds, using the selected menu method.

        ``x0``/``jac0`` warm-start the Newton solve from a previous
        operating point's solution and Jacobian (the serving layer's
        session state): nearby points then converge in a few Broyden
        iterations with no finite-difference rebuild.  The solved
        report is kept as :attr:`steady_report`, whose ``x``/``jacobian``
        are exactly what the next point's warm start wants."""
        if x0 is None:
            z0 = np.concatenate([self._design_x, [1.0, 1.0]])
        else:
            z0 = np.asarray(x0, dtype=float)

        last = LastEvaluation()

        def residuals(z: np.ndarray) -> np.ndarray:
            op = last.keep(z, self.evaluate(flight, wf, z[5], z[6], z[:5], **schedule_values))
            r_low = self.low_shaft.power_residual(
                [op.powers["fan"]], 1, [op.powers["lpt"]], 1
            )
            r_high = self.high_shaft.power_residual(
                [op.powers["hpc"]], 1, [op.powers["hpt"]], 1
            )
            return np.concatenate([op.residuals, [r_low, r_high]])

        if method == "Newton-Raphson":
            report = newton_raphson(
                residuals, z0, tol=tol, max_iter=60,
                jac_reuse=self.jac_reuse, jac0=jac0,
                jacobian_fn=self.host.jacobian,
            )
        elif method == "Runge-Kutta":
            report = newton_flow_rk4(residuals, z0, tol=max(tol, 1e-9), dtau=0.5)
        else:
            raise ValueError(f"unknown steady method {method!r}")
        self.steady_report = report
        z = report.x
        op = last.at(z)
        if op is None:
            op = self.evaluate(flight, wf, z[5], z[6], z[:5], **schedule_values)
        op.converged = report.converged
        self._last_x = z[:5].copy()
        self._x_hist.clear()
        return op

    # --------------------------------------------------------------- transient
    def _solve_gas_path(
        self, flight: FlightCondition, wf: float, n1: float, n2: float,
        **schedule_values,
    ) -> OperatingPoint:
        """Re-balance the 5 algebraic unknowns at fixed spool speeds.

        Warm-started from the previous solve's solution; with
        ``jac_reuse`` the previous solve's Jacobian seeds this one.
        During a transient, solved points are memoized so the
        trajectory-sampling pass after integration re-reads the
        integrator's own evaluations instead of re-solving them.
        """
        key = None
        if self._op_memo is not None:
            key = (wf, n1, n2, tuple(sorted(schedule_values.items())))
            cached = self._op_memo.get(key)
            if cached is not None:
                return cached

        last = LastEvaluation()

        def residuals(x: np.ndarray) -> np.ndarray:
            return last.keep(x, self.evaluate(flight, wf, n1, n2, x, **schedule_values)).residuals

        # secant extrapolation predictor: transient solves alternate
        # between the integrator's stage points (k1, k2, k1, ...), so
        # same-parity solutions two solves apart drift smoothly along
        # the trajectory — extrapolating them lands much closer than
        # the last solution alone
        x0 = self._last_x
        hist = self._x_hist
        if self.jac_reuse and len(hist) >= 6 and all(
            h.shape == self._last_x.shape for h in hist[-6::2]
        ):
            x0 = 3.0 * hist[-2] - 3.0 * hist[-4] + hist[-6]
        elif self.jac_reuse and len(hist) >= 4 and all(
            h.shape == self._last_x.shape for h in hist[-4::2]
        ):
            x0 = 2.0 * hist[-2] - hist[-4]
        try:
            report = newton_raphson(
                residuals, x0, tol=1e-10, max_iter=40,
                jac_reuse=self.jac_reuse, jac0=self._jac,
                jacobian_fn=self.host.jacobian,
                xtol=1e-7 if self.jac_reuse else None,
            )
        except MapError:
            # an over-eager predictor can leave the map envelope; redo
            # the solve from the plain warm start
            report = newton_raphson(
                residuals, self._last_x, tol=1e-10, max_iter=40,
                jac_reuse=self.jac_reuse, jac0=self._jac,
                jacobian_fn=self.host.jacobian,
                xtol=1e-7 if self.jac_reuse else None,
            )
        self._prev_x = self._last_x
        self._last_x = report.x.copy()
        hist.append(self._last_x)
        del hist[:-6]
        if self.jac_reuse:
            self._jac = report.jacobian
        op = last.at(report.x)
        if op is None:
            op = self.evaluate(flight, wf, n1, n2, report.x, **schedule_values)
        if key is not None:
            self._op_memo[key] = op
        return op

    def transient(
        self,
        flight: FlightCondition,
        fuel_schedule: Schedule,
        t_end: float,
        dt: float = 0.01,
        method: str = "Modified Euler",
        start: Optional[OperatingPoint] = None,
        fan_stator_schedule: Optional[Schedule] = None,
        hpc_stator_schedule: Optional[Schedule] = None,
        nozzle_area_schedule: Optional[Schedule] = None,
        ab_fuel_schedule: Optional[Schedule] = None,
    ) -> TransientResult:
        """Run an engine transient.

        Mirrors the paper's combined test: the engine is first balanced
        at the initial operating point (unless ``start`` is supplied),
        then the transient proceeds for ``t_end`` seconds with the
        selected integration method."""
        self.host.setup()
        if start is None:
            start = self.balance(flight, fuel_schedule.value(0.0))
        y0 = np.array([start.n1, start.n2])
        self._last_x = start.x.copy()
        self._x_hist.clear()

        def sched(s: Optional[Schedule], t: float, default: float) -> float:
            return s.value(t) if s is not None else default

        def rhs(t: float, y: np.ndarray) -> np.ndarray:
            n1, n2 = float(y[0]), float(y[1])
            op = self._solve_gas_path(
                flight,
                fuel_schedule.value(t),
                n1,
                n2,
                fan_stator=sched(fan_stator_schedule, t, 0.0),
                hpc_stator=sched(hpc_stator_schedule, t, 0.0),
                nozzle_area_factor=sched(nozzle_area_schedule, t, 1.0),
                ab_fuel=sched(ab_fuel_schedule, t, 0.0),
            )
            # the two spool accelerations are data-independent: overlap
            dn1, dn2 = self.host.shaft_accel_pair((
                ("low", self.low_shaft, (op.powers["fan"],),
                 (op.powers["lpt"],), 0.0, n1),
                ("high", self.high_shaft, (op.powers["hpc"],),
                 (op.powers["hpt"],), 0.0, n2),
            ))
            return np.array([dn1, dn2])

        self._op_memo = {}
        try:
            ode = integrate(method, rhs, 0.0, y0, t_end, dt)

            # sample the recorded trajectory for the reported histories;
            # the memo makes points the integrator already solved free
            thrust = np.empty(ode.t.size)
            t4 = np.empty(ode.t.size)
            wf_hist = np.empty(ode.t.size)
            for i, (ti, yi) in enumerate(zip(ode.t, ode.y)):
                op = self._solve_gas_path(
                    flight, fuel_schedule.value(float(ti)), float(yi[0]), float(yi[1]),
                    fan_stator=sched(fan_stator_schedule, float(ti), 0.0),
                    hpc_stator=sched(hpc_stator_schedule, float(ti), 0.0),
                    nozzle_area_factor=sched(nozzle_area_schedule, float(ti), 1.0),
                    ab_fuel=sched(ab_fuel_schedule, float(ti), 0.0),
                )
                thrust[i] = op.thrust_N
                t4[i] = op.t4
                wf_hist[i] = op.wf
        finally:
            self._op_memo = None
        self.host.teardown()
        return TransientResult(
            t=ode.t, n1=ode.y[:, 0], n2=ode.y[:, 1],
            thrust=thrust, t4=t4, wf=wf_hist, method=method, ode=ode,
        )
