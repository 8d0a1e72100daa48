"""A single-spool turbojet built from the same component library.

The executive's goal is to let the user "model a wide range of engines"
(paper §2.4) by recombining component codes.  This second engine
configuration — inlet, compressor, combustor, turbine, nozzle, one
shaft — demonstrates that the component and solver substrates are not
F100-specific.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..solvers import integrate, newton_raphson
from .atmosphere import FlightCondition
from .components import Combustor, Compressor, ConvergentNozzle, Inlet, Shaft, Turbine
from .engine import LastEvaluation, OperatingPoint
from .maps import load_map
from .schedules import Schedule

__all__ = ["TurbojetSpec", "SingleSpoolTurbojet"]


@dataclass(frozen=True)
class TurbojetSpec:
    """Design parameters of a simple single-spool turbojet (J85-class)."""

    name: str = "turbojet"
    compressor_map: str = "f100-hpc.map"  # PR 8 axial machine
    wf_design: float = 0.45  # kg/s
    inlet_recovery: float = 0.99
    burner_efficiency: float = 0.98
    burner_loss: float = 0.05
    turbine_efficiency: float = 0.88
    mech_efficiency: float = 0.995
    inertia: float = 0.8  # kg m^2
    omega_design: float = 1700.0  # rad/s
    nozzle_cd: float = 0.98
    airflow_scale: float = 0.6  # scale the map to a small engine


class SingleSpoolTurbojet:
    """A sized, solvable turbojet.

    Balance unknowns (steady): [beta, pr_turbine, N].  Residuals:
    turbine-inlet choked-flow match, nozzle flow match, shaft power
    balance.  Same design-closure trick as the turbofan: the design
    point is an exact root by construction.
    """

    def __init__(self, spec: TurbojetSpec = TurbojetSpec()):
        self.spec = spec
        self.inlet = Inlet(recovery=spec.inlet_recovery)
        raw = load_map(spec.compressor_map)
        self.compressor = Compressor(
            map=replace(raw, wc_design=raw.wc_design * spec.airflow_scale)
        )
        self.burner = Combustor(efficiency=spec.burner_efficiency, dpqp=spec.burner_loss)
        self.shaft = Shaft(
            inertia=spec.inertia, omega_design=spec.omega_design,
            mech_eff=spec.mech_efficiency,
        )
        self.turbine: Turbine
        self.nozzle: ConvergentNozzle
        self._design_x: np.ndarray
        self._run_design_closure()
        self._last_x = self._design_x.copy()

    def _run_design_closure(self) -> None:
        spec = self.spec
        fc = FlightCondition(0.0, 0.0)
        amb = fc.ambient()
        face = self.inlet.capture(fc, W=1.0)
        w = self.compressor.map_physical_flow(face, 1.0, 0.5)
        face = face.with_(W=w)
        comp_op = self.compressor.operate(face, 1.0, 0.5)
        burned = self.burner.burn(comp_op.state_out, spec.wf_design)
        turbine = Turbine(efficiency=spec.turbine_efficiency).sized(
            burned.corrected_flow
        )
        t_op = turbine.expand_to_power(
            burned, comp_op.power_W / spec.mech_efficiency
        )
        self.turbine = turbine
        self.nozzle = ConvergentNozzle(cd=spec.nozzle_cd).sized_for(
            t_op.state_out, amb.Ps
        )
        self._design_x = np.array([0.5, t_op.pressure_ratio])

    @property
    def design_x(self) -> np.ndarray:
        return self._design_x.copy()

    def evaluate(
        self, flight: FlightCondition, wf: float, n: float, x: np.ndarray
    ) -> OperatingPoint:
        beta, pr_t = np.asarray(x, dtype=float)
        amb = flight.ambient()
        face = self.inlet.capture(flight, W=1.0)
        w = self.compressor.map_physical_flow(face, n, beta)
        face = face.with_(W=w)
        comp_op = self.compressor.operate(face, n, beta)
        burned = self.burner.burn(comp_op.state_out, wf)
        r_turb = self.turbine.flow_error(burned)
        t_op = self.turbine.expand_with_ratio(burned, pr_t)
        wcap = self.nozzle.flow_capacity(t_op.state_out, amb.Ps)
        thrust = self.nozzle.net_thrust(t_op.state_out, amb.Ps, flight.flight_speed)
        r_noz = (wcap - t_op.state_out.W) / max(w, 1e-9)
        return OperatingPoint(
            flight=flight, wf=wf, n1=n, n2=n,
            x=np.asarray(x, dtype=float).copy(),
            residuals=np.array([r_turb, r_noz]),
            stations={"2": face, "3": comp_op.state_out, "4": burned,
                      "5": t_op.state_out},
            powers={"compressor": comp_op.power_W, "turbine": t_op.power_W},
            thrust_N=thrust,
        )

    def balance(
        self, flight: FlightCondition, wf: float, tol: float = 1e-9,
        x0: Optional[np.ndarray] = None,
    ) -> OperatingPoint:
        z0 = np.concatenate([self._design_x, [1.0]]) if x0 is None else np.asarray(x0)

        last = LastEvaluation()

        def residuals(z: np.ndarray) -> np.ndarray:
            op = last.keep(z, self.evaluate(flight, wf, z[2], z[:2]))
            r_shaft = self.shaft.power_residual(
                [op.powers["compressor"]], 1, [op.powers["turbine"]], 1
            )
            return np.concatenate([op.residuals, [r_shaft]])

        report = newton_raphson(residuals, z0, tol=tol, max_iter=60)
        z = report.x
        op = last.at(z)
        if op is None:
            op = self.evaluate(flight, wf, z[2], z[:2])
        op.converged = report.converged
        self._last_x = z[:2].copy()
        return op

    def transient(
        self, flight: FlightCondition, fuel_schedule: Schedule, t_end: float,
        dt: float = 0.01, method: str = "Modified Euler",
    ):
        start = self.balance(flight, fuel_schedule.value(0.0))
        self._last_x = start.x.copy()

        def solve_gas_path(wf: float, n: float) -> OperatingPoint:
            last = LastEvaluation()

            def residuals(x: np.ndarray) -> np.ndarray:
                return last.keep(x, self.evaluate(flight, wf, n, x)).residuals

            report = newton_raphson(residuals, self._last_x, tol=1e-10, max_iter=40)
            self._last_x = report.x.copy()
            op = last.at(report.x)
            if op is None:
                op = self.evaluate(flight, wf, n, report.x)
            return op

        def rhs(t: float, y: np.ndarray) -> np.ndarray:
            op = solve_gas_path(fuel_schedule.value(t), float(y[0]))
            dn = self.shaft.accel(
                [op.powers["compressor"]], 1, [op.powers["turbine"]], 1,
                0.0, float(y[0]),
            )
            return np.array([dn])

        ode = integrate(method, rhs, 0.0, np.array([start.n1]), t_end, dt)
        thrust = np.array(
            [
                solve_gas_path(fuel_schedule.value(float(t)), float(y[0])).thrust_N
                for t, y in zip(ode.t, ode.y)
            ]
        )
        return ode, thrust
