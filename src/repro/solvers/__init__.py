"""Numerical solvers: the six methods on the TESS menus (§3.2).

Steady state: Newton-Raphson, fourth-order Runge-Kutta on the Newton flow.
Transient: Modified Euler, Runge-Kutta, Adams, Gear.
"""

from .base import ConvergenceFailure, ODEResult, SolverError, SteadyReport
from .steady import STEADY_METHODS, fd_jacobian, newton_flow_rk4, newton_raphson
from .transient import TRANSIENT_METHODS, adams, gear, integrate, modified_euler, rk4

__all__ = [
    "SolverError",
    "ConvergenceFailure",
    "SteadyReport",
    "ODEResult",
    "newton_raphson",
    "newton_flow_rk4",
    "fd_jacobian",
    "STEADY_METHODS",
    "modified_euler",
    "rk4",
    "adams",
    "gear",
    "integrate",
    "TRANSIENT_METHODS",
]
