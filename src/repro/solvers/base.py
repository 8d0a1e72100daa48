"""Common solver types.

TESS offers menus of solution methods (paper §3.2): "For steady state
solutions, the user can choose from Newton-Raphson and Fourth-order
Runge-Kutta.  For transient solutions, the user can choose from Modified
Euler, Fourth-order Runge-Kutta, Adams, and Gear."  This package
implements all six; this module holds the shared result types and the
one linear solve every Newton-family step goes through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

__all__ = [
    "SolverError",
    "ConvergenceFailure",
    "SteadyReport",
    "ODEResult",
    "ResidualFn",
    "RHSFn",
    "CountedResidual",
    "solve_linear",
]

# A residual function for steady balancing: F(x) = 0 at the solution.
ResidualFn = Callable[[np.ndarray], np.ndarray]
# An ODE right-hand side: dy/dt = f(t, y).
RHSFn = Callable[[float, np.ndarray], np.ndarray]


class CountedResidual:
    """The one residual-evaluation counter every solver routes through.

    Solvers wrap their residual (or RHS slice) once at entry; every
    evaluation — plain iterations, line-search probes, and
    finite-difference Jacobian columns alike — then increments the same
    counter, so ``fevals`` means the same thing in every report and the
    Jacobian-reuse policies can compare like with like.
    """

    __slots__ = ("f", "count")

    def __init__(self, f: Callable[..., np.ndarray]):
        # unwrap so nested solvers (Newton flow inside relaxation, an
        # engine residual handed back to fd_jacobian) share one counter
        if isinstance(f, CountedResidual):
            self.f = f.f
        else:
            self.f = f
        self.count = 0

    def __call__(self, *args) -> np.ndarray:
        self.count += 1
        return np.asarray(self.f(*args), dtype=float)


def solve_linear(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``J @ x = rhs``: the solvers' one linear solve.

    LAPACK ``gesv`` through ``numpy.linalg.solve``, with the refusals the
    Newton and Gear steps were written against:

    * a non-square ``J`` raises ``ValueError`` (numpy would raise
      ``LinAlgError``, which the callers report as a singular Jacobian);
    * a NaN or inf in ``J`` or ``rhs`` raises ``ValueError`` (numpy
      would return a NaN step);
    * only an exactly singular ``J`` raises
      ``numpy.linalg.LinAlgError``, which callers turn into a
      :class:`ConvergenceFailure`.

    No condition estimate is made: an ill-conditioned ``J`` solves
    without a warning, and the caller's residual test judges the step.
    """
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {J.shape}")
    if not (np.isfinite(J).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    return np.linalg.solve(J, rhs)


class SolverError(Exception):
    """Base class for solver failures."""


class ConvergenceFailure(SolverError):
    """The method did not reach the requested tolerance."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


@dataclass
class SteadyReport:
    """Outcome of a steady-state balance."""

    x: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    fevals: int
    history: List[float] = field(default_factory=list)  # residual norms
    # Jacobian-reuse bookkeeping (Newton-family methods): the final
    # Jacobian estimate, for warm-starting the next solve, and how many
    # full finite-difference rebuilds the solve needed
    jacobian: "np.ndarray | None" = None
    jac_rebuilds: int = 0


@dataclass
class ODEResult:
    """Outcome of a transient integration."""

    method: str
    t: np.ndarray  # shape (n_steps+1,)
    y: np.ndarray  # shape (n_steps+1, n_states)
    fevals: int
    steps: int
    newton_iterations: int = 0  # implicit methods only

    @property
    def final(self) -> np.ndarray:
        return self.y[-1]
