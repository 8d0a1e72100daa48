"""Steady-state balancing methods.

TESS "first attempts to balance the engine at the initial operating
point through a steady-state calculation" (paper §3.2).  Two methods are
on the menu:

* **Newton-Raphson** — damped Newton iteration with a finite-difference
  Jacobian,
* **Fourth-order Runge-Kutta** — pseudo-transient relaxation: integrate
  the Newton flow dx/dτ = -J(x)^{-1} F(x) with RK4 pseudo-time steps
  until the residual vanishes (robust far from the solution, slower
  near it — the classic trade-off the two menu entries offer).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .base import ConvergenceFailure, CountedResidual, ResidualFn, SteadyReport, solve_linear

__all__ = [
    "newton_raphson",
    "newton_flow_rk4",
    "fd_jacobian",
    "broyden_update",
    "FD_EPS",
    "STEADY_METHODS",
]

#: an alternative Jacobian builder: (f, x, fx) -> J.  The engine passes
#: one that runs the FD column probes through overlapped RPC dispatch.
JacobianFn = Callable[[ResidualFn, np.ndarray, np.ndarray], np.ndarray]

#: forward-difference step, relative to max(1, |x_j|)
FD_EPS = 1e-7
#: the Newton step scale the line search starts from
_DAMPING = 1.0
#: with Jacobian reuse, a residual reduction worse than this per
#: iteration (slow contraction) rebuilds the Jacobian ...
_JAC_REFRESH_RATIO = 0.5
#: ... and so does an estimate carried through this many Broyden updates
_JAC_MAX_AGE = 25


def fd_jacobian(f: ResidualFn, x: np.ndarray, fx: Optional[np.ndarray] = None) -> np.ndarray:
    """Forward-difference Jacobian of ``f`` at ``x``.

    Every column probe is an ordinary evaluation of ``f``; when ``f`` is
    a :class:`~repro.solvers.base.CountedResidual` the probes land in
    the same counter as the solver's own evaluations.
    """
    x = np.asarray(x, dtype=float)
    if fx is None:
        fx = np.asarray(f(x), dtype=float)
    n = x.size
    m = fx.size
    J = np.empty((m, n))
    for j in range(n):
        h = FD_EPS * max(1.0, abs(x[j]))
        xp = x.copy()
        xp[j] += h
        J[:, j] = (np.asarray(f(xp), dtype=float) - fx) / h
    return J


def broyden_update(J: np.ndarray, dx: np.ndarray, df: np.ndarray) -> np.ndarray:
    """Broyden's good rank-1 secant update: the cheapest Jacobian
    estimate consistent with the step just taken (J' dx = df)."""
    denom = float(dx @ dx)
    if denom <= 0.0:
        return J
    return J + np.outer(df - J @ dx, dx) / denom


def newton_raphson(
    f: ResidualFn,
    x0: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 50,
    raise_on_failure: bool = True,
    jac_reuse: bool = False,
    jac0: Optional[np.ndarray] = None,
    jacobian_fn: Optional[JacobianFn] = None,
    xtol: Optional[float] = None,
) -> SteadyReport:
    """Damped Newton-Raphson with finite-difference Jacobian.

    A backtracking halving line search engages automatically when a
    full step increases the residual.

    ``xtol`` (off by default) adds a step-size termination: once the
    residual is already small (below ``sqrt(tol)``) and the computed
    Newton correction has norm below ``xtol``, the current iterate is
    accepted as the root without paying the confirming residual
    evaluation — the standard MINPACK-style x-resolution criterion.
    When every residual evaluation is a remote sweep, this saves one
    full sweep per solve.

    With ``jac_reuse`` the full finite-difference Jacobian (one complete
    residual sweep per state variable) is built only when stale:
    between rebuilds the Jacobian is maintained by Broyden rank-1
    updates, and a rebuild is triggered by slow convergence (residual
    reduction worse than ``_JAC_REFRESH_RATIO`` per iteration), a damped
    line-search step, age beyond ``_JAC_MAX_AGE`` updates, or a singular
    iteration matrix.  ``jac0`` seeds the estimate (e.g. the previous
    transient step's Jacobian); the final estimate is returned in
    ``SteadyReport.jacobian`` for exactly that reuse.
    """
    f = CountedResidual(f)
    x = np.asarray(x0, dtype=float).copy()
    history = []
    fx = f(x)
    norm = float(np.linalg.norm(fx))
    history.append(norm)
    jacobian_fn = jacobian_fn or fd_jacobian
    J: Optional[np.ndarray] = None
    jac_age = 0
    jac_rebuilds = 0
    if jac_reuse and jac0 is not None and jac0.shape == (fx.size, x.size):
        J = np.array(jac0, dtype=float)

    def rebuild(at_x, at_fx):
        nonlocal J, jac_age, jac_rebuilds
        J = jacobian_fn(f, at_x, at_fx)
        jac_age = 0
        jac_rebuilds += 1

    def report_at(it, converged=None):
        return SteadyReport(
            x=x, converged=(norm <= tol) if converged is None else converged,
            iterations=it, residual_norm=norm,
            fevals=f.count, history=history, jacobian=J, jac_rebuilds=jac_rebuilds,
        )

    step_guard = np.sqrt(tol)
    for it in range(1, max_iter + 1):
        if norm <= tol:
            return report_at(it - 1)
        fresh = J is None or not jac_reuse
        if fresh:
            rebuild(x, fx)
        try:
            step = solve_linear(J, -fx)
        except np.linalg.LinAlgError as exc:
            if jac_reuse and not fresh:
                # a carried estimate (seed or worn Broyden update) went
                # singular: rebuild once at the current iterate
                rebuild(x, fx)
                try:
                    step = solve_linear(J, -fx)
                except np.linalg.LinAlgError as exc2:
                    raise ConvergenceFailure(
                        f"singular Jacobian at iteration {it}: {exc2}")
            else:
                raise ConvergenceFailure(f"singular Jacobian at iteration {it}: {exc}")
        if (
            xtol is not None
            and norm <= step_guard
            and float(np.linalg.norm(step)) < xtol
        ):
            # the correction is below the requested x-resolution and the
            # residual is already small: the iterate is the root to
            # within xtol — accept it without a confirming evaluation
            return report_at(it - 1, converged=True)
        # backtracking line search
        alpha = _DAMPING
        for _ in range(8):
            x_new = x + alpha * step
            fx_new = f(x_new)
            norm_new = float(np.linalg.norm(fx_new))
            if norm_new < norm or norm_new <= tol:
                break
            alpha *= 0.5
        if jac_reuse:
            dx = x_new - x
            df = fx_new - fx
            stale = (
                alpha < _DAMPING  # the line search had to back off
                or norm_new > _JAC_REFRESH_RATIO * norm  # slow contraction
                or jac_age >= _JAC_MAX_AGE
            )
            if stale and norm_new > tol:
                rebuild(x_new, fx_new)
            else:
                J = broyden_update(J, dx, df)
                jac_age += 1
        x, fx, norm = x_new, fx_new, norm_new
        history.append(norm)
    report = report_at(max_iter)
    if not report.converged and raise_on_failure:
        raise ConvergenceFailure(
            f"Newton-Raphson failed to converge: |F| = {norm:.3e} after "
            f"{max_iter} iterations", report)
    return report


def newton_flow_rk4(
    f: ResidualFn,
    x0: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 200,
    dtau: float = 0.5,
    raise_on_failure: bool = True,
) -> SteadyReport:
    """RK4 integration of the Newton flow dx/dτ = -J(x)^{-1} F(x).

    The Newton flow's fixed point is the root and its linearization is
    -I, so the flow is stable regardless of the residual Jacobian's
    spectrum — the robust pseudo-transient companion to plain Newton for
    systems (like a coupled engine balance) where dx/dτ = F(x) itself
    is not a stable dynamical system.
    """
    F = CountedResidual(f)
    x = np.asarray(x0, dtype=float).copy()
    history = []
    h = min(dtau, 1.0)

    def direction(v: np.ndarray) -> np.ndarray:
        fv = F(v)
        J = fd_jacobian(F, v, fv)
        try:
            return solve_linear(J, -fv)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(f"singular Jacobian in Newton flow: {exc}")

    fx = F(x)
    norm = float(np.linalg.norm(fx))
    history.append(norm)
    for it in range(1, max_iter + 1):
        if norm <= tol:
            return SteadyReport(x=x, converged=True, iterations=it - 1,
                                residual_norm=norm, fevals=F.count, history=history)
        k1 = direction(x)
        k2 = direction(x + 0.5 * h * k1)
        k3 = direction(x + 0.5 * h * k2)
        k4 = direction(x + h * k3)
        x_new = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        fx_new = F(x_new)
        norm_new = float(np.linalg.norm(fx_new))
        if norm_new > norm:
            h = max(h * 0.5, 1e-3)
            continue
        h = min(h * 1.3, 1.0)
        x, norm = x_new, norm_new
        history.append(norm)
    report = SteadyReport(x=x, converged=norm <= tol, iterations=max_iter,
                          residual_norm=norm, fevals=F.count, history=history)
    if not report.converged and raise_on_failure:
        raise ConvergenceFailure(
            f"Newton-flow RK4 failed to converge: |F| = {norm:.3e} after "
            f"{max_iter} iterations", report)
    return report


#: menu-name -> solver, matching the TESS system-module widget (§3.2)
STEADY_METHODS = {
    "Newton-Raphson": newton_raphson,
    "Runge-Kutta": newton_flow_rk4,
}
