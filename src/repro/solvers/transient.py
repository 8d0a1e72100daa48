"""Transient integration methods: the four entries of the TESS menu.

* **Modified Euler** — Heun's predictor/corrector (the paper's combined
  test ran "a one second transient simulation using the Improved Euler
  method"),
* **Runge-Kutta** — the classic fourth-order method,
* **Adams** — Adams-Bashforth-Moulton 4th-order predictor/corrector
  with RK4 start-up,
* **Gear** — BDF2 with an inner Newton iteration (implicit; the one to
  pick for stiff spool/volume dynamics).

All methods use a fixed step ``dt`` and record the full trajectory.
"""

from __future__ import annotations

import numpy as np

from .base import ConvergenceFailure, CountedResidual, ODEResult, RHSFn, solve_linear
from .steady import fd_jacobian

__all__ = ["modified_euler", "rk4", "adams", "gear", "TRANSIENT_METHODS", "integrate"]

#: Gear's inner Newton iteration stops once |G| is at or below this
_NEWTON_TOL = 1e-10


def _grid(t0: float, t_end: float, dt: float) -> np.ndarray:
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < t0:
        raise ValueError(f"t_end {t_end} before t0 {t0}")
    n = max(1, int(round((t_end - t0) / dt)))
    return np.linspace(t0, t0 + n * dt, n + 1)


def modified_euler(f: RHSFn, t0: float, y0: np.ndarray, t_end: float, dt: float) -> ODEResult:
    """Heun's method (Improved/Modified Euler), 2nd order."""
    t = _grid(t0, t_end, dt)
    y = np.empty((t.size, np.asarray(y0).size))
    y[0] = np.asarray(y0, dtype=float)
    F = CountedResidual(f)
    for i in range(t.size - 1):
        k1 = F(t[i], y[i])
        predictor = y[i] + dt * k1
        k2 = F(t[i + 1], predictor)
        y[i + 1] = y[i] + 0.5 * dt * (k1 + k2)
    return ODEResult(method="Modified Euler", t=t, y=y, fevals=F.count, steps=t.size - 1)


def rk4(f: RHSFn, t0: float, y0: np.ndarray, t_end: float, dt: float) -> ODEResult:
    """Classic fourth-order Runge-Kutta."""
    t = _grid(t0, t_end, dt)
    y = np.empty((t.size, np.asarray(y0).size))
    y[0] = np.asarray(y0, dtype=float)
    fevals = 0
    for i in range(t.size - 1):
        ti, yi = t[i], y[i]
        k1 = np.asarray(f(ti, yi), dtype=float)
        k2 = np.asarray(f(ti + 0.5 * dt, yi + 0.5 * dt * k1), dtype=float)
        k3 = np.asarray(f(ti + 0.5 * dt, yi + 0.5 * dt * k2), dtype=float)
        k4 = np.asarray(f(ti + dt, yi + dt * k3), dtype=float)
        y[i + 1] = yi + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        fevals += 4
    return ODEResult(method="Runge-Kutta", t=t, y=y, fevals=fevals, steps=t.size - 1)


def adams(f: RHSFn, t0: float, y0: np.ndarray, t_end: float, dt: float) -> ODEResult:
    """Adams-Bashforth-Moulton 4th-order predictor/corrector.

    The first three steps come from RK4; thereafter AB4 predicts and
    AM4 corrects (PECE), costing two evaluations per step."""
    t = _grid(t0, t_end, dt)
    n = t.size
    y = np.empty((n, np.asarray(y0).size))
    y[0] = np.asarray(y0, dtype=float)
    fevals = 0
    fs = []  # history of f values
    # RK4 start-up for the first min(3, n-1) steps
    for i in range(min(3, n - 1)):
        ti, yi = t[i], y[i]
        k1 = np.asarray(f(ti, yi), dtype=float)
        k2 = np.asarray(f(ti + 0.5 * dt, yi + 0.5 * dt * k1), dtype=float)
        k3 = np.asarray(f(ti + 0.5 * dt, yi + 0.5 * dt * k2), dtype=float)
        k4 = np.asarray(f(ti + dt, yi + dt * k3), dtype=float)
        y[i + 1] = yi + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        fs.append(k1)
        fevals += 4
    for i in range(3, n - 1):
        if len(fs) == 3:
            fs.append(np.asarray(f(t[i], y[i]), dtype=float))
            fevals += 1
        fm3, fm2, fm1, f0 = fs[-4], fs[-3], fs[-2], fs[-1]
        # AB4 predictor
        yp = y[i] + (dt / 24.0) * (55 * f0 - 59 * fm1 + 37 * fm2 - 9 * fm3)
        fp = np.asarray(f(t[i + 1], yp), dtype=float)
        fevals += 1
        # AM4 corrector
        y[i + 1] = y[i] + (dt / 24.0) * (9 * fp + 19 * f0 - 5 * fm1 + fm2)
        fc = np.asarray(f(t[i + 1], y[i + 1]), dtype=float)
        fevals += 1
        fs.append(fc)
        if len(fs) > 4:
            fs.pop(0)
    return ODEResult(method="Adams", t=t, y=y, fevals=fevals, steps=n - 1)


def gear(
    f: RHSFn,
    t0: float,
    y0: np.ndarray,
    t_end: float,
    dt: float,
    newton_max: int = 20,
    jac_reuse: bool = True,
) -> ODEResult:
    """Gear's method: BDF2 with BDF1 (backward Euler) start-up.

    Each step solves the implicit equation with a damped Newton
    iteration on G(y) = y - c - beta*dt*f(t, y).  A-stable, so it
    tolerates the stiff rotor/volume dynamics that blow up the explicit
    methods.

    With ``jac_reuse`` (the default) this is *modified* Newton: the
    finite-difference Jacobian of ``f`` is frozen and carried across
    Newton iterations and time steps — each step refactors the (cheap)
    iteration matrix I - beta*dt*Jf but re-probes ``f`` only when the
    iteration converges slowly, which for the smooth rotor dynamics
    almost never happens.  ``jac_reuse=False`` restores the classic
    rebuild-every-iteration behaviour (the differential oracle).
    """
    t = _grid(t0, t_end, dt)
    n = t.size
    y = np.empty((n, np.asarray(y0).size))
    y[0] = np.asarray(y0, dtype=float)
    F = CountedResidual(f)
    newton_total = 0
    Jf = None  # frozen df/dy estimate (jac_reuse mode)

    def implicit_step(tn, guess, c, beta):
        nonlocal newton_total, Jf
        yk = guess.copy()
        prev_gnorm = np.inf
        for _ in range(newton_max):
            fy = F(tn, yk)
            G = yk - c - beta * dt * fy
            gnorm = float(np.linalg.norm(G))
            if gnorm <= _NEWTON_TOL:
                return yk
            # refresh the frozen Jacobian only when stale: missing, or
            # the iteration stopped contracting (slow convergence)
            if Jf is None or not jac_reuse or gnorm > 0.5 * prev_gnorm:
                Jf = fd_jacobian(lambda v: F(tn, v), yk, fy)
            # Jacobian of G: I - beta*dt*df/dy
            J = np.eye(yk.size) - beta * dt * Jf
            try:
                step = solve_linear(J, -G)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceFailure(f"Gear: singular iteration matrix: {exc}")
            yk = yk + step
            newton_total += 1
            prev_gnorm = gnorm
        raise ConvergenceFailure(
            f"Gear: Newton iteration did not converge at t={tn:g}"
        )

    # BDF1 (backward Euler) for the first step
    if n > 1:
        y[1] = implicit_step(t[1], y[0], y[0], 1.0)
    # BDF2 thereafter: y_{n+1} = 4/3 y_n - 1/3 y_{n-1} + 2/3 dt f
    for i in range(1, n - 1):
        c = (4.0 * y[i] - y[i - 1]) / 3.0
        y[i + 1] = implicit_step(t[i + 1], y[i], c, 2.0 / 3.0)
    return ODEResult(
        method="Gear", t=t, y=y, fevals=F.count, steps=n - 1,
        newton_iterations=newton_total,
    )


#: menu-name -> integrator, matching the TESS system-module widget (§3.2)
TRANSIENT_METHODS = {
    "Modified Euler": modified_euler,
    "Runge-Kutta": rk4,
    "Adams": adams,
    "Gear": gear,
}


def integrate(method: str, f: RHSFn, t0: float, y0, t_end: float, dt: float) -> ODEResult:
    """Integrate by menu name (what the TESS system module does)."""
    try:
        fn = TRANSIENT_METHODS[method]
    except KeyError:
        raise ValueError(
            f"unknown transient method {method!r}; choose from "
            f"{sorted(TRANSIENT_METHODS)}"
        ) from None
    return fn(f, t0, np.asarray(y0, dtype=float), t_end, dt)
