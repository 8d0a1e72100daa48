"""The solvers' one linear solve, ``repro.solvers.base.solve_linear``.

Newton-Raphson (both of its solves), the Newton flow's direction and
Gear's implicit step all go through it.  It is ``numpy.linalg.solve``
(LAPACK ``gesv``) with the refusals ``scipy.linalg.solve`` made, which is
what the runtime used before it needed numpy alone.  scipy stays the
reference here, as a test dependency:

* on well-conditioned systems the answers agree to rounding;
* an exactly singular matrix is a ``ConvergenceFailure`` from each
  solver, as before;
* a NaN or inf input and a non-square ``J`` are ``ValueError``s — a bare
  ``numpy.linalg.solve`` would return a NaN step for the first and report
  the second as a singular Jacobian;
* served rows are bitwise whichever LAPACK build does the solve, and the
  returned floats differ in their last bits at most.
"""

import math
import random
import sys

import numpy as np
import pytest
import scipy.linalg

from repro.serve import SessionSpec, SharedInstallation, serve_sessions
from repro.solvers import ConvergenceFailure, gear, newton_flow_rk4, newton_raphson
from repro.solvers import base


def well_conditioned(seed, n):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + n * np.eye(n), rng.standard_normal(n)


class TestAgreesWithScipy:
    @pytest.mark.parametrize("n", [5, 7])
    @pytest.mark.parametrize("seed", range(8))
    def test_well_conditioned_systems(self, n, seed):
        J, rhs = well_conditioned(seed, n)
        got = base.solve_linear(J, rhs)
        want = scipy.linalg.solve(J, rhs)
        assert got.shape == want.shape == (n,)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_the_singular_error_is_scipy_s_class(self):
        """Callers catch ``numpy.linalg.LinAlgError``; it is the class
        scipy raised, so their ``ConvergenceFailure`` wrapping holds."""
        assert np.linalg.LinAlgError is scipy.linalg.LinAlgError
        with pytest.raises(np.linalg.LinAlgError):
            base.solve_linear(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))


def stuck(x):
    """Residual whose second component ignores ``x``: the FD Jacobian's
    second row is exactly zero, so every Jacobian is exactly singular."""
    return np.array([x[0] - 1.0, 1.0])


def flat(t, y):
    """With y0 = 0 and dt = 0.5 the FD column of ``2 y[0]`` is exactly
    2, so BDF1's iteration matrix I - dt * Jf has an exactly zero row."""
    return np.array([2.0 * y[0], 1.0])


class TestSingularIsAConvergenceFailure:
    def test_newton_raphson_fresh_jacobian(self):
        with pytest.raises(ConvergenceFailure, match="singular Jacobian at iteration 1"):
            newton_raphson(stuck, np.zeros(2), jac_reuse=False)

    def test_newton_raphson_carried_jacobian_rebuilds_then_fails(self):
        with pytest.raises(ConvergenceFailure, match="singular Jacobian at iteration 1"):
            newton_raphson(stuck, np.zeros(2), jac_reuse=True, jac0=np.zeros((2, 2)))

    def test_newton_flow(self):
        with pytest.raises(ConvergenceFailure, match="singular Jacobian in Newton flow"):
            newton_flow_rk4(stuck, np.zeros(2))

    def test_gear(self):
        with pytest.raises(ConvergenceFailure, match="Gear: singular iteration matrix"):
            gear(flat, 0.0, np.zeros(2), 0.5, 0.5)


def poisoned(bad):
    return [
        pytest.param("J", bad, id=f"J-{bad}"),
        pytest.param("rhs", bad, id=f"rhs-{bad}"),
    ]


class TestNonFiniteInputIsAValueError:
    @pytest.mark.parametrize("where, bad", poisoned(np.nan) + poisoned(np.inf) + poisoned(-np.inf))
    def test_the_seam_refuses(self, where, bad):
        J, rhs = well_conditioned(3, 7)
        (J if where == "J" else rhs)[2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            base.solve_linear(J, rhs)

    def test_newton_raphson_on_a_nan_residual(self):
        """The residual's NaN reaches both the FD Jacobian and the
        right-hand side: refused, not a NaN step line-searched into
        ``max_iter`` iterations of nothing."""
        with pytest.raises(ValueError, match="infs or NaNs"):
            newton_raphson(lambda x: np.array([x[0] - 1.0, np.nan]), np.zeros(2))

    def test_gear_on_an_inf_rhs(self):
        # the FD probe's inf - inf is a NaN in the Jacobian; numpy's
        # warning about making it is not what is under test
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
            gear(lambda t, y: np.array([-y[0], np.inf]), 0.0, np.ones(2), 0.1, 0.1)


class TestNonSquareIsAValueError:
    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (3,)])
    def test_the_seam_refuses(self, shape):
        with pytest.raises(ValueError, match="square") as exc:
            base.solve_linear(np.ones(shape), np.ones(shape[0]))
        # numpy's LinAlgError is a ValueError too, and it is what the
        # callers turn into "singular Jacobian"
        assert not isinstance(exc.value, np.linalg.LinAlgError)

    def test_newton_raphson_does_not_call_it_singular(self):
        """Three unknowns, two equations: a caller's mistake, not a
        convergence failure to be counted and retried."""
        with pytest.raises(ValueError, match="square") as exc:
            newton_raphson(lambda x: np.array([x[0] + x[1] - 1.0, x[2] - 2.0]), np.zeros(3))
        assert not isinstance(exc.value, ConvergenceFailure)

    def test_a_mismatched_rhs(self):
        with pytest.raises(ValueError):
            base.solve_linear(np.eye(3), np.ones(4))


# ------------------------------------------------------- served rows, both ways
def mixed_batch():
    """8 cold, 8 op-cache (near-hit warm starts) and 2 transient
    sessions, fuel flows on the benchmarks' 0.001 kg/s lattice."""
    rng = random.Random("linear-solve-differential")

    def points(n):
        return tuple(round(rng.randint(1280, 1600) * 0.001, 6) for _ in range(n))

    return (
        [SessionSpec(name=f"cold-{i}", points=points(3)) for i in range(8)]
        + [SessionSpec(name=f"near-{i}", points=points(3), op_cache=True) for i in range(8)]
        + [
            SessionSpec(name=f"transient-{i}", points=points(1), transient_s=0.1,
                        transient_dt=0.02, dispatch="overlap")
            for i in range(2)
        ]
    )


def serve_batch():
    return serve_sessions(mixed_batch(), installation=SharedInstallation.standard(), dedup=False)


def floats_close(a, b, rel):
    """Equal structure and non-float leaves; floats within ``rel``."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or math.isclose(a, b, rel_tol=rel, abs_tol=0.0)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(floats_close(a[k], b[k], rel) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(floats_close(x, y, rel) for x, y in zip(a, b)))
    return type(a) is type(b) and a == b


class TestServedRowsWhicheverLapack:
    """The same batch served with the seam as shipped and with
    ``scipy.linalg.solve`` in its place.  The trace digest and both
    clocks' times are the contract and must not move; a returned thrust
    may move in its last bits."""

    @pytest.fixture(scope="class")
    def both(self):
        shipped = serve_batch()
        seams = [
            module for module in list(sys.modules.values())
            if getattr(module, "solve_linear", None) is base.solve_linear
        ]
        with pytest.MonkeyPatch.context() as patch:
            for module in seams:
                patch.setattr(module, "solve_linear", scipy.linalg.solve)
            via_scipy = serve_batch()
        return shipped, via_scipy, seams

    def test_every_solver_call_site_was_patched(self, both):
        _, _, seams = both
        names = {module.__name__ for module in seams}
        assert {"repro.solvers.steady", "repro.solvers.transient"} <= names

    def test_the_batch_did_each_kind_of_solve(self, both):
        shipped, via_scipy, _ = both
        for report in (shipped, via_scipy):
            assert report.op_near > 0 and report.op_miss > 0
            assert {r.status for r in report.results} == {"completed"}
            assert sum(r.transient is not None for r in report.results) == 2

    def test_rows_are_bitwise(self, both):
        shipped, via_scipy, _ = both

        def rows(report):
            return [
                (r.name, r.status, r.digest, float(r.virtual_s).hex(), float(r.wait_s).hex())
                for r in report.results
            ]

        assert rows(shipped) == rows(via_scipy)

    def test_results_agree_to_rounding(self, both):
        shipped, via_scipy, _ = both
        for a, b in zip(shipped.results, via_scipy.results):
            assert floats_close(a.results, b.results, 1e-10), a.name
            assert floats_close(a.transient, b.transient, 1e-10), a.name
