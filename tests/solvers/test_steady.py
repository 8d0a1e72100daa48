"""Tests for the steady-state balancing methods."""

import numpy as np
import pytest

from repro.solvers import (
    STEADY_METHODS,
    ConvergenceFailure,
    fd_jacobian,
    newton_flow_rk4,
    newton_raphson,
)


def linear(x):
    A = np.array([[3.0, 1.0], [1.0, 2.0]])
    b = np.array([5.0, 5.0])
    return A @ x - b


LINEAR_SOLUTION = np.array([1.0, 2.0])


def rosenbrock_grad(x):
    """Gradient of the Rosenbrock function: root at (1, 1)."""
    return np.array(
        [
            -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
            200 * (x[1] - x[0] ** 2),
        ]
    )


class TestFDJacobian:
    def test_linear_jacobian_exact(self):
        J = fd_jacobian(linear, np.zeros(2))
        assert np.allclose(J, [[3, 1], [1, 2]], atol=1e-5)

    def test_nonlinear_jacobian(self):
        f = lambda x: np.array([x[0] ** 2 + x[1], np.sin(x[0])])
        J = fd_jacobian(f, np.array([1.0, 2.0]))
        assert np.allclose(J, [[2.0, 1.0], [np.cos(1.0), 0.0]], atol=1e-5)


class TestNewtonRaphson:
    def test_linear_one_iteration(self):
        report = newton_raphson(linear, np.zeros(2))
        assert report.converged
        assert report.iterations <= 2
        assert np.allclose(report.x, LINEAR_SOLUTION, atol=1e-8)

    def test_scalar_nonlinear(self):
        report = newton_raphson(lambda x: np.array([x[0] ** 2 - 2.0]), np.array([1.0]))
        assert report.x[0] == pytest.approx(np.sqrt(2), rel=1e-9)

    def test_rosenbrock_root(self):
        report = newton_raphson(rosenbrock_grad, np.array([0.5, 0.5]), max_iter=100)
        assert report.converged
        assert np.allclose(report.x, [1.0, 1.0], atol=1e-6)

    def test_residual_history_decreases(self):
        report = newton_raphson(rosenbrock_grad, np.array([0.8, 0.8]), max_iter=100)
        assert report.history[-1] < report.history[0]

    def test_failure_raises_with_report(self):
        # a residual with no root: F(x) = x^2 + 1
        with pytest.raises(ConvergenceFailure) as ei:
            newton_raphson(lambda x: np.array([x[0] ** 2 + 1.0]), np.array([1.0]),
                           max_iter=5)
        assert ei.value.report is not None
        assert not ei.value.report.converged

    def test_failure_report_mode(self):
        report = newton_raphson(
            lambda x: np.array([x[0] ** 2 + 1.0]),
            np.array([1.0]),
            max_iter=5,
            raise_on_failure=False,
        )
        assert not report.converged


    def test_seed_at_the_root_confirms_in_zero_iterations(self):
        """The op cache's 'seed' tier: handing a stored root back as x0
        costs one residual sweep, no Newton iterations."""
        f = lambda x: np.array([x[0] ** 2 - 4.0, x[1] - 1.0])
        root = newton_raphson(f, np.array([1.0, 0.0])).x
        report = newton_raphson(f, root)
        assert report.converged
        assert report.iterations == 0
        np.testing.assert_array_equal(report.x, root)


class TestMethodMenu:
    def test_menu_matches_the_paper(self):
        assert STEADY_METHODS == {
            "Newton-Raphson": newton_raphson,
            "Runge-Kutta": newton_flow_rk4,
        }

    def test_both_methods_agree(self):
        nr = newton_raphson(linear, np.zeros(2))
        rk = newton_flow_rk4(linear, np.zeros(2))
        assert np.allclose(nr.x, rk.x, atol=1e-6)

    def test_newton_cheaper_on_smooth_problems(self):
        nr = newton_raphson(linear, np.zeros(2))
        rk = newton_flow_rk4(linear, np.zeros(2))
        assert nr.fevals < rk.fevals
