"""Tests for the four transient integration methods."""

import numpy as np
import pytest

from repro.solvers import (
    TRANSIENT_METHODS,
    ConvergenceFailure,
    adams,
    gear,
    integrate,
    modified_euler,
    rk4,
)


def decay(t, y):
    """dy/dt = -y, y(0)=1 -> y(t) = exp(-t)."""
    return -y


def oscillator(t, y):
    """Harmonic oscillator: y = [pos, vel]."""
    return np.array([y[1], -y[0]])


def forced(t, y):
    """dy/dt = cos(t), y(0)=0 -> y = sin(t): time-dependent RHS."""
    return np.array([np.cos(t)])


ALL = [modified_euler, rk4, adams, gear]


class TestAccuracyOnDecay:
    @pytest.mark.parametrize("method", ALL, ids=lambda m: m.__name__)
    def test_converges_to_exact(self, method):
        res = method(decay, 0.0, np.array([1.0]), 2.0, 0.01)
        assert res.final[0] == pytest.approx(np.exp(-2.0), rel=1e-3)

    @pytest.mark.parametrize(
        "method,order",
        [(modified_euler, 2), (rk4, 4), (adams, 4), (gear, 2)],
        ids=["euler", "rk4", "adams", "gear"],
    )
    def test_observed_convergence_order(self, method, order):
        """Halving dt should cut the error by about 2^order."""
        exact = np.exp(-1.0)
        e1 = abs(method(decay, 0.0, np.array([1.0]), 1.0, 0.05).final[0] - exact)
        e2 = abs(method(decay, 0.0, np.array([1.0]), 1.0, 0.025).final[0] - exact)
        observed = np.log2(e1 / e2)
        assert observed == pytest.approx(order, abs=0.6)


class TestTrajectories:
    @pytest.mark.parametrize("method", ALL, ids=lambda m: m.__name__)
    def test_oscillator_period(self, method):
        res = method(oscillator, 0.0, np.array([1.0, 0.0]), 2 * np.pi, 0.01)
        assert res.final[0] == pytest.approx(1.0, abs=5e-3)
        assert res.final[1] == pytest.approx(0.0, abs=5e-3)

    @pytest.mark.parametrize("method", ALL, ids=lambda m: m.__name__)
    def test_time_dependent_rhs(self, method):
        res = method(forced, 0.0, np.array([0.0]), 1.5, 0.01)
        assert res.final[0] == pytest.approx(np.sin(1.5), abs=1e-3)

    def test_trajectory_recorded(self):
        res = rk4(decay, 0.0, np.array([1.0]), 1.0, 0.1)
        assert res.t.shape == (11,)
        assert res.y.shape == (11, 1)
        assert res.t[0] == 0.0
        assert res.t[-1] == pytest.approx(1.0)


class TestStiffness:
    STIFF_LAMBDA = -1000.0

    def stiff(self, t, y):
        return self.STIFF_LAMBDA * (y - np.cos(t))

    def test_explicit_methods_blow_up_on_stiff_problem(self):
        """dt = 0.01 is far outside Modified Euler's stability region for
        lambda = -1000."""
        res = modified_euler(self.stiff, 0.0, np.array([0.0]), 0.5, 0.01)
        assert not np.isfinite(res.final[0]) or abs(res.final[0]) > 1e3

    def test_gear_stable_on_stiff_problem(self):
        """The implicit Gear method holds the solution at the same dt."""
        res = gear(self.stiff, 0.0, np.array([0.0]), 0.5, 0.01)
        assert res.final[0] == pytest.approx(np.cos(0.5), abs=1e-2)
        assert res.newton_iterations > 0


class TestMenu:
    def test_menu_matches_the_paper(self):
        assert set(TRANSIENT_METHODS) == {"Modified Euler", "Runge-Kutta", "Adams", "Gear"}

    def test_integrate_by_name(self):
        res = integrate("Modified Euler", decay, 0.0, [1.0], 1.0, 0.01)
        assert res.method == "Modified Euler"
        assert res.final[0] == pytest.approx(np.exp(-1.0), rel=1e-3)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown transient method"):
            integrate("Leapfrog", decay, 0.0, [1.0], 1.0, 0.01)


class TestValidation:
    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            rk4(decay, 0.0, np.array([1.0]), 1.0, 0.0)

    def test_backwards_time_rejected(self):
        with pytest.raises(ValueError):
            rk4(decay, 1.0, np.array([1.0]), 0.0, 0.1)

    def test_feval_accounting(self):
        res = rk4(decay, 0.0, np.array([1.0]), 1.0, 0.1)
        assert res.fevals == 4 * res.steps
        res = modified_euler(decay, 0.0, np.array([1.0]), 1.0, 0.1)
        assert res.fevals == 2 * res.steps
