"""A steady solve returns its solver's last evaluation.

Every residual evaluation is one sweep of the gas path (one sweep of
remote calls on a distributed host).  When the solver's last
evaluation was at the root it accepts, the solve site returns that
operating point rather than sweeping again at the same ``x``; only
otherwise does it evaluate once more.  The point returned is bitwise
the one a fresh ``evaluate(report.x)`` gives.
"""

import dataclasses

import numpy as np
import pytest

import repro.tess.engine as engine_mod
import repro.tess.turbojet as turbojet_mod
from repro.tess import FlightCondition, Schedule, SingleSpoolTurbojet, build_f100
from repro.tess.engine import LastEvaluation

SLS = FlightCondition(altitude_m=0.0, mach=0.0)


def same_point(a, b) -> bool:
    """Every field of two operating points, bit for bit."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            if x.tobytes() != np.asarray(y).tobytes():
                return False
        elif isinstance(x, float):
            if x.hex() != float(y).hex():
                return False
        elif x != y:
            return False
    return True


@pytest.fixture
def counted(monkeypatch):
    """``counted(model)`` counts the model's ``evaluate`` calls and
    records every Newton report its module's solver returns."""
    calls, reports = [], []

    def count(model):
        real = model.evaluate

        def evaluate(*args, **kw):
            calls.append(args)
            return real(*args, **kw)

        monkeypatch.setattr(model, "evaluate", evaluate)
        for module in (engine_mod, turbojet_mod):
            solver = module.newton_raphson

            def newton_raphson(*args, _solver=solver, **kw):
                report = _solver(*args, **kw)
                reports.append(report)
                return report

            monkeypatch.setattr(module, "newton_raphson", newton_raphson)
        return calls, reports

    return count


def probe_after_the_root(monkeypatch, module):
    """The module's solver ends with one more residual evaluation, off
    the root it returns (as a finite-difference probe would)."""
    solver = module.newton_raphson

    def newton_raphson(f, x0, **kw):
        report = solver(f, x0, **kw)
        f(report.x + 1e-6)
        report.fevals += 1
        return report

    monkeypatch.setattr(module, "newton_raphson", newton_raphson)


class TestLastEvaluation:
    def test_kept_only_at_the_same_bits(self):
        last = LastEvaluation()
        assert last.at(np.zeros(2)) is None
        x = np.array([1.0, 2.0])
        op = object()
        assert last.keep(x, op) is op
        x[0] = 5.0  # the caller's array may change later: the kept x does not
        assert last.at(np.array([1.0, 2.0])) is op
        assert last.at(np.array([1.0, np.nextafter(2.0, 3.0)])) is None
        assert last.at(np.array([1.0, 2.0, 0.0])) is None


class TestTurbofanBalance:
    def test_cold_balance_sweeps_fevals_times(self, counted):
        engine = build_f100()
        calls, reports = counted(engine)
        op = engine.balance(SLS, 1.3)
        (report,) = reports
        assert report.converged and len(calls) == report.fevals
        z = report.x
        assert same_point(op, engine.evaluate(SLS, 1.3, z[5], z[6], z[:5]))

    def test_warm_started_balance_sweeps_fevals_times(self, counted):
        engine = build_f100()
        engine.balance(SLS, 1.3)
        start = engine.steady_report
        calls, reports = counted(engine)
        op = engine.balance(SLS, 1.32, x0=start.x, jac0=start.jacobian)
        (report,) = reports
        assert report.converged and len(calls) == report.fevals
        assert report.fevals < start.fevals  # the warm start did its job
        z = report.x
        assert same_point(op, engine.evaluate(SLS, 1.32, z[5], z[6], z[:5]))

    def test_a_last_evaluation_elsewhere_evaluates_once(self, counted, monkeypatch):
        engine = build_f100()
        calls, reports = counted(engine)
        probe_after_the_root(monkeypatch, engine_mod)
        op = engine.balance(SLS, 1.3)
        (report,) = reports
        assert len(calls) == report.fevals + 1
        z = report.x
        assert same_point(op, engine.evaluate(SLS, 1.3, z[5], z[6], z[:5]))


class TestTurbofanGasPath:
    def test_a_transient_sweeps_at_most_once_more_per_solve(self, counted):
        engine = build_f100()
        start = engine.balance(SLS, 1.3)
        calls, reports = counted(engine)
        engine.transient(SLS, Schedule.of((0.0, 1.3), (0.05, 1.35)), t_end=0.1, dt=0.02, start=start)
        assert reports
        extra = len(calls) - sum(r.fevals for r in reports)
        assert 0 <= extra <= len(reports)


class TestTurbojet:
    def test_balance_sweeps_fevals_times(self, counted):
        jet = SingleSpoolTurbojet()
        calls, reports = counted(jet)
        op = jet.balance(SLS, 0.4)
        (report,) = reports
        assert report.converged and len(calls) == report.fevals
        z = report.x
        assert same_point(op, jet.evaluate(SLS, 0.4, z[2], z[:2]))

    def test_a_last_evaluation_elsewhere_evaluates_once(self, counted, monkeypatch):
        jet = SingleSpoolTurbojet()
        calls, reports = counted(jet)
        probe_after_the_root(monkeypatch, turbojet_mod)
        op = jet.balance(SLS, 0.4)
        (report,) = reports
        assert len(calls) == report.fevals + 1
        z = report.x
        assert same_point(op, jet.evaluate(SLS, 0.4, z[2], z[:2]))

    def test_transient_solves_sweep_fevals_times(self, counted):
        jet = SingleSpoolTurbojet()
        calls, reports = counted(jet)
        jet.transient(SLS, Schedule.of((0.0, 0.4), (0.05, 0.42)), t_end=0.06, dt=0.02)
        assert len(reports) > 1
        assert len(calls) == sum(r.fevals for r in reports)
