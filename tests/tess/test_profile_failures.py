"""Tests for flight profiles (§2.4 'fly it through a flight profile')
and failure scenarios (§2.4 'test operation ... in the presence of
failures')."""

import numpy as np
import pytest

from repro.tess import (
    BleedValveStuckOpen,
    CombustorDegradation,
    FailureScenario,
    FlightCondition,
    FlightProfile,
    FODDamage,
    ProfilePoint,
    TurbineErosion,
    apply_scenario,
    build_f100,
    fly_profile,
)

SLS = FlightCondition(0.0, 0.0)


@pytest.fixture(scope="module")
def engine():
    return build_f100()


class TestFlightProfileDefinition:
    def test_of_constructor(self):
        p = FlightProfile.of((0, 0, 0, 1.3), (10, 3000, 0.5, 1.5))
        assert p.points[1].altitude_m == 3000

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            FlightProfile.of((0, 0, 0, 1.3))

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            FlightProfile.of((5, 0, 0, 1.3), (1, 0, 0, 1.3))

    def test_schedules_interpolate(self):
        p = FlightProfile.of((0, 0, 0.0, 1.0), (10, 1000, 0.5, 2.0))
        assert p.altitude.value(5) == 500
        assert p.mach.value(5) == 0.25
        assert p.fuel.value(5) == 1.5

    def test_condition_at(self):
        p = FlightProfile.of((0, 0, 0, 1.3), (10, 2000, 0.4, 1.5))
        fc = p.condition_at(10)
        assert fc.altitude_m == 2000
        assert fc.mach == 0.4


class TestFlyProfile:
    @pytest.fixture(scope="class")
    def climb(self, ):
        engine = build_f100()
        profile = FlightProfile.of(
            (0.0, 0.0, 0.0, 1.35),
            (2.0, 500.0, 0.25, 1.5),
            (4.0, 1500.0, 0.4, 1.5),
        )
        return fly_profile(engine, profile, dt=0.05, leg_seconds=1.0), profile

    def test_covers_the_mission(self, climb):
        res, profile = climb
        assert res.t[0] == 0.0
        assert res.t[-1] == pytest.approx(4.0)
        assert res.altitude[-1] == pytest.approx(1500.0)
        assert res.mach[-1] == pytest.approx(0.4)

    def test_spools_follow_throttle(self, climb):
        res, _ = climb
        assert res.n1[-1] > res.n1[0]  # throttle went up

    def test_thrust_lapses_with_altitude(self, climb):
        res, _ = climb
        # despite more fuel, thrust at 1.5 km / M0.4 is below SLS thrust
        assert res.thrust[-1] < res.thrust[0]

    def test_t4_tracked(self, climb):
        res, _ = climb
        assert 1400 < res.max_t4 < 1700

    def test_state_continuous_across_legs(self, climb):
        res, _ = climb
        # no jumps: spool speed changes between consecutive samples stay
        # below what the rotor dynamics allow
        dn = np.abs(np.diff(res.n1))
        assert dn.max() < 0.02

    def test_level_cruise_reaches_steady_state(self, engine):
        profile = FlightProfile.of(
            (0.0, 1000.0, 0.3, 1.4), (3.0, 1000.0, 0.3, 1.4)
        )
        res = fly_profile(engine, profile, dt=0.05)
        assert np.allclose(res.n1, res.n1[0], atol=1e-4)


class TestFailureScenarios:
    def balance_with(self, scenario):
        eng = apply_scenario(build_f100, scenario)
        return eng.balance(SLS, 1.4)

    @pytest.fixture(scope="class")
    def healthy(self):
        return build_f100().balance(SLS, 1.4)

    def test_no_scenario_is_healthy(self, healthy):
        op = self.balance_with(None)
        assert op.thrust_N == pytest.approx(healthy.thrust_N, rel=1e-9)

    def test_fod_damage_loses_airflow_and_thrust(self, healthy):
        op = self.balance_with(
            FailureScenario("fod", (FODDamage(flow_loss=0.05, efficiency_loss=0.03),))
        )
        assert op.converged
        assert op.airflow < healthy.airflow
        assert op.thrust_N < healthy.thrust_N

    def test_turbine_erosion_runs_hotter(self, healthy):
        op = self.balance_with(FailureScenario("hpt", (TurbineErosion(),)))
        assert op.converged
        # less efficient HPT must expand further / run hotter for the
        # same HPC demand
        assert op.t4 > healthy.t4

    def test_stuck_bleed_costs_thrust(self, healthy):
        op = self.balance_with(
            FailureScenario("bleed", (BleedValveStuckOpen(extra_fraction=0.05),))
        )
        assert op.converged
        assert op.thrust_N < healthy.thrust_N

    def test_combustor_degradation(self, healthy):
        op = self.balance_with(FailureScenario("comb", (CombustorDegradation(),)))
        assert op.converged
        assert op.thrust_N < healthy.thrust_N

    def test_compound_scenario(self, healthy):
        compound = FailureScenario(
            "rough day",
            (FODDamage(flow_loss=0.03), TurbineErosion(efficiency_loss=0.02),
             CombustorDegradation(efficiency_loss=0.01, extra_dpqp=0.01)),
        )
        single = self.balance_with(FailureScenario("fod", (FODDamage(flow_loss=0.03),)))
        op = self.balance_with(compound)
        assert op.converged
        assert op.thrust_N < single.thrust_N

    def test_describe(self):
        s = FailureScenario("x", (FODDamage(), TurbineErosion()))
        text = s.describe()
        assert "FOD" in text and "erosion" in text

    def test_invalid_fod_rejected(self):
        with pytest.raises(ValueError):
            apply_scenario(
                build_f100, FailureScenario("bad", (FODDamage(flow_loss=0.9),))
            )

    def test_degraded_engine_still_flies_transients(self):
        from repro.tess import Schedule

        eng = apply_scenario(
            build_f100, FailureScenario("fod", (FODDamage(flow_loss=0.03),))
        )
        res = eng.transient(
            SLS, Schedule.of((0.0, 1.35), (0.3, 1.45), (1.0, 1.45)), t_end=1.0, dt=0.02
        )
        assert res.n1[-1] > res.n1[0]
