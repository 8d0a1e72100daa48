"""Tests for performance maps and transient control schedules."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tess import MAP_CATALOGUE, MapError, Schedule, ScheduleError, load_map


class TestMapCatalogue:
    def test_f100_maps_present(self):
        assert "f100-fan.map" in MAP_CATALOGUE
        assert "f100-hpc.map" in MAP_CATALOGUE

    def test_load_by_name(self):
        m = load_map("f100-fan.map")
        assert m.pr_design == 3.0

    def test_unknown_map_rejected(self):
        with pytest.raises(MapError, match="no performance map"):
            load_map("j58.map")


class TestMapShape:
    @pytest.fixture
    def fan(self):
        return load_map("f100-fan.map")

    def test_design_point_exact(self, fan):
        wc, pr, eta = fan.design_point()
        assert wc == fan.wc_design
        assert pr == fan.pr_design
        assert eta == fan.eta_design

    def test_flow_rises_with_speed(self, fan):
        assert fan.corrected_flow(0.8, 0.5) < fan.corrected_flow(1.0, 0.5)
        assert fan.corrected_flow(1.0, 0.5) < fan.corrected_flow(1.1, 0.5)

    def test_pr_rises_with_speed(self, fan):
        assert fan.pressure_ratio(0.8, 0.5) < fan.pressure_ratio(1.0, 0.5)

    def test_pr_falls_toward_choke(self, fan):
        # beta=1 is the choke side: more flow, less pressure
        assert fan.pressure_ratio(1.0, 0.9) < fan.pressure_ratio(1.0, 0.1)
        assert fan.corrected_flow(1.0, 0.9) > fan.corrected_flow(1.0, 0.1)

    def test_efficiency_peaks_at_design(self, fan):
        eta_d = fan.efficiency(1.0, 0.5)
        assert fan.efficiency(0.8, 0.5) < eta_d
        assert fan.efficiency(1.0, 0.9) < eta_d

    def test_efficiency_floor(self, fan):
        assert fan.efficiency(0.2, 0.0) >= 0.2

    def test_stator_angle_modulates_flow(self, fan):
        open_f = fan.corrected_flow(1.0, 0.5, stator_angle=5.0)
        closed = fan.corrected_flow(1.0, 0.5, stator_angle=-5.0)
        nominal = fan.corrected_flow(1.0, 0.5)
        assert closed < nominal < open_f

    def test_envelope_enforced(self, fan):
        with pytest.raises(MapError):
            fan.corrected_flow(0.1, 0.5)
        with pytest.raises(MapError):
            fan.pressure_ratio(1.0, 1.5)

    @given(
        n=st.floats(min_value=0.3, max_value=1.2),
        beta=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_map_outputs_physical(self, n, beta):
        fan = load_map("f100-fan.map")
        assert fan.corrected_flow(n, beta) > 0
        assert fan.pressure_ratio(n, beta) >= 1.0
        assert 0.2 <= fan.efficiency(n, beta) <= 1.0


class TestSchedules:
    def test_interpolation(self):
        """The paper: 'specifying angles at certain times during the
        transient with TESS interpolating the angle at other times.'"""
        s = Schedule.of((0.0, 0.0), (1.0, 10.0))
        assert s.value(0.5) == 5.0
        assert s.value(0.25) == 2.5

    def test_clamps_outside_range(self):
        s = Schedule.of((1.0, 2.0), (2.0, 4.0))
        assert s.value(0.0) == 2.0
        assert s.value(99.0) == 4.0

    def test_constant(self):
        s = Schedule.constant(1.5)
        assert s.value(0.0) == s.value(100.0) == 1.5

    def test_callable(self):
        s = Schedule.of((0.0, 1.0), (2.0, 3.0))
        assert s(1.0) == 2.0

    def test_multi_segment(self):
        s = Schedule.of((0.0, 0.0), (1.0, 1.0), (2.0, 0.0))
        assert s.value(0.5) == 0.5
        assert s.value(1.5) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ScheduleError):
            Schedule(())

    def test_unordered_rejected(self):
        with pytest.raises(ScheduleError):
            Schedule.of((1.0, 0.0), (0.5, 1.0))

    def test_duplicate_times_rejected(self):
        with pytest.raises(ScheduleError):
            Schedule.of((1.0, 0.0), (1.0, 1.0))

    @given(t=st.floats(min_value=-10, max_value=10))
    def test_value_within_breakpoint_envelope(self, t):
        s = Schedule.of((0.0, 1.0), (1.0, 5.0), (2.0, 3.0))
        assert 1.0 <= s.value(t) <= 5.0
