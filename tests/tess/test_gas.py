"""Tests for the gas model and standard atmosphere."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tess import (
    FlightCondition,
    GasState,
    R_AIR,
    cp,
    enthalpy,
    gamma,
    standard_atmosphere,
    temperature_from_enthalpy,
)


class TestCp:
    def test_air_at_sea_level(self):
        assert cp(288.15) == pytest.approx(1005.0, rel=0.01)

    def test_cp_rises_with_temperature(self):
        assert cp(1000.0) > cp(288.15)
        assert cp(1000.0) == pytest.approx(1154.0, rel=0.02)

    def test_products_hotter_than_air(self):
        assert cp(1500.0, far=0.025) > cp(1500.0, far=0.0)

    def test_gamma_air_cold(self):
        assert gamma(288.15) == pytest.approx(1.4, rel=0.01)

    def test_gamma_drops_when_hot(self):
        assert gamma(1600.0, far=0.03) < gamma(288.15)
        assert 1.25 < gamma(1600.0, far=0.03) < 1.35


class TestEnthalpy:
    def test_enthalpy_monotone(self):
        ts = np.linspace(200, 2000, 50)
        hs = [enthalpy(t) for t in ts]
        assert all(b > a for a, b in zip(hs, hs[1:]))

    def test_inversion_exact(self):
        for T in (250.0, 288.15, 700.0, 1600.0):
            for far in (0.0, 0.02, 0.05):
                assert temperature_from_enthalpy(enthalpy(T, far), far) == pytest.approx(
                    T, rel=1e-12
                )

    @given(
        T=st.floats(min_value=150.0, max_value=2500.0),
        far=st.floats(min_value=0.0, max_value=0.06),
    )
    def test_inversion_property(self, T, far):
        assert temperature_from_enthalpy(enthalpy(T, far), far) == pytest.approx(
            T, rel=1e-9
        )

    def test_enthalpy_derivative_is_cp(self):
        T = 800.0
        dT = 1e-3
        dh = (enthalpy(T + dT) - enthalpy(T - dT)) / (2 * dT)
        assert dh == pytest.approx(cp(T), rel=1e-6)


class TestGasState:
    def test_corrected_flow_at_sls_is_physical(self):
        s = GasState(W=100.0, Tt=288.15, Pt=101325.0)
        assert s.corrected_flow == pytest.approx(100.0)

    def test_corrected_flow_scales(self):
        hot = GasState(W=100.0, Tt=4 * 288.15, Pt=101325.0)
        assert hot.corrected_flow == pytest.approx(200.0)

    def test_nonphysical_rejected(self):
        with pytest.raises(ValueError):
            GasState(W=1.0, Tt=-5.0, Pt=101325.0)
        with pytest.raises(ValueError):
            GasState(W=1.0, Tt=288.0, Pt=0.0)

    def test_with_(self):
        s = GasState(W=50.0, Tt=400.0, Pt=2e5)
        s2 = s.with_(Pt=1e5)
        assert s2.Pt == 1e5 and s2.W == 50.0 and s.Pt == 2e5


class TestAtmosphere:
    def test_sea_level(self):
        amb = standard_atmosphere(0.0)
        assert amb.Ts == pytest.approx(288.15)
        assert amb.Ps == pytest.approx(101325.0)

    def test_tropopause(self):
        amb = standard_atmosphere(11000.0)
        assert amb.Ts == pytest.approx(216.65, rel=1e-3)
        assert amb.Ps == pytest.approx(22632.0, rel=0.01)

    def test_stratosphere_isothermal(self):
        a = standard_atmosphere(12000.0)
        b = standard_atmosphere(15000.0)
        assert a.Ts == b.Ts
        assert b.Ps < a.Ps

    def test_altitude_range_enforced(self):
        with pytest.raises(ValueError):
            standard_atmosphere(-10.0)
        with pytest.raises(ValueError):
            standard_atmosphere(30000.0)

    def test_moist_air_warmer_virtual(self):
        dry = standard_atmosphere(0.0, humidity=0.0)
        moist = standard_atmosphere(0.0, humidity=0.02)
        assert moist.Ts > dry.Ts

    @given(h=st.floats(min_value=0.0, max_value=20000.0))
    def test_pressure_monotone_decreasing(self, h):
        if h > 100.0:
            assert standard_atmosphere(h).Ps < standard_atmosphere(h - 100.0).Ps


class TestFlightCondition:
    def test_static_ram_equals_ambient(self):
        fc = FlightCondition(0.0, 0.0)
        Tt, Pt = fc.ram_conditions()
        assert Tt == pytest.approx(288.15)
        assert Pt == pytest.approx(101325.0)

    def test_ram_rise_with_mach(self):
        fc = FlightCondition(0.0, 0.9)
        Tt, Pt = fc.ram_conditions()
        assert Tt == pytest.approx(288.15 * (1 + 0.2 * 0.81), rel=1e-6)
        assert Pt > 101325.0

    def test_flight_speed(self):
        fc = FlightCondition(0.0, 1.0)
        assert fc.flight_speed == pytest.approx(340.3, rel=0.01)

    def test_high_altitude_cruise(self):
        fc = FlightCondition(11000.0, 0.8)
        Tt, Pt = fc.ram_conditions()
        assert Tt < 288.15  # cold up there even with ram rise
        assert Pt < 101325.0
