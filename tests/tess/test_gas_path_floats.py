"""The gas path on plain floats.

``GasState`` is a validated named tuple, ``TwinSpoolTurbofan.evaluate``
computes in Python floats, and the gas path's square roots are
``math.sqrt``.  A seeded differential holds each rewritten expression
bitwise to the numpy scalar expression it replaced, kept here as the
oracle.  ``TestTheAuditedDomain`` checks the audit of where a float
raises and numpy does not (docs/PERFORMANCE.md, "Third pass: a cold
point on plain floats").
"""

import dataclasses
import math
import pickle
import random

import numpy as np
import pytest

from repro.tess import (
    Compressor,
    ConvergentNozzle,
    EngineSpec,
    FlightCondition,
    GasState,
    R_AIR,
    TwinSpoolTurbofan,
    gamma,
    load_map,
    temperature_from_enthalpy,
)
from repro.tess.gas import _CP_A, _CP_B, _far_scale
from repro.tess.maps import MapError


class TestGasStateIsAnImmutableValue:
    def test_assignment_raises(self):
        s = GasState(W=50.0, Tt=400.0, Pt=2e5, far=0.02)
        for field in ("W", "Tt", "Pt", "far"):
            with pytest.raises(AttributeError):
                setattr(s, field, 1.0)
        with pytest.raises(AttributeError):
            s.extra = 1.0  # no instance dict either

    def test_fields_defaults_and_repr(self):
        s = GasState(1.0, 288.15, 101325.0)
        assert s._fields == ("W", "Tt", "Pt", "far") and s.far == 0.0
        assert repr(s) == "GasState(W=1.0, Tt=288.15, Pt=101325.0, far=0.0)"

    def test_equal_fields_compare_and_hash_equal(self):
        a = GasState(W=50.0, Tt=400.0, Pt=2e5, far=0.02)
        b = GasState(50.0, 400.0, 2e5, 0.02)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != a.with_(Pt=1e5)

    @pytest.mark.parametrize("make", [
        lambda: GasState(W=1.0, Tt=0.0, Pt=1e5),
        lambda: GasState(W=1.0, Tt=300.0, Pt=-1.0),
        lambda: GasState(1.0, 300.0, 1e5).with_(Tt=-5.0),
        lambda: GasState(1.0, 300.0, 1e5)._replace(Pt=0.0),
        lambda: GasState._make((1.0, -1.0, 1e5, 0.0)),
    ])
    def test_every_constructor_validates(self, make):
        with pytest.raises(ValueError, match="non-physical station state GasState"):
            make()

    def test_nan_is_still_accepted(self):
        """Today's check is ``Tt <= 0 or Pt <= 0``, which a NaN passes.
        Pinned, not fixed: refusing it would move virtual times."""
        s = GasState(W=1.0, Tt=math.nan, Pt=math.nan)
        assert math.isnan(s.Tt) and math.isnan(s.Pt)

    def test_pickles_through_the_validating_constructor(self):
        s = GasState(W=50.0, Tt=400.0, Pt=2e5, far=0.02)
        back = pickle.loads(pickle.dumps(s))
        assert back == s and type(back) is GasState

    def test_is_not_a_dataclass_any_more(self):
        assert not dataclasses.is_dataclass(GasState)
        assert isinstance(GasState(1.0, 300.0, 1e5), tuple)


STATION_FIELDS = ("W", "Tt", "Pt", "far")


class TestEvaluateReturnsFloats:
    def test_stations_and_thrust_are_floats_from_numpy_inputs(self):
        engine = TwinSpoolTurbofan(EngineSpec())
        z = np.concatenate([engine.design_x, [1.0, 1.0]])
        # the balance's own call: numpy scalars and a numpy view
        op = engine.evaluate(
            FlightCondition(0.0, 0.0), np.float64(1.5), z[5], z[6], z[:5],
        )
        assert type(op.thrust_N) is float
        assert {type(v) for v in op.powers.values()} == {float}
        for name, state in op.stations.items():
            assert type(state) is GasState, name
            assert {type(getattr(state, f)) for f in STATION_FIELDS} == {float}, name
        assert op.residuals.dtype == np.float64 and op.x.dtype == np.float64

    def test_a_balanced_point_is_floats(self):
        op = TwinSpoolTurbofan(EngineSpec()).balance(FlightCondition(3000.0, 0.6), 1.4)
        assert op.converged and type(op.thrust_N) is float
        for state in op.stations.values():
            assert {type(getattr(state, f)) for f in STATION_FIELDS} == {float}


# ------------------------------------------------------------- the oracle
# The numpy scalar expressions the gas path computed before it moved to
# Python floats: same arithmetic, np.float64 operands, np.sqrt.


def np_corrected_flow(s):
    W, Tt, Pt = np.float64(s.W), np.float64(s.Tt), np.float64(s.Pt)
    return W * np.sqrt(Tt / 288.15) / (Pt / 101325.0)


def np_temperature_from_enthalpy(h, far):
    h, far = np.float64(h), np.float64(far)
    s = _far_scale(far)
    a, b = _CP_A, _CP_B
    disc = a * a + 2.0 * b * h / s
    return (-a + np.sqrt(disc)) / b


def np_corrected_speed(comp, N, s):
    return np.float64(N) / np.sqrt(np.float64(s.Tt) / comp.t_ref)


def np_map_physical_flow(comp, s, N, beta):
    Nc = np_corrected_speed(comp, N, s)
    wc = comp.map.corrected_flow(Nc, np.float64(beta))
    theta = np.float64(s.Tt) / 288.15
    delta = np.float64(s.Pt) / 101325.0
    return wc * delta / np.sqrt(theta)


def np_flow_capacity(noz, s, ps):
    Tt, Pt, far, ps = map(np.float64, (s.Tt, s.Pt, s.far, ps))
    g = gamma(Tt, far)
    npr = Pt / ps
    if npr < 1.0:
        return 0.0
    if npr >= ((g + 1.0) / 2.0) ** (g / (g - 1.0)):
        const = np.sqrt(g / R_AIR) * (2.0 / (g + 1.0)) ** ((g + 1.0) / (2.0 * (g - 1.0)))
        return noz.cd * noz.area_m2 * Pt / np.sqrt(Tt) * const
    m2 = 2.0 / (g - 1.0) * (npr ** ((g - 1.0) / g) - 1.0)
    mach = np.sqrt(max(m2, 0.0))
    t_exit = Tt / (1.0 + 0.5 * (g - 1.0) * m2)
    rho = ps / (R_AIR * t_exit)
    v = mach * np.sqrt(g * R_AIR * t_exit)
    return noz.cd * noz.area_m2 * rho * v


def np_gross_thrust(noz, s, ps):
    Tt, Pt, far, ps = map(np.float64, (s.Tt, s.Pt, s.far, ps))
    g = gamma(Tt, far)
    npr = Pt / ps
    if npr <= 1.0:
        return 0.0
    if npr >= ((g + 1.0) / 2.0) ** (g / (g - 1.0)):
        t_exit = Tt * 2.0 / (g + 1.0)
        v_exit = np.sqrt(g * R_AIR * t_exit)
        ps_exit = Pt * (2.0 / (g + 1.0)) ** (g / (g - 1.0))
        w = np_flow_capacity(noz, s, ps)
        return w * v_exit + (ps_exit - ps) * noz.area_m2
    m2 = 2.0 / (g - 1.0) * (npr ** ((g - 1.0) / g) - 1.0)
    t_exit = Tt / (1.0 + 0.5 * (g - 1.0) * m2)
    v_exit = np.sqrt(max(m2, 0.0) * g * R_AIR * t_exit)
    return np_flow_capacity(noz, s, ps) * v_exit


def bits(x) -> str:
    return float(x).hex()


def random_state(rng: random.Random) -> GasState:
    return GasState(
        W=rng.uniform(0.5, 150.0), Tt=rng.uniform(200.0, 2100.0),
        Pt=rng.uniform(2e4, 3e6), far=rng.choice((0.0, rng.uniform(0.0, 0.05))),
    )


SEEDS = (1, 7, 30)


@pytest.mark.parametrize("seed", SEEDS)
class TestBitwiseAgainstNumpy:
    def test_corrected_flow(self, seed):
        rng = random.Random(seed)
        for _ in range(2000):
            s = random_state(rng)
            assert type(s.corrected_flow) is float
            assert bits(s.corrected_flow) == bits(np_corrected_flow(s))

    def test_temperature_from_enthalpy(self, seed):
        rng = random.Random(seed)
        for _ in range(2000):
            h, far = rng.uniform(1e5, 3e6), rng.uniform(0.0, 0.06)
            t = temperature_from_enthalpy(h, far)
            assert type(t) is float
            assert bits(t) == bits(np_temperature_from_enthalpy(h, far))

    def test_compressor_speed_and_flow(self, seed):
        rng = random.Random(seed)
        comps = (Compressor(map=load_map("f100-fan.map")),
                 Compressor(map=load_map("f100-hpc.map"), t_ref=412.7))
        for _ in range(2000):
            comp = rng.choice(comps)
            s = random_state(rng)
            # a mechanical speed that lands inside the map envelope
            N = rng.uniform(0.25, 1.2) * math.sqrt(s.Tt / comp.t_ref)
            beta = rng.uniform(0.0, 1.0)
            assert bits(comp.corrected_speed(N, s)) == bits(np_corrected_speed(comp, N, s))
            flow = comp.map_physical_flow(s, N, beta)
            assert type(flow) is float
            assert bits(flow) == bits(np_map_physical_flow(comp, s, N, beta))

    def test_nozzle_capacity_and_thrust(self, seed):
        rng = random.Random(seed)
        noz = ConvergentNozzle(cd=0.98, area_m2=0.25)
        regimes = {"backflow": 0, "unchoked": 0, "choked": 0}
        for _ in range(3000):
            s = random_state(rng)
            ps = s.Pt / rng.uniform(0.8, 4.0)
            npr = s.Pt / ps
            crit = noz.pressure_ratio_critical(s)
            regimes["backflow" if npr <= 1.0 else "choked" if npr >= crit else "unchoked"] += 1
            cap, thrust = noz.flow_capacity(s, ps), noz.gross_thrust(s, ps)
            assert bits(cap) == bits(np_flow_capacity(noz, s, ps))
            assert bits(thrust) == bits(np_gross_thrust(noz, s, ps))
        assert min(regimes.values()) > 100, regimes


def random_iterate(rng: random.Random):
    """A wild balance iterate that still sends air through the combustor:
    the fan stator short of -100 deg and a finite bypass ratio, with
    bypass and turbine ratios up to 1e300 (the turbine ratios NaN and
    inf too) and HPC stators far past any schedule."""

    def ratio(low):
        return rng.choice((low, rng.uniform(low, low + 5.0), 10.0 ** rng.uniform(0.0, 300.0)))

    x = np.array([
        rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), ratio(0.0),
        rng.choice((ratio(1.0), math.inf, math.nan)),
        rng.choice((ratio(1.0), math.inf, math.nan)),
    ])
    kw = dict(
        fan_stator=rng.uniform(-99.9, 20.0), hpc_stator=rng.uniform(-300.0, 20.0),
        nozzle_area_factor=rng.uniform(0.5, 2.0),
        ab_fuel=rng.choice((0.0, rng.uniform(0.0, 3.0))),
    )
    flight = FlightCondition(rng.uniform(0.0, 15000.0), rng.uniform(0.0, 1.8))
    return flight, rng.uniform(0.2, 2.0), rng.uniform(0.5, 1.1), rng.uniform(0.6, 1.1), x, kw


NO_AIR_RESIDUALS = ["-0x1.0000000000000p+0", "nan", "nan", "0x0.0p+0", "nan", "nan"]


class TestTheAuditedDomain:
    """While air reaches the combustor no operation of the pass is one
    where a float raises and numpy returns inf or NaN.  When none does,
    the core flow is a numpy scalar from there on, and the pass keeps
    the numpy outcome the parent's pass had (pinned below)."""

    def test_no_float_only_error_while_air_reaches_the_combustor(self):
        engine = TwinSpoolTurbofan(EngineSpec())
        rng = random.Random(30)
        seen = {"evaluated": 0, "refused": 0}
        for _ in range(3000):
            flight, wf, n1, n2, x, kw = random_iterate(rng)
            try:
                op = engine.evaluate(flight, wf, n1, n2, x, **kw)
            except MapError:
                seen["refused"] += 1
                continue
            except ValueError as exc:  # the components' own checks
                assert "math domain error" not in str(exc)
                seen["refused"] += 1
                continue
            seen["evaluated"] += 1
            assert op.residuals.dtype == np.float64  # no complex crept in
            assert type(op.thrust_N) is float
            for state in op.stations.values():
                assert {type(getattr(state, f)) for f in STATION_FIELDS} == {float}
        assert min(seen.values()) > 300, seen

    @pytest.mark.parametrize("fan_stator, bpr, outcome", [
        (-100.0, None, NO_AIR_RESIDUALS),  # the fan passes no flow
        (0.0, math.inf, NO_AIR_RESIDUALS),  # all of it goes round the core
        (-99.0, math.inf, NO_AIR_RESIDUALS),
        # the fan's flow reverses: the components' own checks refuse it
        (-100.5, None, "combustor exit temperature 9627 K exceeds the 2200 K limit "
                       "(fuel flow 1.500 kg/s too high)"),
        (-130.0, None, "enthalpy -2804685.209347312 out of range"),
    ])
    def test_no_air_through_the_combustor_keeps_numpy_s_outcome(
        self, fan_stator, bpr, outcome
    ):
        engine = TwinSpoolTurbofan(EngineSpec())
        x = engine.design_x
        if bpr is not None:
            x[2] = bpr

        def run():
            return engine.evaluate(
                FlightCondition(0.0, 0.0), 1.5, 1.0, 1.0, x, fan_stator=fan_stator
            )

        with np.errstate(all="ignore"):
            try:
                op = run()
            except ValueError as exc:
                got = str(exc)
            else:
                got = [bits(r) for r in op.residuals] + [bits(op.thrust_N)]
        assert got == outcome
        if outcome is NO_AIR_RESIDUALS:
            # the division by the empty core is numpy's, not Python's
            # ZeroDivisionError
            with np.errstate(divide="raise"), pytest.raises(
                FloatingPointError, match="divide by zero"
            ):
                run()
