"""The gas path on plain floats.

``GasState`` is a validated named tuple, ``TwinSpoolTurbofan.evaluate``
computes in Python floats, and the gas path's square roots are
``math.sqrt``.  A seeded differential holds each rewritten expression
bitwise to the numpy scalar expression it replaced, kept here as the
oracle.  ``TestTheAuditedDomain`` checks the audit of where a float
raises and numpy does not (docs/PERFORMANCE.md, "Third pass: a cold
point on plain floats").  ``TestFoldedBodiesAgainstThePropertyChain``
holds each component body that computes the gas model in its own body
bitwise to the property-chain body it replaced (docs/PERFORMANCE.md,
"Sixth pass: the rest of the call path").
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
from repro.tess import Afterburner, Bleed, Combustor, Duct, MixingVolume, Splitter, Turbine
from repro.tess.gas import FUEL_LHV, enthalpy


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


# ------------------------------------------------- the folded component bodies
# Each component body on the balance's path computes the gas model's
# cp/gamma/enthalpy chain (and the enthalpy inversion) in its own body and
# builds its outlet GasState once.  The references below are the bodies
# they replaced, written through the property chain (GasState.ht,
# gamma(), enthalpy(), temperature_from_enthalpy(), with_()): each folded
# body must give bitwise their values, raise what they raise with the
# same message (so at the same step), and accept a NaN station as they
# do.

_raw_station = tuple.__new__


def raw_state(W, Tt, Pt, far=0.0):
    """A station that never went through GasState's refusal: what a
    component body sees from a caller that built one by hand."""
    return _raw_station(GasState, (W, Tt, Pt, far))


def ref_map_physical_flow(comp, s, N, beta, stator=0.0):
    Nc = comp.corrected_speed(N, s)
    wc = comp.map.corrected_flow(Nc, beta, stator)
    theta = s.Tt / 288.15
    delta = s.Pt / 101325.0
    return wc * delta / math.sqrt(theta)


def ref_operate(comp, s, N, beta, stator=0.0):
    Nc = comp.corrected_speed(N, s)
    pr = comp.map.pressure_ratio(Nc, beta)
    eta = comp.map.efficiency(Nc, beta)
    g = gamma(s.Tt, s.far)
    Tt_ideal = s.Tt * pr ** ((g - 1.0) / g)
    dh_ideal = enthalpy(Tt_ideal, s.far) - s.ht
    dh = dh_ideal / eta
    Tt_out = temperature_from_enthalpy(s.ht + dh, s.far)
    state_out = s.with_(Tt=Tt_out, Pt=s.Pt * pr)
    return (state_out, s.W * dh, pr, eta, Nc,
            ref_map_physical_flow(comp, s, N, beta, stator))


def ref_expand_with_ratio(turb, s, pr):
    if pr < 1.0:
        raise ValueError(f"turbine expansion ratio {pr} < 1")
    g = gamma(s.Tt, s.far)
    Tt_ideal = s.Tt * pr ** (-(g - 1.0) / g)
    dh_ideal = s.ht - enthalpy(Tt_ideal, s.far)
    dh = dh_ideal * turb.efficiency
    Tt_out = temperature_from_enthalpy(s.ht - dh, s.far)
    state_out = s.with_(Tt=Tt_out, Pt=s.Pt / pr)
    return (state_out, s.W * dh, pr)


def ref_burn(comb, s, wf):
    if wf < 0:
        raise ValueError(f"negative fuel flow {wf}")
    w_air = s.W / (1.0 + s.far)
    far_out = (s.far * w_air + wf) / w_air
    w_out = s.W + wf
    h_out = (s.W * s.ht + wf * FUEL_LHV * comb.efficiency) / w_out
    Tt_out = temperature_from_enthalpy(h_out, far_out)
    if Tt_out > comb.t_max:
        raise ValueError(
            f"combustor exit temperature {Tt_out:.0f} K exceeds the "
            f"{comb.t_max:.0f} K limit (fuel flow {wf:.3f} kg/s too high)"
        )
    return GasState(W=w_out, Tt=Tt_out, Pt=s.Pt * (1.0 - comb.dpqp), far=far_out)


def ref_pressure_ratio_critical(s):
    g = gamma(s.Tt, s.far)
    return ((g + 1.0) / 2.0) ** (g / (g - 1.0))


def ref_flow_capacity(noz, s, ps):
    if noz.area_m2 is None:
        raise ValueError("nozzle not sized; run the design closure first")
    g = gamma(s.Tt, s.far)
    npr = s.Pt / ps
    if npr < 1.0:
        return 0.0
    if npr >= ref_pressure_ratio_critical(s):
        const = math.sqrt(g / R_AIR) * (2.0 / (g + 1.0)) ** ((g + 1.0) / (2.0 * (g - 1.0)))
        return noz.cd * noz.area_m2 * s.Pt / math.sqrt(s.Tt) * const
    m2 = 2.0 / (g - 1.0) * (npr ** ((g - 1.0) / g) - 1.0)
    mach = math.sqrt(max(m2, 0.0))
    t_exit = s.Tt / (1.0 + 0.5 * (g - 1.0) * m2)
    rho = ps / (R_AIR * t_exit)
    v = mach * math.sqrt(g * R_AIR * t_exit)
    return noz.cd * noz.area_m2 * rho * v


def ref_gross_thrust(noz, s, ps):
    if noz.area_m2 is None:
        raise ValueError("nozzle not sized; run the design closure first")
    g = gamma(s.Tt, s.far)
    npr = s.Pt / ps
    if npr <= 1.0:
        return 0.0
    if npr >= ref_pressure_ratio_critical(s):
        t_exit = s.Tt * 2.0 / (g + 1.0)
        v_exit = math.sqrt(g * R_AIR * t_exit)
        ps_exit = s.Pt * (2.0 / (g + 1.0)) ** (g / (g - 1.0))
        w = ref_flow_capacity(noz, s, ps)
        return w * v_exit + (ps_exit - ps) * noz.area_m2
    m2 = 2.0 / (g - 1.0) * (npr ** ((g - 1.0) / g) - 1.0)
    t_exit = s.Tt / (1.0 + 0.5 * (g - 1.0) * m2)
    v_exit = math.sqrt(max(m2, 0.0) * g * R_AIR * t_exit)
    return ref_flow_capacity(noz, s, ps) * v_exit


def ref_duct_run(duct, s):
    return s.with_(Pt=s.Pt * (1.0 - duct.dpqp))


def ref_mix(a, b):
    w = a.W + b.W
    if w <= 0:
        raise ValueError("mixing zero total flow")
    h = (a.W * a.ht + b.W * b.ht) / w
    wa_air = a.W / (1.0 + a.far)
    wb_air = b.W / (1.0 + b.far)
    wf = a.far * wa_air + b.far * wb_air
    far = wf / (wa_air + wb_air)
    Tt = temperature_from_enthalpy(h, far)
    Pt = (a.W * a.Pt + b.W * b.Pt) / w
    return GasState(W=w, Tt=Tt, Pt=Pt, far=far)


def ref_afterburn(ab, s, wf_ab):
    if wf_ab < 0:
        raise ValueError(f"negative afterburner fuel flow {wf_ab}")
    if wf_ab == 0.0:
        return s.with_(Pt=s.Pt * (1.0 - ab.dpqp_dry))
    w_air = s.W / (1.0 + s.far)
    far_out = (s.far * w_air + wf_ab) / w_air
    w_out = s.W + wf_ab
    h_out = (s.W * s.ht + wf_ab * FUEL_LHV * ab.efficiency) / w_out
    tt_out = temperature_from_enthalpy(h_out, far_out)
    if tt_out > ab.t_max:
        raise ValueError(
            f"augmentor exit temperature {tt_out:.0f} K exceeds the "
            f"{ab.t_max:.0f} K limit"
        )
    return GasState(W=w_out, Tt=tt_out,
                    Pt=s.Pt * (1.0 - ab.dpqp_dry - ab.dpqp_wet), far=far_out)


def ref_split(s, bypass_ratio):
    if bypass_ratio < 0:
        raise ValueError(f"negative bypass ratio {bypass_ratio}")
    w_core = s.W / (1.0 + bypass_ratio)
    return s.with_(W=w_core), s.with_(W=s.W - w_core)


def ref_bleed(bleed, s):
    wb = s.W * bleed.fraction
    return s.with_(W=s.W - wb), s.with_(W=wb)


def outcome(fn, *args):
    """A body's result as bit strings (every float of it, nested
    stations and operating points included), or its exception's type
    and message."""

    def flat(v):
        if isinstance(v, tuple):  # GasState and plain tuples alike
            return tuple(flat(x) for x in v)
        if dataclasses.is_dataclass(v):
            return flat(tuple(getattr(v, f.name) for f in dataclasses.fields(v)))
        return bits(v)

    try:
        return ("value", flat(fn(*args)))
    except Exception as exc:  # noqa: BLE001 - the type and text are compared
        return ("raise", type(exc), str(exc))


def odd_states(rng: random.Random):
    """Stations every body must treat as its reference does: a
    non-positive Tt or Pt that never went through GasState (the body's
    own refusal, or an arithmetic error, must come at the reference's
    step), and a NaN station, which GasState accepts."""
    W, Tt, Pt, far = random_state(rng)
    return [
        raw_state(W, Tt, -Pt, far), raw_state(W, Tt, 0.0, far),
        raw_state(W, -Tt, Pt, far), raw_state(W, 0.0, Pt, far),
        GasState(W, math.nan, math.nan, far), GasState(W, Tt, math.nan, far),
    ]


def stations(rng: random.Random, n: int):
    for i in range(n):
        yield from odd_states(rng) if i % 50 == 0 else (random_state(rng),)


@pytest.mark.parametrize("seed", SEEDS)
class TestFoldedBodiesAgainstThePropertyChain:
    def test_compressor_operate_and_map_flow(self, seed):
        rng = random.Random(seed)
        comps = (Compressor(map=load_map("f100-fan.map")),
                 Compressor(map=load_map("f100-hpc.map"), t_ref=412.7))
        seen = {"value": 0, "raise": 0}
        for s in stations(rng, 2000):
            comp = rng.choice(comps)
            Tt = s.Tt if s.Tt > 0 else 300.0
            N = rng.uniform(0.25, 1.2) * math.sqrt(Tt / comp.t_ref)
            beta, stator = rng.uniform(0.0, 1.0), rng.choice((0.0, rng.uniform(-10.0, 10.0)))
            got = outcome(comp.operate, s, N, beta, stator)
            assert got == outcome(ref_operate, comp, s, N, beta, stator)
            assert outcome(comp.map_physical_flow, s, N, beta, stator) == outcome(
                ref_map_physical_flow, comp, s, N, beta, stator)
            seen[got[0]] += 1
        assert min(seen.values()) > 20, seen

    def test_turbine_expand_with_ratio(self, seed):
        rng = random.Random(seed)
        turb = Turbine(efficiency=0.89)
        seen = {"value": 0, "raise": 0}
        for s in stations(rng, 2000):
            pr = rng.choice((rng.uniform(1.0, 6.0), rng.uniform(0.5, 1.0), math.inf, math.nan))
            got = outcome(turb.expand_with_ratio, s, pr)
            assert got == outcome(ref_expand_with_ratio, turb, s, pr)
            seen[got[0]] += 1
        assert min(seen.values()) > 20, seen

    def test_combustor_burn(self, seed):
        rng = random.Random(seed)
        burner = Combustor(efficiency=0.985, dpqp=0.05, t_max=2200.0)
        seen = {"value": 0, "raise": 0}
        for s in stations(rng, 2000):
            wf = rng.choice((rng.uniform(0.0, 3.0), -0.1, 0.0))
            got = outcome(burner.burn, s, wf)
            assert got == outcome(ref_burn, burner, s, wf)
            seen[got[0]] += 1
        assert min(seen.values()) > 20, seen

    def test_nozzle(self, seed):
        rng = random.Random(seed)
        noz = ConvergentNozzle(cd=0.98, area_m2=0.25)
        unsized = ConvergentNozzle(cd=0.98)
        for s in stations(rng, 2000):
            ps = (s.Pt if s.Pt > 0 else 1e5) / rng.uniform(0.8, 4.0)
            v0 = rng.uniform(0.0, 400.0)
            assert outcome(noz.pressure_ratio_critical, s) == outcome(
                ref_pressure_ratio_critical, s)
            assert outcome(noz.flow_capacity, s, ps) == outcome(ref_flow_capacity, noz, s, ps)
            assert outcome(noz.gross_thrust, s, ps) == outcome(ref_gross_thrust, noz, s, ps)
            assert outcome(noz.net_thrust, s, ps, v0) == outcome(
                lambda: ref_gross_thrust(noz, s, ps) - s.W * v0)
            assert outcome(unsized.gross_thrust, s, ps) == outcome(
                ref_gross_thrust, unsized, s, ps)

    def test_duct_splitter_bleed(self, seed):
        rng = random.Random(seed)
        for s in stations(rng, 2000):
            duct = Duct(dpqp=rng.uniform(0.0, 0.99))
            assert outcome(duct.run, s) == outcome(ref_duct_run, duct, s)
            bpr = rng.choice((rng.uniform(0.0, 3.0), -0.5, math.inf))
            assert outcome(Splitter().split, s, bpr) == outcome(ref_split, s, bpr)
            bleed = Bleed(fraction=rng.uniform(0.0, 0.2))
            assert outcome(bleed.run, s) == outcome(ref_bleed, bleed, s)

    def test_mixer_and_afterburner(self, seed):
        rng = random.Random(seed)
        ab = Afterburner()
        mixer = MixingVolume()
        seen = {"value": 0, "raise": 0}
        for s in stations(rng, 2000):
            other = rng.choice((random_state(rng), raw_state(0.0, 300.0, 1e5), s))
            wf = rng.choice((0.0, rng.uniform(0.0, 3.0), -1.0))
            assert outcome(mixer.mix, s, other) == outcome(ref_mix, s, other)
            got = outcome(ab.burn, s, wf)
            assert got == outcome(ref_afterburn, ab, s, wf)
            seen[got[0]] += 1
        assert min(seen.values()) > 20, seen
