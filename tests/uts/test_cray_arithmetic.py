"""The Cray round trip done arithmetically, against the bytes oracle.

``native_roundtrip_for`` rounds a double to the Cray word's 48-bit
significand with ``frexp``/``round``/``ldexp`` instead of packing eight
bytes and unpacking them again; ``roundtrip_native_interpreted`` (the
bit-level codec) stays the oracle.  The conformance sweep compares the
two over generated values; these are the edges it reaches only by luck,
pinned, plus a property over raw 64-bit patterns — every exponent,
subnormals, NaN payloads and both infinities are a draw away.
"""

import math
import struct
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.machines import Language
from repro.schooner import (
    Executable,
    Manager,
    ManagerMode,
    ModuleContext,
    Procedure,
    SchoonerEnvironment,
)
from repro.uts import (
    DOUBLE,
    FLOAT,
    ArrayType,
    CrayFormat,
    OutOfRangePolicy,
    RecordType,
    SpecFile,
    UTSConversionError,
    UTSRangeError,
    conform,
    native_roundtrip_for,
)

from .oracle import identical, roundtrip_native_interpreted

ERR, INF = OutOfRangePolicy.ERROR, OutOfRangePolicy.INFINITY
CRAY = CrayFormat(name="cray", int_bits=64)
MAX = sys.float_info.max
TINY = 5e-324  # the smallest subnormal


def from_bits(bits: int) -> float:
    return struct.unpack(">d", struct.pack(">Q", bits))[0]


def to_bits(value: float) -> int:
    return struct.unpack(">Q", struct.pack(">d", value))[0]


def outcome(fn, *args):
    """A value's bit pattern, or the typed error it raised with its text."""
    try:
        return to_bits(fn(*args))
    except (UTSRangeError, UTSConversionError) as exc:
        return type(exc), str(exc)


def both(t, value, policy):
    return (
        outcome(native_roundtrip_for(CRAY, t, policy), value),
        outcome(roundtrip_native_interpreted, CRAY, t, value, policy),
    )


@pytest.mark.parametrize("policy", [ERR, INF])
@pytest.mark.parametrize("t", [DOUBLE, FLOAT], ids=["double", "float"])
class TestPinnedEdges:
    def test_signed_zeros_keep_their_sign_bit(self, t, policy):
        plan = native_roundtrip_for(CRAY, t, policy)
        assert to_bits(plan(0.0)) == 0
        assert to_bits(plan(-0.0)) == 1 << 63
        assert type(plan(0.0)) is float

    def test_subnormals(self, t, policy):
        plan = native_roundtrip_for(CRAY, t, policy)
        for v in (TINY, -TINY, 3 * TINY, sys.float_info.min, sys.float_info.min - TINY):
            fast, slow = both(t, v, policy)
            assert fast == slow
        assert plan(TINY) == TINY and plan(-TINY) == -TINY
        # 52 significant bits down in the subnormal range: rounded to 48
        v = from_bits((1 << 52) - 1)
        assert plan(v) == sys.float_info.min != v

    def test_ties_go_to_even_at_the_five_dropped_bits(self, t, policy):
        plan = native_roundtrip_for(CRAY, t, policy)
        ulp48 = 2.0 ** -47  # one unit in the 48th place of [1, 2)
        half = ulp48 / 2
        assert plan(1.0 + half) == 1.0  # tie, even is below
        assert plan(1.0 + ulp48 + half) == 1.0 + 2 * ulp48  # tie, even is above
        assert plan(1.0 + half + 2.0 ** -52) == 1.0 + ulp48  # just past the tie
        assert plan(1.0 + half - 2.0 ** -52) == 1.0  # just short of it
        assert plan(-(1.0 + half)) == -1.0
        for v in (1.0 + half, 1.0 + ulp48 + half, 2.0 - half, 2.0 - 2.0 ** -52):
            fast, slow = both(t, v, policy)
            assert fast == slow

    def test_rounding_that_carries_past_2_to_the_1024(self, t, policy):
        """The top 16 doubles round up to a 49-bit significand: the Cray
        word holds 2**1024, IEEE does not — section 4.1's range case,
        reached from an ordinary finite double."""
        top = to_bits(MAX)
        band = [from_bits(top - k) for k in range(16)]
        below = from_bits(top - 16)  # the tie that rounds down to even
        plan = native_roundtrip_for(CRAY, t, policy)
        assert plan(below) == from_bits(top - 31) and math.isfinite(plan(below))
        for v in band + [-x for x in band]:
            fast, slow = both(t, v, policy)
            assert fast == slow
            if policy is ERR:
                with pytest.raises(UTSRangeError, match=r"exponent 2\^1025"):
                    plan(v)
            else:
                assert plan(v) == math.copysign(math.inf, v)

    def test_nan_and_infinities(self, t, policy):
        plan = native_roundtrip_for(CRAY, t, policy)
        with pytest.raises(UTSConversionError, match="no NaN"):
            plan(math.nan)
        for v in (math.inf, -math.inf):
            if policy is ERR:
                with pytest.raises(UTSRangeError, match="no infinity"):
                    plan(v)
            else:
                assert plan(v) == v
            fast, slow = both(t, v, policy)
            assert fast == slow


class TestFinitePathNeverPacksBytes:
    def test_only_the_oracle_and_the_exceptional_inputs_reach_pack_cray(self, monkeypatch):
        packed = []
        real = CrayFormat._pack_cray
        monkeypatch.setattr(
            CrayFormat, "_pack_cray",
            lambda self, value, policy: (packed.append(value), real(self, value, policy))[1],
        )
        fmt = CrayFormat(name="cray-counted", int_bits=64)  # a plan compiled under the patch
        plan = native_roundtrip_for(fmt, DOUBLE, INF)
        array = native_roundtrip_for(fmt, ArrayType(3, DOUBLE), INF)
        for v in (1 / 3, -2.5e300, TINY, 0.0, -0.0, from_bits(to_bits(MAX) - 16)):
            plan(v)
        array([1 / 3, 2 / 3, 1e-310])
        assert packed == []
        plan(math.inf), plan(MAX)
        assert packed == [math.inf, MAX]
        roundtrip_native_interpreted(fmt, DOUBLE, 1 / 3, INF)
        assert packed == [math.inf, MAX, 1 / 3]


@pytest.mark.parametrize("policy", [ERR, INF])
@pytest.mark.parametrize("t", [DOUBLE, FLOAT], ids=["double", "float"])
class TestRawBitPatterns:
    @settings(max_examples=300, deadline=None)
    @given(bits=st.integers(min_value=0, max_value=(1 << 64) - 1))
    @example(bits=to_bits(MAX))
    @example(bits=to_bits(MAX) - 15)
    @example(bits=to_bits(MAX) - 16)
    @example(bits=to_bits(-MAX) - 8)
    @example(bits=1)
    @example(bits=(1 << 63) | 1)
    @example(bits=(1 << 63))
    @example(bits=0x7FF8000000000001)  # a NaN with a payload
    @example(bits=0xFFF0000000000000)  # -inf
    @example(bits=0x3FF0000000000010)  # 1 + a tie at the dropped bits
    def test_arithmetic_equals_the_bit_level_codec(self, t, policy, bits):
        value = from_bits(bits)
        if t is FLOAT and value == value:
            value = conform(FLOAT, value)  # what a float parameter can hold
        fast, slow = both(t, value, policy)
        assert fast == slow


POINT = RecordType.of(x=DOUBLE, w=FLOAT)
CRAY_SPEC = (
    'export crunch prog("xs" val array[4] of double, '
    '"p" var record x: double; w: float end, "total" res double)'
)


class TestThroughACrayCallPlan:
    """An array and a record parameter through a binding whose callee
    is the Cray: the plan's in-place native pass must store exactly
    what the interpretive round trip stores, element by element."""

    def test_array_and_record_parameters(self):
        env = SchoonerEnvironment.standard()
        spec = SpecFile.parse(CRAY_SPEC)
        sig = spec.export_named("crunch")
        seen = {}

        def crunch(xs, p):
            seen.update(xs=xs, p=p)
            return {"p": {"x": p["x"] / 3.0, "w": p["w"]}, "total": sum(xs)}

        exe = Executable("crunch", (Procedure(
            name="crunch", signature=sig, impl=crunch, language=Language.C),))
        env.park["lerc-cray"].install("/bin/crunch", exe)
        home = env.park["ua-sparc10"]
        manager = Manager(env=env, host=home, mode=ManagerMode.LINES)
        ctx = ModuleContext(manager=manager, module_name="m", machine=home)
        (record,) = ctx.sch_contact_schx("lerc-cray", "/bin/crunch")
        stub = ctx.import_proc(spec.as_imports(), name="crunch")

        xs = [1 / 3, -2 / 3, TINY, 1e300]
        p = {"x": 1 / 7, "w": 0.1}
        out = stub(xs=xs, p=p)

        def cray(t, v):
            return roundtrip_native_interpreted(CRAY, t, conform(t, v), ERR)

        xs_t = sig.param_named("xs").type
        assert identical(xs_t, seen["xs"], cray(xs_t, xs))
        assert identical(POINT, seen["p"], cray(POINT, p))
        assert seen["xs"][0] != xs[0], "48 bits, not 52"
        assert identical(DOUBLE, out["total"], cray(DOUBLE, sum(seen["xs"])))
        assert identical(
            POINT, out["p"], cray(POINT, {"x": seen["p"]["x"] / 3.0, "w": seen["p"]["w"]})
        )
        # the IEEE caller's side of the plan skips the doubles — scalar
        # or array — and keeps the record for its binary32 field
        (plan,) = env.park.call_plans.values()
        assert [name for name, _ in plan.caller_send] == ["p"]
        assert [name for name, _ in plan.caller_recv] == ["p"]
        assert [name for name, _ in plan.callee_recv] == ["xs", "p"]
        assert [name for name, _ in plan.callee_return] == ["p", "total"]
        with pytest.raises(UTSConversionError, match="no NaN"):
            stub(xs=[math.nan, 0.0, 0.0, 0.0], p=p)
