"""Tests for the compiled UTS codec layer (repro.uts.compiled).

The contract: compiled plans are byte-, value-, and
exception-equivalent to the interpretive oracles in tests/uts/oracle.py,
while walking each type tree exactly once at compile time.
"""

import math
import struct

import pytest

from repro.uts import (
    BOOLEAN,
    BYTE,
    DOUBLE,
    FLOAT,
    INTEGER,
    STRING,
    ArrayType,
    CrayFormat,
    IEEEFormat,
    OutOfRangePolicy,
    ParamMode,
    Parameter,
    RecordType,
    Signature,
    UTSConversionError,
    UTSRangeError,
    VAXFormat,
    codec_for,
    conform,
    native_roundtrip_for,
    precompile_signature,
    signature_codec,
)

from .oracle import (
    decode_value,
    encode_value,
    identical,
    marshal_args,
    roundtrip_native_interpreted,
    unmarshal_args,
)
from .test_wire import Runtime

ERR = OutOfRangePolicy.ERROR
INF = OutOfRangePolicy.INFINITY

SPARC = IEEEFormat(name="sparc", int_bits=32, big_endian=True)
CRAY = CrayFormat(name="cray", int_bits=64)
CONVEX = VAXFormat(name="convex", int_bits=64)


class TestPlans:
    def test_homogeneous_double_array_collapses_to_one_struct(self):
        codec = codec_for(ArrayType(1000, DOUBLE))
        assert codec.plan == "struct('>1000d')"

    def test_fixed_record_collapses(self):
        t = RecordType.of(a=DOUBLE, b=INTEGER, c=BOOLEAN)
        assert codec_for(t).plan == "struct('>dqB')"

    def test_string_forces_sequenced_plan(self):
        t = RecordType.of(s=STRING, x=DOUBLE)
        plan = codec_for(t).plan
        assert "string" in plan and plan.startswith("seq(")

    def test_nested_fixed_array_collapses(self):
        t = ArrayType(3, ArrayType(4, FLOAT))
        codec = codec_for(t)
        assert codec.plan == "struct('>12f')"

    def test_zero_length_array_of_composite(self):
        # regression: "0" + "1q" used to concatenate into the struct code
        # "01q" (one int), corrupting the layout of zero-length arrays
        t = ArrayType(0, ArrayType(1, INTEGER))
        codec = codec_for(t)
        assert codec.encode([]) == b""
        assert codec.decode(b"") == ([], 0)

    def test_codec_cache_returns_same_object(self):
        t = ArrayType(7, DOUBLE)
        assert codec_for(t) is codec_for(ArrayType(7, DOUBLE))


class TestWireEquivalence:
    CASES = [
        (DOUBLE, -0.0),
        (ArrayType(4, DOUBLE), [0.0, -0.0, math.pi, 1e300]),
        (RecordType.of(s=STRING, xs=ArrayType(2, FLOAT)), {"s": "héllo", "xs": [1.5, -0.0]}),
        (ArrayType(2, RecordType.of(b=BOOLEAN, y=BYTE)),
         [{"b": True, "y": 0}, {"b": False, "y": 255}]),
        (ArrayType(0, DOUBLE), []),
        (STRING, ""),
    ]

    @pytest.mark.parametrize("t,v", CASES)
    def test_bytes_identical_to_interpretive(self, t, v):
        v = conform(t, v)
        assert codec_for(t).encode(v) == encode_value(t, v)

    @pytest.mark.parametrize("t,v", CASES)
    def test_decode_matches_interpretive(self, t, v):
        v = conform(t, v)
        data = encode_value(t, v)
        got, offset = codec_for(t).decode(data)
        want, want_offset = decode_value(t, data)
        assert offset == want_offset
        assert identical(t, got, want)

    def test_truncated_data_raises_like_interpretive(self):
        t = ArrayType(3, DOUBLE)
        with pytest.raises(UTSConversionError):
            codec_for(t).decode(b"\x00" * 8)

    def test_truncated_string_payload(self):
        data = struct.pack(">I", 10) + b"abc"
        with pytest.raises(UTSConversionError, match="truncated string"):
            codec_for(STRING).decode(data)

    def test_invalid_boolean_byte_rejected(self):
        # struct "?" would accept any nonzero byte; the compiled path must
        # keep the interpretive codec's strictness
        t = ArrayType(2, BOOLEAN)
        with pytest.raises(UTSConversionError, match="invalid boolean"):
            codec_for(t).decode(b"\x01\x02")

    def test_invalid_utf8_rejected(self):
        data = struct.pack(">I", 2) + b"\xff\xfe"
        with pytest.raises(UTSConversionError, match="invalid UTF-8"):
            codec_for(STRING).decode(data)


SIG = Signature(
    name="duct",
    params=(
        Parameter("w", ParamMode.VAR, DOUBLE),
        Parameter("geom", ParamMode.VAL, RecordType.of(len=DOUBLE, area=DOUBLE)),
        Parameter("tag", ParamMode.VAL, STRING),
        Parameter("out", ParamMode.RES, ArrayType(3, DOUBLE)),
    ),
)


class TestSignatureCodec:
    def test_marshal_matches_marshal_args(self):
        args = {"w": 63.0, "geom": {"len": 1.0, "area": 0.5}, "tag": "hot"}
        assert Runtime.marshal(SIG, args, "send") == marshal_args(SIG, args, "send")

    def test_unmarshal_matches_unmarshal_args(self):
        args = {"w": 63.0, "geom": {"len": 1.0, "area": 0.5}, "tag": "hot"}
        data = marshal_args(SIG, args, "send")
        assert signature_codec(SIG, "send").unmarshal(data) == unmarshal_args(
            SIG, data, "send"
        )

    def test_return_direction(self):
        args = {"w": 1.0, "out": [0.0, -0.0, 2.5]}
        codec = signature_codec(SIG, "return")
        data = Runtime.marshal(SIG, args, "return")
        assert data == marshal_args(SIG, args, "return")
        got = codec.unmarshal(data)
        assert identical(ArrayType(3, DOUBLE), got["out"], [0.0, -0.0, 2.5])

    def test_trailing_bytes_rejected(self):
        args = {"w": 63.0, "geom": {"len": 1.0, "area": 0.5}, "tag": "hot"}
        data = marshal_args(SIG, args, "send") + b"\x00"
        with pytest.raises(UTSConversionError, match="trailing bytes"):
            signature_codec(SIG, "send").unmarshal(data)

    def test_codec_cached_per_signature_direction(self):
        assert signature_codec(SIG, "send") is signature_codec(SIG, "send")
        assert signature_codec(SIG, "send") is not signature_codec(SIG, "return")

    def test_precompile_warms_both_directions(self):
        precompile_signature(SIG)  # must not raise; codecs now cached
        assert signature_codec(SIG, "send")._params is not None


class TestNativePlans:
    def test_plan_cached(self):
        t = ArrayType(5, DOUBLE)
        assert native_roundtrip_for(CRAY, t, ERR) is native_roundtrip_for(CRAY, t, ERR)

    def test_ieee64_plan_is_identity_for_doubles(self):
        fmt = IEEEFormat(name="le64", int_bits=64, big_endian=False)
        plan = native_roundtrip_for(fmt, ArrayType(3, DOUBLE), ERR)
        v = [1.0, -0.0, math.pi]
        assert identical(ArrayType(3, DOUBLE), plan(v), v)

    def test_integer_range_error_message_matches_interpreter(self):
        plan = native_roundtrip_for(SPARC, INTEGER, ERR)
        with pytest.raises(UTSRangeError) as compiled_err:
            plan(2**40)
        with pytest.raises(UTSRangeError) as interp_err:
            roundtrip_native_interpreted(SPARC, INTEGER, 2**40, ERR)
        assert str(compiled_err.value) == str(interp_err.value)

    def test_cray_array_plan_matches_interpreter(self):
        t = ArrayType(4, DOUBLE)
        v = [math.pi, -0.0, 1e300, 2.0**-1000]
        got = native_roundtrip_for(CRAY, t, ERR)(v)
        want = roundtrip_native_interpreted(CRAY, t, v, ERR)
        assert identical(t, got, want)

    def test_vax_policy_split_matches_interpreter(self):
        t = RecordType.of(x=DOUBLE)
        with pytest.raises(UTSRangeError):
            native_roundtrip_for(CONVEX, t, ERR)({"x": 1e300})
        got = native_roundtrip_for(CONVEX, t, INF)({"x": 1e300})
        want = roundtrip_native_interpreted(CONVEX, t, {"x": 1e300}, INF)
        assert identical(t, got, want)

    def test_float32_plan_matches_interpreter(self):
        for fmt in (SPARC, CRAY, CONVEX):
            for v in (1.5, -0.0, 3.25e38):
                plan = native_roundtrip_for(fmt, FLOAT, INF)
                assert identical(
                    FLOAT, plan(conform(FLOAT, v)),
                    roundtrip_native_interpreted(fmt, FLOAT, conform(FLOAT, v), INF),
                )
