"""Tests for the differential conformance harness itself.

The harness is a first-class subsystem: these tests pin down its check
functions on known-good and known-bad inputs, then run a short-budget
sweep (the CI smoke job runs a longer one via ``python -m
tests.uts.conformance``).
"""

import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.machines.arch import ALL_NATIVE_FORMATS
from repro.uts import (
    BOOLEAN,
    BYTE,
    DOUBLE,
    FLOAT,
    INTEGER,
    STRING,
    ArrayType,
    CrayFormat,
    RecordType,
    SpecFile,
    UTSConversionError,
    UTSTypeError,
    VAXFormat,
    conform,
    conform_args,
    signature_codec,
)
from .conformance import (
    CRAY_OVERFLOW,
    VAX_FLUSH,
    VAX_MAX,
    VAX_OVERFLOW,
    ConformanceFailure,
    check_compiled_equivalence,
    check_conform_args,
    check_conformer,
    check_cray_raw,
    check_native_float,
    check_signature_codec,
    check_vax_raw,
    check_wire_value,
    main,
    marshalable_calls,
    offered_calls,
    offered_values,
    run,
)
from .oracle import marshal_args, unmarshal_args
from repro.uts.values import conformer_for

CRAY = next(f for f in ALL_NATIVE_FORMATS if isinstance(f, CrayFormat))
CONVEX = next(f for f in ALL_NATIVE_FORMATS if isinstance(f, VAXFormat))


class TestSweepSet:
    def test_park_contributes_all_three_format_families(self):
        kinds = {type(f).__name__ for f in ALL_NATIVE_FORMATS}
        assert kinds == {"IEEEFormat", "CrayFormat", "VAXFormat"}

    def test_formats_deduplicated(self):
        assert len(set(ALL_NATIVE_FORMATS)) == len(ALL_NATIVE_FORMATS)


class TestScalarChecks:
    @pytest.mark.parametrize(
        "v",
        [0.0, -0.0, 1.0, -math.pi, 5e-324, sys.float_info.max,
         -sys.float_info.max, VAX_OVERFLOW, VAX_FLUSH, CRAY_OVERFLOW,
         math.inf, -math.inf, float("nan"), 1e-40, 1.7e38],
    )
    def test_all_park_formats_conform_on_edge_values(self, v):
        for fmt in ALL_NATIVE_FORMATS:
            assert check_native_float(fmt, v) == []

    def test_wire_preserves_negative_zero_bits(self):
        assert check_wire_value(DOUBLE, -0.0) == []

    def test_thresholds_are_the_documented_constants(self):
        # the semantics table in docs/CODECS.md states these exactly
        assert VAX_OVERFLOW == 2.0**127
        assert VAX_FLUSH == 2.0**-128
        assert VAX_MAX == math.ldexp(1.0 - 2.0**-56, 127)
        assert CRAY_OVERFLOW == math.ldexp(1.0 - 2.0**-49, 1024)
        # just below each threshold converts; at it, the strict policy raises
        from repro.uts import OutOfRangePolicy, UTSRangeError

        below = math.nextafter(VAX_OVERFLOW, 0.0)
        CONVEX.pack_float64(below, OutOfRangePolicy.ERROR)
        with pytest.raises(UTSRangeError):
            CONVEX.pack_float64(VAX_OVERFLOW, OutOfRangePolicy.ERROR)


class TestRawPatternChecks:
    def test_cray_raw_agrees_with_fraction_oracle(self):
        for fields in [(0, 1, 1 << 47), (1, -100, 3 << 40), (0, 8000, 1 << 47),
                       (1, -16384, 1), (0, 0, 0), (1, 0, 0)]:
            assert check_cray_raw(*fields) == []

    def test_vax_raw_agrees_with_fraction_oracle(self):
        for fields in [(0, 129, 0, 55), (1, 200, 12345, 55), (1, 0, 0, 55),
                       (0, 0, 99, 55), (1, 0, 7, 23), (0, 255, (1 << 23) - 1, 23)]:
            assert check_vax_raw(*fields) == []

    def test_checks_catch_a_broken_codec(self):
        # sanity: the checker is not vacuously green — feed it a format
        # whose unpacker drops the sign of zero and it must object
        class SignDroppingCray(CrayFormat):
            def unpack_float64(self, data, policy):
                return abs(super().unpack_float64(data, policy))

        broken = SignDroppingCray(name="broken-cray", int_bits=64)
        assert check_native_float(broken, -0.0) != []


class TestStructuredChecks:
    def test_compiled_equivalence_on_mixed_record(self):
        t = RecordType.of(s=STRING, xs=ArrayType(3, DOUBLE))
        v = conform(t, {"s": "npss", "xs": [0.0, -0.0, 1e300]})
        assert check_compiled_equivalence(t, v) == []

    def test_wire_check_on_nested_value(self):
        t = ArrayType(2, RecordType.of(x=DOUBLE))
        v = conform(t, [{"x": -0.0}, {"x": math.inf}])
        assert check_wire_value(t, v) == []


SWEEP = settings(max_examples=150, deadline=None, database=None,
                 suppress_health_check=list(HealthCheck))

VEC = ArrayType(3, DOUBLE)
POINT = RecordType.of(x=DOUBLE, n=INTEGER, ok=BOOLEAN)
DUCT = SpecFile.parse(
    'export duct prog("w" val double, "n" val integer, "on" val boolean, '
    '"xs" var array[3] of double, "tag" val byte, "out" res float)'
).export_named("duct")
DUCT_SEND = {"w": 1.5, "n": 7, "on": True, "xs": [0.0, -0.0, 1e300], "tag": 9}
NAMED = SpecFile.parse(
    'export named prog("label" val string, "xs" val array[2] of double)'
).export_named("named")


class TestCompiledConformers:
    """The conformer ``conform_args`` compiles per (signature,
    direction) against ``conform``: same value, same exception type,
    same message."""

    @pytest.mark.parametrize(
        "t, offered",
        [
            # NumPy scalars and arrays come back as plain Python objects
            (DOUBLE, np.float64(2.5)), (DOUBLE, np.float32(2.5)), (DOUBLE, np.int64(3)),
            (FLOAT, np.float64(1e39)), (INTEGER, np.int64(-5)), (BYTE, np.uint8(200)),
            (BOOLEAN, np.bool_(True)), (VEC, np.array([1.0, 2.0, 3.0])),
            (VEC, np.arange(3)), (VEC, [np.float64(1.0), 2.0, np.float32(3.0)]),
            (VEC, (1.0, 2.0, 3.0)), (VEC, [1, 2.0, 3.0]),
            # booleans offered as numbers are refused, with conform's words
            (INTEGER, True), (DOUBLE, False), (FLOAT, True), (BYTE, True),
            (VEC, [1.0, True, 3.0]), (DOUBLE, np.bool_(True)),
            # wrong lengths, wrong shapes, wrong types
            (VEC, [1.0, 2.0]), (VEC, [1.0, 2.0, 3.0, 4.0]), (VEC, np.zeros((3, 1))),
            (VEC, np.zeros(4)), (VEC, "abc"), (VEC, None), (ArrayType(0, DOUBLE), []),
            (INTEGER, 2**63), (INTEGER, -(2**63) - 1), (BYTE, 256), (BYTE, b"a"),
            (BYTE, b"ab"), (STRING, b"bytes"), (BOOLEAN, 1), (DOUBLE, "1.0"),
            # records: missing and unexpected fields, a bad field inside
            (POINT, {"x": 1.0, "n": 2, "ok": True}), (POINT, {"x": 1.0, "n": 2}),
            (POINT, {"x": 1.0, "n": 2, "ok": True, "z": 0}), (POINT, [("x", 1.0)]),
            (POINT, {"x": np.float64(1.0), "n": np.int64(2), "ok": np.bool_(False)}),
            (POINT, {"x": 1.0, "n": 2.5, "ok": True}),
        ],
    )
    def test_agrees_with_conform(self, t, offered):
        assert check_conformer(t, offered) == []

    def test_numpy_input_leaves_no_numpy_behind(self):
        out = conformer_for(VEC)(np.array([1.0, 2.0, 3.0]))
        assert out == [1.0, 2.0, 3.0] and {type(v) for v in out} == {float}
        assert type(conformer_for(DOUBLE)(np.float64(2.5))) is float

    def test_the_refusals_read_as_conforms_do(self):
        for t, offered, text in [
            (INTEGER, True, "expected integer, got boolean True"),
            (VEC, [1.0], "expected array of length 3, got length 1"),
            (POINT, {"x": 1.0}, "record mismatch: missing fields ['n', 'ok']"),
        ]:
            with pytest.raises(UTSTypeError) as compiled:
                conformer_for(t)(offered)
            assert str(compiled.value) == text

    @pytest.mark.parametrize(
        "args",
        [
            DUCT_SEND,
            {**DUCT_SEND, "xs": np.array([1.0, 2.0, 3.0]), "w": np.float64(2.0)},
            {k: v for k, v in DUCT_SEND.items() if k != "tag"},   # missing name
            {**DUCT_SEND, "out": 1.0},                            # a res name on send
            {**DUCT_SEND, "bogus": None},                         # extra name
            {**DUCT_SEND, "n": True},                             # bool as integer
            {**DUCT_SEND, "xs": [1.0, 2.0]},                      # wrong length
            {},
        ],
    )
    def test_argument_lists_agree_with_the_reference(self, args):
        assert check_conform_args(DUCT, "send", args) == []

    def test_missing_and_extra_names_keep_their_message(self):
        with pytest.raises(UTSTypeError) as exc:
            conform_args(DUCT, {"w": 1.0, "bogus": 2}, "send")
        assert str(exc.value) == (
            "duct: send arguments ['bogus', 'w'] do not match expected "
            "['n', 'on', 'tag', 'w', 'xs']"
        )

    def test_a_drifting_conformer_is_caught(self, monkeypatch):
        # not vacuously green: a conformer that lets a boolean through
        # as an integer, or rewords a refusal, must be objected to
        import repro.uts.values as values

        monkeypatch.setitem(values._CONFORMERS, INTEGER, int)
        assert check_conformer(INTEGER, True) != []
        assert check_conformer(INTEGER, 3) == []

    @SWEEP
    @given(offered_values())
    def test_sweep_offered_values(self, tv):
        assert check_conformer(*tv) == []

    @SWEEP
    @given(offered_calls())
    def test_sweep_offered_argument_lists(self, call):
        assert check_conform_args(*call) == []


class TestWholeMessageCodec:
    """``SignatureCodec`` packs an all-fixed-layout argument list with
    one struct call; the bytes and every error stay the reference's."""

    def test_fixed_layout_list_uses_one_struct(self):
        codec = signature_codec(DUCT, "send")
        assert codec._flat_size == struct.calcsize(">dqB3dB")
        packed = codec._flat_pack(DUCT_SEND)
        assert packed == marshal_args(DUCT, DUCT_SEND, "send")
        assert codec._flat_unpack(packed) == DUCT_SEND
        assert signature_codec(NAMED, "send")._flat_size is None  # a string: per parameter

    @pytest.mark.parametrize("sig, direction, args", [
        (DUCT, "send", DUCT_SEND),
        (DUCT, "return", {"xs": [1.0, 2.0, 3.0], "out": 1.5}),
        (NAMED, "send", {"label": "npss \u00b5", "xs": [1.0, -0.0]}),
    ])
    def test_bytes_and_decoding_match_the_reference(self, sig, direction, args):
        assert check_signature_codec(sig, direction, args, noise=b"\x02" * 11) == []

    @pytest.mark.parametrize("sig, args", [(DUCT, DUCT_SEND),
                                           (NAMED, {"label": "ab", "xs": [1.0, 2.0]})])
    def test_truncated_and_trailing_input_is_a_typed_error(self, sig, args):
        codec = signature_codec(sig, "send")
        data = marshal_args(sig, args, "send")
        for bad in [data[:n] for n in range(len(data))] + [data + b"\x00"]:
            for view in (bad, memoryview(bad)):
                # typed on both sides; a struct.error would escape these
                with pytest.raises(UTSConversionError):
                    codec.unmarshal(view)
                with pytest.raises(UTSConversionError):
                    unmarshal_args(sig, view, "send")
        with pytest.raises(UTSConversionError, match="1 trailing bytes after send args"):
            codec.unmarshal(data + b"\x00")

    def test_invalid_boolean_byte_is_refused_on_the_fast_path(self):
        codec = signature_codec(DUCT, "send")
        data = bytearray(marshal_args(DUCT, DUCT_SEND, "send"))
        data[16] = 2  # the "on" boolean
        with pytest.raises(UTSConversionError, match="invalid boolean byte 2"):
            codec.unmarshal(bytes(data))
        with pytest.raises(UTSConversionError, match="invalid boolean byte 2"):
            unmarshal_args(DUCT, bytes(data), "send")

    @SWEEP
    @given(marshalable_calls())
    def test_sweep_signatures(self, call):
        assert check_signature_codec(*call) == []


class TestRunner:
    def test_short_sweep_is_green(self):
        summary = run(max_examples=25)
        assert summary["max_examples"] == 25
        assert set(summary["checks"]) == {
            "scalar_doubles", "structured_values", "cray_raw", "vax_raw",
            "conformers", "argument_conformers", "signature_codecs",
        }
        assert len(summary["formats"]) == len(ALL_NATIVE_FORMATS)

    def test_cli_smoke(self, capsys):
        assert main(["--max-examples", "5"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_failure_type_is_assertion(self):
        # ConformanceFailure subclasses AssertionError so pytest reports
        # sweeps the same way as plain asserts
        assert issubclass(ConformanceFailure, AssertionError)
