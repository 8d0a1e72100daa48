"""Tests for the UTS intermediate (wire) representation.

The layout, truncation and bad-input cases hold for both codecs: each
class runs on the runtime's compiled codec (``codec_for`` /
``signature_codec``, what every RPC, migration and checkpoint runs) and
its ``...Oracle`` subclass runs the same cases on the interpretive
oracle in ``tests/uts/oracle.py``.
"""

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
    ParamMode,
    Parameter,
    RecordType,
    Signature,
    UTSConversionError,
    codec_for,
    conform_args,
    signature_codec,
)

from . import oracle


class Runtime:
    """The compiled codec; ``marshal`` is what a stub sends: conform,
    then encode into a fresh buffer."""

    @staticmethod
    def encode(t, v):
        return codec_for(t).encode(v)

    @staticmethod
    def decode(t, data):
        return codec_for(t).decode(data)

    @staticmethod
    def marshal(sig, args, direction):
        out = bytearray()
        signature_codec(sig, direction).encode_conformed_into(
            conform_args(sig, args, direction), out
        )
        return bytes(out)

    @staticmethod
    def unmarshal(sig, data, direction):
        return signature_codec(sig, direction).unmarshal(data)


class Oracle:
    encode = staticmethod(oracle.encode_value)
    decode = staticmethod(oracle.decode_value)
    marshal = staticmethod(oracle.marshal_args)
    unmarshal = staticmethod(oracle.unmarshal_args)


class CodecCase:
    codec = Runtime

    def roundtrip(self, t, v):
        data = self.codec.encode(t, v)
        decoded, offset = self.codec.decode(t, data)
        assert offset == len(data)
        return decoded


class TestScalarEncoding(CodecCase):
    def test_integer_layout(self):
        assert self.codec.encode(INTEGER, 1) == b"\x00" * 7 + b"\x01"
        assert self.codec.encode(INTEGER, -1) == b"\xff" * 8

    def test_integer_roundtrip_extremes(self):
        for v in (0, 1, -1, 2**63 - 1, -(2**63)):
            assert self.roundtrip(INTEGER, v) == v

    def test_double_is_ieee_big_endian(self):
        assert self.codec.encode(DOUBLE, 1.0) == struct.pack(">d", 1.0)

    def test_float_is_four_bytes(self):
        assert len(self.codec.encode(FLOAT, 1.5)) == 4
        assert self.roundtrip(FLOAT, 1.5) == 1.5

    def test_double_roundtrip_special(self):
        assert self.roundtrip(DOUBLE, float("inf")) == float("inf")
        v = self.roundtrip(DOUBLE, float("nan"))
        assert v != v
        # signed zero preserved
        assert struct.pack(">d", self.roundtrip(DOUBLE, -0.0)) == struct.pack(">d", -0.0)

    def test_byte(self):
        assert self.codec.encode(BYTE, 200) == b"\xc8"
        assert self.roundtrip(BYTE, 200) == 200

    def test_boolean(self):
        assert self.codec.encode(BOOLEAN, True) == b"\x01"
        assert self.roundtrip(BOOLEAN, False) is False

    def test_boolean_invalid_byte_rejected(self):
        with pytest.raises(UTSConversionError):
            self.codec.decode(BOOLEAN, b"\x02")

    def test_string_layout(self):
        data = self.codec.encode(STRING, "ab")
        assert data == b"\x00\x00\x00\x02ab"

    def test_string_unicode_roundtrip(self):
        assert self.roundtrip(STRING, "café ∆") == "café ∆"

    def test_empty_string(self):
        assert self.roundtrip(STRING, "") == ""


class TestStructuredEncoding(CodecCase):
    def test_array_concatenates_elements(self):
        t = ArrayType(3, BYTE)
        assert self.codec.encode(t, [1, 2, 3]) == b"\x01\x02\x03"

    def test_array_roundtrip(self):
        t = ArrayType(4, FLOAT)
        assert self.roundtrip(t, [1.0, 2.0, 3.0, 4.0]) == [1.0, 2.0, 3.0, 4.0]

    def test_record_roundtrip(self):
        t = RecordType.of(x=INTEGER, label=STRING, pts=ArrayType(2, DOUBLE))
        v = {"x": 7, "label": "hi", "pts": [0.5, -0.5]}
        assert self.roundtrip(t, v) == v

    def test_record_field_order_is_declaration_order(self):
        t = RecordType.of(a=BYTE, b=BYTE)
        assert self.codec.encode(t, {"b": 2, "a": 1}) == b"\x01\x02"


class TestDecodingErrors(CodecCase):
    def test_truncated_integer(self):
        with pytest.raises(UTSConversionError):
            self.codec.decode(INTEGER, b"\x00\x00")

    def test_truncated_string_payload(self):
        data = b"\x00\x00\x00\x10abc"  # claims 16 bytes, has 3
        with pytest.raises(UTSConversionError):
            self.codec.decode(STRING, data)

    def test_invalid_utf8(self):
        data = b"\x00\x00\x00\x01\xff"
        with pytest.raises(UTSConversionError):
            self.codec.decode(STRING, data)


class TestEncodedSize:
    def test_scalar_sizes(self):
        assert oracle.encoded_size(INTEGER, 0) == 8
        assert oracle.encoded_size(FLOAT, 0.0) == 4
        assert oracle.encoded_size(DOUBLE, 0.0) == 8
        assert oracle.encoded_size(BYTE, 0) == 1
        assert oracle.encoded_size(BOOLEAN, True) == 1

    def test_string_size(self):
        assert oracle.encoded_size(STRING, "abc") == 7

    def test_sizes_match_actual_encoding(self):
        t = RecordType.of(s=STRING, a=ArrayType(3, FLOAT), n=INTEGER)
        v = {"s": "hello", "a": [1.0, 2.0, 3.0], "n": 9}
        assert oracle.encoded_size(t, v) == len(oracle.encode_value(t, v))


def shaft_sig():
    return Signature(
        "shaft",
        (
            Parameter("ecom", ParamMode.VAL, ArrayType(4, FLOAT)),
            Parameter("incom", ParamMode.VAL, INTEGER),
            Parameter("ecorr", ParamMode.VAL, FLOAT),
            Parameter("dxspl", ParamMode.RES, FLOAT),
            Parameter("log", ParamMode.VAR, STRING),
        ),
    )


class TestMarshalArgs(CodecCase):
    def test_request_roundtrip(self):
        sig = shaft_sig()
        args = {"ecom": [1.0, 2.0, 3.0, 4.0], "incom": 5, "ecorr": 0.5, "log": "x"}
        data = self.codec.marshal(sig, args, "send")
        assert self.codec.unmarshal(sig, data, "send") == args

    def test_reply_roundtrip(self):
        sig = shaft_sig()
        args = {"dxspl": 0.25, "log": "done"}
        data = self.codec.marshal(sig, args, "return")
        assert self.codec.unmarshal(sig, data, "return") == args

    def test_reply_excludes_val_params(self):
        sig = shaft_sig()
        data = self.codec.marshal(sig, {"dxspl": 0.0, "log": ""}, "return")
        # 4 bytes float + 4 bytes string length
        assert len(data) == 8

    def test_trailing_bytes_detected(self):
        sig = shaft_sig()
        data = self.codec.marshal(sig, {"dxspl": 0.0, "log": ""}, "return")
        with pytest.raises(UTSConversionError, match="trailing"):
            self.codec.unmarshal(sig, data + b"\x00", "return")

    def test_empty_signature_marshal(self):
        sig = Signature("noop")
        assert self.codec.marshal(sig, {}, "send") == b""
        assert self.codec.unmarshal(sig, b"", "send") == {}


class TestScalarEncodingOracle(TestScalarEncoding):
    codec = Oracle


class TestStructuredEncodingOracle(TestStructuredEncoding):
    codec = Oracle


class TestDecodingErrorsOracle(TestDecodingErrors):
    codec = Oracle


class TestMarshalArgsOracle(TestMarshalArgs):
    codec = Oracle
