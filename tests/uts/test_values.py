"""Tests for UTS runtime value conformance."""

import numpy as np
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
    UTSTypeError,
    conform,
    conform_args,
)

from .oracle import zero_value


class TestConformScalars:
    def test_integer(self):
        assert conform(INTEGER, 42) == 42
        assert conform(INTEGER, np.int32(7)) == 7
        assert isinstance(conform(INTEGER, np.int64(7)), int)

    def test_integer_rejects_bool(self):
        with pytest.raises(UTSTypeError):
            conform(INTEGER, True)

    def test_integer_rejects_float(self):
        with pytest.raises(UTSTypeError):
            conform(INTEGER, 3.0)

    def test_integer_range(self):
        assert conform(INTEGER, 2**63 - 1) == 2**63 - 1
        with pytest.raises(UTSTypeError):
            conform(INTEGER, 2**63)
        with pytest.raises(UTSTypeError):
            conform(INTEGER, -(2**63) - 1)

    def test_double_accepts_int(self):
        assert conform(DOUBLE, 3) == 3.0
        assert isinstance(conform(DOUBLE, 3), float)

    def test_double_preserves_precision(self):
        v = 0.1234567890123456789
        assert conform(DOUBLE, v) == v

    def test_float_rounds_to_single_precision(self):
        v = 0.1
        conformed = conform(FLOAT, v)
        assert conformed != v  # 0.1 is not exactly representable in binary32
        assert conformed == pytest.approx(v, rel=1e-7)

    def test_float_overflow_becomes_inf(self):
        assert conform(FLOAT, 1e40) == float("inf")
        assert conform(FLOAT, -1e40) == float("-inf")

    def test_float_nan_passes_through(self):
        v = conform(FLOAT, float("nan"))
        assert v != v

    def test_byte(self):
        assert conform(BYTE, 0) == 0
        assert conform(BYTE, 255) == 255
        assert conform(BYTE, b"A") == 65

    def test_byte_range(self):
        with pytest.raises(UTSTypeError):
            conform(BYTE, 256)
        with pytest.raises(UTSTypeError):
            conform(BYTE, -1)

    def test_string(self):
        assert conform(STRING, "hello") == "hello"
        with pytest.raises(UTSTypeError):
            conform(STRING, b"bytes")

    def test_boolean(self):
        assert conform(BOOLEAN, True) is True
        assert conform(BOOLEAN, np.bool_(False)) is False
        with pytest.raises(UTSTypeError):
            conform(BOOLEAN, 1)


class TestConformStructured:
    def test_array_from_list(self):
        t = ArrayType(3, DOUBLE)
        assert conform(t, [1, 2, 3]) == [1.0, 2.0, 3.0]

    def test_array_from_numpy(self):
        t = ArrayType(4, FLOAT)
        arr = np.array([1.0, 2.0, 3.0, 4.0])
        assert conform(t, arr) == [1.0, 2.0, 3.0, 4.0]

    def test_array_rejects_2d_numpy(self):
        with pytest.raises(UTSTypeError):
            conform(ArrayType(4, FLOAT), np.zeros((2, 2)))

    def test_array_length_checked(self):
        with pytest.raises(UTSTypeError):
            conform(ArrayType(3, DOUBLE), [1.0, 2.0])

    def test_nested_array(self):
        t = ArrayType(2, ArrayType(2, INTEGER))
        assert conform(t, [[1, 2], [3, 4]]) == [[1, 2], [3, 4]]

    def test_record(self):
        t = RecordType.of(x=INTEGER, y=DOUBLE)
        assert conform(t, {"x": 1, "y": 2}) == {"x": 1, "y": 2.0}

    def test_record_missing_field(self):
        t = RecordType.of(x=INTEGER, y=DOUBLE)
        with pytest.raises(UTSTypeError, match="missing"):
            conform(t, {"x": 1})

    def test_record_extra_field(self):
        t = RecordType.of(x=INTEGER)
        with pytest.raises(UTSTypeError, match="unexpected"):
            conform(t, {"x": 1, "z": 2})

    def test_record_of_array(self):
        t = RecordType.of(pts=ArrayType(2, FLOAT), n=INTEGER)
        v = conform(t, {"pts": np.array([1.0, 2.0]), "n": 2})
        assert v == {"pts": [1.0, 2.0], "n": 2}


def shaft_sig():
    return Signature(
        "shaft",
        (
            Parameter("ecom", ParamMode.VAL, ArrayType(4, FLOAT)),
            Parameter("incom", ParamMode.VAL, INTEGER),
            Parameter("dxspl", ParamMode.RES, FLOAT),
            Parameter("state", ParamMode.VAR, DOUBLE),
        ),
    )


class TestConformArgs:
    def test_send_direction(self):
        args = conform_args(
            shaft_sig(),
            {"ecom": [1, 2, 3, 4], "incom": 2, "state": 1.5},
            "send",
        )
        assert set(args) == {"ecom", "incom", "state"}

    def test_return_direction(self):
        args = conform_args(shaft_sig(), {"dxspl": 0.5, "state": 2.5}, "return")
        assert set(args) == {"dxspl", "state"}

    def test_missing_send_arg_rejected(self):
        with pytest.raises(UTSTypeError):
            conform_args(shaft_sig(), {"ecom": [1, 2, 3, 4]}, "send")

    def test_extra_arg_rejected(self):
        with pytest.raises(UTSTypeError):
            conform_args(
                shaft_sig(),
                {"ecom": [1, 2, 3, 4], "incom": 2, "state": 1.5, "junk": 0},
                "send",
            )


class TestZeroValue:
    def test_scalars(self):
        assert zero_value(INTEGER) == 0
        assert zero_value(DOUBLE) == 0.0
        assert zero_value(STRING) == ""
        assert zero_value(BOOLEAN) is False

    def test_structured(self):
        assert zero_value(ArrayType(3, INTEGER)) == [0, 0, 0]
        assert zero_value(RecordType.of(x=INTEGER, y=ArrayType(2, DOUBLE))) == {
            "x": 0,
            "y": [0.0, 0.0],
        }

    def test_zero_conforms(self):
        t = RecordType.of(a=ArrayType(2, FLOAT), s=STRING, b=BOOLEAN)
        assert conform(t, zero_value(t)) == zero_value(t)
