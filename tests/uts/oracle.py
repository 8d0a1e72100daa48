"""Interpreted UTS oracles: the reference the runtime's codecs are checked against.

"UTS also provides a common data interchange format.  This is implemented
by library functions that handle conversions between a machine's native
format and the common interchange format." (paper, section 3.1)

The runtime has one implementation of that library: the compiled plans
in :mod:`repro.uts.compiled` (``codec_for``, ``signature_codec``,
``native_roundtrip_for``), which every RPC, migration and checkpoint
runs.  This module keeps the interpretive twins — clear, recursive, and
dispatching on ``isinstance`` per element — as test oracles:

* the wire codec (``encode_value``, ``decode_value``, ``encoded_size``,
  ``marshal_args``, ``unmarshal_args``) whose layout docs/CODECS.md
  tabulates;
* ``roundtrip_native_interpreted``, the native-format round trip done
  by packing into native bytes and unpacking again;
* ``identical``, bit-level equality of two conformed values, and
  ``zero_value``, a canonical zero of any type.

The conformance harness (``tests/uts/conformance.py``), the UTS tests
and the A1 benchmark (``benchmarks/bench_uts_encoding.py``) compare the
compiled paths against these byte-for-byte, value-for-value and
exception-for-exception.  Values must be *conformed* (see
:mod:`repro.uts.values`) before encoding.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Tuple

from repro.uts.errors import UTSConversionError, UTSTypeError
from repro.uts.native import NativeFormat, OutOfRangePolicy
from repro.uts.types import (
    ArrayType,
    BooleanType,
    ByteType,
    DoubleType,
    FloatType,
    IntegerType,
    RecordType,
    Signature,
    StringType,
    UTSType,
)
from repro.uts.values import conform_args

__all__ = [
    "encode_value",
    "encode_into",
    "decode_value",
    "encoded_size",
    "marshal_args",
    "marshal_args_into",
    "unmarshal_args",
    "roundtrip_native_interpreted",
    "identical",
    "zero_value",
]


def encode_value(t: UTSType, value: Any) -> bytes:
    """Encode a conformed value of type ``t`` into wire bytes.

    Allocates a fresh ``bytes``; the zero-copy path is
    :func:`encode_into`, which appends to a caller-owned
    ``bytearray`` that can then travel as a ``memoryview``
    without ever materializing an intermediate ``bytes``."""
    out = bytearray()
    encode_into(t, value, out)
    return bytes(out)


def encode_into(t: UTSType, value: Any, out: bytearray) -> None:
    """Append the wire encoding of a conformed value to ``out``.

    This is the copy-free entry point: callers that own the buffer
    encode directly into it and hand slices onward as
    ``memoryview``\\ s."""
    _encode_into(t, value, out)


def _encode_into(t: UTSType, value: Any, out: bytearray) -> None:
    if isinstance(t, IntegerType):
        out += struct.pack(">q", value)
    elif isinstance(t, FloatType):
        out += struct.pack(">f", value)
    elif isinstance(t, DoubleType):
        out += struct.pack(">d", value)
    elif isinstance(t, ByteType):
        out += struct.pack(">B", value)
    elif isinstance(t, BooleanType):
        out += struct.pack(">B", 1 if value else 0)
    elif isinstance(t, StringType):
        payload = value.encode("utf-8")
        out += struct.pack(">I", len(payload))
        out += payload
    elif isinstance(t, ArrayType):
        for item in value:
            _encode_into(t.element, item, out)
    elif isinstance(t, RecordType):
        for f in t.fields:
            _encode_into(f.type, value[f.name], out)
    else:  # pragma: no cover - exhaustiveness guard
        raise UTSConversionError(f"cannot encode type {t!r}")


def decode_value(t: UTSType, data: bytes, offset: int = 0) -> Tuple[Any, int]:
    """Decode a value of type ``t`` from ``data`` at ``offset``.

    Returns ``(value, next_offset)``.
    """
    try:
        return _decode_from(t, data, offset)
    except struct.error as exc:
        raise UTSConversionError(f"truncated wire data for {t.describe()}: {exc}") from exc


def _decode_from(t: UTSType, data: bytes, offset: int) -> Tuple[Any, int]:
    if isinstance(t, IntegerType):
        (v,) = struct.unpack_from(">q", data, offset)
        return v, offset + 8
    if isinstance(t, FloatType):
        (v,) = struct.unpack_from(">f", data, offset)
        return v, offset + 4
    if isinstance(t, DoubleType):
        (v,) = struct.unpack_from(">d", data, offset)
        return v, offset + 8
    if isinstance(t, ByteType):
        (v,) = struct.unpack_from(">B", data, offset)
        return v, offset + 1
    if isinstance(t, BooleanType):
        (v,) = struct.unpack_from(">B", data, offset)
        if v not in (0, 1):
            raise UTSConversionError(f"invalid boolean byte {v}")
        return bool(v), offset + 1
    if isinstance(t, StringType):
        (length,) = struct.unpack_from(">I", data, offset)
        offset += 4
        if offset + length > len(data):
            raise UTSConversionError("truncated string payload")
        # bytes(...) is a no-op for bytes input and the one unavoidable
        # copy when decoding a string out of a borrowed memoryview
        payload = bytes(data[offset : offset + length])
        try:
            return payload.decode("utf-8"), offset + length
        except UnicodeDecodeError as exc:
            raise UTSConversionError(f"invalid UTF-8 in string: {exc}") from exc
    if isinstance(t, ArrayType):
        items: List[Any] = []
        for _ in range(t.length):
            item, offset = _decode_from(t.element, data, offset)
            items.append(item)
        return items, offset
    if isinstance(t, RecordType):
        rec: Dict[str, Any] = {}
        for f in t.fields:
            rec[f.name], offset = _decode_from(f.type, data, offset)
        return rec, offset
    raise UTSConversionError(f"cannot decode type {t!r}")  # pragma: no cover


def encoded_size(t: UTSType, value: Any) -> int:
    """The number of wire bytes a conformed value occupies.

    Used by the network simulation to charge transmission time."""
    if isinstance(t, IntegerType):
        return 8
    if isinstance(t, FloatType):
        return 4
    if isinstance(t, DoubleType):
        return 8
    if isinstance(t, (ByteType, BooleanType)):
        return 1
    if isinstance(t, StringType):
        return 4 + len(value.encode("utf-8"))
    if isinstance(t, ArrayType):
        return sum(encoded_size(t.element, v) for v in value)
    if isinstance(t, RecordType):
        return sum(encoded_size(f.type, value[f.name]) for f in t.fields)
    raise UTSConversionError(f"cannot size type {t!r}")  # pragma: no cover


def marshal_args(sig: Signature, args: Dict[str, Any], direction: str) -> bytes:
    """Conform and encode one direction of a call's arguments.

    ``direction`` is ``"send"`` (request: val+var params) or ``"return"``
    (reply: res+var params).  Parameters are encoded in signature order.
    """
    out = bytearray()
    marshal_args_into(sig, args, direction, out)
    return bytes(out)


def marshal_args_into(
    sig: Signature, args: Dict[str, Any], direction: str, out: bytearray
) -> int:
    """Conform and encode one direction of a call's arguments into a
    caller-owned buffer; returns the number of bytes appended.

    The zero-copy sibling of :func:`marshal_args` — the buffer is a
    ``bytearray`` whose ``memoryview`` travels through the
    transport without the ``bytes(out)`` materialization."""
    conformed = conform_args(sig, args, direction)
    params = sig.sent_params if direction == "send" else sig.returned_params
    n0 = len(out)
    for p in params:
        _encode_into(p.type, conformed[p.name], out)
    return len(out) - n0


def unmarshal_args(sig: Signature, data: bytes, direction: str) -> Dict[str, Any]:
    """Decode one direction of a call's arguments; inverse of
    :func:`marshal_args`."""
    params = sig.sent_params if direction == "send" else sig.returned_params
    args: Dict[str, Any] = {}
    offset = 0
    for p in params:
        args[p.name], offset = decode_value(p.type, data, offset)
    if offset != len(data):
        raise UTSConversionError(
            f"{sig.name}: {len(data) - offset} trailing bytes after {direction} args"
        )
    return args


def roundtrip_native_interpreted(
    fmt: NativeFormat,
    t: UTSType,
    value: Any,
    policy: OutOfRangePolicy = OutOfRangePolicy.ERROR,
) -> Any:
    """Interpretive reference for
    ``repro.uts.compiled.native_roundtrip_for(fmt, t, policy)(value)``.

    Packs into the format's native bytes and unpacks again, dispatching
    on ``isinstance`` per element; the semantics oracle for the
    conformance harness and the compiled-codec benchmarks.
    """
    if isinstance(t, IntegerType):
        return fmt.unpack_integer(fmt.pack_integer(value))
    if isinstance(t, FloatType):
        return fmt.unpack_float32(fmt.pack_float32(value, policy), policy)
    if isinstance(t, DoubleType):
        return fmt.unpack_float64(fmt.pack_float64(value, policy), policy)
    if isinstance(t, (ByteType, StringType, BooleanType)):
        return value
    if isinstance(t, ArrayType):
        return [roundtrip_native_interpreted(fmt, t.element, v, policy) for v in value]
    if isinstance(t, RecordType):
        return {
            f.name: roundtrip_native_interpreted(fmt, f.type, value[f.name], policy)
            for f in t.fields
        }
    raise UTSConversionError(f"unsupported type {t!r}")  # pragma: no cover


def zero_value(t: UTSType) -> Any:
    """A canonical zero/default value of type ``t``."""
    if isinstance(t, IntegerType):
        return 0
    if isinstance(t, (FloatType, DoubleType)):
        return 0.0
    if isinstance(t, ByteType):
        return 0
    if isinstance(t, StringType):
        return ""
    if isinstance(t, BooleanType):
        return False
    if isinstance(t, ArrayType):
        return [zero_value(t.element) for _ in range(t.length)]
    if isinstance(t, RecordType):
        return {f.name: zero_value(f.type) for f in t.fields}
    raise UTSTypeError(f"unsupported UTS type {t!r}")


def identical(t: UTSType, a: Any, b: Any) -> bool:
    """Bit-level structural equality of two conformed values.

    Unlike ``==``, this distinguishes ``0.0``
    from ``-0.0`` and treats NaN as identical to itself — the comparison
    the conformance harness needs when checking that codecs preserve
    signed zeros and special values exactly.
    """
    if isinstance(t, (FloatType, DoubleType)):
        return struct.pack(">d", a) == struct.pack(">d", b)
    if isinstance(t, ArrayType):
        return len(a) == len(b) and all(
            identical(t.element, x, y) for x, y in zip(a, b)
        )
    if isinstance(t, RecordType):
        return all(identical(f.type, a[f.name], b[f.name]) for f in t.fields)
    return type(a) is type(b) and a == b
