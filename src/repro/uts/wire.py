"""The UTS intermediate (wire) data representation.

"UTS also provides a common data interchange format.  This is implemented
by library functions that handle conversions between a machine's native
format and the common interchange format." (paper, section 3.1)

The interchange format defined here is XDR-flavoured: big-endian, IEEE-754
floating point.  Layout:

====================  ================================================
UTS type              wire encoding
====================  ================================================
integer               8 bytes, big-endian two's complement
float                 4 bytes, IEEE-754 binary32, big-endian
double                8 bytes, IEEE-754 binary64, big-endian
byte                  1 byte
boolean               1 byte (0 or 1)
string                4-byte big-endian length + UTF-8 payload
array[N] of T         N encoded elements, in order
record                fields encoded in declaration order
====================  ================================================

Values must be *conformed* (see :mod:`repro.uts.values`) before encoding.

These functions are the *interpretive reference* implementation: clear,
recursive, and dispatching on ``isinstance`` per element.  The RPC
runtime uses the compiled plans in :mod:`repro.uts.compiled`, which must
produce byte-identical output — the conformance harness
(``tests/uts/conformance.py``) enforces that equivalence.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Tuple

from .errors import UTSConversionError
from .types import (
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
from .values import conform_args

__all__ = [
    "encode_value",
    "encode_into",
    "decode_value",
    "encoded_size",
    "marshal_args",
    "marshal_args_into",
    "unmarshal_args",
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
