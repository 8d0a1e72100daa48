"""Fuzz the RPC hot-path decoders over the F100 call signatures.

Every remote call decodes its request and its reply with
``SignatureCodec.unmarshal`` over a read-only ``memoryview`` of the
sender's buffer.  For every import signature the four adapted TESS
executables export, in both directions:

* arbitrary bytes (as ``bytes``, as a read-only view, and as a
  read-only slice of a larger buffer) either decode — and then encode
  back to the same bytes — or raise ``UTSConversionError``, never any
  other exception;
* ``encode_conformed_into`` followed by ``unmarshal`` gives back every
  double bit for bit, NaN payloads and signed zeros included.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.specs import (
    COMBUSTOR_SPEC_SOURCE,
    DUCT_SPEC_SOURCE,
    NOZZLE_SPEC_SOURCE,
    SHAFT_SPEC_SOURCE,
)
from repro.uts import SpecFile, UTSConversionError, conform_args, signature_codec
from repro.uts.types import ArrayType, DoubleType, IntegerType
from repro.uts.values import INT64_MAX, INT64_MIN

from .oracle import zero_value

_SIGNATURES = [
    sig
    for source in (
        SHAFT_SPEC_SOURCE, DUCT_SPEC_SOURCE, COMBUSTOR_SPEC_SOURCE, NOZZLE_SPEC_SOURCE,
    )
    for sig in SpecFile.parse(source).as_imports().imports.values()
]
_CODECS = [
    pytest.param(signature_codec(sig, direction), id=f"{sig.name}-{direction}")
    for sig in _SIGNATURES
    for direction in ("send", "return")
]

_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")

#: every double bit pattern, NaN payloads and -0.0 included
_doubles = st.integers(0, 2**64 - 1).map(lambda u: _F64.unpack(_U64.pack(u))[0])


def _value(t):
    if isinstance(t, DoubleType):
        return _doubles
    if isinstance(t, IntegerType):
        return st.integers(INT64_MIN, INT64_MAX)
    if isinstance(t, ArrayType):
        return st.lists(_value(t.element), min_size=t.length, max_size=t.length)
    raise AssertionError(f"no strategy for {t!r}")  # pragma: no cover


def _params(codec):
    sig = codec.signature
    return sig.sent_params if codec.direction == "send" else sig.returned_params


def _bits(value):
    """A value with every double replaced by its bit pattern."""
    if isinstance(value, float):
        return _U64.unpack(_F64.pack(value))[0]
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value


def _views(data: bytes):
    """The ways a payload reaches ``unmarshal``: plain bytes, a
    read-only view of the whole buffer, a read-only slice of a larger
    one (a frame body behind its header)."""
    framed = bytearray(b"\xa5" * 7) + data + b"\x5a"
    return (
        data,
        memoryview(bytearray(data)).toreadonly(),
        memoryview(framed).toreadonly()[7 : 7 + len(data)],
    )


def _wire_sizes(codec):
    """Payload lengths: the signature's own length often, any other
    length up to twice it otherwise."""
    exact = len(_encoded(codec, {p.name: zero_value(p.type) for p in _params(codec)}))
    return st.one_of(st.just(exact), st.integers(0, 2 * exact + 8))


def _encoded(codec, args) -> bytes:
    buf = bytearray()
    n = codec.encode_conformed_into(
        conform_args(codec.signature, args, codec.direction), buf
    )
    assert n == len(buf)
    return bytes(buf)


@pytest.mark.parametrize("codec", _CODECS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_arbitrary_bytes_decode_or_are_refused(codec, data):
    size = data.draw(_wire_sizes(codec))
    payload = data.draw(st.binary(min_size=size, max_size=size))
    for body in _views(payload):
        try:
            args = codec.unmarshal(body)
        except UTSConversionError:
            continue
        assert _encoded(codec, args) == payload


@pytest.mark.parametrize("codec", _CODECS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_encode_then_unmarshal_keeps_every_double_bit(codec, data):
    args = {p.name: data.draw(_value(p.type), label=p.name) for p in _params(codec)}
    payload = _encoded(codec, args)
    for body in _views(payload):
        got = codec.unmarshal(body)
        assert {k: _bits(v) for k, v in got.items()} == {
            k: _bits(v) for k, v in args.items()
        }
