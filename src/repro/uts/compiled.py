"""Compiled UTS codecs: the fast path for wire and native conversion.

This is the runtime's one UTS codec: every RPC, migration state
transfer and checkpoint encodes and decodes through it.  An interpretive
codec dispatches on ``isinstance`` for every element of every array on
every call — fine as a readable reference, but UTS encode/decode is the
hot path of every simulated RPC the paper's Tables 1–2 measure.  This
module walks a :class:`~repro.uts.types.UTSType` tree *once* and emits a
flat encoder/decoder plan:

* subtrees with a fixed wire layout (no strings) collapse into a single
  ``struct`` format string — a 1k-element double array encodes with one
  ``struct.pack(">1000d", *values)`` call;
* variable-length subtrees become a flat closure list, with the type
  dispatch resolved at compile time.

Plans are cached per type (types are immutable value objects, so they
hash), per signature+direction, and per ``(format, type, policy)`` for
native round trips.  The conformance harness
(``tests/uts/conformance.py``) cross-checks every compiled path against
the interpretive oracles in ``tests/uts/oracle.py`` byte-for-byte; the
wire layout is tabulated in ``docs/CODECS.md``.
"""

from __future__ import annotations

import math
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

from .errors import UTSConversionError, UTSRangeError
from .native import (
    _CRAY_MANT_BITS,
    CrayFormat,
    IEEEFormat,
    NativeFormat,
    OutOfRangePolicy,
    VAXFormat,
)
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

__all__ = [
    "CompiledCodec",
    "SignatureCodec",
    "codec_for",
    "signature_codec",
    "precompile_signature",
    "native_roundtrip_for",
    "native_is_identity",
]

_LEN = struct.Struct(">I")

_SCALAR_CHARS = {
    IntegerType: "q",
    FloatType: "f",
    DoubleType: "d",
    ByteType: "B",
    BooleanType: "B",  # booleans are validated after unpack
}


# ---------------------------------------------------------------------------
# flat-layout analysis
# ---------------------------------------------------------------------------


def _flat_fragment(t: UTSType) -> Optional[Tuple[str, int]]:
    """The struct format fragment and slot count for ``t``, or ``None``
    when ``t`` contains a variable-length type (string)."""
    cls = type(t)
    if cls in _SCALAR_CHARS:
        return _SCALAR_CHARS[cls], 1
    if isinstance(t, ArrayType):
        sub = _flat_fragment(t.element)
        if sub is None:
            return None
        frag, n = sub
        if not frag:  # zero-length element (e.g. empty nested array)
            return "", 0
        if len(frag) == 1:  # homogeneous scalar array: one repeat-counted code
            return f"{t.length}{frag}", n * t.length
        head, code = frag[:-1], frag[-1]
        if head.isdigit():  # nested repeat of one code: merge the counts
            return f"{int(head) * t.length}{code}", n * t.length
        return frag * t.length, n * t.length
    if isinstance(t, RecordType):
        frags: List[str] = []
        total = 0
        for f in t.fields:
            sub = _flat_fragment(f.type)
            if sub is None:
                return None
            frag, n = sub
            frags.append(frag)
            total += n
        return "".join(frags), total
    return None


def _flattener(t: UTSType) -> Callable[[Any, List[Any]], None]:
    """A closure appending ``value``'s scalars to a list in wire order."""
    if type(t) in _SCALAR_CHARS:
        def flat_scalar(value: Any, out: List[Any]) -> None:
            out.append(value)

        return flat_scalar
    if isinstance(t, ArrayType):
        if type(t.element) in _SCALAR_CHARS:
            def flat_scalar_array(value: Any, out: List[Any]) -> None:
                out.extend(value)

            return flat_scalar_array
        sub = _flattener(t.element)

        def flat_array(value: Any, out: List[Any]) -> None:
            for item in value:
                sub(item, out)

        return flat_array
    if isinstance(t, RecordType):
        subs = tuple((f.name, _flattener(f.type)) for f in t.fields)

        def flat_record(value: Any, out: List[Any]) -> None:
            for name, fn in subs:
                fn(value[name], out)

        return flat_record
    raise UTSConversionError(f"cannot compile type {t!r}")  # pragma: no cover


def _unflattener(t: UTSType) -> Callable[[Tuple[Any, ...], int], Tuple[Any, int]]:
    """A closure rebuilding a value from a flat scalar tuple.

    Takes ``(scalars, index)`` and returns ``(value, next_index)``.
    Booleans are validated here: the interpretive decoder rejects bytes
    other than 0/1, so the compiled path must too.
    """
    if isinstance(t, BooleanType):
        def un_bool(vals: Tuple[Any, ...], i: int) -> Tuple[Any, int]:
            b = vals[i]
            if b not in (0, 1):
                raise UTSConversionError(f"invalid boolean byte {b}")
            return bool(b), i + 1

        return un_bool
    if type(t) in _SCALAR_CHARS:
        def un_scalar(vals: Tuple[Any, ...], i: int) -> Tuple[Any, int]:
            return vals[i], i + 1

        return un_scalar
    if isinstance(t, ArrayType):
        n = t.length
        if type(t.element) in _SCALAR_CHARS and not isinstance(t.element, BooleanType):
            def un_scalar_array(vals: Tuple[Any, ...], i: int) -> Tuple[Any, int]:
                return list(vals[i : i + n]), i + n

            return un_scalar_array
        sub = _unflattener(t.element)

        def un_array(vals: Tuple[Any, ...], i: int) -> Tuple[Any, int]:
            items = []
            for _ in range(n):
                item, i = sub(vals, i)
                items.append(item)
            return items, i

        return un_array
    if isinstance(t, RecordType):
        subs = tuple((f.name, _unflattener(f.type)) for f in t.fields)

        def un_record(vals: Tuple[Any, ...], i: int) -> Tuple[Any, int]:
            rec = {}
            for name, fn in subs:
                rec[name], i = fn(vals, i)
            return rec, i

        return un_record
    raise UTSConversionError(f"cannot compile type {t!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# encoder / decoder compilation
# ---------------------------------------------------------------------------


def _compile_encoder(t: UTSType) -> Tuple[Callable[[Any, bytearray], None], str]:
    """Compile ``t`` into an append-to-buffer encoder and a plan string."""
    flat = _flat_fragment(t)
    if flat is not None:
        frag, _ = flat
        packer = struct.Struct(">" + frag)
        flatten = _flattener(t)

        def enc_flat(value: Any, out: bytearray) -> None:
            args: List[Any] = []
            flatten(value, args)
            out += packer.pack(*args)

        return enc_flat, f"struct('>{frag}')"
    if isinstance(t, StringType):
        def enc_string(value: Any, out: bytearray) -> None:
            payload = value.encode("utf-8")
            out += _LEN.pack(len(payload))
            out += payload

        return enc_string, "string"
    if isinstance(t, ArrayType):
        sub, sub_plan = _compile_encoder(t.element)

        def enc_array(value: Any, out: bytearray) -> None:
            for item in value:
                sub(item, out)

        return enc_array, f"repeat({t.length}, {sub_plan})"
    if isinstance(t, RecordType):
        subs = tuple(
            (f.name,) + _compile_encoder(f.type) for f in t.fields
        )

        def enc_record(value: Any, out: bytearray) -> None:
            for name, fn, _ in subs:
                fn(value[name], out)

        return enc_record, "seq(" + ", ".join(f"{n}={p}" for n, _, p in subs) + ")"
    raise UTSConversionError(f"cannot compile type {t!r}")


def _compile_decoder(t: UTSType) -> Callable[[bytes, int], Tuple[Any, int]]:
    flat = _flat_fragment(t)
    if flat is not None:
        frag, _ = flat
        unpacker = struct.Struct(">" + frag)
        unflatten = _unflattener(t)
        size = unpacker.size

        def dec_flat(data: bytes, offset: int) -> Tuple[Any, int]:
            vals = unpacker.unpack_from(data, offset)
            value, _ = unflatten(vals, 0)
            return value, offset + size

        return dec_flat
    if isinstance(t, StringType):
        def dec_string(data: bytes, offset: int) -> Tuple[Any, int]:
            (length,) = _LEN.unpack_from(data, offset)
            offset += 4
            if offset + length > len(data):
                raise UTSConversionError("truncated string payload")
            # bytes(...) is free for bytes and the one unavoidable copy
            # when the wire data is a borrowed memoryview
            payload = bytes(data[offset : offset + length])
            try:
                return payload.decode("utf-8"), offset + length
            except UnicodeDecodeError as exc:
                raise UTSConversionError(f"invalid UTF-8 in string: {exc}") from exc

        return dec_string
    if isinstance(t, ArrayType):
        sub = _compile_decoder(t.element)
        n = t.length

        def dec_array(data: bytes, offset: int) -> Tuple[Any, int]:
            items = []
            for _ in range(n):
                item, offset = sub(data, offset)
                items.append(item)
            return items, offset

        return dec_array
    if isinstance(t, RecordType):
        subs = tuple((f.name, _compile_decoder(f.type)) for f in t.fields)

        def dec_record(data: bytes, offset: int) -> Tuple[Any, int]:
            rec = {}
            for name, fn in subs:
                rec[name], offset = fn(data, offset)
            return rec, offset

        return dec_record
    raise UTSConversionError(f"cannot compile type {t!r}")


class CompiledCodec:
    """A wire encoder/decoder for one UTS type, compiled once.

    ``plan`` is a human-readable rendering of the emitted plan — a single
    ``struct(...)`` node when the whole type has a fixed layout.
    """

    __slots__ = ("type", "plan", "_encode_into", "_decode_from")

    def __init__(self, t: UTSType):
        self.type = t
        self._encode_into, self.plan = _compile_encoder(t)
        self._decode_from = _compile_decoder(t)

    def encode(self, value: Any) -> bytes:
        """Encode a conformed value into a fresh ``bytes`` (the wire
        layout of ``docs/CODECS.md``)."""
        out = bytearray()
        self._encode_into(value, out)
        return bytes(out)

    def encode_into(self, value: Any, out: bytearray) -> None:
        self._encode_into(value, out)

    def decode(self, data: bytes, offset: int = 0) -> Tuple[Any, int]:
        """Decode ``(value, next_offset)``; truncated data, a boolean
        byte other than 0 or 1 and invalid UTF-8 raise
        :class:`UTSConversionError`."""
        try:
            return self._decode_from(data, offset)
        except struct.error as exc:
            raise UTSConversionError(
                f"truncated wire data for {self.type.describe()}: {exc}"
            ) from exc


_CODECS: Dict[UTSType, CompiledCodec] = {}


def codec_for(t: UTSType) -> CompiledCodec:
    """The compiled codec for ``t``, compiling and caching on first use."""
    codec = _CODECS.get(t)
    if codec is None:
        codec = _CODECS[t] = CompiledCodec(t)
    return codec


# ---------------------------------------------------------------------------
# signature (argument list) codecs
# ---------------------------------------------------------------------------


def _compile_flat_message(
    params: Tuple[Any, ...],
) -> Optional[Tuple[int, Callable[[Dict[str, Any]], bytes], Callable[[Any], Dict[str, Any]]]]:
    """``(size, pack, unpack)`` for an argument list in which every
    parameter has a fixed wire layout, or ``None`` when one does not
    (a string somewhere).  Such a list is one struct: ``pack`` turns the
    canonical argument dict into the message with a single
    ``Struct.pack``, ``unpack`` turns exactly ``size`` bytes back into
    the dict with a single ``Struct.unpack``."""
    frags = [_flat_fragment(p.type) for p in params]
    if any(f is None for f in frags):
        return None
    packer = struct.Struct(">" + "".join(frag for frag, _ in frags))
    flatteners = tuple((p.name, _flattener(p.type)) for p in params)
    unflatteners = tuple((p.name, _unflattener(p.type)) for p in params)

    def pack(args: Dict[str, Any]) -> bytes:
        slots: List[Any] = []
        for name, flatten in flatteners:
            flatten(args[name], slots)
        return packer.pack(*slots)

    def unpack(data: Any) -> Dict[str, Any]:
        slots = packer.unpack(data)
        args: Dict[str, Any] = {}
        i = 0
        for name, unflatten in unflatteners:
            args[name], i = unflatten(slots, i)
        return args

    return packer.size, pack, unpack


class SignatureCodec:
    """Marshals one direction of a call's arguments with compiled codecs.

    Encodes the conformed arguments of a fixed ``(signature,
    direction)`` in signature order and decodes them back.  An argument
    list with no variable-length parameter packs and unpacks as one
    struct (:func:`_compile_flat_message`) instead of one per parameter.
    """

    __slots__ = ("signature", "direction", "_params",
                 "_flat_size", "_flat_pack", "_flat_unpack")

    def __init__(self, sig: Signature, direction: str):
        if direction not in ("send", "return"):  # pragma: no cover
            raise ValueError(f"bad direction {direction!r}")
        self.signature = sig
        self.direction = direction
        params = sig.sent_params if direction == "send" else sig.returned_params
        self._params = tuple((p.name, codec_for(p.type)) for p in params)
        self._flat_size, self._flat_pack, self._flat_unpack = (
            _compile_flat_message(params) or (None, None, None)
        )

    def encode_conformed_into(self, args: Dict[str, Any], out: bytearray) -> int:
        """Encode canonical arguments into a caller-owned buffer;
        returns the bytes appended.

        The RPC hot path uses this with a fresh buffer per direction:
        a fixed-layout message is one ``Struct.pack`` appended to it,
        and what travels is a view of the buffer, never a ``bytes``
        copy of it."""
        if self._flat_pack is not None:
            out += self._flat_pack(args)
            return self._flat_size
        n0 = len(out)
        for name, codec in self._params:
            codec.encode_into(args[name], out)
        return len(out) - n0

    def unmarshal(self, data: bytes) -> Dict[str, Any]:
        if len(data) == self._flat_size:
            return self._flat_unpack(data)
        # variable-length arguments, or a message of the wrong size: the
        # per-parameter walk decodes the former and names what is wrong
        # with the latter (truncated parameter, trailing bytes)
        args: Dict[str, Any] = {}
        offset = 0
        for name, codec in self._params:
            args[name], offset = codec.decode(data, offset)
        if offset != len(data):
            raise UTSConversionError(
                f"{self.signature.name}: {len(data) - offset} trailing bytes "
                f"after {self.direction} args"
            )
        return args


_SIG_CODECS: Dict[Tuple[Signature, str], SignatureCodec] = {}


def signature_codec(sig: Signature, direction: str) -> SignatureCodec:
    codec = _SIG_CODECS.get((sig, direction))
    if codec is None:
        codec = _SIG_CODECS[(sig, direction)] = SignatureCodec(sig, direction)
    return codec


def precompile_signature(sig: Signature) -> None:
    """Warm both directions' codecs so the first RPC does not pay the
    compile cost on the simulated hot path (client stubs call this)."""
    signature_codec(sig, "send")
    signature_codec(sig, "return")


# ---------------------------------------------------------------------------
# native round-trip plans
# ---------------------------------------------------------------------------

_F32 = struct.Struct(">f")
_F32_LIMIT = 3.4028235677973366e38  # mirrors IEEEFormat.pack_float32
_CRAY_MANT_SCALE = float(1 << _CRAY_MANT_BITS)


def _identity(value: Any) -> Any:
    return value


def _compile_cray_float(
    fmt: CrayFormat, policy: OutOfRangePolicy
) -> Callable[[Any], Any]:
    """The Cray word's round trip as arithmetic on the double.

    Packing rounds the significand to 48 bits, ties to even
    (``round(frexp(v)[0] * 2**48)``), and unpacking scales it back with
    ``ldexp``; neither step needs the 8 bytes in between.  Every double
    rounded to 48 bits is again a double (subnormals included: dropping
    low bits leaves a multiple of a larger power of two), so the
    ``ldexp`` is exact unless the rounding carried past ``2**1024``.
    That band just under ``sys.float_info.max``, NaN and the infinities
    go through the bit-level codec, which owns their typed errors and
    the out-of-range policy.  UTS ``float`` and ``double`` share this
    plan: both are one 64-bit Cray word."""
    pack, unpack = fmt.pack_float64, fmt.unpack_float64
    frexp, ldexp, scale, shift = math.frexp, math.ldexp, _CRAY_MANT_SCALE, _CRAY_MANT_BITS

    def native_cray_float(value: Any) -> Any:
        try:
            m, e = frexp(value)
            # a zero keeps its sign bit: frexp hands -0.0 back as -0.0
            return ldexp(round(m * scale), e - shift) if m else m
        except (ValueError, OverflowError):
            return unpack(pack(value, policy), policy)

    return native_cray_float


def _compile_native(
    fmt: NativeFormat, t: UTSType, policy: OutOfRangePolicy
) -> Callable[[Any], Any]:
    if isinstance(t, IntegerType):
        if type(fmt) in (IEEEFormat, CrayFormat, VAXFormat):
            # two's-complement pack/unpack is the identity within range,
            # so the plan reduces to the range check
            lo = -(2 ** (fmt.int_bits - 1))
            hi = 2 ** (fmt.int_bits - 1) - 1

            def native_int(value: Any) -> Any:
                if not lo <= value <= hi:
                    raise UTSRangeError(
                        f"integer {value} does not fit in {fmt.name} native "
                        f"{fmt.int_bits}-bit integer"
                    )
                return value

            return native_int

        def native_int_generic(value: Any) -> Any:  # pragma: no cover
            return fmt.unpack_integer(fmt.pack_integer(value))

        return native_int_generic
    if isinstance(t, FloatType):
        if type(fmt) is IEEEFormat:
            if policy is OutOfRangePolicy.ERROR:
                def native_f32(value: Any) -> Any:
                    if (
                        value == value
                        and abs(value) >= _F32_LIMIT
                        and not math.isinf(value)
                    ):
                        raise UTSRangeError(
                            f"{value!r} exceeds IEEE binary32 range on {fmt.name}"
                        )
                    return _F32.unpack(_F32.pack(value))[0]

            else:
                def native_f32(value: Any) -> Any:
                    if (
                        value == value
                        and abs(value) >= _F32_LIMIT
                        and not math.isinf(value)
                    ):
                        value = math.copysign(math.inf, value)
                    return _F32.unpack(_F32.pack(value))[0]

            return native_f32
        if type(fmt) is CrayFormat:
            return _compile_cray_float(fmt, policy)
        pack32, unpack32 = fmt.pack_float32, fmt.unpack_float32

        def native_f32_generic(value: Any) -> Any:
            return unpack32(pack32(value, policy), policy)

        return native_f32_generic
    if isinstance(t, DoubleType):
        if type(fmt) is IEEEFormat:
            # struct '>d' pack+unpack is exact for every Python float
            return _identity
        if type(fmt) is CrayFormat:
            return _compile_cray_float(fmt, policy)
        pack64, unpack64 = fmt.pack_float64, fmt.unpack_float64

        def native_f64_generic(value: Any) -> Any:
            return unpack64(pack64(value, policy), policy)

        return native_f64_generic
    if isinstance(t, (ByteType, StringType, BooleanType)):
        return _identity
    if isinstance(t, ArrayType):
        elem = _compile_native(fmt, t.element, policy)
        if elem is _identity:
            return list  # copy, matching the interpretive path

        def native_array(value: Any) -> Any:
            return [elem(v) for v in value]

        return native_array
    if isinstance(t, RecordType):
        subs = tuple((f.name, _compile_native(fmt, f.type, policy)) for f in t.fields)
        if all(fn is _identity for _, fn in subs):
            return dict  # copy, matching the interpretive path

        def native_record(value: Any) -> Any:
            return {name: fn(value[name]) for name, fn in subs}

        return native_record
    raise UTSConversionError(f"unsupported type {t!r}")


_NATIVE_PLANS: Dict[
    Tuple[NativeFormat, UTSType, OutOfRangePolicy], Callable[[Any], Any]
] = {}


def native_roundtrip_for(
    fmt: NativeFormat, t: UTSType, policy: OutOfRangePolicy
) -> Callable[[Any], Any]:
    """The compiled native round-trip plan for ``(fmt, t, policy)``.

    Semantics are checked against the interpretive oracle
    (``roundtrip_native_interpreted`` in ``tests/uts/oracle.py``) by the
    conformance harness.
    """
    key = (fmt, t, policy)
    plan = _NATIVE_PLANS.get(key)
    if plan is None:
        plan = _NATIVE_PLANS[key] = _compile_native(fmt, t, policy)
    return plan


def native_is_identity(
    fmt: NativeFormat, t: UTSType, policy: OutOfRangePolicy
) -> bool:
    """Whether ``(fmt, t, policy)``'s round trip changes no value and
    can never raise — a double, byte, string or boolean on an IEEE
    machine, or a container of them, whose plan is a plain copy: a
    caller that owns the value it walks may skip the parameter."""
    return native_roundtrip_for(fmt, t, policy) in (_identity, list, dict)
