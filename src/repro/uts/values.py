"""Runtime value conformance checking for UTS types.

Stubs call :func:`conform` on every argument before marshaling and after
unmarshaling; the Schooner Manager uses the same routine for its runtime
type-checking of procedure calls (paper, section 3.1).

The canonical Python representations are:

====================  =============================================
UTS type              Python value
====================  =============================================
integer               ``int`` (64-bit signed range)
float                 ``float`` (round-trips through 32 bits)
double                ``float``
byte                  ``int`` in 0..255
string                ``str``
boolean               ``bool``
array[N] of T         ``list`` of N conformed T values
record ... end        ``dict`` mapping field name -> conformed value
====================  =============================================
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict

import numpy as np

from .errors import UTSTypeError
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

__all__ = ["conform", "conformer_for", "conform_args"]

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

_F32 = struct.Struct(">f")


def conform(t: UTSType, value: Any) -> Any:
    """Check ``value`` against type ``t``; return the canonical form.

    Raises :class:`UTSTypeError` on any mismatch.  NumPy scalars and
    arrays are accepted and converted to plain Python objects so the
    wire codecs never see NumPy-specific types.
    """
    if isinstance(t, IntegerType):
        if isinstance(value, bool):
            raise UTSTypeError(f"expected integer, got boolean {value!r}")
        if isinstance(value, (int, np.integer)):
            v = int(value)
            if not INT64_MIN <= v <= INT64_MAX:
                raise UTSTypeError(f"integer {v} outside 64-bit range")
            return v
        raise UTSTypeError(f"expected integer, got {type(value).__name__}")

    if isinstance(t, (FloatType, DoubleType)):
        if isinstance(value, bool):
            raise UTSTypeError(f"expected {t.describe()}, got boolean {value!r}")
        if isinstance(value, (int, float, np.integer, np.floating)):
            v = float(value)
            if isinstance(t, FloatType):
                # round through 32-bit representation so callers see the
                # precision they will actually get on the wire
                v = struct.unpack(">f", struct.pack(">f", _clamp_f32(v)))[0]
            return v
        raise UTSTypeError(f"expected {t.describe()}, got {type(value).__name__}")

    if isinstance(t, ByteType):
        if isinstance(value, bool):
            raise UTSTypeError("expected byte, got boolean")
        if isinstance(value, (int, np.integer)):
            v = int(value)
            if not 0 <= v <= 255:
                raise UTSTypeError(f"byte value {v} outside 0..255")
            return v
        if isinstance(value, (bytes, bytearray)) and len(value) == 1:
            return value[0]
        raise UTSTypeError(f"expected byte, got {type(value).__name__}")

    if isinstance(t, StringType):
        if isinstance(value, str):
            return value
        raise UTSTypeError(f"expected string, got {type(value).__name__}")

    if isinstance(t, BooleanType):
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
        raise UTSTypeError(f"expected boolean, got {type(value).__name__}")

    if isinstance(t, ArrayType):
        if isinstance(value, np.ndarray):
            if value.ndim != 1:
                raise UTSTypeError(
                    f"expected 1-D array for {t.describe()}, got {value.ndim}-D"
                )
            value = value.tolist()
        if not isinstance(value, (list, tuple)):
            raise UTSTypeError(f"expected array, got {type(value).__name__}")
        if len(value) != t.length:
            raise UTSTypeError(
                f"expected array of length {t.length}, got length {len(value)}"
            )
        return [conform(t.element, v) for v in value]

    if isinstance(t, RecordType):
        if not isinstance(value, dict):
            raise UTSTypeError(f"expected record (dict), got {type(value).__name__}")
        expected = {f.name for f in t.fields}
        actual = set(value.keys())
        if expected != actual:
            missing = expected - actual
            extra = actual - expected
            parts = []
            if missing:
                parts.append(f"missing fields {sorted(missing)}")
            if extra:
                parts.append(f"unexpected fields {sorted(extra)}")
            raise UTSTypeError(f"record mismatch: {'; '.join(parts)}")
        return {f.name: conform(f.type, value[f.name]) for f in t.fields}

    raise UTSTypeError(f"unsupported UTS type {t!r}")


def _clamp_f32(v: float) -> float:
    """Map doubles outside float32 range to +/-inf, as a C cast would."""
    if v != v or v in (float("inf"), float("-inf")):
        return v
    # halfway between the largest float32 and 2**128: from here up a
    # round-to-nearest cast overflows (and ``struct.pack('>f')`` raises)
    limit = 3.4028235677973366e38
    if v >= limit:
        return float("inf")
    if v <= -limit:
        return float("-inf")
    return v


# ---------------------------------------------------------------------------
# compiled conformers
# ---------------------------------------------------------------------------
#
# ``conform`` re-dispatches on the type tree for every argument of every
# call.  A compiled conformer resolves that dispatch once per type: each
# closure takes a value already in canonical form (exact ``int``,
# ``float``, ``str``, ``bool``, ``list``/``tuple`` of the right length,
# ``dict`` with the right keys) straight through, and hands anything
# else — NumPy scalars and arrays, booleans offered as numbers, wrong
# lengths, wrong types — to ``conform`` itself, so every check and every
# error message is the reference's.  The conformance harness compares
# the two on generated and hostile values.


def _compile_conformer(t: UTSType) -> Callable[[Any], Any]:
    if isinstance(t, IntegerType):
        def conform_integer(value: Any) -> Any:
            if type(value) is int and INT64_MIN <= value <= INT64_MAX:
                return value
            return conform(t, value)

        return conform_integer

    if isinstance(t, DoubleType):
        def conform_double(value: Any) -> Any:
            cls = type(value)
            if cls is float:
                return value
            if cls is np.float64:  # what NumPy arithmetic hands back
                return float(value)
            return conform(t, value)

        return conform_double

    if isinstance(t, FloatType):
        pack, unpack = _F32.pack, _F32.unpack

        def conform_float(value: Any) -> Any:
            if type(value) is float:
                return unpack(pack(_clamp_f32(value)))[0]
            return conform(t, value)

        return conform_float

    if isinstance(t, ByteType):
        def conform_byte(value: Any) -> Any:
            if type(value) is int and 0 <= value <= 255:
                return value
            return conform(t, value)

        return conform_byte

    if isinstance(t, StringType):
        def conform_string(value: Any) -> Any:
            if type(value) is str:
                return value
            return conform(t, value)

        return conform_string

    if isinstance(t, BooleanType):
        def conform_boolean(value: Any) -> Any:
            if type(value) is bool:
                return value
            return conform(t, value)

        return conform_boolean

    if isinstance(t, ArrayType):
        n = t.length
        if isinstance(t.element, DoubleType):
            floats = frozenset((float, np.float64))

            def conform_double_array(value: Any) -> Any:
                # the common payload (a vector of doubles): one C-speed
                # scan of the element types instead of a call per element
                if (
                    type(value) in (list, tuple)
                    and len(value) == n
                    and floats.issuperset(map(type, value))
                ):
                    return list(map(float, value))
                return conform(t, value)

            return conform_double_array
        sub = _compile_conformer(t.element)

        def conform_array(value: Any) -> Any:
            if type(value) in (list, tuple) and len(value) == n:
                return [sub(v) for v in value]
            return conform(t, value)

        return conform_array

    if isinstance(t, RecordType):
        subs = tuple((f.name, _compile_conformer(f.type)) for f in t.fields)
        names = frozenset(f.name for f in t.fields)

        def conform_record(value: Any) -> Any:
            if type(value) is dict and value.keys() == names:
                return {name: fn(value[name]) for name, fn in subs}
            return conform(t, value)

        return conform_record

    raise UTSTypeError(f"unsupported UTS type {t!r}")


_CONFORMERS: Dict[UTSType, Callable[[Any], Any]] = {}


def conformer_for(t: UTSType) -> Callable[[Any], Any]:
    """The compiled conformer for ``t``: same result and same errors as
    ``conform(t, value)``, compiled and cached on first use."""
    fn = _CONFORMERS.get(t)
    if fn is None:
        fn = _CONFORMERS[t] = _compile_conformer(t)
    return fn


def _compile_args_conformer(
    sig: Signature, direction: str
) -> Callable[[Dict[str, Any]], Dict[str, Any]]:
    if direction == "send":
        params = sig.sent_params
    elif direction == "return":
        params = sig.returned_params
    else:  # pragma: no cover - programming error
        raise ValueError(f"bad direction {direction!r}")
    subs = tuple((p.name, conformer_for(p.type)) for p in params)
    expected = frozenset(p.name for p in params)

    def conform_sig_args(args: Dict[str, Any]) -> Dict[str, Any]:
        if args.keys() != expected:
            raise UTSTypeError(
                f"{sig.name}: {direction} arguments {sorted(set(args.keys()))} "
                f"do not match expected {sorted(expected)}"
            )
        return {name: fn(args[name]) for name, fn in subs}

    return conform_sig_args


def conform_args(sig: Signature, args: Dict[str, Any], direction: str) -> Dict[str, Any]:
    """Conform a call's argument dictionary against a signature.

    ``direction`` is ``"send"`` (val+var parameters, caller to callee) or
    ``"return"`` (res+var, callee to caller).  Exactly the parameters for
    that direction must be present.  The per-parameter work runs through
    a conformer compiled once per ``(signature, direction)`` and kept on
    the signature instance.
    """
    conformers = sig._arg_conformers
    conformer = conformers.get(direction)
    if conformer is None:
        conformer = conformers[direction] = _compile_args_conformer(sig, direction)
    return conformer(args)
