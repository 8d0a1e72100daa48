"""Differential conformance harness for the UTS codecs.

The paper's heterogeneity story (§4.1) lives in the native-format
conversion routines — Cray 15-bit exponents, VAX/Convex reserved
operands, signed zeros — and those bit-level routines are exactly where
reimplementation bugs hide.  This harness round-trips
hypothesis-generated UTS values (scalars, nested records, arrays,
strings; including ``-0.0``, subnormals, max/min magnitudes, and raw bit
patterns via :meth:`CrayFormat.raw` / :meth:`VAXFormat.raw`) through

* every native format of the machine park × both out-of-range policies,
* the wire codec (the reference: lossless and signed-zero preserving),
* the runtime's compiled codec (:mod:`repro.uts.compiled`) against the
  interpretive oracles in ``tests/uts/oracle.py``,

and cross-checks the outcomes against the documented semantics table in
``docs/CODECS.md``.  Key invariants:

* the wire format is bit-lossless for every conformed value;
* a native format either preserves the sign of zero or raises — it never
  silently drops a sign the wire preserves;
* whenever the ``ERROR`` policy succeeds, the ``INFINITY`` policy
  produces the bit-identical result (the policies may only diverge where
  ``ERROR`` raises);
* format thresholds are exact: VAX overflows at ``2**127`` and flushes
  below ``2**-128``; Cray round-trips raise (or clamp to ±inf) from
  ``(1 - 2**-49) * 2**1024`` upward;
* compiled codecs agree with the interpretive codecs byte-for-byte,
  value-for-value, and exception-for-exception;
* the compiled conformers behind ``conform_args`` return what
  ``conform`` returns and raise what it raises, message included, on
  canonical, NumPy-flavoured and plainly wrong values alike;
* a whole-message :class:`~repro.uts.compiled.SignatureCodec` writes the
  bytes ``marshal_args`` writes and reads what ``unmarshal_args`` reads;
  truncated, padded or arbitrary bytes end in a typed
  ``UTSConversionError`` on both, never a ``struct.error``;
* the stub compiler's generated call stubs
  (:func:`repro.schooner.stubgen.call_stubs`: ``request``, ``serve``,
  ``reply``, ``finish``) produce the bytes, values and errors — type and
  message — of the three passes they replace on the RPC path
  (``conform_args``, the native round trips, the ``SignatureCodec``),
  for every caller × callee native format and both policies.

Checks return a list of discrepancy strings (empty = conformant), so
pytest and the CLI smoke runner (``PYTHONPATH=src python -m
tests.uts.conformance`` from the repository root) share one
implementation.  It lives with the tests, not in the runtime package:
it needs ``hypothesis``, a test-only dependency.
"""

from __future__ import annotations

import argparse
import math
import struct
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Tuple

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.machines.arch import ALL_NATIVE_FORMATS
from repro.machines.process import ProcessState
from repro.schooner.runtime import _shape_results
from repro.schooner.stubgen import call_stubs
from repro.uts.compiled import (
    codec_for,
    native_is_identity,
    native_roundtrip_for,
    signature_codec,
)
from repro.uts.errors import UTSConversionError, UTSError, UTSRangeError, UTSTypeError
from repro.uts.native import (
    CrayFormat,
    IEEEFormat,
    NativeFormat,
    OutOfRangePolicy,
    VAXFormat,
)
from repro.uts.types import (
    BOOLEAN,
    BYTE,
    DOUBLE,
    FLOAT,
    INTEGER,
    STRING,
    ArrayType,
    ParamMode,
    Parameter,
    RecordField,
    RecordType,
    Signature,
    UTSType,
)
from repro.uts.values import conform, conform_args, conformer_for

from .oracle import (
    decode_value,
    encode_value,
    encoded_size,
    identical,
    marshal_args,
    roundtrip_native_interpreted,
    unmarshal_args,
)

__all__ = [
    "ConformanceFailure",
    "FORMATS",
    "POLICIES",
    "check_native_float",
    "check_wire_value",
    "check_compiled_equivalence",
    "check_conformer",
    "check_conform_args",
    "check_signature_codec",
    "check_call_stubs",
    "reference_request",
    "reference_serve",
    "reference_reply",
    "reference_finish",
    "check_cray_raw",
    "check_vax_raw",
    "conformance_doubles",
    "uts_types",
    "value_for",
    "offered_for",
    "typed_values",
    "offered_values",
    "signatures",
    "marshalable_calls",
    "offered_calls",
    "call_cases",
    "cray_raw_fields",
    "vax_raw_fields",
    "run",
]

ERROR = OutOfRangePolicy.ERROR
INFINITY = OutOfRangePolicy.INFINITY
POLICIES = (ERROR, INFINITY)
FORMATS: Tuple[NativeFormat, ...] = ALL_NATIVE_FORMATS

# Exact semantic thresholds (derivations in docs/CODECS.md):
# a double at/above this rounds up into the Cray's 48-bit mantissa to a
# value of 2**1024, outside IEEE binary64 — the §4.1 out-of-range case
CRAY_OVERFLOW = math.ldexp(1.0 - 2.0**-49, 1024)
# VAX biased exponent saturates at 255 (bias 128): magnitudes at/above
# 2**127 overflow, below 2**-128 flush to +0.0
VAX_OVERFLOW = 2.0**127
VAX_FLUSH = 2.0**-128
VAX_MAX = math.ldexp(1.0 - 2.0**-56, 127)  # largest D_floating magnitude
VAX_MAX_F = math.ldexp(1.0 - 2.0**-24, 127)  # largest F_floating magnitude

_D = struct.Struct(">d")


class ConformanceFailure(AssertionError):
    """One or more codec conformance invariants were violated."""


def _bits_equal(a: float, b: float) -> bool:
    return _D.pack(a) == _D.pack(b)


def _outcome(fn: Callable, *args: Any) -> Tuple[Any, ...]:
    """Run ``fn`` and normalize the result to a comparable outcome tuple."""
    try:
        return ("value", fn(*args))
    except UTSError as exc:
        return ("raise", type(exc))


def _roundtrip(fmt: NativeFormat, value: float, policy: OutOfRangePolicy,
               use32: bool) -> float:
    if use32:
        return fmt.unpack_float32(fmt.pack_float32(value, policy), policy)
    return fmt.unpack_float64(fmt.pack_float64(value, policy), policy)


# ---------------------------------------------------------------------------
# native scalar semantics
# ---------------------------------------------------------------------------


def check_native_float(fmt: NativeFormat, value: float, use32: bool = False) -> List[str]:
    """Check one conformed float against ``fmt``'s documented semantics
    under both policies.  ``use32`` selects the single-precision path, in
    which case ``value`` must already be conformed to 32 bits.
    """
    issues: List[str] = []
    width = "f32" if use32 else "f64"

    def bad(msg: str) -> None:
        issues.append(f"{fmt.name}/{width}: {msg} (value={value!r})")

    is_cray = isinstance(fmt, CrayFormat)
    is_vax = isinstance(fmt, VAXFormat)
    is_ieee = not (is_cray or is_vax)
    vax_max = VAX_MAX_F if use32 else VAX_MAX
    if is_cray:
        rel, overflow, flush = 2.0**-47, CRAY_OVERFLOW, 0.0
    elif is_vax:
        rel, overflow, flush = 0.0, VAX_OVERFLOW, VAX_FLUSH
    else:
        rel, overflow, flush = 0.0, math.inf, 0.0

    out_err = _outcome(_roundtrip, fmt, value, ERROR, use32)
    out_inf = _outcome(_roundtrip, fmt, value, INFINITY, use32)

    # NaN: IEEE stores it; Cray and VAX have no representation and raise
    # under both policies (not a range problem, so never UTSRangeError)
    if value != value:
        for tag, out in (("ERROR", out_err), ("INFINITY", out_inf)):
            if is_ieee:
                if out[0] != "value" or out[1] == out[1]:
                    bad(f"NaN not preserved under {tag}")
            elif out != ("raise", UTSConversionError):
                bad(f"NaN should raise UTSConversionError under {tag}, got {out}")
        return issues

    # Infinity: IEEE stores it; Cray/VAX raise under ERROR; under
    # INFINITY the Cray's max word round-trips to ±inf while the VAX (no
    # exponent beyond IEEE range) clamps to its largest finite magnitude
    if math.isinf(value):
        if is_ieee:
            for tag, out in (("ERROR", out_err), ("INFINITY", out_inf)):
                if out[0] != "value" or not _bits_equal(out[1], value):
                    bad(f"infinity not preserved under {tag}: {out}")
        else:
            if out_err != ("raise", UTSRangeError):
                bad(f"infinity should raise UTSRangeError under ERROR, got {out_err}")
            if out_inf[0] != "value":
                bad(f"infinity should convert under INFINITY, got {out_inf}")
            else:
                r = out_inf[1]
                if math.copysign(1.0, r) != math.copysign(1.0, value):
                    bad(f"infinity sign lost under INFINITY: {r!r}")
                elif is_cray and not math.isinf(r):
                    bad(f"Cray infinity should round-trip to inf, got {r!r}")
                elif is_vax and not (math.isfinite(r) and abs(r) == vax_max):
                    bad(f"VAX infinity should clamp to ±{vax_max!r}, got {r!r}")
        return issues

    # Signed zero: the wire preserves it, so a native format must either
    # preserve it too (IEEE, Cray) or raise (VAX, where the -0.0 bit
    # pattern is the reserved operand); it may never silently drop the sign
    if value == 0.0:
        negative = math.copysign(1.0, value) < 0
        if negative and is_vax:
            if out_err != ("raise", UTSConversionError):
                bad(f"-0.0 should raise UTSConversionError under ERROR, got {out_err}")
            if out_inf != ("value", 0.0) or (
                out_inf[0] == "value" and math.copysign(1.0, out_inf[1]) < 0
            ):
                bad(f"-0.0 should flush to +0.0 under INFINITY, got {out_inf}")
        else:
            for tag, out in (("ERROR", out_err), ("INFINITY", out_inf)):
                if out[0] != "value" or not _bits_equal(out[1], value):
                    bad(f"signed zero not preserved under {tag}: {out}")
        return issues

    a = abs(value)

    # Overflow: at/above the exact threshold ERROR raises UTSRangeError;
    # INFINITY converts (Cray → ±inf, VAX → ±max clamp)
    if a >= overflow:
        if out_err != ("raise", UTSRangeError):
            bad(f"|v| >= {overflow!r} should raise UTSRangeError under ERROR, got {out_err}")
        if out_inf[0] != "value":
            bad(f"|v| >= {overflow!r} should convert under INFINITY, got {out_inf}")
        else:
            r = out_inf[1]
            if math.copysign(1.0, r) != math.copysign(1.0, value):
                bad(f"overflow sign lost under INFINITY: {r!r}")
            elif is_cray and not math.isinf(r):
                bad(f"Cray overflow should become inf under INFINITY, got {r!r}")
            elif is_vax and abs(r) != vax_max:
                bad(f"VAX overflow should clamp to ±{vax_max!r}, got {r!r}")
        return issues

    # Underflow: below the exact threshold the VAX flushes to +0.0 (the
    # sign cannot be kept: -0.0 is the reserved operand); same bits under
    # both policies
    if a < flush:
        for tag, out in (("ERROR", out_err), ("INFINITY", out_inf)):
            if out[0] != "value" or not _bits_equal(out[1], 0.0):
                bad(f"|v| < {flush!r} should flush to +0.0 under {tag}, got {out}")
        return issues

    # Ordinary in-range value: both policies succeed with identical bits,
    # the sign survives, and the error is within the format's precision
    for tag, out in (("ERROR", out_err), ("INFINITY", out_inf)):
        if out[0] != "value":
            bad(f"in-range value should convert under {tag}, got {out}")
            return issues
    r_err, r_inf = out_err[1], out_inf[1]
    if not _bits_equal(r_err, r_inf):
        bad(f"policies disagree on in-range value: {r_err!r} vs {r_inf!r}")
    if math.copysign(1.0, r_err) != math.copysign(1.0, value):
        bad(f"sign lost: {r_err!r}")
    if rel == 0.0:
        if r_err != value:
            bad(f"should be exact, got {r_err!r}")
    elif abs(r_err - value) > rel * a:
        bad(f"precision worse than {rel!r}: {r_err!r}")
    return issues


# ---------------------------------------------------------------------------
# wire codec and compiled-path equivalence
# ---------------------------------------------------------------------------


def check_wire_value(t: UTSType, value: Any) -> List[str]:
    """The wire codec must be a bit-lossless round trip with a size that
    matches :func:`encoded_size`; ``value`` must be conformed."""
    issues: List[str] = []
    data = encode_value(t, value)
    if encoded_size(t, value) != len(data):
        issues.append(f"wire: encoded_size != len(encoding) for {t.describe()}")
    decoded, offset = decode_value(t, data)
    if offset != len(data):
        issues.append(f"wire: decode consumed {offset}/{len(data)} bytes")
    if not identical(t, decoded, value):
        issues.append(
            f"wire: round trip not bit-lossless for {t.describe()}: "
            f"{value!r} -> {decoded!r}"
        )
    return issues


def check_compiled_equivalence(t: UTSType, value: Any) -> List[str]:
    """Compiled codecs must agree with the interpretive reference:
    identical bytes, identical decoded values, identical native
    round-trip outcomes (including exception types) for every format and
    policy; ``value`` must be conformed."""
    issues: List[str] = []
    codec = codec_for(t)
    data_interp = encode_value(t, value)
    data_compiled = codec.encode(value)
    if data_interp != data_compiled:
        issues.append(
            f"compiled encoder bytes differ for {t.describe()} "
            f"(plan {codec.plan}): {data_interp.hex()} vs {data_compiled.hex()}"
        )
    decoded_i, off_i = decode_value(t, data_interp)
    decoded_c, off_c = codec.decode(data_interp)
    if off_i != off_c or not identical(t, decoded_i, decoded_c):
        issues.append(f"compiled decoder differs for {t.describe()}")

    for fmt in FORMATS:
        for policy in POLICIES:
            out_i = _outcome(roundtrip_native_interpreted, fmt, t, value, policy)
            out_c = _outcome(native_roundtrip_for(fmt, t, policy), value)
            if out_i[0] != out_c[0]:
                issues.append(
                    f"native plan vs interpreter disagree on {fmt.name}/"
                    f"{policy.value} for {t.describe()}: {out_i} vs {out_c}"
                )
            elif out_i[0] == "raise":
                if out_i[1] is not out_c[1]:
                    issues.append(
                        f"native plan raises {out_c[1].__name__}, interpreter "
                        f"{out_i[1].__name__} on {fmt.name}/{policy.value}"
                    )
            elif not identical(t, out_i[1], out_c[1]):
                issues.append(
                    f"native plan value differs from interpreter on "
                    f"{fmt.name}/{policy.value} for {t.describe()}"
                )
        # policy consistency on structures: if ERROR succeeds, INFINITY
        # must produce the identical value
        out_err = _outcome(native_roundtrip_for(fmt, t, ERROR), value)
        if out_err[0] == "value":
            out_inf = _outcome(native_roundtrip_for(fmt, t, INFINITY), value)
            if out_inf[0] != "value" or not identical(t, out_err[1], out_inf[1]):
                issues.append(
                    f"policies diverge where ERROR succeeds on {fmt.name} "
                    f"for {t.describe()}"
                )
    return issues


# ---------------------------------------------------------------------------
# compiled conformers and whole-message signature codecs
# ---------------------------------------------------------------------------


def _outcome_with_text(fn: Callable, *args: Any) -> Tuple[Any, ...]:
    """:func:`_outcome` plus the exception's message."""
    try:
        return ("value", fn(*args))
    except UTSError as exc:
        return ("raise", type(exc), str(exc))


def _same_canonical(a: Any, b: Any) -> bool:
    """Equal down to the Python type of every leaf (a NumPy scalar that
    compares equal to a float is still a leak) and the bits of every
    float; dicts must agree on key order too."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return _bits_equal(a, b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_canonical, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same_canonical(a[k], b[k]) for k in a)
    return a == b


def _same_outcome(ref: Tuple[Any, ...], got: Tuple[Any, ...]) -> bool:
    """Same canonical value, or the same exception — its type, and its
    message where the outcomes carry one (conformance errors are what a
    user reads, so the compiled path may not reword them)."""
    if ref[0] != got[0]:
        return False
    if ref[0] == "raise":
        return ref[1:] == got[1:]
    return _same_canonical(ref[1], got[1])


def check_conformer(t: UTSType, value: Any) -> List[str]:
    """The compiled conformer for ``t`` against ``conform(t, value)``:
    the same canonical value, or the same exception type and message.
    ``value`` is anything a caller might offer, conformable or not."""
    ref = _outcome_with_text(conform, t, value)
    got = _outcome_with_text(conformer_for(t), value)
    if not _same_outcome(ref, got):
        return [
            f"compiled conformer differs from conform() for {t.describe()} "
            f"on {value!r}: {ref} vs {got}"
        ]
    return []


def _conform_args_reference(
    sig: Signature, args: Dict[str, Any], direction: str
) -> Dict[str, Any]:
    """``conform_args`` as the interpretive path spells it: the name
    check, then ``conform`` per parameter in signature order."""
    params = sig.sent_params if direction == "send" else sig.returned_params
    expected = {p.name for p in params}
    actual = set(args.keys())
    if expected != actual:
        raise UTSTypeError(
            f"{sig.name}: {direction} arguments {sorted(actual)} "
            f"do not match expected {sorted(expected)}"
        )
    return {p.name: conform(p.type, args[p.name]) for p in params}


def check_conform_args(sig: Signature, direction: str, args: Dict[str, Any]) -> List[str]:
    """``conform_args`` (compiled, per ``(signature, direction)``)
    against the interpretive spelling, for argument dictionaries that
    may miss names, carry extra ones, or hold unconformable values."""
    ref = _outcome_with_text(_conform_args_reference, sig, args, direction)
    got = _outcome_with_text(conform_args, sig, args, direction)
    if not _same_outcome(ref, got):
        return [
            f"conform_args differs from the reference for {sig.name} "
            f"({direction}) on {args!r}: {ref} vs {got}"
        ]
    return []


def _damaged(data: bytes) -> List[bytes]:
    """``data`` cut short at a few offsets and padded at the end."""
    cuts = {0, 1, len(data) // 2, len(data) - 1}
    return [data[:n] for n in sorted(cuts) if 0 <= n < len(data)] + [
        data + b"\x00",
        data + data,
    ]


def check_signature_codec(
    sig: Signature, direction: str, args: Dict[str, Any], noise: bytes = b""
) -> List[str]:
    """A :class:`~repro.uts.compiled.SignatureCodec` against
    ``marshal_args``/``unmarshal_args``: identical bytes for conformable
    ``args``, identical decoded arguments, and on damaged input
    (truncated, trailing bytes, ``noise``) the same kind of outcome —
    which for an error is a ``UTSConversionError`` on both sides.  A
    ``struct.error`` escaping either side propagates and fails the
    sweep."""
    issues: List[str] = []
    codec = signature_codec(sig, direction)
    ref_bytes = marshal_args(sig, args, direction)
    buf = bytearray(b"pre")
    appended = codec.encode_conformed_into(conform_args(sig, args, direction), buf)
    got_bytes = bytes(buf[3:])
    if ref_bytes != got_bytes:
        issues.append(
            f"signature codec bytes differ for {sig.name} ({direction}): "
            f"{ref_bytes.hex()} vs {got_bytes.hex()}"
        )
    if appended != len(got_bytes):
        issues.append(
            f"encode_conformed_into appended {len(got_bytes)} bytes but "
            f"reported {appended}, for {sig.name} ({direction})"
        )
    for data in [ref_bytes] + _damaged(ref_bytes) + [noise]:
        for view in (data, memoryview(data)):
            ref = _outcome(unmarshal_args, sig, view, direction)
            got = _outcome(codec.unmarshal, view)
            if ref[0] == "raise" and ref[1] is not UTSConversionError:
                issues.append(f"unmarshal_args raised {ref[1].__name__}")
            if not _same_outcome(ref, got):
                issues.append(
                    f"signature codec unmarshal differs for {sig.name} "
                    f"({direction}) on {bytes(data).hex()}: {ref} vs {got}"
                )
    return issues


# ---------------------------------------------------------------------------
# generated call stubs against the three passes they replace
# ---------------------------------------------------------------------------


def _stored(sig: Signature, direction: str, values: Dict[str, Any],
            fmt: NativeFormat, policy: OutOfRangePolicy) -> Dict[str, Any]:
    """The native pass: every parameter whose round trip on ``fmt`` is
    not the identity is rewritten in place, in signature order."""
    for p in _direction_params(sig, direction):
        if not native_is_identity(fmt, p.type, policy):
            values[p.name] = native_roundtrip_for(fmt, p.type, policy)(values[p.name])
    return values


def reference_request(sig: Signature, fmt: NativeFormat, policy: OutOfRangePolicy,
                      args: Dict[str, Any]) -> bytes:
    """The caller's three passes: conform, native storage, encode."""
    sent = _stored(sig, "send", conform_args(sig, args, "send"), fmt, policy)
    buf = bytearray()
    signature_codec(sig, "send").encode_conformed_into(sent, buf)
    return bytes(buf)


def reference_serve(sig: Signature, fmt: NativeFormat, policy: OutOfRangePolicy,
                    body: Any) -> Dict[str, Any]:
    """The callee's two passes on a request: decode, native storage."""
    return _stored(sig, "send", signature_codec(sig, "send").unmarshal(body), fmt, policy)


def reference_reply(sig: Signature, fmt: NativeFormat, policy: OutOfRangePolicy,
                    raw: Any, recv: Dict[str, Any]) -> bytes:
    """The callee's passes on a result: shape, conform, native storage,
    encode."""
    results = conform_args(sig, _shape_results(sig, raw, recv), "return")
    buf = bytearray()
    signature_codec(sig, "return").encode_conformed_into(
        _stored(sig, "return", results, fmt, policy), buf
    )
    return bytes(buf)


def reference_finish(sig: Signature, fmt: NativeFormat, policy: OutOfRangePolicy,
                     body: Any) -> Dict[str, Any]:
    """The caller's two passes on a reply: decode, native storage."""
    return _stored(sig, "return", signature_codec(sig, "return").unmarshal(body), fmt, policy)


class _Record:
    """What a generated ``serve`` reads of an instance record: a live
    host and process, the implementation, the state storage (kept in
    the process's memory under the executable's path)."""

    machine = SimpleNamespace(up=True)
    path = "/bin/exe"

    def __init__(self, impl: Callable[..., Any]) -> None:
        self.procedure = SimpleNamespace(impl=impl)
        self.state: Dict[str, Any] = {}
        self.process = SimpleNamespace(
            state=ProcessState.RUNNING, memory={self.path: self.state}
        )

    def state_storage(self) -> Dict[str, Any]:
        return self.state


def _any_outcome(fn: Callable, *args: Any) -> Tuple[Any, ...]:
    """:func:`_outcome_with_text` for every exception type: a generated
    stub may raise the RPC layer's errors (``CallFailed``) too."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return ("raise", type(exc), str(exc))


def _as_bytes(outcome: Tuple[Any, ...]) -> Tuple[Any, ...]:
    if outcome[0] == "value":
        return ("value", bytes(outcome[1]))
    return outcome


def check_call_stubs(
    sig: Signature,
    caller: NativeFormat,
    callee: NativeFormat,
    policy: OutOfRangePolicy,
    args: Dict[str, Any],
    raw: Any,
    noise: bytes = b"",
    wants_state: bool = False,
    wants_timeline: bool = False,
) -> List[str]:
    """One call, from the ``caller``'s native format to the
    ``callee``'s, through the generated stubs and through the reference
    passes: offered ``args`` for the request, the implementation's
    ``raw`` result for the reply, and the delivered bodies plus damaged
    copies of them (and ``noise``) for ``serve`` and ``finish``.  The
    request and reply bytes, the arguments the implementation receives
    (key order and every float's bits included), the decoded results
    and every exception's type and message must agree."""
    issues: List[str] = []
    stubs = call_stubs(sig, caller, callee, policy, wants_state, wants_timeline)
    where = f"{sig.name} {caller.name}->{callee.name} {policy.value}"

    def differs(step: str, ref: Tuple[Any, ...], got: Tuple[Any, ...], on: Any) -> None:
        if ref[0] != got[0] or (ref[0] == "raise" and ref[1:] != got[1:]) or (
            ref[0] == "value" and not _same_canonical(ref[1], got[1])
        ):
            issues.append(f"{step} differs for {where} on {on!r}: {ref} vs {got}")

    ref = _any_outcome(reference_request, sig, caller, policy, args)
    got = _as_bytes(_any_outcome(stubs.request, args))
    differs("request", ref, got, args)
    body = ref[1] if ref[0] == "value" else b""
    if stubs.request_bytes is not None and ref[0] == "value" and stubs.request_bytes != len(body):
        issues.append(f"request_bytes {stubs.request_bytes} != {len(body)} for {where}")

    recv: Dict[str, Any] = {}
    for data in [body] + _damaged(body) + [noise]:
        seen: List[Dict[str, Any]] = []
        record = _Record(lambda **kw: (seen.append(kw), raw)[1])
        ref = _any_outcome(reference_serve, sig, callee, policy, data)
        got = _any_outcome(stubs.serve, memoryview(data), record, "the timeline")
        if got[0] == "value":
            (got_raw, got_recv), kwargs = got[1], seen[0]
            extras = {}
            if wants_state:
                extras["_state"] = record.state
            if wants_timeline:
                extras["_timeline"] = "the timeline"
            # what the three-pass runtime called: a copy of the received
            # arguments with the extras written over it
            expected = {**got_recv, **extras}
            if got_raw is not raw or kwargs != expected or list(kwargs) != list(expected):
                issues.append(f"serve handed the implementation {kwargs!r} for {where}")
            got = ("value", got_recv)
        differs("serve", ref, got, bytes(data))
        if data is body and ref[0] == "value":
            recv = ref[1]

    ref = _any_outcome(reference_reply, sig, callee, policy, raw, recv)
    got = _as_bytes(_any_outcome(stubs.reply, raw, recv))
    differs("reply", ref, got, raw)
    reply = ref[1] if ref[0] == "value" else b""
    if stubs.reply_bytes is not None and ref[0] == "value" and stubs.reply_bytes != len(reply):
        issues.append(f"reply_bytes {stubs.reply_bytes} != {len(reply)} for {where}")
    for data in [reply] + _damaged(reply) + [noise]:
        ref = _any_outcome(reference_finish, sig, caller, policy, data)
        got = _any_outcome(stubs.finish, memoryview(data))
        differs("finish", ref, got, bytes(data))
    return issues


# ---------------------------------------------------------------------------
# raw bit patterns (values a Python float cannot express)
# ---------------------------------------------------------------------------


def check_cray_raw(sign: int, exponent: int, mantissa: int) -> List[str]:
    """Unpack a raw Cray word and compare against exact rational
    arithmetic: the §4.1 case where a Cray magnitude exceeds IEEE."""
    issues: List[str] = []
    cray = next(f for f in FORMATS if isinstance(f, CrayFormat))
    data = CrayFormat.raw(sign, exponent, mantissa)
    out_err = _outcome(cray.unpack_float64, data, ERROR)
    out_inf = _outcome(cray.unpack_float64, data, INFINITY)

    def bad(msg: str) -> None:
        issues.append(
            f"cray raw(sign={sign}, exp={exponent}, mant={mantissa:#x}): {msg}"
        )

    if mantissa == 0:
        expected = -0.0 if sign else 0.0
        for tag, out in (("ERROR", out_err), ("INFINITY", out_inf)):
            if out[0] != "value" or not _bits_equal(out[1], expected):
                bad(f"zero mantissa should unpack to {expected!r} under {tag}, got {out}")
        return issues

    exact = Fraction(mantissa, 1 << 48) * Fraction(2) ** exponent
    if sign:
        exact = -exact
    try:
        expected = float(exact)
    except OverflowError:
        if out_err != ("raise", UTSRangeError):
            bad(f"beyond IEEE range: ERROR should raise UTSRangeError, got {out_err}")
        want = -math.inf if sign else math.inf
        if out_inf != ("value", want):
            bad(f"beyond IEEE range: INFINITY should give {want!r}, got {out_inf}")
        return issues
    for tag, out in (("ERROR", out_err), ("INFINITY", out_inf)):
        if out[0] != "value" or not _bits_equal(out[1], expected):
            bad(f"should unpack to {expected!r} under {tag}, got {out}")
    return issues


def check_vax_raw(sign: int, biased_exponent: int, fraction: int,
                  frac_bits: int = 55) -> List[str]:
    """Unpack a raw VAX pattern: reserved operands must fault under the
    strict policy, dirty zeros read as zero, and everything else must
    match exact rational arithmetic."""
    issues: List[str] = []
    vax = next(f for f in FORMATS if isinstance(f, VAXFormat))
    data = VAXFormat.raw(sign, biased_exponent, fraction, frac_bits)
    unpack = vax.unpack_float64 if frac_bits == 55 else vax.unpack_float32
    out_err = _outcome(unpack, data, ERROR)
    out_inf = _outcome(unpack, data, INFINITY)

    def bad(msg: str) -> None:
        issues.append(
            f"vax raw(sign={sign}, exp={biased_exponent}, "
            f"frac={fraction:#x}, bits={frac_bits}): {msg}"
        )

    if biased_exponent == 0:
        if sign:
            # the reserved operand: faulted on real VAX/Convex hardware
            if out_err != ("raise", UTSConversionError):
                bad(f"reserved operand should raise under ERROR, got {out_err}")
            if out_inf != ("value", 0.0):
                bad(f"reserved operand should read 0.0 under INFINITY, got {out_inf}")
        else:
            for tag, out in (("ERROR", out_err), ("INFINITY", out_inf)):
                if out != ("value", 0.0):
                    bad(f"dirty zero should read 0.0 under {tag}, got {out}")
        return issues

    mant = fraction | (1 << frac_bits)
    exact = Fraction(mant, 1 << (frac_bits + 1)) * Fraction(2) ** (biased_exponent - 128)
    if sign:
        exact = -exact
    expected = float(exact)  # always inside IEEE binary64 range
    for tag, out in (("ERROR", out_err), ("INFINITY", out_inf)):
        if out[0] != "value" or not _bits_equal(out[1], expected):
            bad(f"should unpack to {expected!r} under {tag}, got {out}")
    return issues


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

_SPECIAL_DOUBLES = (
    0.0, -0.0, 1.0, -1.0, math.pi, -math.pi,
    5e-324, -5e-324,                      # smallest IEEE subnormals
    sys.float_info.min, -sys.float_info.min,
    sys.float_info.max, -sys.float_info.max,
    CRAY_OVERFLOW, -CRAY_OVERFLOW,
    VAX_OVERFLOW, -VAX_OVERFLOW, VAX_MAX, -VAX_MAX,
    VAX_FLUSH, -VAX_FLUSH, 2.0**-129, -2.0**-129,
    1.7e38, -1.7e38, 1e300, -1e300, 1e-40, -1e-40,
    math.inf, -math.inf, float("nan"),
)


def conformance_doubles() -> st.SearchStrategy[float]:
    """Doubles biased toward the semantic boundaries: signed zeros,
    subnormals, the VAX overflow/flush thresholds, the Cray cliff,
    infinities, and NaN."""
    return st.one_of(
        st.sampled_from(_SPECIAL_DOUBLES),
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(min_value=1e37, max_value=3e38),     # VAX overflow band
        st.floats(min_value=-3e38, max_value=-1e37),
        st.floats(min_value=1e-42, max_value=1e-36),   # VAX flush band
        st.floats(min_value=1.7e308, max_value=sys.float_info.max),  # Cray cliff
    )


_ident = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
_simple_types = st.sampled_from([INTEGER, FLOAT, DOUBLE, BYTE, STRING, BOOLEAN])


def _record_from_fields(fields):
    return RecordType(tuple(RecordField(n, t) for n, t in fields))


def uts_types() -> st.SearchStrategy[UTSType]:
    """Arbitrary UTS types: scalars, nested arrays and records."""
    return st.recursive(
        _simple_types,
        lambda children: st.one_of(
            st.builds(ArrayType, st.integers(min_value=0, max_value=5), children),
            st.lists(
                st.tuples(_ident, children),
                min_size=1,
                max_size=4,
                unique_by=lambda f: f[0],
            ).map(_record_from_fields),
        ),
        max_leaves=8,
    )


def value_for(t: UTSType) -> st.SearchStrategy[Any]:
    """Conformable values of type ``t``, biased toward codec edge cases."""
    if t == INTEGER:
        return st.integers(min_value=-(2**63), max_value=2**63 - 1)
    if t == FLOAT:
        return st.one_of(
            st.sampled_from((0.0, -0.0, 1.5, -1.5, 3.4e38, -3.4e38, 1e-44)),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
        )
    if t == DOUBLE:
        return st.one_of(
            st.sampled_from(tuple(v for v in _SPECIAL_DOUBLES if v == v)),
            st.floats(allow_nan=False, allow_infinity=True),
        )
    if t == BYTE:
        return st.integers(min_value=0, max_value=255)
    if t == STRING:
        return st.text(max_size=20)
    if t == BOOLEAN:
        return st.booleans()
    if isinstance(t, ArrayType):
        return st.lists(value_for(t.element), min_size=t.length, max_size=t.length)
    if isinstance(t, RecordType):
        return st.fixed_dictionaries({f.name: value_for(f.type) for f in t.fields})
    raise AssertionError(t)  # pragma: no cover


def typed_values() -> st.SearchStrategy[Tuple[UTSType, Any]]:
    return uts_types().flatmap(lambda t: st.tuples(st.just(t), value_for(t)))


#: things no UTS type accepts everywhere: each scalar type rejects most
#: of them, and which ones it lets through (``True`` for an integer?
#: ``b"a"`` for a byte?) is exactly what the differential pins
_OFFERED_JUNK = (
    None, True, False, 0, 1, -1, 255, 256, 2**63, -(2**63) - 1, 1.5, math.inf,
    "x", b"a", b"ab", bytearray(b"z"), [], (), {}, [1.0], (1.0, 2.0),
    np.float32(1.5), np.float64(-0.0), np.int64(7), np.uint8(200),
    np.bool_(True), np.zeros((2, 2)), np.arange(3), np.array([1.5, 2.5]),
)


def _numpy_flavoured(value: Any) -> Any:
    """The same value as NumPy would hand it over."""
    if isinstance(value, bool):
        return np.bool_(value)
    if isinstance(value, int):
        return np.int64(value) if -(2**63) <= value < 2**63 else value
    if isinstance(value, float):
        return np.float64(value)
    if isinstance(value, list) and value and all(type(v) is float for v in value):
        return np.array(value)
    return value


def offered_for(t: UTSType) -> st.SearchStrategy[Any]:
    """Values a caller might *offer* for ``t``: canonical ones, the same
    as NumPy scalars and arrays, tuples for lists, arrays of the wrong
    length, records with missing or extra fields, and outright junk."""
    junk = st.sampled_from(_OFFERED_JUNK)
    good = value_for(t)
    if isinstance(t, ArrayType):
        items = offered_for(t.element)
        return st.one_of(
            good,
            good.map(_numpy_flavoured),
            good.map(tuple),
            st.lists(items, min_size=t.length, max_size=t.length),
            st.lists(items, max_size=t.length + 2),
            junk,
        )
    if isinstance(t, RecordType):
        fields = {f.name: offered_for(f.type) for f in t.fields}
        return st.one_of(
            good,
            st.fixed_dictionaries(fields),
            st.fixed_dictionaries({}, optional=fields),
            st.fixed_dictionaries(fields, optional={"extra_field": junk}),
            junk,
        )
    return st.one_of(good, good.map(_numpy_flavoured), junk)


def offered_values() -> st.SearchStrategy[Tuple[UTSType, Any]]:
    return uts_types().flatmap(lambda t: st.tuples(st.just(t), offered_for(t)))


def signatures() -> st.SearchStrategy[Signature]:
    """Procedure signatures over arbitrary parameter types and modes."""
    param = st.tuples(_ident, st.sampled_from(list(ParamMode)), uts_types())
    return st.lists(param, max_size=5, unique_by=lambda p: p[0]).map(
        lambda ps: Signature("proc", tuple(Parameter(n, m, t) for n, m, t in ps))
    )


def _direction_params(sig: Signature, direction: str) -> Tuple[Parameter, ...]:
    return sig.sent_params if direction == "send" else sig.returned_params


def marshalable_calls() -> st.SearchStrategy[Tuple[Signature, str, Dict[str, Any], bytes]]:
    """``(signature, direction, conformable arguments, noise bytes)``."""
    return st.tuples(signatures(), st.sampled_from(("send", "return"))).flatmap(
        lambda sd: st.tuples(
            st.just(sd[0]),
            st.just(sd[1]),
            st.fixed_dictionaries(
                {p.name: value_for(p.type) for p in _direction_params(*sd)}
            ),
            st.binary(max_size=48),
        )
    )


def offered_calls() -> st.SearchStrategy[Tuple[Signature, str, Dict[str, Any]]]:
    """``(signature, direction, offered arguments)``: names may be
    missing or extra, values may not conform."""
    return st.tuples(signatures(), st.sampled_from(("send", "return"))).flatmap(
        lambda sd: st.tuples(
            st.just(sd[0]),
            st.just(sd[1]),
            st.fixed_dictionaries(
                {},
                optional={
                    **{p.name: offered_for(p.type) for p in _direction_params(*sd)},
                    "extra_arg": st.sampled_from(_OFFERED_JUNK),
                },
            )
            | st.fixed_dictionaries(
                {p.name: offered_for(p.type) for p in _direction_params(*sd)}
            ),
        )
    )


def _offered_results(sig: Signature) -> st.SearchStrategy[Any]:
    """What an implementation might hand back for ``sig``'s results: a
    tuple in signature order (of any length), a dict (names missing or
    extra), a bare value, ``None`` or junk."""
    returned = sig.returned_params
    values = [offered_for(p.type) for p in returned]
    options = [
        st.tuples(*(_call_value(p.type) for p in returned)),
        st.tuples(*values),
        st.fixed_dictionaries({}, optional={
            **{p.name: v for p, v in zip(returned, values)},
            "extra_result": st.sampled_from(_OFFERED_JUNK),
        }),
        st.sampled_from(_OFFERED_JUNK),
        st.just(None),
    ]
    if returned:
        options.append(st.tuples(*values[:-1]))
        options.append(values[0])
    return st.one_of(options)


def _call_value(t: UTSType) -> st.SearchStrategy[Any]:
    """:func:`value_for`, plus — for a double — arbitrary bit patterns:
    the low mantissa bits a Cray word drops are set in nearly all of
    them, where the hand-picked edge cases are mostly exact."""
    if t == DOUBLE:
        bits = st.integers(min_value=0, max_value=2**64 - 1)
        return value_for(t) | bits.map(lambda b: _D.unpack(b.to_bytes(8, "big"))[0])
    return value_for(t)


def _call_signatures() -> st.SearchStrategy[Signature]:
    """:func:`signatures`, weighted toward the scalars whose native
    storage differs between machines (doubles, floats, integers)."""
    types = st.one_of(st.sampled_from([DOUBLE, FLOAT, INTEGER]), uts_types())
    param = st.tuples(_ident, st.sampled_from(list(ParamMode)), types)
    return st.lists(param, min_size=1, max_size=5, unique_by=lambda p: p[0]).map(
        lambda ps: Signature("proc", tuple(Parameter(n, m, t) for n, m, t in ps))
    )


def call_cases() -> st.SearchStrategy[Tuple[Any, ...]]:
    """``(signature, caller format, callee format, policy, offered
    arguments, offered results, noise bytes)``."""
    return st.tuples(
        _call_signatures(), st.sampled_from(FORMATS), st.sampled_from(FORMATS),
        st.sampled_from(POLICIES),
    ).flatmap(
        lambda c: st.tuples(
            *map(st.just, c),
            st.fixed_dictionaries({p.name: _call_value(p.type) for p in c[0].sent_params})
            | st.fixed_dictionaries(
                {p.name: offered_for(p.type) for p in c[0].sent_params},
                optional={"extra_arg": st.sampled_from(_OFFERED_JUNK)},
            ) | st.fixed_dictionaries(
                {}, optional={p.name: offered_for(p.type) for p in c[0].sent_params},
            ),
            _offered_results(c[0]),
            st.binary(max_size=48),
        )
    )


def cray_raw_fields() -> st.SearchStrategy[Tuple[int, int, int]]:
    return st.tuples(
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=-16384, max_value=16383),
        st.integers(min_value=0, max_value=(1 << 48) - 1),
    )


def vax_raw_fields() -> st.SearchStrategy[Tuple[int, int, int, int]]:
    return st.tuples(
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=(1 << 55) - 1),
        st.sampled_from((55, 23)),
    ).map(lambda f: (f[0], f[1], f[2] & ((1 << f[3]) - 1), f[3]))


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def _assert_clean(issues: List[str]) -> None:
    if issues:
        raise ConformanceFailure("\n".join(issues))


def run(max_examples: int = 200, verbose: bool = False) -> dict:
    """Run the full differential sweep; raises :class:`ConformanceFailure`
    on the first violated invariant.  Returns a summary dict.

    ``max_examples`` bounds each hypothesis check, so the CI smoke job
    can run a short-budget pass while local runs go deeper.
    """
    config = settings(
        max_examples=max_examples,
        deadline=None,
        database=None,
        suppress_health_check=list(HealthCheck),
    )

    @config
    @given(conformance_doubles())
    def scalar_doubles(v):
        issues = check_wire_value(DOUBLE, v)
        v32 = conform(FLOAT, v) if v == v else v
        for fmt in FORMATS:
            issues += check_native_float(fmt, v, use32=False)
            issues += check_native_float(fmt, v32, use32=True)
        _assert_clean(issues)

    @config
    @given(typed_values())
    def structured_values(tv):
        t, v = tv
        v = conform(t, v)
        _assert_clean(check_wire_value(t, v) + check_compiled_equivalence(t, v))

    @config
    @given(cray_raw_fields())
    def cray_raw(fields):
        _assert_clean(check_cray_raw(*fields))

    @config
    @given(vax_raw_fields())
    def vax_raw(fields):
        _assert_clean(check_vax_raw(*fields))

    @config
    @given(offered_values())
    def conformers(tv):
        _assert_clean(check_conformer(*tv))

    @config
    @given(offered_calls())
    def argument_conformers(call):
        _assert_clean(check_conform_args(*call))

    @config
    @given(marshalable_calls())
    def signature_codecs(call):
        _assert_clean(check_signature_codec(*call))

    @config
    @given(call_cases())
    def generated_call_stubs(case):
        _assert_clean(check_call_stubs(*case))

    checks = [
        scalar_doubles, structured_values, cray_raw, vax_raw,
        conformers, argument_conformers, signature_codecs, generated_call_stubs,
    ]
    for chk in checks:
        chk()
        if verbose:
            print(f"  {chk.__name__}: OK ({max_examples} examples)")
    return {
        "checks": [c.__name__ for c in checks],
        "max_examples": max_examples,
        "formats": [f.name for f in FORMATS],
        "policies": [p.value for p in POLICIES],
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description="UTS codec differential conformance sweep"
    )
    parser.add_argument(
        "--max-examples",
        type=int,
        default=200,
        help="hypothesis examples per check (default 200)",
    )
    args = parser.parse_args(argv)
    if args.max_examples < 1:
        parser.error(f"--max-examples must be at least 1, got {args.max_examples}")
    print(
        f"conformance sweep: {len(FORMATS)} native formats x "
        f"{len(POLICIES)} policies, {args.max_examples} examples/check"
    )
    try:
        summary = run(max_examples=args.max_examples, verbose=True)
    except ConformanceFailure as exc:
        print(f"FAIL:\n{exc}")
        return 1
    print(f"OK: {', '.join(summary['checks'])}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
