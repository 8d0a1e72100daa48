"""The Schooner stub compiler.

"A stub compiler is provided for each supported language to read the
specification files and produce a stub for each imported and exported
procedure." (paper, section 3.1)

:func:`call_stubs` is the one stub compiler: for each call — an import
signature bound to its export across a caller and a callee machine — it
compiles the marshaling (conform, native storage and wire codec on both
machines) into four straight-line functions, ``request``, ``serve``,
``reply`` and ``finish``, that every
:class:`~repro.schooner.runtime.CallPlan` binds and ``execute_call``
walks (docs/PERFORMANCE.md, "Fourth pass: the compiled call").  The
client stub a module imports (:class:`~repro.schooner.stubs.ClientStub`)
and the server side of every export run this generated code; there is
no second, per-module compiler.
"""

from __future__ import annotations

import keyword
import math
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple
from ..machines.process import ProcessState
from ..uts.compiled import (
    codec_for,
    flat_message_layout,
    native_is_identity,
    native_roundtrip_for,
    signature_codec,
)
from ..uts.errors import UTSConversionError
from ..uts.native import _CRAY_MANT_BITS, CrayFormat, NativeFormat, OutOfRangePolicy
from ..uts.types import (
    ArrayType,
    BooleanType,
    ByteType,
    DoubleType,
    FloatType,
    IntegerType,
    Parameter,
    Signature,
    StringType,
    UTSType,
)
from ..uts.values import INT64_MAX, INT64_MIN, conform_args, conformer_for
from .errors import CallFailed, StaleBinding, StateLost
from .lines import _ProcessState
from .procedure import STATE_ARG, TIMELINE_ARG

__all__ = ["CallStubs", "call_stubs"]

# ---------------------------------------------------------------------------
# call stubs: one call's marshaling, generated
# ---------------------------------------------------------------------------
#
# ``call_stubs`` takes a call's marshaling decisions once and emits them
# as source: exact canonical types pass an inline ``type(v) is`` test
# (anything else goes to the compiled conformer, so every check and
# message is the reference's), an identity native pass emits nothing, a
# Cray double is the ``frexp``/``round``/``ldexp`` expression of
# ``repro.uts.compiled`` inline (that plan itself takes NaN, the
# infinities and the ``2**1024`` band, with their typed errors), and a
# fixed-layout message is one ``Struct.pack_into``/``unpack``.  A
# message of the wrong size goes to ``SignatureCodec.unmarshal`` for its
# error, and a result that is not a tuple of the right length (or, with
# one result, a bare value) goes through ``_shape_results`` and
# ``conform_args``.  Every conform step of a direction runs before any
# native step: error types, messages and precedence are those of
# ``conform_args``, the native round trips and ``SignatureCodec`` run
# one after another (tests/uts/conformance.py, ``check_call_stubs``).

_PLAIN_SCALARS = (IntegerType, FloatType, DoubleType, ByteType, BooleanType)

#: results a one-result implementation hands back bare (``_shape_results``
#: maps anything that is neither a tuple nor a dict onto the one result)
_BARE_RESULTS = frozenset((float, int, str, bool, list, bytes, type(None)))

#: when a value is *not* canonical for its type and goes to the
#: conformer (an exact canonical value skips it)
_NOT_CANONICAL = {
    DoubleType: "type({v}) is not float",
    IntegerType: f"type({{v}}) is not int or not {INT64_MIN} <= {{v}} <= {INT64_MAX}",
    ByteType: "type({v}) is not int or not 0 <= {v} <= 255",
    StringType: "type({v}) is not str",
    BooleanType: "type({v}) is not bool",
}

_CRAY_SCALE = float(1 << _CRAY_MANT_BITS)

_Conversions = Tuple[Tuple[str, Callable[[Any], Any]], ...]


class CallStubs:
    """The generated marshaling of one call.

    * ``request(args)`` — the caller's side: conform the argument dict,
      apply the caller's native storage, pack; returns the request body
      (a read-only ``memoryview`` over a fresh ``bytearray``).
    * ``serve(body, record, timeline)`` — the callee's side: unpack,
      apply the callee's native storage, refuse a host or process that
      died on the way (:class:`StaleBinding`), call the implementation
      (with ``_state``/``_timeline`` when it wants them; anything it
      raises becomes :class:`CallFailed`), then checkpoint the state it
      wrote; returns ``(raw result, the received arguments)``.
    * ``reply(raw, recv)`` — shape and conform the results, apply the
      callee's native storage, pack; returns the reply body.
    * ``finish(body)`` — unpack the reply and apply the caller's native
      storage; returns the result dict.

    ``request_bytes``/``reply_bytes`` are the fixed message sizes
    (``None`` for a message with a string in it).  The four conversion
    tuples name, in wire order, the parameters whose native round trip
    is not the identity on each side, with that round trip; ``source``
    is the generated code.
    """

    __slots__ = (
        "request", "serve", "reply", "finish", "request_bytes", "reply_bytes",
        "caller_send", "callee_recv", "callee_return", "caller_recv", "source",
    )

    def __init__(self, namespace: Dict[str, Any], source: str,
                 request_bytes: Optional[int], reply_bytes: Optional[int],
                 conversions: Tuple[_Conversions, ...]) -> None:
        self.request = namespace["request"]
        self.serve = namespace["serve"]
        self.reply = namespace["reply"]
        self.finish = namespace["finish"]
        self.request_bytes = request_bytes
        self.reply_bytes = reply_bytes
        self.caller_send, self.callee_recv, self.callee_return, self.caller_recv = conversions
        self.source = source


_CALL_STUBS: Dict[tuple, CallStubs] = {}


def call_stubs(
    sig: Signature,
    caller_format: NativeFormat,
    callee_format: NativeFormat,
    policy: OutOfRangePolicy,
    wants_state: bool = False,
    wants_timeline: bool = False,
) -> CallStubs:
    """The generated stubs of a call through import ``sig`` from a
    machine storing ``caller_format`` to one storing ``callee_format``
    under ``policy``; ``wants_state``/``wants_timeline`` say whether the
    implementation takes ``_state``/``_timeline``.

    Compiled once per key, process-wide: the key and the stubs hold
    values (a signature, formats, a policy, two flags), never a machine,
    a procedure or anything else of an installation."""
    key = (sig, caller_format, callee_format, policy, wants_state, wants_timeline)
    stubs = _CALL_STUBS.get(key)
    if stubs is None:
        stubs = _CALL_STUBS[key] = _compile_call(*key)
    return stubs


class _Source:
    """Generated lines plus the namespace the names in them resolve in."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.namespace: Dict[str, Any] = {
            "_StructError": struct.error,
            "_UTSConversionError": UTSConversionError,
            "_StaleBinding": StaleBinding,
            "_CallFailed": CallFailed,
            "_StateLost": StateLost,
            "_ProcessState": _ProcessState,
            "_RUNNING": ProcessState.RUNNING,
            "_conform_args": conform_args,
            "_frexp": math.frexp,
            "_ldexp": math.ldexp,
            "_round": round,
        }

    def bind(self, obj: Any, hint: str) -> str:
        """A global name for ``obj`` in the generated module."""
        name = f"_{hint}{len(self.namespace)}"
        self.namespace[name] = obj
        return name

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)


def _emit_conform(src: _Source, depth: int, var: str, t: UTSType) -> None:
    conformer = src.bind(conformer_for(t), "conform")
    test = _NOT_CANONICAL.get(type(t))
    if test is None:  # float (rounded through binary32), arrays, records
        src.emit(depth, f"{var} = {conformer}({var})")
        return
    src.emit(depth, f"if {test.format(v=var)}:")
    src.emit(depth + 1, f"{var} = {conformer}({var})")


def _emit_native(src: _Source, depth: int, var: str, t: UTSType,
                 fmt: NativeFormat, policy: OutOfRangePolicy) -> None:
    """``var``'s native round trip on ``fmt``; call only for a type whose
    round trip is not the identity there."""
    native = src.bind(native_roundtrip_for(fmt, t, policy), "native")
    if type(fmt) is CrayFormat and isinstance(t, (DoubleType, FloatType)):
        src.emit(depth, "try:")
        src.emit(depth + 1, f"_m, _e = _frexp({var})")
        src.emit(depth + 1, f"{var} = _ldexp(_round(_m * {_CRAY_SCALE!r}), "
                            f"_e - {_CRAY_MANT_BITS}) if _m else _m")
        src.emit(depth, "except (ValueError, OverflowError):")
        src.emit(depth + 1, f"{var} = {native}({var})")
    else:
        src.emit(depth, f"{var} = {native}({var})")


def _conversions(src: _Source, depth: int, names: List[str],
                 params: Tuple[Parameter, ...], fmt: NativeFormat,
                 policy: OutOfRangePolicy) -> _Conversions:
    out = []
    for var, p in zip(names, params):
        if not native_is_identity(fmt, p.type, policy):
            _emit_native(src, depth, var, p.type, fmt, policy)
            out.append((p.name, native_roundtrip_for(fmt, p.type, policy)))
    return tuple(out)


def _flat_list(flatten: Callable[[Any, List[Any]], None]) -> Callable[[Any], List[Any]]:
    def flat(value: Any) -> List[Any]:
        out: List[Any] = []
        flatten(value, out)
        return out

    return flat


def _is_plain(t: UTSType) -> bool:
    return isinstance(t, _PLAIN_SCALARS)


def _emit_pack(src: _Source, depth: int, names: List[str],
               params: Tuple[Parameter, ...]) -> Optional[int]:
    """Pack the values in ``names`` into a fresh buffer and return a
    read-only view of it; the message size when it is fixed."""
    layout = flat_message_layout(params)
    if layout is None:
        src.emit(depth, "_buf = bytearray()")
        for var, p in zip(names, params):
            src.emit(depth, f"{src.bind(codec_for(p.type).encode_into, 'encode')}({var}, _buf)")
        src.emit(depth, "return memoryview(_buf).toreadonly()")
        return None
    packer, slots = layout
    exprs = []
    for var, p, (_, flatten, _) in zip(names, params, slots):
        t = p.type
        if _is_plain(t):
            exprs.append(var)
        elif isinstance(t, ArrayType) and _is_plain(t.element):
            exprs.append(f"*{var}")
        else:
            exprs.append(f"*{src.bind(_flat_list(flatten), 'flat')}({var})")
    src.emit(depth, f"_buf = bytearray({packer.size})")
    src.emit(depth, f"{src.bind(packer.pack_into, 'pack_into')}(_buf, 0{''.join(', ' + e for e in exprs)})")
    src.emit(depth, "return memoryview(_buf).toreadonly()")
    return packer.size


def _emit_unpack(src: _Source, depth: int, names: List[str],
                 params: Tuple[Parameter, ...], sig: Signature, direction: str) -> None:
    """Decode ``body`` into the locals ``names``, exactly as
    ``signature_codec(sig, direction).unmarshal`` decodes it."""
    layout = flat_message_layout(params)
    if layout is None:
        # the per-parameter walk of SignatureCodec.unmarshal
        src.emit(depth, "_o = 0")
        for var, p in zip(names, params):
            src.emit(depth, f"{var}, _o = {src.bind(codec_for(p.type).decode, 'decode')}(body, _o)")
        name = src.bind(sig.name, "name")
        src.emit(depth, "if _o != len(body):")
        src.emit(depth + 1, f'raise _UTSConversionError(f"{{{name}}}: {{len(body) - _o}} '
                            f'trailing bytes after {direction} args")')
        return
    packer, slots = layout
    unpack = src.bind(packer.unpack, "unpack")
    unmarshal = src.bind(signature_codec(sig, direction).unmarshal, "unmarshal")
    plain = all(_is_plain(p.type) and not isinstance(p.type, BooleanType) for p in params)
    if plain:
        head = f"{', '.join(names)}{',' if len(names) == 1 else ''} = " if names else ""
        src.emit(depth, "try:")
        src.emit(depth + 1, f"{head}{unpack}(body)")
    else:
        src.emit(depth, "try:")
        src.emit(depth + 1, f"_s = {unpack}(body)")
    # a message of the wrong size: the codec's per-parameter walk names
    # what is wrong with it
    src.emit(depth, "except _StructError:")
    src.emit(depth + 1, f"_d = {unmarshal}(body)")
    for var, p in zip(names, params):
        src.emit(depth + 1, f"{var} = _d[{p.name!r}]")
    if plain:
        return
    src.emit(depth, "else:")
    i = 0
    for var, p, (n, _, unflatten) in zip(names, params, slots):
        t = p.type
        if _is_plain(t) and not isinstance(t, BooleanType):
            src.emit(depth + 1, f"{var} = _s[{i}]")
        elif (isinstance(t, ArrayType) and _is_plain(t.element)
              and not isinstance(t.element, BooleanType)):
            src.emit(depth + 1, f"{var} = list(_s[{i}:{i + n}])")
        else:
            src.emit(depth + 1, f"{var} = {src.bind(unflatten, 'unflatten')}(_s, {i})[0]")
        i += n


def _dict_display(names: List[str], params: Tuple[Parameter, ...]) -> str:
    return "{" + ", ".join(f"{p.name!r}: {v}" for v, p in zip(names, params)) + "}"


def _compile_call(sig: Signature, caller_fmt: NativeFormat, callee_fmt: NativeFormat,
                  policy: OutOfRangePolicy, wants_state: bool,
                  wants_timeline: bool) -> CallStubs:
    from .runtime import _shape_results  # the runtime imports this module

    sent, returned = sig.sent_params, sig.returned_params
    vs = [f"v{i}" for i in range(len(sent))]
    rs = [f"r{i}" for i in range(len(returned))]
    src = _Source()
    ns = src.namespace
    ns.update(_sig=sig, _shape=_shape_results,
              _sent=frozenset(p.name for p in sent),
              _returned=frozenset(p.name for p in returned),
              _died=f"{sig.name}: host died mid-call",
              _raised=f"{sig.name}: remote procedure raised ")

    # -- request: conform, caller-native storage, pack ----------------------
    src.emit(0, "def request(args):")
    src.emit(1, "if args.keys() != _sent:")
    src.emit(2, "_conform_args(_sig, args, 'send')  # raises the name mismatch")
    for var, p in zip(vs, sent):
        src.emit(1, f"{var} = args[{p.name!r}]")
    for var, p in zip(vs, sent):
        _emit_conform(src, 1, var, p.type)
    caller_send = _conversions(src, 1, vs, sent, caller_fmt, policy)
    request_bytes = _emit_pack(src, 1, vs, sent)

    # -- serve: unpack, callee-native storage, the implementation -----------
    src.emit(0, "")
    src.emit(0, "def serve(body, record, timeline):")
    _emit_unpack(src, 1, vs, sent, sig, "send")
    callee_recv = _conversions(src, 1, vs, sent, callee_fmt, policy)
    src.emit(1, "if not record.machine.up or record.process.state is not _RUNNING:")
    src.emit(2, "raise _StaleBinding(_died)")
    extras = []
    if wants_state:
        # the executable's state, made by its first stateful call
        src.emit(1, "try:")
        src.emit(2, "_state = record.process.memory[record.path]")
        src.emit(1, "except KeyError:")
        src.emit(2, "_state = record.state_storage()")
        extras.append((STATE_ARG, "_state"))
    if wants_timeline:
        extras.append((TIMELINE_ARG, "timeline"))
    src.emit(1, f"recv = {_dict_display(vs, sent)}")
    names = [p.name for p in sent]
    if all(n.isidentifier() and not keyword.iskeyword(n) for n in names) and not (
        set(names) & {STATE_ARG, TIMELINE_ARG}
    ):
        call = ", ".join([f"{p.name}={v}" for v, p in zip(vs, sent)]
                         + [f"{k}={v}" for k, v in extras])
    else:
        src.emit(1, "kwargs = dict(recv)")
        for k, v in extras:
            src.emit(1, f"kwargs[{k!r}] = {v}")
        call = "**kwargs"
    src.emit(1, "try:")
    src.emit(2, f"raw = record.procedure.impl({call})")
    if wants_state:
        # a declared variable nothing installed: typed, not wrapped
        src.emit(1, "except _StateLost as exc:")
        src.emit(2, f"raise _StateLost({sig.name + ': '!r} + str(exc)) from None")
    src.emit(1, "except Exception as exc:")
    src.emit(2, "raise _CallFailed(_raised + repr(exc)) from exc")
    if wants_state:
        # the call that wrote the declared state checkpoints it, whether
        # its procedure returned or raised (a plain mapping keeps none)
        src.emit(1, "finally:")
        src.emit(2, "if type(_state) is _ProcessState and _state.written:")
        src.emit(3, "_state.checkpoint()")
    src.emit(1, "return raw, recv")

    # -- reply: shape, conform, callee-native storage, pack -----------------
    src.emit(0, "")
    src.emit(0, "def reply(raw, recv):")
    if returned:
        src.emit(1, f"if type(raw) is tuple and len(raw) == {len(returned)}:")
        src.emit(2, f"{', '.join(rs)}{',' if len(rs) == 1 else ''} = raw")
        if len(returned) == 1:
            src.emit(1, "elif type(raw) in _BARE:")
            src.emit(2, f"{rs[0]} = raw")
            ns["_BARE"] = _BARE_RESULTS
        src.emit(1, "else:")
    else:
        src.emit(1, "if raw is not None:")
    src.emit(2, "_r = _shape(_sig, raw, recv)")
    src.emit(2, "if _r.keys() != _returned:")
    src.emit(3, "_conform_args(_sig, _r, 'return')  # raises the name mismatch")
    for var, p in zip(rs, returned):
        src.emit(2, f"{var} = _r[{p.name!r}]")
    for var, p in zip(rs, returned):
        _emit_conform(src, 1, var, p.type)
    callee_return = _conversions(src, 1, rs, returned, callee_fmt, policy)
    reply_bytes = _emit_pack(src, 1, rs, returned)

    # -- finish: unpack, caller-native storage ------------------------------
    src.emit(0, "")
    src.emit(0, "def finish(body):")
    _emit_unpack(src, 1, rs, returned, sig, "return")
    caller_recv = _conversions(src, 1, rs, returned, caller_fmt, policy)
    src.emit(1, f"return {_dict_display(rs, returned)}")

    source = "\n".join(src.lines) + "\n"
    exec(compile(source, f"<call stubs: {sig.name}>", "exec"), ns)
    return CallStubs(ns, source, request_bytes, reply_bytes,
                     (caller_send, callee_recv, callee_return, caller_recv))
