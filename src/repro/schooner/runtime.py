"""The Schooner communication library and call engine.

This is the runtime half of the RPC facility: given a resolved
:class:`~repro.schooner.lines.InstanceRecord`, execute one remote call —
conforming and converting arguments through the caller's native format,
marshaling to the UTS wire form, crossing the simulated network, applying
the callee's native format, invoking the implementation, and returning
the results by the same path in reverse.  Every phase is charged to the
calling line's virtual timeline, and a :class:`CallTrace` records the
breakdown for the benchmark harness.

What is a pure function of a binding is decided once, in its
:class:`CallPlan`; what a fault event can change is read at the instant
it is used, because events fire inside ``Timeline.advance`` — between
two statements of one call (docs/PERFORMANCE.md, "The call path").
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..machines.host import Machine
from ..machines.registry import MachinePark, standard_park
from ..network.clock import Timeline, VirtualClock
from ..network.topology import NetworkError, Topology
from ..network.transport import Transport
from ..resilience.breaker import BreakerBoard
from ..resilience.budget import RetryBudget
from ..resilience.deadline import Deadline
from ..uts.compiled import (
    SignatureCodec,
    native_is_identity,
    native_roundtrip_for,
    signature_codec,
)
from ..uts.errors import UTSCompatibilityError
from ..uts.native import OutOfRangePolicy
from ..uts.types import Signature
from ..uts.values import conform_args
from .errors import (
    CallFailed,
    CallTimeout,
    DeadlineExceeded,
    StaleBinding,
    TypeCheckError,
)
from .lines import InstanceRecord
from .procedure import STATE_ARG, TIMELINE_ARG

if TYPE_CHECKING:  # pragma: no cover
    from .stubs import ClientStub

__all__ = [
    "CostModel",
    "RetryPolicy",
    "CallTrace",
    "CallerContext",
    "CallFuture",
    "CallBatch",
    "SchoonerEnvironment",
    "execute_call",
]


@dataclass(frozen=True)
class CostModel:
    """Tunable constants of the runtime cost simulation.

    ``marshal_flops_per_byte`` models the UTS conversion library: each
    byte converted between native and wire format costs CPU work on the
    machine doing it.  ``spawn_seconds`` is the fork/exec cost a
    Schooner Server pays to instantiate a remote procedure process.
    """

    marshal_flops_per_byte: float = 40.0
    header_bytes: int = 64
    spawn_seconds: float = 0.25
    control_message_bytes: int = 128  # startup/shutdown protocol messages
    # how long a caller waits for a request/reply before declaring the
    # call lost — generous next to the 1993 WAN round trip (~80 ms) so
    # only genuine failures trip it
    call_timeout_s: float = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """Retry-with-exponential-backoff for timed-out calls.

    Only *stateless* procedures are retried unconditionally; stateful
    procedures are retried only when the timeout is known to have struck
    before the remote could have executed (``CallTimeout.retry_safe``).
    ``max_attempts`` counts the initial try.
    """

    max_attempts: int = 4
    base_backoff_s: float = 0.25
    multiplier: float = 2.0

    def backoff_s(self, attempt: int) -> float:
        """Backoff charged before retry number ``attempt`` (1-based)."""
        return self.base_backoff_s * self.multiplier ** (attempt - 1)

    def may_retry(
        self,
        attempt: int,
        now: float,
        deadline: Optional[Deadline] = None,
        attempt_cost_s: float = 0.0,
    ) -> bool:
        """Whether retry number ``attempt`` may be spent.

        Without a deadline this is the policy's own clock
        (``max_attempts``).  *With* a deadline the remaining virtual-time
        budget governs instead: a retry is allowed only while the budget
        still covers the backoff plus one worst-case attempt
        (``attempt_cost_s``, typically the call timeout) — so a caller
        with 10s of budget left keeps trying past ``max_attempts``,
        while a caller with 0.1s left fails fast rather than burning
        backoff it cannot afford."""
        if deadline is None:
            return attempt < self.max_attempts
        return deadline.remaining(now) > self.backoff_s(attempt) + attempt_cost_s


@dataclass(slots=True)
class CallTrace:
    """Virtual-time breakdown of one RPC, for benchmark reporting."""

    procedure: str
    caller: str
    callee: str
    request_bytes: int = 0
    reply_bytes: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    client_cpu_s: float = 0.0
    server_cpu_s: float = 0.0
    compute_s: float = 0.0
    network_s: float = 0.0
    # resilience bookkeeping (repro.faults / repro.resilience): how this
    # attempt ended, which leg was lost when it timed out, how many
    # timed-out attempts preceded it, and whether the binding was
    # refreshed from the Manager after a failure first
    outcome: str = "ok"  # "ok" | "timeout" | "deadline"
    timeout_hop: str = ""  # "request" | "reply" when outcome == "timeout"
    retries: int = 0
    failed_over: bool = False
    # how the call was issued: "sync" (the caller blocked for the whole
    # round trip) or "overlap" (in flight concurrently with other calls
    # of one CallBatch)
    dispatch: str = "sync"

    @property
    def total_s(self) -> float:
        return self.finished_at - self.started_at


@dataclass
class SchoonerEnvironment:
    """Everything the runtime needs: machines, network, clock, costs."""

    park: MachinePark
    topology: Topology
    clock: VirtualClock
    transport: Transport
    costs: CostModel = field(default_factory=CostModel)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    range_policy: OutOfRangePolicy = OutOfRangePolicy.ERROR
    traces: List[CallTrace] = field(default_factory=list)
    # the resilience layer (repro.resilience), all opt-in and None by
    # default: per-(procedure, host) circuit breakers, the
    # installation-shared retry token bucket, and the environment-wide
    # virtual-time deadline every call propagates in its header
    breakers: Optional[BreakerBoard] = None
    retry_budget: Optional[RetryBudget] = None
    deadline: Optional[Deadline] = None
    #: cold restarts of remote processes that died under us (no
    #: supervisor recovery, no failed call to witness it) — the serving
    #: layer's last-resort signal that chaos touched a session
    unplanned_restarts: int = 0

    @classmethod
    def standard(cls, **kw) -> "SchoonerEnvironment":
        """The default environment: the paper's machine park on the
        three-tier network."""
        park = standard_park()
        topo = Topology()
        for m in park:
            topo.register(m)
        clock = VirtualClock()
        transport = Transport(topology=topo, clock=clock)
        return cls(park=park, topology=topo, clock=clock, transport=transport, **kw)

    def cpu_seconds_for_bytes(self, machine: Machine, nbytes: int) -> float:
        """The marshal charge — the one definition ``execute_call`` and
        the placement advisor share — at ``machine``'s load *now*."""
        return machine.architecture.compute_seconds(
            nbytes * self.costs.marshal_flops_per_byte, machine.load
        )

    def record_trace(self, trace: CallTrace) -> None:
        self.traces.append(trace)

    def reset_traces(self) -> None:
        self.traces.clear()


def check_import(import_sig: Signature, export_sig: Signature) -> None:
    """The Manager's runtime type check: the import must be a subset of
    the export (:meth:`Signature.check_import_subset`), compared under
    the export's canonical name whichever Fortran case synonym the
    caller used.  Raises :class:`TypeCheckError`."""
    try:
        Signature(
            name=export_sig.name,
            params=import_sig.params,
            kind=import_sig.kind,
        ).check_import_subset(export_sig)
    except UTSCompatibilityError as exc:
        raise TypeCheckError(str(exc)) from exc


#: (parameter name, native round-trip callable) pairs, in wire order,
#: for the parameters whose round trip is not the identity
_Roundtrips = Tuple[Tuple[str, Callable[[Any], Any]], ...]


class CallPlan:
    """Everything about one call that does not depend on the call.

    The paper's stub compiler decides how a procedure's arguments are
    marshaled once, when the stub is generated (§3.1); this is the same
    decision, taken the first time any session of an installation
    calls a procedure from one machine on another.  A plan is a pure
    function of the import signature, the bound procedure, the caller
    and callee machines (their native formats) and the out-of-range
    policy, so it holds nothing a fault plan, breaker, deadline, derate
    or partition can change — liveness, the route, the fault filter,
    compute rates and deadlines are still read on every call, at the
    instant they are used (fault events fire inside
    ``Timeline.advance``, i.e. between two statements of one call).
    The four round-trip tuples name only the parameters that need a
    native conversion at all: on an IEEE machine every double's round
    trip is the identity, so the native pass over it is empty.

    Plans live in the machine park's ``call_plans`` and die with the
    park.  The key is the import signature by value and the procedure,
    the two machines and the policy by identity (the plan holds each of
    them, so no id in a live key is reused): a migration to another
    machine, another caller machine or a flipped range policy is
    another key, while a failover that restarts the procedure on the
    same machine (a new record, a bumped generation) reuses the plan.
    An import that fails the type check raises on every attempt and
    leaves nothing behind.
    """

    __slots__ = (
        "caller_machine", "callee_machine", "procedure", "policy",
        "call_kind", "reply_kind", "send_codec", "return_codec",
        "caller_send", "callee_recv", "callee_return", "caller_recv",
        "wants_state", "wants_timeline",
    )

    def __init__(
        self,
        env: "SchoonerEnvironment",
        caller_machine: Machine,
        record: InstanceRecord,
        import_sig: Signature,
    ) -> None:
        proc = record.procedure
        check_import(import_sig, proc.signature)
        self.caller_machine = caller_machine
        self.callee_machine = record.machine
        self.procedure = proc
        self.policy = policy = env.range_policy
        self.call_kind = f"call:{import_sig.name}"
        self.reply_kind = f"reply:{import_sig.name}"
        sent, returned = import_sig.sent_params, import_sig.returned_params
        self.send_codec: SignatureCodec = signature_codec(import_sig, "send")
        self.return_codec: SignatureCodec = signature_codec(import_sig, "return")

        caller_fmt = caller_machine.architecture.native_format
        callee_fmt = record.machine.architecture.native_format

        def roundtrips(fmt, params) -> _Roundtrips:
            return tuple(
                (p.name, native_roundtrip_for(fmt, p.type, policy))
                for p in params
                if not native_is_identity(fmt, p.type, policy)
            )

        self.caller_send = roundtrips(caller_fmt, sent)
        self.callee_recv = roundtrips(callee_fmt, sent)
        self.callee_return = roundtrips(callee_fmt, returned)
        self.caller_recv = roundtrips(caller_fmt, returned)
        self.wants_state = proc.wants_state
        self.wants_timeline = proc.wants_timeline


def _lost(
    env: "SchoonerEnvironment",
    timeline: Timeline,
    trace: "CallTrace",
    sink_trace: Callable[["CallTrace"], None],
    deadline: Optional[Deadline],
    exc: Exception,
    retry_safe: bool,
    hop: str,
) -> CallTimeout:
    """A request or reply was lost: the caller waits out the timeout in
    virtual time, then gives up."""
    timeline.advance(env.costs.call_timeout_s)
    trace.outcome = "timeout"
    trace.timeout_hop = hop
    trace.finished_at = timeline.now
    sink_trace(trace)
    remaining = deadline.remaining(timeline.now) if deadline is not None else None
    budget = (
        f", {remaining:.3f}s of deadline budget left"
        if remaining is not None
        else ""
    )
    return CallTimeout(
        f"{trace.procedure}: no reply from {trace.callee} "
        f"within {env.costs.call_timeout_s}s ({hop} lost: {exc}){budget}",
        retry_safe=retry_safe,
        trace=trace,
        hop=hop,
        deadline_remaining_s=remaining,
    )


def _late(
    timeline: Timeline,
    trace: "CallTrace",
    sink_trace: Callable[["CallTrace"], None],
    deadline: Deadline,
    where: str,
) -> DeadlineExceeded:
    """The deadline stamped in the header has passed: refuse the work."""
    trace.outcome = "deadline"
    trace.finished_at = timeline.now
    sink_trace(trace)
    return DeadlineExceeded(
        f"{trace.procedure}: {deadline.describe(timeline.now)} {where}",
        trace=trace,
        remaining_s=deadline.remaining(timeline.now),
    )


def execute_call(
    env: SchoonerEnvironment,
    caller_machine: Machine,
    timeline: Timeline,
    record: InstanceRecord,
    import_sig: Signature,
    args: Dict[str, Any],
    retries: int = 0,
    failed_over: bool = False,
    dispatch: str = "sync",
    trace_sink: Optional[List[CallTrace]] = None,
    deadline: Optional[Deadline] = None,
) -> Dict[str, Any]:
    """Execute one remote procedure call.

    Raises :class:`StaleBinding` when the target process is gone (the
    stub's cue to refresh its name cache from the Manager),
    :class:`TypeCheckError` when the import is not a subset of the
    export, :class:`CallTimeout` when a request or reply is lost on the
    simulated network (the caller waits out ``costs.call_timeout_s`` of
    virtual time first), :class:`DeadlineExceeded` when ``deadline`` has
    expired before the call starts or by the time the request reaches
    the server (the server refuses already-late work rather than
    computing results nobody can use), and :class:`CallFailed` for
    argument conversion failures.  ``retries``/``failed_over`` annotate
    the recorded trace.

    ``deadline`` also rides in both messages' packed wire headers
    (:data:`~repro.network.transport.HEADER_STRUCT`'s final field) — the
    propagation path a real multi-hop system needs.

    ``trace_sink`` redirects trace recording (an overlapped batch
    collects its members' traces privately and flushes them to the
    environment at ``wait()``, in submission order).

    The body is a straight-line walk of the call's :class:`CallPlan`,
    compiled the first time the installation makes this call: the type
    check, parameter lists, codecs and native-format conversions are
    decided there, not here.
    """
    if not record.process.alive:
        raise StaleBinding(
            f"{import_sig.name}: process {record.process.address} is not running"
        )

    callee_machine = record.machine
    plans = env.park.call_plans
    key = (
        import_sig, id(record.procedure), id(caller_machine),
        id(callee_machine), id(env.range_policy),
    )
    plan: Optional[CallPlan] = plans.get(key)
    if plan is None:
        # An import that fails the type check raises here, on every
        # attempt: no plan is ever kept for it.
        plan = plans[key] = CallPlan(env, caller_machine, record, import_sig)

    trace = CallTrace(
        procedure=import_sig.name,
        caller=caller_machine.hostname,
        callee=callee_machine.hostname,
        started_at=timeline.now,
        retries=retries,
        failed_over=failed_over,
        dispatch=dispatch,
    )
    sink_trace = env.record_trace if trace_sink is None else trace_sink.append
    deadline_s = None
    if deadline is not None:
        if deadline.expired(timeline.now):
            # client-side refusal: don't marshal or touch the network
            # for work that is already late
            raise _late(timeline, trace, sink_trace, deadline, "before dispatch")
        deadline_s = deadline.at_s
    header_bytes = env.costs.header_bytes
    marshal_s = env.cpu_seconds_for_bytes
    send = env.transport.send
    advance = timeline.advance

    # --- client side: conform, apply caller-native storage, marshal -------
    # Three passes over one dict: conform builds it, the native pass
    # rewrites in place the parameters whose round trip is not the
    # identity, the codec packs it.  Each direction encodes into a fresh
    # bytearray and travels as one read-only memoryview that no hop
    # copies.
    sent = conform_args(import_sig, args, "send")
    for name, native in plan.caller_send:
        sent[name] = native(sent[name])
    req_buf = bytearray()
    nreq = plan.send_codec.encode_conformed_into(sent, req_buf)
    request = memoryview(req_buf).toreadonly()
    # every compute charge reads the machine's load when it is made
    dt = marshal_s(caller_machine, nreq)
    trace.client_cpu_s += dt
    advance(dt)

    # --- network: request --------------------------------------------------
    try:
        msg = send(
            caller_machine, callee_machine, plan.call_kind, request, nreq,
            timeline, header_bytes, deadline_s,
        )
    except NetworkError as exc:
        # request lost: the remote never saw the call, any procedure
        # may be safely retried
        raise _lost(
            env, timeline, trace, sink_trace, deadline, exc,
            retry_safe=True, hop="request",
        ) from exc
    trace.network_s += msg.delivered_at - msg.sent_at
    trace.request_bytes = msg.nbytes

    # --- server side: unmarshal, convert to callee native, invoke ---------
    # the server reads the deadline out of the message header before
    # spending any CPU: work that went late in transit is refused,
    # not computed (DeadlineExceeded, distinct from CallTimeout)
    if msg.deadline_s is not None and timeline.now >= msg.deadline_s:
        raise _late(
            timeline, trace, sink_trace, deadline,
            f"on arrival at {callee_machine.hostname}",
        )
    dt = marshal_s(callee_machine, nreq)
    trace.server_cpu_s += dt
    advance(dt)

    # The callee sees the subset of parameters its *export* declares
    # that the import actually sent (import may be a subset of the
    # export).  It decodes the delivered body in place.
    recv = plan.send_codec.unmarshal(msg.body)
    for name, native in plan.callee_recv:
        recv[name] = native(recv[name])

    proc = plan.procedure
    if not callee_machine.up or not record.process.alive:
        raise StaleBinding(f"{import_sig.name}: host died mid-call")

    kwargs = dict(recv)
    if plan.wants_state:
        kwargs[STATE_ARG] = record.state_storage()
    if plan.wants_timeline:
        kwargs[TIMELINE_ARG] = timeline
    try:
        raw_result = proc.impl(**kwargs)
    except Exception as exc:
        raise CallFailed(
            f"{import_sig.name}: remote procedure raised {exc!r}"
        ) from exc

    dt = callee_machine.compute_seconds(proc.cost_flops(recv))
    trace.compute_s += dt
    advance(dt)

    results = _shape_results(import_sig, raw_result, recv)
    results = conform_args(import_sig, results, "return")
    for name, native in plan.callee_return:
        results[name] = native(results[name])
    rep_buf = bytearray()
    nrep = plan.return_codec.encode_conformed_into(results, rep_buf)
    reply = memoryview(rep_buf).toreadonly()
    dt = marshal_s(callee_machine, nrep)
    trace.server_cpu_s += dt
    advance(dt)

    # --- network: reply ----------------------------------------------------
    try:
        msg = send(
            callee_machine, caller_machine, plan.reply_kind, reply, nrep,
            timeline, header_bytes, deadline_s,
        )
    except NetworkError as exc:
        # reply lost: the remote *did* execute, so only procedures
        # whose re-execution is harmless (stateless, or explicitly
        # idempotent) may be retried without double-execution risk
        raise _lost(
            env, timeline, trace, sink_trace, deadline, exc,
            retry_safe=proc.retry_ok, hop="reply",
        ) from exc
    trace.network_s += msg.delivered_at - msg.sent_at
    trace.reply_bytes = msg.nbytes

    # --- client side: unmarshal, store in caller-native format ------------
    dt = marshal_s(caller_machine, nrep)
    trace.client_cpu_s += dt
    advance(dt)
    out = plan.return_codec.unmarshal(msg.body)
    for name, native in plan.caller_recv:
        out[name] = native(out[name])

    trace.finished_at = timeline.now
    sink_trace(trace)
    return out


def _shape_results(sig: Signature, raw: Any, sent_args: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize an implementation's return value to a result dict.

    Accepted shapes: a dict keyed by result-parameter name, a tuple in
    signature order, or a bare value when there is exactly one result
    parameter.  ``var`` parameters the implementation does not return
    keep their sent values (value/result semantics)."""
    returned = sig.returned_params
    if isinstance(raw, tuple):
        if len(raw) != len(returned):
            raise CallFailed(
                f"{sig.name}: implementation returned {len(raw)} values, "
                f"signature has {len(returned)} result parameters"
            )
        return {p.name: v for p, v in zip(returned, raw)}
    if isinstance(raw, dict):
        results = dict(raw)
        # var parameters default to their sent value when not explicitly set
        for p in returned:
            if p.name not in results and p.mode.sends and p.name in sent_args:
                results[p.name] = sent_args[p.name]
        return results
    if raw is None and not returned:
        return {}
    if len(returned) == 1:
        return {returned[0].name: raw}
    raise CallFailed(
        f"{sig.name}: cannot map return value of type "
        f"{type(raw).__name__} onto {len(returned)} result parameters"
    )


# --------------------------------------------------------------------------
# Overlapped dispatch: CallerContext / CallFuture / CallBatch
# --------------------------------------------------------------------------


@dataclass
class CallerContext:
    """The calling program's own thread of virtual time.

    Stubs that share a context serialize their *synchronous* calls on
    it: each blocking RPC starts no earlier than the caller's current
    instant and moves the caller to its completion, so a sequence of
    dependent calls to different lines costs the caller the **sum** of
    the round trips — the honest sequential baseline.  Without a
    context (the default) a stub charges only its own line, reproducing
    the lines model's free-running semantics for genuinely independent
    lines.

    ``batch`` is the currently open :class:`CallBatch`, if any; while
    one is active, stub calls issued inside a probe region ride that
    batch instead of blocking the caller.

    ``deadline`` is the caller's virtual-time deadline, if any; stubs
    sharing this context stamp it into every RPC header (overriding any
    environment-wide deadline), servers refuse work past it, and the
    retry engine spends its remaining budget instead of
    ``RetryPolicy.max_attempts``.
    """

    timeline: Timeline
    batch: Optional["CallBatch"] = None
    deadline: Optional[Deadline] = None

    @property
    def now(self) -> float:
        return self.timeline.now


class CallFuture:
    """One overlapped, in-flight RPC.

    Created by :meth:`CallBatch.begin` (or internally for probe-region
    calls).  ``wait()`` completes the whole batch — the overlap model
    is fork/join, not fire-and-forget — then returns this call's result
    parameters or re-raises its failure.
    """

    __slots__ = (
        "procedure", "line_id", "issued_at", "finished_at",
        "traces", "done", "_results", "_error", "_batch", "_line",
    )

    def __init__(self, procedure: str, line, issued_at: float, batch: "CallBatch"):
        self.procedure = procedure
        self._line = line
        self.line_id = line.line_id
        self.issued_at = issued_at
        self.finished_at = issued_at
        self.traces: List[CallTrace] = []
        self.done = False
        self._results: Optional[Dict[str, Any]] = None
        self._error: Optional[BaseException] = None
        self._batch = batch

    def wait(self) -> Dict[str, Any]:
        self._batch.wait()
        if self._error is not None:
            raise self._error
        assert self._results is not None
        return self._results


class CallBatch:
    """A group of RPCs overlapped from one caller instant.

    Virtual-time semantics: every member starts at the batch's dispatch
    instant ``t0`` (the caller's time when the batch opened).  Members
    bound for the **same line** additionally queue behind that line's
    earlier members for the server-side occupancy (server marshal CPU +
    compute) — pipelined requests, serialized server — while members on
    different lines overlap their full round trips.  Shared trunks are
    serialized separately by the transport's contention model when that
    is enabled.  ``wait()`` joins everything, flushes traces in
    submission order, moves each line's timeline to its members' latest
    finish, and moves the caller to the latest finish overall: the
    batch costs the caller the **max**, not the sum, of its members.

    A *probe region* (:meth:`region`) is a branch of the caller that
    starts at ``t0`` and serializes the calls made inside it — one
    finite-difference Jacobian column, say — so independent regions
    overlap with each other while each region's internal data
    dependencies stay honest.

    Wall-clock execution: members run inline, in submission order; the
    overlap is charged on the virtual timeline only.
    """

    def __init__(self, env: SchoonerEnvironment, caller: CallerContext,
                 label: str = "overlap"):
        self.env = env
        self.caller = caller
        self.label = label
        self.t0 = caller.timeline.now
        self._avail: Dict[str, float] = {}  # line_id -> server free-at
        self._entries: List[CallFuture] = []  # submission order
        self._active_branch: Optional[Timeline] = None
        self._done = False

    # -- issuing ----------------------------------------------------------
    def _require_open(self) -> None:
        # wait() flushes traces once; a call issued after it would run
        # and never reach env.traces
        if self._done:
            raise RuntimeError("CallBatch already waited on")

    def begin(self, stub: "ClientStub", args: Dict[str, Any]) -> CallFuture:
        """Dispatch one overlapped call; returns its future."""
        self._require_open()
        fut = CallFuture(stub.name, stub.line, self.t0, self)
        self._entries.append(fut)
        self._run(stub, args, fut, None)
        return fut

    @contextmanager
    def region(self, label: str):
        """A probe region: a caller branch starting at ``t0``.  Calls
        made inside (through stubs sharing this batch's caller context)
        serialize on the branch; the region as a whole overlaps with
        the batch's other members and regions."""
        self._require_open()
        prev = self._active_branch
        self._active_branch = Timeline(
            name=f"{self.label}:{label}",
            clock=self.caller.timeline.clock,
            _elapsed=self.t0,
        )
        try:
            yield self._active_branch
        finally:
            self._active_branch = prev

    @property
    def active_branch(self) -> Optional[Timeline]:
        return self._active_branch

    def call_on_branch(self, stub: "ClientStub", args: Dict[str, Any],
                       branch: Timeline) -> Dict[str, Any]:
        """A blocking call issued inside a probe region: it runs now, on
        the region's branch, and moves the branch to its completion."""
        self._require_open()
        fut = CallFuture(stub.name, stub.line, branch.now, self)
        self._entries.append(fut)
        self._run(stub, args, fut, branch)
        if fut._error is not None:
            # raised here, synchronously — cleared so wait() (typically
            # reached from a finally block) does not raise it again
            err, fut._error = fut._error, None
            raise err
        assert fut._results is not None
        return fut._results

    # -- execution --------------------------------------------------------
    def _run(self, stub: "ClientStub", args: Dict[str, Any],
             fut: CallFuture, branch: Optional[Timeline]) -> None:
        line = stub.line
        # the call leaves the caller at the batch instant (or its probe
        # region's current instant) but cannot occupy the server before
        # the line's earlier members finish their server-side work (or
        # earlier sync traffic completes)
        issue_at = self.t0 if branch is None else branch.now
        start = max(issue_at, self._avail.get(line.line_id, line.timeline.now))
        tl = line.timeline.branch(f"{line.line_id}:{self.label}")
        tl.sync_to(start)
        sink: List[CallTrace] = []
        try:
            fut._results = stub._invoke(args, tl, "overlap", sink)
        except BaseException as exc:  # re-raised at wait(), in order
            fut._error = exc
        occupancy = sum(t.server_cpu_s + t.compute_s for t in sink)
        self._avail[line.line_id] = start + occupancy
        fut.finished_at = tl.now
        fut.traces = sink
        fut.done = True
        if branch is not None:
            branch.sync_to(tl.now)

    # -- joining ----------------------------------------------------------
    def wait(self) -> None:
        """Join all members: flush traces (submission order), advance
        the member lines and the caller, re-raise the first failure."""
        if self._done:
            return
        self._done = True
        for fut in self._entries:
            for t in fut.traces:
                self.env.record_trace(t)
            fut._line.timeline.sync_to(fut.finished_at)
            self.caller.timeline.sync_to(fut.finished_at)
        for fut in self._entries:
            if fut._error is not None:
                raise fut._error

    @property
    def finished_at(self) -> float:
        return max((f.finished_at for f in self._entries), default=self.t0)
