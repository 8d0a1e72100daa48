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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..machines.host import Machine
from ..machines.process import ProcessState
from ..machines.registry import MachinePark, standard_park
from ..network.clock import Timeline, VirtualClock
from ..network.topology import NetworkError, Topology
from ..network.transport import Hop, Transport
from ..resilience.budget import RetryBudget
from ..resilience.deadline import Deadline
from ..uts.compiled import native_roundtrip_for  # noqa: F401
from ..uts.errors import UTSCompatibilityError
from ..uts.native import OutOfRangePolicy
from ..uts.types import Signature
from ..uts.values import conform_args  # noqa: F401
from .errors import (
    CallFailed,
    CallTimeout,
    DeadlineExceeded,
    StaleBinding,
    TypeCheckError,
)
from .lines import InstanceRecord
from .stubgen import call_stubs

if TYPE_CHECKING:  # pragma: no cover
    from .stubs import ClientStub

# ``conform_args`` and ``native_roundtrip_for`` are no longer called on
# a call's path: the generated call stubs do that work and reach them
# only when a plan is built or on an error path.  They stay importable
# here, the names bench/tracer.py charges ``uts.*`` time to.

__all__ = [
    "CostModel",
    "RetryPolicy",
    "control_exchange",
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
    """Retry-with-exponential-backoff for timed-out calls and, through
    :func:`control_exchange`, lost control messages.

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
        """Whether retry number ``attempt`` may be spent: under
        ``max_attempts`` without a deadline; with one, while its budget
        still covers the backoff plus one worst-case attempt
        (``attempt_cost_s``, the timeout), past ``max_attempts`` or
        short of it, so no backoff is burnt that cannot be afforded."""
        if deadline is None:
            return attempt < self.max_attempts
        return deadline.remaining(now) > self.backoff_s(attempt) + attempt_cost_s


def control_exchange(env: "SchoonerEnvironment", timeline: Optional[Timeline],
                     fail: Callable[[NetworkError], Exception],
                     exchange: Callable[..., Any], *args: Any) -> Any:
    """The control ladder: run ``exchange(*args)``, a control message
    or request/reply its sender waits on, under ``env.retry`` and the
    session's ``env.deadline`` as a call's retries are.  Every
    :class:`NetworkError` (a cut route too) is a loss that costs
    ``call_timeout_s`` and then the backoff on ``timeline`` (the clock
    without one) before the whole exchange is tried again; past the
    ladder it raises ``fail(loss)``, the site's typed error."""
    charge = env.clock if timeline is None else timeline
    attempt = 1
    while True:
        try:
            return exchange(*args)
        except NetworkError as exc:
            loss = exc
        charge.advance(env.costs.call_timeout_s)
        if not env.retry.may_retry(attempt, charge.now, env.deadline, env.costs.call_timeout_s):
            raise fail(loss) from loss
        charge.advance(env.retry.backoff_s(attempt))
        attempt += 1


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
    # the resilience layer (repro.resilience), both opt-in and None by
    # default: the installation-shared retry token bucket, and the
    # environment-wide virtual-time deadline every call propagates in
    # its header
    retry_budget: Optional[RetryBudget] = None
    deadline: Optional[Deadline] = None

    @classmethod
    def standard(cls, **kw) -> "SchoonerEnvironment":
        """The default environment: the paper's machine park on the
        three-tier network."""
        park = standard_park()
        topo = Topology()
        clock = VirtualClock()
        transport = Transport(topology=topo, clock=clock)
        return cls(park=park, topology=topo, clock=clock, transport=transport, **kw)

    def cpu_seconds_for_bytes(self, machine: Machine, nbytes: int) -> float:
        """The marshal charge for ``nbytes`` at ``machine``'s load *now*:
        what the placement advisor estimates, and what ``execute_call``
        charges from its plan's constants (``request_flops`` /
        ``reply_flops`` over ``caller_rate`` / ``callee_rate``)."""
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


def check_import_once(park: MachinePark, import_sig: Signature, export_sig: Signature) -> None:
    """:func:`check_import`, run once per (import, export) pair on an
    installation: the check is a pure function of the two signatures'
    values, so the park keeps each pair that passed and every session
    over it, and every call plan, finds it there.  A pair that fails is
    never kept, so it raises on every attempt."""
    key = (import_sig, export_sig)
    checked = park.checked_imports
    if key not in checked:
        check_import(import_sig, export_sig)
        checked.add(key)


class CallPlan:
    """Everything about one call that does not depend on the call.

    The paper's stub compiler decides how a procedure's arguments are
    marshaled once, when the stub is generated (§3.1); this is the same
    decision, taken the first time any session of an installation
    calls a procedure from one machine on another.  A plan is a pure
    function of the import signature, the bound procedure, the caller
    and callee machines (their native formats and rates), the
    out-of-range policy and the cost model, so it holds nothing a fault
    plan, deadline, derate or partition can change — liveness,
    the route, the fault filter, machine loads and deadlines are still
    read on every call, at the instant they are used (fault events fire
    inside ``Timeline.advance``, i.e. between two statements of one
    call).

    The marshaling itself is generated code:
    :func:`~repro.schooner.stubgen.call_stubs` compiles the call's
    ``request``/``serve``/``reply``/``finish`` stubs, and the plan binds
    them with the constants the charges need — fixed message sizes and
    their marshal flops, each machine's flop rate, the procedure's
    constant cost.  The four conversion tuples name the parameters that
    need a native conversion at all, per side and direction: on an IEEE
    machine every double's round trip is the identity, and the
    generated code emits nothing for it.  The two :class:`Hop` objects
    are what each direction's sends keep: the route record, the kind's
    header tag and the last link's transfer time at the fixed size
    (the link itself is still classified on every send).

    Plans live in the machine park's ``call_plans`` and die with the
    park; a client stub keeps the plan of its current binding.  The key
    is the import signature and the cost model by value and the
    procedure, the two machines and the policy by identity (the plan
    holds each of them, so no id in a live key is reused): a migration
    to another machine, another caller machine or a flipped range
    policy is another key, while a failover that restarts the procedure
    on the same machine (a new record, a bumped generation) reuses the
    plan.  An import that fails the type check raises on every attempt
    and leaves nothing behind.
    """

    __slots__ = (
        "caller_machine", "callee_machine", "procedure", "policy",
        "call_kind", "reply_kind", "header_bytes", "flops_per_byte",
        "request", "serve", "reply", "finish",
        "request_bytes", "reply_bytes", "request_flops", "reply_flops",
        "caller_rate", "callee_rate", "cost_flops",
        "caller_send", "callee_recv", "callee_return", "caller_recv",
        "request_hop", "reply_hop",
    )

    def __init__(
        self,
        env: "SchoonerEnvironment",
        caller_machine: Machine,
        record: InstanceRecord,
        import_sig: Signature,
    ) -> None:
        proc = record.procedure
        check_import_once(env.park, import_sig, proc.signature)
        callee_machine = record.machine
        self.caller_machine = caller_machine
        self.callee_machine = callee_machine
        self.procedure = proc
        self.policy = policy = env.range_policy
        self.call_kind = f"call:{import_sig.name}"
        self.reply_kind = f"reply:{import_sig.name}"
        costs = env.costs
        self.header_bytes = costs.header_bytes
        self.flops_per_byte = per_byte = costs.marshal_flops_per_byte
        stubs = call_stubs(
            import_sig,
            caller_machine.architecture.native_format,
            callee_machine.architecture.native_format,
            policy,
            proc.wants_state,
            proc.wants_timeline,
        )
        self.request, self.serve = stubs.request, stubs.serve
        self.reply, self.finish = stubs.reply, stubs.finish
        self.request_bytes, self.reply_bytes = stubs.request_bytes, stubs.reply_bytes
        # Machine.compute_seconds, folded: flops / (mflops * 1e6 * (1 - load))
        # with the product's first factor fixed here and the load read
        # at every charge
        self.request_flops = None if stubs.request_bytes is None else stubs.request_bytes * per_byte
        self.reply_flops = None if stubs.reply_bytes is None else stubs.reply_bytes * per_byte
        self.caller_rate = caller_machine.architecture.mflops * 1e6
        self.callee_rate = callee_machine.architecture.mflops * 1e6
        self.cost_flops = None if callable(proc.flops) else float(proc.flops)
        self.caller_send, self.callee_recv = stubs.caller_send, stubs.callee_recv
        self.callee_return, self.caller_recv = stubs.callee_return, stubs.caller_recv
        topology = env.topology
        self.request_hop = Hop(topology, caller_machine, callee_machine, self.call_kind)
        self.reply_hop = Hop(topology, callee_machine, caller_machine, self.reply_kind)


def plan_for(
    env: "SchoonerEnvironment",
    caller_machine: Machine,
    record: InstanceRecord,
    import_sig: Signature,
) -> CallPlan:
    """The park's plan for calling ``record`` through ``import_sig`` from
    ``caller_machine``, built on first use."""
    plans = env.park.call_plans
    key = (
        import_sig, id(record.procedure), id(caller_machine),
        id(record.machine), id(env.range_policy), env.costs,
    )
    plan = plans.get(key)
    if plan is None:
        # An import that fails the type check raises here, on every
        # attempt: no plan is ever kept for it.
        plan = plans[key] = CallPlan(env, caller_machine, record, import_sig)
    return plan


_RUNNING = ProcessState.RUNNING


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
    plan: Optional[CallPlan] = None,
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
    computing results nobody can use), and :class:`CallFailed` when the
    implementation raises or returns what its results cannot hold.
    ``retries``/``failed_over`` annotate the recorded trace.

    ``deadline`` also rides in both messages' packed wire headers
    (:data:`~repro.network.transport.HEADER_STRUCT`'s final field) — the
    propagation path a real multi-hop system needs.

    ``trace_sink`` redirects trace recording (an overlapped batch
    collects its members' traces privately and flushes them to the
    environment at ``wait()``, in submission order).

    The body walks the call's :class:`CallPlan` — ``plan``, the one a
    client stub keeps for its binding, or the park's for this call: the
    generated ``request``/``serve``/``reply``/``finish`` stubs do all
    the marshaling, and what is left here is the order of events — each
    charge (priced at the machine's load when it is made), both sends,
    both deadline checks and the trace.
    """
    if record.process.state is not _RUNNING:
        raise StaleBinding(
            f"{import_sig.name}: process {record.process.address} is not running"
        )
    if plan is None:
        plan = plan_for(env, caller_machine, record, import_sig)
    callee_machine = record.machine

    trace = CallTrace(
        procedure=import_sig.name,
        caller=caller_machine.hostname,
        callee=callee_machine.hostname,
        started_at=timeline._elapsed,
        retries=retries,
        failed_over=failed_over,
        dispatch=dispatch,
    )
    sink_trace = env.record_trace if trace_sink is None else trace_sink.append
    deadline_s = None
    if deadline is not None:
        if deadline.expired(timeline._elapsed):
            # client-side refusal: don't marshal or touch the network
            # for work that is already late
            raise _late(timeline, trace, sink_trace, deadline, "before dispatch")
        deadline_s = deadline.at_s
    send = env.transport.send
    clock = timeline.clock
    # Each marshal or compute charge is Machine.compute_seconds inline,
    # at the load read when the charge is made; a load outside [0, 1)
    # goes to compute_seconds itself for its error.  Each charge then
    # does Timeline.advance inline: the same addition, the same refusal
    # of a negative or NaN dt, and the same envelope check, inside which
    # due clock events fire.

    # --- client side: the request stub conforms, stores, packs ------------
    # Each direction encodes into a fresh bytearray and travels as one
    # read-only memoryview that no hop copies.
    request = plan.request(args)
    nreq, req_flops = plan.request_bytes, plan.request_flops
    if nreq is None:
        nreq = len(request)
        req_flops = nreq * plan.flops_per_byte
    load = caller_machine.load
    dt = (req_flops / (plan.caller_rate * (1.0 - load)) if 0.0 <= load < 1.0
          else caller_machine.compute_seconds(req_flops))
    trace.client_cpu_s += dt
    if not dt >= 0.0:
        raise ValueError(f"cannot advance time by {dt}")
    t = timeline._elapsed = timeline._elapsed + dt
    if t > clock._now:
        clock._now = t
        if clock._events and clock._events[0][0] <= t:
            clock._notify()

    # --- network: request --------------------------------------------------
    try:
        msg = send(
            caller_machine, callee_machine, plan.call_kind, request, nreq,
            timeline, plan.header_bytes, deadline_s, plan.request_hop,
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

    # --- server side: unmarshal charge, then the serve stub ---------------
    # the server reads the deadline out of the message header before
    # spending any CPU: work that went late in transit is refused,
    # not computed (DeadlineExceeded, distinct from CallTimeout)
    if msg.deadline_s is not None and timeline._elapsed >= msg.deadline_s:
        raise _late(
            timeline, trace, sink_trace, deadline,
            f"on arrival at {callee_machine.hostname}",
        )
    load = callee_machine.load
    dt = (req_flops / (plan.callee_rate * (1.0 - load)) if 0.0 <= load < 1.0
          else callee_machine.compute_seconds(req_flops))
    trace.server_cpu_s += dt
    if not dt >= 0.0:
        raise ValueError(f"cannot advance time by {dt}")
    t = timeline._elapsed = timeline._elapsed + dt
    if t > clock._now:
        clock._now = t
        if clock._events and clock._events[0][0] <= t:
            clock._notify()

    # The callee sees the subset of parameters its *export* declares
    # that the import actually sent (import may be a subset of the
    # export); the stub checks the host and process are still there
    # before it runs the implementation.
    raw_result, recv = plan.serve(msg.body, record, timeline)

    cost = plan.cost_flops
    if cost is None:
        cost = plan.procedure.cost_flops(recv)
    load = callee_machine.load
    dt = (cost / (plan.callee_rate * (1.0 - load)) if 0.0 <= load < 1.0
          else callee_machine.compute_seconds(cost))
    trace.compute_s += dt
    if not dt >= 0.0:
        raise ValueError(f"cannot advance time by {dt}")
    t = timeline._elapsed = timeline._elapsed + dt
    if t > clock._now:
        clock._now = t
        if clock._events and clock._events[0][0] <= t:
            clock._notify()

    reply = plan.reply(raw_result, recv)
    nrep, rep_flops = plan.reply_bytes, plan.reply_flops
    if nrep is None:
        nrep = len(reply)
        rep_flops = nrep * plan.flops_per_byte
    load = callee_machine.load
    dt = (rep_flops / (plan.callee_rate * (1.0 - load)) if 0.0 <= load < 1.0
          else callee_machine.compute_seconds(rep_flops))
    trace.server_cpu_s += dt
    if not dt >= 0.0:
        raise ValueError(f"cannot advance time by {dt}")
    t = timeline._elapsed = timeline._elapsed + dt
    if t > clock._now:
        clock._now = t
        if clock._events and clock._events[0][0] <= t:
            clock._notify()

    # --- network: reply ----------------------------------------------------
    try:
        msg = send(
            callee_machine, caller_machine, plan.reply_kind, reply, nrep,
            timeline, plan.header_bytes, deadline_s, plan.reply_hop,
        )
    except NetworkError as exc:
        # reply lost: the remote *did* execute, so only procedures
        # whose re-execution is harmless (stateless, or explicitly
        # idempotent) may be retried without double-execution risk
        raise _lost(
            env, timeline, trace, sink_trace, deadline, exc,
            retry_safe=plan.procedure.retry_ok, hop="reply",
        ) from exc
    trace.network_s += msg.delivered_at - msg.sent_at
    trace.reply_bytes = msg.nbytes

    # --- client side: unmarshal charge, then the finish stub --------------
    load = caller_machine.load
    dt = (rep_flops / (plan.caller_rate * (1.0 - load)) if 0.0 <= load < 1.0
          else caller_machine.compute_seconds(rep_flops))
    trace.client_cpu_s += dt
    if not dt >= 0.0:
        raise ValueError(f"cannot advance time by {dt}")
    t = timeline._elapsed = timeline._elapsed + dt
    if t > clock._now:
        clock._now = t
        if clock._events and clock._events[0][0] <= t:
            clock._notify()
    finished_at = timeline._elapsed
    out = plan.finish(msg.body)

    trace.finished_at = finished_at
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
    batch instead of blocking the caller.  The deadline a call carries
    is the environment's (``SchoonerEnvironment.deadline``), the one the
    control ladder reads too.
    """

    timeline: Timeline
    batch: Optional["CallBatch"] = None


_WAITED = "CallBatch already waited on"


class CallFuture:
    """The result of one overlapped RPC, held until its batch joins.

    Returned by :meth:`CallBatch.begin`.  Members run inline when they
    are issued, so a future is done as soon as it exists and holds the
    call's result parameters (``results``) or its failure (``error``).
    ``wait()`` completes the whole batch — the overlap model is
    fork/join, not fire-and-forget — then returns ``results`` or
    re-raises ``error``.
    """

    __slots__ = ("_batch", "results", "error")

    done = True

    def __init__(self, batch: "CallBatch") -> None:
        self._batch = batch
        self.results: Optional[Dict[str, Any]] = None
        self.error: Optional[BaseException] = None

    def wait(self) -> Dict[str, Any]:
        batch = self._batch
        if not batch._done:
            batch.wait()
        if self.error is not None:
            raise self.error
        assert self.results is not None
        return self.results


class _Region:
    """One open probe region: makes its branch the batch's active one
    for the ``with`` block and restores the enclosing one after."""

    __slots__ = ("_batch", "_branch", "_prev")

    def __init__(self, batch: "CallBatch", branch: Timeline) -> None:
        self._batch = batch
        self._branch = branch

    def __enter__(self) -> Timeline:
        batch = self._batch
        self._prev = batch._active_branch
        batch._active_branch = self._branch
        return self._branch

    def __exit__(self, *exc_info) -> None:
        self._batch._active_branch = self._prev


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
    dependencies stay honest.  A stub call made inside one rides it
    (:meth:`call_on_branch`).

    Wall-clock execution: members run inline, in submission order; the
    overlap is charged on the virtual timeline only.  A member issued
    by :meth:`begin` is charged to a plain :class:`Timeline` of its
    own, one made inside a region to the region's branch; every
    member's traces go to one list, flushed at ``wait()``.  Each time a
    timeline moves to another's instant below, it is
    ``Timeline.sync_to`` inline: the same refusal of a NaN instant and
    the same envelope check, inside which due clock events fire.
    """

    __slots__ = ("env", "caller", "label", "t0", "_lines", "_traces", "_futures",
                 "_active_branch", "_done")

    def __init__(self, env: SchoonerEnvironment, caller: CallerContext,
                 label: str = "overlap"):
        self.env = env
        self.caller = caller
        self.label = label
        # the caller's instant when the batch opened: where every member
        # and every probe region starts
        self.t0 = caller.timeline._elapsed
        # line_id -> [line, its server's free-at, its members' latest
        # finish], in the order the lines were first called
        self._lines: Dict[str, list] = {}
        # every member's traces, and the futures begin() handed out, in
        # submission order
        self._traces: List[CallTrace] = []
        self._futures: List[CallFuture] = []
        # the open probe region's branch, read by stubs sharing the
        # caller context
        self._active_branch: Optional[Timeline] = None
        self._done = False

    # -- issuing ----------------------------------------------------------
    # wait() flushes traces once; a call issued after it would run and
    # never reach env.traces, so every way of issuing refuses instead.
    # A member leaves the caller at its issuing instant — the batch's,
    # or its probe region's current one — but cannot occupy the server
    # before the line's earlier members finish their server-side work
    # (or earlier sync traffic completes): it starts at the latest of
    # the two and the line's own instant, and then holds the line's
    # server for its server CPU and compute.  begin() and
    # call_on_branch() each do this inline (a shared helper would be one
    # more call per member, on the path most cold RPCs take), and keep
    # the line's latest finish for the join.

    def begin(self, stub: "ClientStub", args: Dict[str, Any]) -> CallFuture:
        """Dispatch one overlapped call; returns its future."""
        if self._done:
            raise RuntimeError(_WAITED)
        line = stub.line
        line_id = line.line_id
        line_tl = line.timeline
        at = line_tl._elapsed
        entry = self._lines.get(line_id)
        start = at if entry is None else entry[1]
        t0 = self.t0
        if not start > t0:  # max(t0, start)
            start = t0
        clock = line_tl.clock
        if start > at:
            at = start
            if start > clock._now:
                clock._now = start
                if clock._events and clock._events[0][0] <= start:
                    clock._notify()
        elif start != start:
            raise ValueError(f"cannot move time to {start}")
        timeline = Timeline(stub.import_sig.name, clock, at)
        fut = CallFuture(self)
        self._futures.append(fut)
        sink = self._traces
        first = len(sink)
        try:
            fut.results = stub._invoke(args, timeline, "overlap", sink)
        except BaseException as exc:  # re-raised at wait(), in order
            fut.error = exc
        occupancy = 0
        for trace in sink[first:]:
            occupancy += trace.server_cpu_s + trace.compute_s
        t = timeline._elapsed
        if entry is None:
            self._lines[line_id] = [line, start + occupancy, t]
        else:
            entry[1] = start + occupancy
            if t > entry[2]:
                entry[2] = t
        return fut

    def region(self, label: str) -> _Region:
        """A probe region: a caller branch starting at ``t0``.  Calls
        made inside (through stubs sharing this batch's caller context)
        serialize on the branch; the region as a whole overlaps with
        the batch's other members and regions."""
        if self._done:
            raise RuntimeError(_WAITED)
        return _Region(self, Timeline(
            f"{self.label}:{label}", self.caller.timeline.clock, self.t0))

    def call_on_branch(self, stub: "ClientStub", args: Dict[str, Any],
                       branch: Timeline) -> Dict[str, Any]:
        """A blocking call issued inside a probe region: it runs now, on
        the region's branch, and moves the branch to its completion."""
        if self._done:
            raise RuntimeError(_WAITED)
        line = stub.line
        line_id = line.line_id
        at = line.timeline._elapsed
        entry = self._lines.get(line_id)
        start = at if entry is None else entry[1]
        issued_at = branch._elapsed
        if not start > issued_at:  # max(issued_at, start)
            start = issued_at
        if start > at:
            at = start
        elif start != start:
            raise ValueError(f"cannot move time to {start}")
        # the call runs on the branch itself, moved to where it starts
        if at > issued_at:
            branch._elapsed = at
            clock = branch.clock
            if at > clock._now:
                clock._now = at
                if clock._events and clock._events[0][0] <= at:
                    clock._notify()
        sink = self._traces
        first = len(sink)
        error = None
        try:
            results = stub._invoke(args, branch, "overlap", sink)
        except BaseException as exc:
            error = exc
        occupancy = 0
        for trace in sink[first:]:
            occupancy += trace.server_cpu_s + trace.compute_s
        t = branch._elapsed
        if entry is None:
            self._lines[line_id] = [line, start + occupancy, t]
        else:
            entry[1] = start + occupancy
            if t > entry[2]:
                entry[2] = t
        if error is not None:
            # raised here, synchronously, and not again at wait()
            raise error
        return results

    # -- joining ----------------------------------------------------------
    def wait(self) -> None:
        """Join all members: flush traces (submission order), advance
        the member lines and the caller, re-raise the first failure of
        a member :meth:`begin` issued."""
        if self._done:
            return
        self._done = True
        record = self.env.record_trace
        for trace in self._traces:
            record(trace)
        # once joined, the batch lets its futures go, so no future <->
        # batch cycle outlives the join and holds the environment until
        # a full collection
        futures, self._futures = self._futures, ()
        # each line moves to its members' latest finish and the caller
        # to the latest of all: where moving after every member, in
        # order, would leave them (every finish is already inside the
        # clock's envelope, so no event is due between two such moves)
        caller = self.caller.timeline
        latest = caller._elapsed
        for line, _, t in self._lines.values():
            tl = line.timeline
            if t > tl._elapsed:
                tl._elapsed = t
                clock = tl.clock
                if t > clock._now:
                    clock._now = t
                    if clock._events and clock._events[0][0] <= t:
                        clock._notify()
            elif t != t:
                raise ValueError(f"cannot move time to {t}")
            if t > latest:
                latest = t
        if latest > caller._elapsed:
            caller._elapsed = latest
            clock = caller.clock
            if latest > clock._now:
                clock._now = latest
                if clock._events and clock._events[0][0] <= latest:
                    clock._notify()
        for fut in futures:
            if fut.error is not None:
                raise fut.error
