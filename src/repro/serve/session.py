"""Sessions: one user's engine-simulation workload, served concurrently
with others over the shared installation.

A :class:`SessionSpec` is the workload description (operating points,
module placement, optional transient, optional fault plan).  A
:class:`SessionContext` is the live run: its own
:class:`~repro.schooner.runtime.SchoonerEnvironment` (clock, transport,
traces) and :class:`~repro.core.executive.NPSSExecutive` over the shared
machine park, advanced one *step* at a time (the unit a failure is
contained at and a tracer sees); the serve timeline runs a session's
steps back to back the moment it starts.

Within a session, steady points warm-start each other: the solved
``x``/Jacobian of point *i* seeds point *i+1*'s Newton solve, so nearby
points converge in a few Broyden iterations with no finite-difference
Jacobian rebuild — the per-point cost drops roughly 3x after the first
point, which is where most of the serving throughput comes from.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from ..core.executive import NPSSExecutive
from ..faults.plan import FaultPlan
from ..network.transport import TrafficStats
from ..schooner.tracing import trace_digest
from ..tess.atmosphere import FlightCondition
from ..tess.opkey import combine_keys, context_key, deck_key, flight_key, value_memo
from ..tess.schedules import Schedule
from .installation import SessionRecord, SharedInstallation

__all__ = ["TABLE2_PLACEMENT", "SessionSpec", "SessionContext", "SessionResult"]

#: Table 2's all-remote placement of the F100 network's adapted modules,
#: keyed by editor module name (the paper's distributed-simulation
#: configuration: ducts on the Cray, combustor at Arizona, nozzle and
#: shafts on LeRC workstations).
TABLE2_PLACEMENT: Dict[str, str] = {
    "combustor": "sgi4d340.cs.arizona.edu",
    "bypass duct": "cray-ymp.lerc.nasa.gov",
    "core duct": "cray-ymp.lerc.nasa.gov",
    "mixer duct": "cray-ymp.lerc.nasa.gov",
    "nozzle": "sgi4d420.lerc.nasa.gov",
    "low speed shaft": "rs6000.lerc.nasa.gov",
    "high speed shaft": "rs6000.lerc.nasa.gov",
}


@dataclass(frozen=True)
class SessionSpec:
    """One user's workload.  Everything that determines the session's
    deterministic trace stream is a field here; ``name`` and
    ``priority`` are the exceptions (labels/scheduling hints, excluded
    from :meth:`workload_key`)."""

    name: str
    points: Tuple[float, ...] = (1.30, 1.34, 1.38)  # fuel flows, kg/s
    placement: Dict[str, str] = field(default_factory=lambda: dict(TABLE2_PLACEMENT))
    altitude_m: float = 0.0
    mach: float = 0.0
    transient_s: float = 0.0
    transient_dt: float = 0.02
    avs_machine: str = "ua-sparc10"
    dispatch: str = "overlap"
    fault_plan: Optional[FaultPlan] = None
    #: virtual-time SLO for the whole session, measured from admission
    #: to the serve call (queue wait counts against it); propagated into
    #: every RPC header the session sends.  None = no deadline.
    deadline_s: Optional[float] = None
    #: admission priority (higher wins a scarce slot); a scheduling
    #: hint, so it is *not* part of the workload key
    priority: int = 0
    #: traffic-class label for per-class accounting (queue-wait and
    #: latency ledgers in :meth:`ServeReport.records`, the
    #: :mod:`repro.traffic` sweeps).  A label like ``name``, so it is
    #: *not* part of the workload key: two specs differing only in
    #: class produce identical trace streams
    traffic_class: str = ""
    #: enable the resilience kit: per-session circuit breakers, the
    #: installation-shared retry budget, and a failover supervisor
    #: (heartbeats + checkpoints + rebind-on-crash)
    resilient: bool = False
    #: share solved operating points installation-wide through the
    #: :class:`~repro.serve.opcache.OpPointCache`: exact hits skip the
    #: Newton solve, near hits interpolate stored neighbours.  Misses
    #: are solved *cold* (no session-local chaining) so every stored
    #: miss is bitwise-canonical.  Sessions run to completion one after
    #: another in the order the serve timeline starts them, so every
    #: lookup sees a deterministic store state — which inline digests
    #: depend on, and which shard mode keeps by placing a family whole
    #: on one shard.
    op_cache: bool = False

    @property
    def cacheable(self) -> bool:
        """Fault-plan sessions are never deduplicated: their injectors
        own mutable routing state and their whole point is divergence."""
        return self.fault_plan is None

    def op_family(self) -> Optional[str]:
        """The session's operating-line family for the installation
        op-point cache: flight condition + placement + dispatch (the
        engine-deck digest is folded in at setup, once the deck is
        built).  ``None`` when the session does not opt in — or carries
        a fault plan, whose runs are deliberately non-canonical."""
        if not self.op_cache or self.fault_plan is not None:
            return None
        return _op_family(
            self.altitude_m, self.mach, tuple(sorted(self.placement.items())), self.dispatch
        )

    def workload_key(self) -> str:
        """Digest of every trace-determining field (``name`` and
        ``priority`` excluded): two specs with equal keys produce
        byte-identical trace streams, which is the contract the
        :class:`~repro.serve.installation.WorkloadCache` relies on.
        ``deadline_s`` and ``resilient`` are included — a deadline rides
        in every RPC header and the resilience kit changes failure-path
        behaviour, so they are part of the trace-determining state."""
        return _workload_key(
            tuple(self.points), tuple(map(type, self.points)),
            tuple(sorted(self.placement.items())), *_scalar_fields(self),
        )


#: the trace-determining scalars (op-cache sessions skip RPCs on exact
#: hits, so that flag splits the key too)
_SCALAR_FIELDS = (
    "altitude_m", "mach", "transient_s", "transient_dt", "avs_machine",
    "dispatch", "deadline_s", "resilient", "op_cache",
)
_scalar_fields = attrgetter(*_SCALAR_FIELDS)


# both keys: once per distinct value, not once per session
@value_memo
def _op_family(altitude_m, mach, placement, dispatch) -> str:
    return combine_keys(
        flight_key(FlightCondition(altitude_m=altitude_m, mach=mach)),
        context_key(placement=dict(placement), dispatch=dispatch),
    )


@value_memo
def _workload_key(points, _point_types, placement, *scalars) -> str:
    fields = {"points": list(points), "placement": list(placement)}
    fields.update(zip(_SCALAR_FIELDS, scalars))
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


@dataclass
class SessionResult:
    """What a session hands back to its user, live or replayed.

    ``status`` is the SLO-facing disposition: ``"completed"`` (results
    identical to a solo fault-free run of the same spec), ``"degraded"``
    (finished, but faults visibly touched the run — timeouts, retries,
    failovers, deadline refusals, a contained exception, or a missed
    deadline), or ``"shed"`` (rejected by admission control before any
    work; ``shed_reason`` says why and ``results`` is empty).
    ``wait_s`` is the virtual queue time charged before the session
    started; ``deadline_met`` is None when the spec carried no deadline.

    Open-loop timestamps: ``arrival_s`` is the session's arrival
    instant on the serve call's shared virtual timeline (0.0 under
    batch handover), and ``started_s`` / ``finished_s`` /
    ``end_to_end_s`` derive from it — end-to-end latency is queue wait
    plus the session's own virtual time, the quantity SLOs are judged
    against.
    """

    name: str
    workload_key: str
    replayed: bool
    results: List[dict]
    transient: Optional[dict]
    virtual_s: float
    digest: str
    traces: int
    messages: int
    payload_bytes: int
    header_bytes: int
    net_virtual_s: float
    fault_log: List[Tuple[float, str]] = field(default_factory=list)
    status: str = "completed"
    shed_reason: str = ""
    wait_s: float = 0.0
    deadline_met: Optional[bool] = None
    error: str = ""
    arrival_s: float = 0.0
    traffic_class: str = ""

    @property
    def shed(self) -> bool:
        return self.status == "shed"

    @property
    def degraded(self) -> bool:
        return self.status == "degraded"

    @property
    def started_s(self) -> float:
        """When service began on the shared timeline: arrival + wait."""
        return self.arrival_s + self.wait_s

    @property
    def end_to_end_s(self) -> float:
        """Arrival-to-done latency: queue wait + own virtual time (0 +
        wait for shed sessions, which never ran)."""
        return self.wait_s + self.virtual_s

    @property
    def finished_s(self) -> float:
        """Completion instant on the shared timeline."""
        return self.arrival_s + self.end_to_end_s

    def record(self) -> dict:
        """The session as one ``session`` record (``class`` is
        ``"default"`` when the spec carried no traffic-class label)."""
        return {
            "record": "session",
            "name": self.name,
            "class": self.traffic_class or "default",
            "status": self.status,
            "replayed": self.replayed,
            "points": len(self.results),
            "virtual_s": self.virtual_s,
            "arrival_virtual_s": self.arrival_s,
            "wait_virtual_s": self.wait_s,
            "end_to_end_virtual_s": self.end_to_end_s,
            "deadline_met": self.deadline_met,
            "shed_reason": self.shed_reason,
            "error": self.error,
            "fault_events": len(self.fault_log),
            "messages": self.messages,
            "digest": self.digest,
        }


class SessionContext:
    """A live session: per-session environment and executive over the
    shared installation, advanced step by step.

    Steps are ``setup`` (environment, F100 network, placements, process
    spawn), one ``point:i`` per operating point (warm-started Newton
    balance), optionally ``transient``, and ``finalize`` (capture
    results and traces, record into the workload cache, tear down).
    Setup's spawn and finalize's kill mutate the shared park; solve
    steps only read shared state.

    Fault isolation: a session with a fault plan gets a *private*
    network view, so injected partitions and gateway outages divert only
    its own traffic.  Host-level faults (machine crash, derate) hit the
    shared park by design — in a real installation, everyone on a
    crashed machine suffers together — and sessions run one after
    another, so a session meets the park as earlier ones left it.
    """

    def __init__(
        self,
        spec: SessionSpec,
        installation: SharedInstallation,
        seq: int = 0,
        dedup: bool = True,
        arrival_s: float = 0.0,
    ):
        self.spec = spec
        self.installation = installation
        self.seq = seq
        #: arrival instant on the serve call's shared virtual timeline
        #: (0.0 under batch handover; set by the open-loop driver)
        self.arrival_s = arrival_s
        self.dedup = dedup
        self.key = spec.workload_key()
        #: the full op-point cache family (the spec's operating-line
        #: family + engine-deck digest), resolved at setup once the deck
        #: is built; None unless the spec opts into the cache
        self._op_family: Optional[str] = None
        self.env = None
        self.executive: Optional[NPSSExecutive] = None
        self.injector = None
        self.supervisor = None
        self.replayed = False
        #: virtual queue time charged at admission (0 when admitted
        #: immediately); counts against the spec's deadline
        self.wait_s = 0.0
        self.shed_reason = ""
        self.error = ""
        self.results: List[dict] = []
        self.transient: Optional[dict] = None
        self.record: Optional[SessionRecord] = None
        self._result: Optional[SessionResult] = None
        self._engine = None
        self._flight = None
        self._x0 = None
        self._jac0 = None
        self._steps: List[str] = (
            ["setup"]
            + [f"point:{i}" for i in range(len(spec.points))]
            + (["transient"] if spec.transient_s > 0 else [])
            + ["finalize"]
        )
        self._cursor = 0

    # ---------------------------------------------------------------- state
    @property
    def done(self) -> bool:
        return self._cursor >= len(self._steps)

    def result(self) -> SessionResult:
        if self._result is None:
            raise RuntimeError(f"session {self.spec.name} has not finished")
        return self._result

    # ---------------------------------------------------------------- steps
    def run_next_step(self) -> str:
        step = self._steps[self._cursor]
        if step == "setup":
            self._setup()
        elif step.startswith("point:"):
            self._run_point(int(step.split(":", 1)[1]))
        elif step == "transient":
            self._run_transient()
        elif step == "finalize":
            self._finalize()
        self._cursor += 1
        return step

    def _setup(self) -> None:
        spec = self.spec
        self.env = self.installation.session_env(
            private_topology=spec.fault_plan is not None
        )
        ex = NPSSExecutive(
            env=self.env, avs_machine=spec.avs_machine, dispatch=spec.dispatch
        )
        self.executive = ex
        mods = ex.build_f100_network()
        mods["inlet"].set_param("altitude", spec.altitude_m)
        mods["inlet"].set_param("mach", spec.mach)
        mods["system"].set_param("transient seconds", spec.transient_s)
        mods["system"].set_param("time step", spec.transient_dt)
        for module_name, host in spec.placement.items():
            ex.editor.module(module_name).set_param("remote machine", host)
        ex._sync_placements()
        self._engine = ex.engine()
        self._flight = ex.flight_condition()
        family = spec.op_family()
        if family is not None:
            self._op_family = combine_keys(family, deck_key(self._engine.spec))
        if spec.resilient:
            from ..faults import FailoverSupervisor
            from ..resilience import BreakerBoard

            # breakers are per-session (their trip history is part
            # of the session's deterministic state); the retry
            # budget is the installation's — shared scarcity is the
            # point
            self.env.breakers = BreakerBoard()
            self.env.retry_budget = self.installation.retry_budget
            self.supervisor = FailoverSupervisor(manager=ex.manager)
            self.supervisor.attach()
        if spec.deadline_s is not None:
            from ..resilience import Deadline

            # the queue wait already spent wait_s of the SLO; the
            # session's private clock starts at 0, so the in-session
            # deadline is what remains
            self.env.deadline = Deadline(
                at_s=max(0.0, spec.deadline_s - self.wait_s)
            )
        ex.host.setup()
        if spec.fault_plan is not None:
            from ..faults import FaultInjector

            self.injector = FaultInjector(env=self.env, plan=spec.fault_plan)
            self.injector.attach()

    def _run_point(self, i: int) -> None:
        wf = self.spec.points[i]
        if self._op_family is not None:
            self._run_point_shared(wf)
            return
        op = self._engine.balance(self._flight, wf, x0=self._x0, jac0=self._jac0)
        report = self._engine.steady_report
        if report is not None and report.jacobian is not None:
            self._x0 = report.x
            self._jac0 = report.jacobian
        self.results.append(
            {
                "wf": float(wf),
                **self._point_summary(op),
                "virtual_s": float(self.env.clock.now),
            }
        )

    @staticmethod
    def _point_summary(op) -> dict:
        return {
            "n1": float(op.n1),
            "n2": float(op.n2),
            "thrust_N": float(op.thrust_N),
            "t4": float(op.t4),
            "sfc": float(op.sfc),
            "converged": bool(op.converged),
        }

    def _run_point_shared(self, wf: float) -> None:
        """One operating point through the installation op-point cache.

        Exact hits return the stored (cold-canonical) solution with no
        solve at all; seed/interp hits warm-start the solve from stored
        neighbours; misses are solved **cold** — not from the session's
        own previous point — so the stored entry is bitwise-canonical
        and future exact hits can skip safely.  Solved points feed back
        into the store with their provenance; a cold entry is never
        overwritten by a warm-derived one."""
        cache = self.installation.op_cache
        ws = cache.lookup(self._op_family, wf)
        if ws.skip_solve:
            # the solution was solved cold by an earlier session: serve
            # it verbatim (bitwise what a cold solve here would produce)
            self._x0, self._jac0 = ws.x0, ws.jac0
            self.results.append(
                {
                    "wf": float(wf),
                    **dict(ws.solution.point),
                    "virtual_s": float(self.env.clock.now),
                }
            )
            return
        provenance = "cold" if ws.kind == "miss" else ws.kind
        op = self._engine.balance(self._flight, wf, x0=ws.x0, jac0=ws.jac0)
        report = self._engine.steady_report
        point = self._point_summary(op)
        self.results.append(
            {"wf": float(wf), **point, "virtual_s": float(self.env.clock.now)}
        )
        if report is not None:
            # seed material for a trailing transient's initial balance
            self._x0, self._jac0 = report.x, report.jacobian
            if report.converged:
                cache.store(
                    self._op_family, wf, report.x, report.jacobian, point,
                    provenance=provenance,
                )

    def _run_transient(self) -> None:
        spec = self.spec
        wf = spec.points[-1]
        last = self._engine.balance(self._flight, wf, x0=self._x0, jac0=self._jac0)
        res = self._engine.transient(
            self._flight,
            Schedule.constant(wf),
            t_end=spec.transient_s,
            dt=spec.transient_dt,
            start=last,
        )
        self.transient = {
            "t_end": float(res.t[-1]),
            "steps": int(len(res.t)),
            "n1_final": float(res.n1[-1]),
            "n2_final": float(res.n2[-1]),
            "thrust_final": float(res.thrust[-1]),
            "method": res.method,
        }

    def _capture(self) -> SessionRecord:
        """What the run has produced so far, as a record — empty for a
        session with no environment (shed before it ran, or contained
        before set-up built one)."""
        env = self.env
        traces = env.traces if env is not None else []
        stats = env.transport.stats if env is not None else TrafficStats()
        return SessionRecord(
            results=list(self.results),
            transient=self.transient,
            virtual_s=float(env.clock.now) if env is not None else 0.0,
            digest=trace_digest(traces),
            traces=len(traces),
            impacted=any(t.outcome != "ok" or t.retries or t.failed_over for t in traces),
            messages=stats.messages,
            payload_bytes=stats.bytes,
            header_bytes=stats.header_bytes,
            net_virtual_s=float(sum(t.network_s for t in traces)),
        )

    def _finalize(self) -> None:
        record = self.record = self._capture()
        status, deadline_met = self._disposition(record)
        # only clean runs enter the cache: a record scarred by faults
        # (including a co-resident session's host crash on the shared
        # park) must not be replayed to future followers as canonical
        if self.dedup and self.spec.cacheable and status == "completed":
            self.installation.cache.put(self.key, record)
        fault_log = list(self.injector.log) if self.injector is not None else []
        self._result = self._result_from_record(
            record,
            replayed=False,
            fault_log=fault_log,
            status=status,
            deadline_met=deadline_met,
        )
        self._teardown()

    def _disposition(self, record: SessionRecord) -> Tuple[str, Optional[bool]]:
        """Classify a finished run: ``completed`` only when no fault
        visibly touched it (its traces are those of a solo fault-free
        run) *and* it made its deadline; anything else is explicitly
        ``degraded``."""
        impacted = record.impacted
        # chaos can touch a run without scarring its traces: a latency
        # spike slows delivered messages, and a supervisor can recover a
        # crashed instance from a placement prologue before any call
        # fails — consult the injector's interference counter and the
        # supervisor's recovery log too
        if self.injector is not None and self.injector.perturbed:
            impacted = True
        if self.supervisor is not None and (
            self.supervisor.recoveries or self.supervisor.dead_hosts
        ):
            impacted = True
        # ... and a non-resilient session whose process died (e.g. a
        # co-resident's crash event on the shared park) is silently
        # cold-restarted by the placement prologue — the environment
        # counts those unplanned restarts
        if self.env is not None and self.env.unplanned_restarts:
            impacted = True
        deadline_met: Optional[bool] = None
        if self.spec.deadline_s is not None:
            deadline_met = (self.wait_s + record.virtual_s) <= self.spec.deadline_s
        status = "degraded" if (impacted or deadline_met is False or self.error) else "completed"
        return status, deadline_met

    def _teardown(self) -> None:
        if self.injector is not None:
            self.injector.detach()
            self.injector = None
        if self.supervisor is not None:
            self.supervisor.detach()
            self.supervisor = None
        if self.executive is not None:
            self.executive.clear_network()
        self.executive = None
        self.env = None
        # kept for its result, not its engine: that holds the host, Manager
        # and environment alive for every later collection to walk
        self._engine = self._flight = self._x0 = self._jac0 = None

    # ------------------------------------------------- shedding & containment
    def shed(self, reason: str, deadline_met: Optional[bool] = None) -> None:
        """Reject this session before it does any work (admission
        control): an explicit, accounted refusal — never a silent drop."""
        self.shed_reason = reason
        self._result = self._result_from_record(
            self._capture(),
            replayed=False,
            fault_log=[],
            status="shed",
            deadline_met=deadline_met,
        )
        self._cursor = len(self._steps)

    def fail(self, exc: BaseException) -> None:
        """Contain an exception that escaped a step: capture whatever
        partial state exists, tear down (so the park's remote
        processes are not leaked), and finish as ``degraded`` — one
        session's blow-up must never take the serve loop down."""
        self.error = f"{type(exc).__name__}: {exc}"
        record = self.record = self._capture()
        fault_log = list(self.injector.log) if self.injector is not None else []
        _, deadline_met = self._disposition(record)
        self._result = self._result_from_record(
            record,
            replayed=False,
            fault_log=fault_log,
            status="degraded",
            deadline_met=deadline_met,
        )
        try:
            self._teardown()
        except Exception as teardown_exc:  # pragma: no cover - defensive
            self._result.error += f" (teardown: {teardown_exc})"
        self._cursor = len(self._steps)

    # --------------------------------------------------------------- replay
    def replay(self, record: SessionRecord) -> None:
        """Finish this session from a cached record of an identical
        workload.  Exact, not approximate: the live run is
        deterministic, so the recorded digest and results are
        byte-identical to what this session would have computed
        (differential-tested in tests/serve/)."""
        self.replayed = True
        self.record = record
        self.results = list(record.results)
        self.transient = record.transient
        deadline_met: Optional[bool] = None
        status = "completed"
        if self.spec.deadline_s is not None:
            # the replay is free of new work, but the SLO is judged as
            # if the session ran: recorded virtual time plus queue wait
            deadline_met = (self.wait_s + record.virtual_s) <= self.spec.deadline_s
            if not deadline_met:
                status = "degraded"
        self._result = self._result_from_record(
            record,
            replayed=True,
            fault_log=[],
            status=status,
            deadline_met=deadline_met,
        )
        self._cursor = len(self._steps)

    def _result_from_record(
        self,
        record: SessionRecord,
        replayed: bool,
        fault_log,
        status: str = "completed",
        deadline_met: Optional[bool] = None,
    ) -> SessionResult:
        return SessionResult(
            name=self.spec.name,
            workload_key=self.key,
            replayed=replayed,
            results=list(record.results),
            transient=record.transient,
            virtual_s=record.virtual_s,
            digest=record.digest,
            traces=record.traces,
            messages=record.messages,
            payload_bytes=record.payload_bytes,
            header_bytes=record.header_bytes,
            net_virtual_s=record.net_virtual_s,
            fault_log=fault_log,
            status=status,
            shed_reason=self.shed_reason,
            wait_s=self.wait_s,
            deadline_met=deadline_met,
            error=self.error,
            arrival_s=self.arrival_s,
            traffic_class=self.spec.traffic_class,
        )
