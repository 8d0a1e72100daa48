"""Client stubs.

"This stub acts as the interface between the user's code and the Schooner
runtime.  Specifically, it handles the marshaling and unmarshaling of
arguments through calls to the UTS library, and utilizes the Schooner
library to locate and communicate with the remote procedures."
(paper, section 3.1)

A :class:`ClientStub` carries the per-procedure name cache described in
§4.2: the first call resolves the procedure's location through the
Manager; subsequent calls go straight to the cached location; and "the
call to the old location fails, resulting in an automatic call to the
Manager for the new information" after a migration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..machines.host import Machine
from ..network.clock import Timeline
from ..network.topology import NetworkError
from ..uts.compiled import precompile_signature
from ..uts.types import Signature
from .errors import BreakerOpen, CallFailed, CallTimeout, DeadlineExceeded, StaleBinding
from .lines import InstanceRecord, Line
from .runtime import CallBatch, CallerContext, CallFuture, CallTrace, execute_call

if TYPE_CHECKING:  # pragma: no cover
    from .manager import Manager

__all__ = ["ClientStub"]


@dataclass
class ClientStub:
    """A callable proxy for one imported remote procedure."""

    manager: "Manager"
    line: Line
    caller_machine: Machine
    import_sig: Signature
    # shared caller context: serializes synchronous calls on the
    # caller's own timeline and carries the active overlap batch.
    # None preserves the free-running per-line semantics.
    caller: Optional[CallerContext] = None
    _cache: Optional[InstanceRecord] = field(default=None, repr=False)
    lookups: int = 0  # Manager round trips, for the migration benchmark
    failovers: int = 0
    # set when a resolution path (here or sch_contact_schx) recovered a
    # dead binding before any call failed: the next call's trace still
    # records the failover
    _recovered: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        # stub generation time, not call time, is when the UTS plans are
        # built — the first RPC pays no compile cost
        precompile_signature(self.import_sig)

    @property
    def name(self) -> str:
        return self.import_sig.name

    def _resolve(self, timeline: Optional[Timeline] = None) -> InstanceRecord:
        """Ask the Manager for the procedure's location (one control
        round trip), type-checking the import against the export.

        The lookup exchange itself rides the faulty network, so it is
        retried under the environment's :class:`RetryPolicy`; a dead
        binding is handed to the attached failover supervisor (if any)
        for recovery before being returned.
        """
        env = self.manager.env
        policy = env.retry
        timeline = timeline if timeline is not None else self.line.timeline
        attempt = 1
        while True:
            try:
                env.transport.round_trip(
                    self.caller_machine,
                    self.manager.host,
                    "lookup",
                    self.name,
                    env.costs.control_message_bytes,
                    None,
                    env.costs.control_message_bytes,
                    timeline=timeline,
                )
                break
            except NetworkError as exc:
                timeline.advance(env.costs.call_timeout_s)
                if attempt >= policy.max_attempts:
                    raise CallTimeout(
                        f"{self.name}: cannot reach the Manager on "
                        f"{self.manager.host.hostname} ({exc})"
                    ) from exc
                timeline.advance(policy.backoff_s(attempt))
                attempt += 1
        self.lookups += 1
        record = self.manager.lookup(self.line, self.name, self.import_sig)
        supervisor = getattr(self.manager, "supervisor", None)
        if not record.alive and supervisor is not None:
            supervisor.recover(self.line, record, timeline=timeline)
            record = self.manager.lookup(self.line, self.name, self.import_sig)
            self._recovered = True
        self._cache = record
        return record

    def invalidate(self) -> None:
        self._cache = None

    def note_failover(self) -> None:
        """Mark that this stub's binding was recovered out-of-band (by
        ``sch_contact_schx``); the next call is annotated ``failed_over``."""
        self._recovered = True

    def _consume_recovered(self) -> bool:
        recovered, self._recovered = self._recovered, False
        return recovered

    def _refresh(
        self, record: InstanceRecord, timeline: Optional[Timeline] = None
    ) -> Tuple[InstanceRecord, bool]:
        """Re-resolve after a failure; reports whether the binding moved."""
        fresh = self._resolve(timeline)
        moved = (
            fresh.machine is not record.machine
            or fresh.generation != record.generation
            or self._consume_recovered()
        )
        return fresh, moved

    def __call__(self, **args: Any) -> Dict[str, Any]:
        """Invoke the remote procedure; returns the result parameters.

        On a stale cache (process moved or died) the stub automatically
        refreshes its binding from the Manager and retries once.  A
        timed-out call (lost request or reply on the simulated network)
        is retried with exponential backoff under the environment's
        :class:`~repro.schooner.runtime.RetryPolicy` — unconditionally
        for stateless procedures, and only when the timeout struck
        before the remote executed (``retry_safe``) for stateful ones.

        With a :class:`~repro.schooner.runtime.CallerContext` attached,
        the blocking call also serializes on the caller's timeline
        (dependent calls to different lines sum); inside an open
        overlap batch's probe region it rides the region's branch
        instead.  Use :meth:`begin` for genuinely concurrent calls.
        """
        ctx = self.caller
        if ctx is None:
            return self._invoke(args, self.line.timeline, "sync", None)
        batch = ctx.batch
        if batch is not None and batch.active_branch is not None:
            return batch.call_on_branch(self, args, batch.active_branch)
        # honest sequential semantics: the caller blocks for the whole
        # round trip, so back-to-back calls on different lines sum
        tl = self.line.timeline
        tl.sync_to(ctx.timeline.now)
        out = self._invoke(args, tl, "sync", None)
        ctx.timeline.sync_to(tl.now)
        return out

    def begin(self, batch: CallBatch, /, **args: Any) -> CallFuture:
        """Dispatch this call into an overlap ``batch``; the returned
        future's ``wait()`` joins the batch and yields the results."""
        return batch.begin(self, args)

    def _deadline(self):
        """The deadline in force for this stub's calls: the caller
        context's, falling back to the environment-wide one (a serving
        session's per-session deadline)."""
        if self.caller is not None and self.caller.deadline is not None:
            return self.caller.deadline
        return self.manager.env.deadline

    def _breaker_gate(
        self, record: InstanceRecord, timeline: Timeline, failed_over: bool
    ):
        """Consult the (procedure, host) circuit breaker before an
        attempt, when the environment has a board.  An open breaker
        fast-fails — but first the stub asks the Manager for a fresh
        binding, so a supervisor that has
        rebound the instance onto a healthy machine steers the call
        *away* from the sick host instead of refusing it."""
        board = self.manager.env.breakers
        breaker = board.lease(self.name, record.machine.hostname)
        if breaker.allow(timeline.now):
            return record, failed_over, breaker
        fresh, moved = self._refresh(record, timeline)
        if moved and fresh.machine.hostname != record.machine.hostname:
            alt = board.lease(self.name, fresh.machine.hostname)
            if alt.allow(timeline.now):
                self.failovers += 1
                return fresh, True, alt
        raise BreakerOpen(
            f"{self.name}: circuit open for {record.machine.hostname} "
            f"until t={breaker.retry_after_s:g}s (fast-fail)",
            retry_after_s=breaker.retry_after_s,
        )

    def _invoke(
        self,
        args: Dict[str, Any],
        timeline: Timeline,
        dispatch: str,
        trace_sink: Optional[List[CallTrace]],
    ) -> Dict[str, Any]:
        """The retry/refresh engine behind both dispatch modes, charging
        all virtual time (calls, backoffs, re-lookups) to ``timeline``."""
        env = self.manager.env
        record = self._cache
        if record is None:
            record = self._resolve(timeline)
        retries = 0
        failed_over = self._consume_recovered()
        if failed_over:
            self.failovers += 1
        policy = env.retry
        deadline = self._deadline()
        budget = env.retry_budget
        try:
            attempt = 1
            while True:
                breaker = None
                if env.breakers is not None:
                    record, failed_over, breaker = self._breaker_gate(
                        record, timeline, failed_over
                    )
                try:
                    try:
                        out = execute_call(
                            env,
                            self.caller_machine,
                            timeline,
                            record,
                            self.import_sig,
                            args,
                            retries=retries,
                            failed_over=failed_over,
                            dispatch=dispatch,
                            trace_sink=trace_sink,
                            deadline=deadline,
                        )
                    except StaleBinding:
                        # cache-refresh-on-failed-call: fetch the new
                        # location and retry once at the new binding
                        self.failovers += 1
                        record, moved = self._refresh(record, timeline)
                        failed_over = failed_over or moved
                        if breaker is not None:
                            breaker = env.breakers.lease(
                                self.name, record.machine.hostname
                            )
                        out = execute_call(
                            env,
                            self.caller_machine,
                            timeline,
                            record,
                            self.import_sig,
                            args,
                            retries=retries,
                            failed_over=failed_over,
                            dispatch=dispatch,
                            trace_sink=trace_sink,
                            deadline=deadline,
                        )
                    if breaker is not None:
                        breaker.record_success(timeline.now)
                    if budget is not None:
                        budget.on_success()
                    return out
                except CallTimeout as exc:
                    if breaker is not None:
                        breaker.record_failure(timeline.now)
                    # retry_safe already folds in the procedure's
                    # stateless/idempotent contract for lost replies
                    if not exc.retry_safe:
                        raise
                    if not policy.may_retry(
                        attempt,
                        timeline.now,
                        deadline=deadline,
                        attempt_cost_s=env.costs.call_timeout_s,
                    ):
                        if deadline is not None:
                            # the remaining budget, not max_attempts,
                            # said stop: surface that distinctly
                            raise DeadlineExceeded(
                                f"{self.name}: "
                                f"{deadline.remaining(timeline.now):.3f}s of "
                                f"deadline budget cannot cover another retry "
                                f"(backoff {policy.backoff_s(attempt):.3f}s + "
                                f"timeout {env.costs.call_timeout_s:.3f}s)",
                                trace=exc.trace,
                                remaining_s=deadline.remaining(timeline.now),
                            ) from exc
                        raise
                    if budget is not None and not budget.try_spend():
                        # the installation-wide retry budget is dry:
                        # retrying now would feed the storm — surface
                        # the original timeout instead
                        raise
                    timeline.advance(policy.backoff_s(attempt))
                    attempt += 1
                    retries += 1
                    # the silence may mean a dead host, not just a lost
                    # packet: refresh the binding before trying again
                    record, moved = self._refresh(record, timeline)
                    failed_over = failed_over or moved
        except (DeadlineExceeded, BreakerOpen):
            # fast-fail semantics: late or breaker-refused work is a
            # caller-side condition, not a line error — the line's
            # remote procedures stay up for the next call
            raise
        except CallFailed:
            # the paper's error semantics: "when ... an error occurs,
            # the Manager terminates only the remote procedures within
            # the affected line"
            self.manager.line_error(self.line)
            self.invalidate()
            raise

    def call1(self, **args: Any) -> Any:
        """Convenience: call and return the single result parameter."""
        results = self(**args)
        returned = self.import_sig.returned_params
        if len(returned) != 1:
            raise ValueError(
                f"{self.name} has {len(returned)} result parameters; use __call__"
            )
        return results[returned[0].name]
