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
from ..machines.process import ProcessState
from ..network.clock import Timeline
from ..uts.types import Signature
from .errors import CallFailed, CallTimeout, DeadlineExceeded, StaleBinding
from .lines import InstanceRecord, Line
from .runtime import (
    CallBatch,
    CallerContext,
    CallFuture,
    CallTrace,
    control_exchange,
    execute_call,
    plan_for,
)

if TYPE_CHECKING:  # pragma: no cover
    from .manager import Manager

__all__ = ["ClientStub"]

_RUNNING = ProcessState.RUNNING


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
    # (record, range policy, cost model, CallPlan) of the last binding
    # called: the plan is reused while the three are the same objects
    _bound: Optional[tuple] = field(default=None, repr=False)

    def _resolve(self, timeline: Optional[Timeline] = None) -> Tuple[InstanceRecord, bool]:
        """Ask the Manager for the procedure's location (one control
        round trip), type-checking the import against the export.

        The lookup exchange rides the faulty network under the control
        ladder (:func:`control_exchange`).  A dead binding is handed to
        the attached failover supervisor (if any) for recovery before
        being returned: this is the one place a failover starts.
        Returns the binding and whether it was recovered."""
        manager = self.manager
        env = manager.env
        name = self.import_sig.name
        timeline = timeline if timeline is not None else self.line.timeline
        nbytes = env.costs.control_message_bytes
        control_exchange(
            env, timeline,
            lambda loss: CallTimeout(f"{name}: cannot reach the Manager on {manager.host.hostname} ({loss})"),
            env.transport.round_trip, self.caller_machine, manager.host, "lookup", name,
            nbytes, None, nbytes, timeline)
        self.lookups += 1
        record = manager.lookup(self.line, name, self.import_sig)
        supervisor = manager.supervisor
        recovered = not record.alive and supervisor is not None
        if recovered:
            supervisor.recover(self.line, record, timeline)
            record = manager.lookup(self.line, name, self.import_sig)
        self._cache = record
        return record, recovered

    def invalidate(self) -> None:
        self._cache = None

    def _refresh(
        self, record: InstanceRecord, timeline: Optional[Timeline] = None
    ) -> Tuple[InstanceRecord, bool]:
        """Re-resolve after a failure; reports whether the binding moved."""
        fresh, recovered = self._resolve(timeline)
        moved = (
            recovered
            or fresh.machine is not record.machine
            or fresh.generation != record.generation
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
        if batch is not None and batch._active_branch is not None:
            return batch.call_on_branch(self, args, batch._active_branch)
        # honest sequential semantics: the caller blocks for the whole
        # round trip, so back-to-back calls on different lines sum.  The
        # line moves to the caller's instant before the call and the
        # caller to the line's after it: Timeline.sync_to, inline both
        # times (the envelope check is where due clock events fire)
        tl = self.line.timeline
        t = ctx.timeline._elapsed
        if t > tl._elapsed:
            tl._elapsed = t
            clock = tl.clock
            if t > clock._now:
                clock._now = t
                if clock._events and clock._events[0][0] <= t:
                    clock._notify()
        elif t != t:
            raise ValueError(f"cannot move time to {t}")
        out = self._invoke(args, tl, "sync", None)
        t, tl = tl._elapsed, ctx.timeline
        if t > tl._elapsed:
            tl._elapsed = t
            clock = tl.clock
            if t > clock._now:
                clock._now = t
                if clock._events and clock._events[0][0] <= t:
                    clock._notify()
        elif t != t:
            raise ValueError(f"cannot move time to {t}")
        return out

    def begin(self, batch: CallBatch, /, **args: Any) -> CallFuture:
        """Dispatch this call into an overlap ``batch``; the returned
        future's ``wait()`` joins the batch and yields the results."""
        return batch.begin(self, args)

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
        retries = 0
        policy = env.retry
        # the environment-wide deadline (a serving session's own)
        deadline = env.deadline
        budget = env.retry_budget
        try:
            # a first lookup lost past its ladder is a line error too
            record = self._cache
            failed_over = False
            if record is None:
                record, failed_over = self._resolve(timeline)
                if failed_over:
                    self.failovers += 1
            attempt = 1
            while True:
                try:
                    for stale_retry in (False, True):
                        # the binding's CallPlan, looked up again only
                        # when the record, the range policy or the cost
                        # model is another object; none for a dead
                        # process, so execute_call refuses the binding
                        # before any plan (and its type check) is built
                        bound = self._bound
                        if (bound is not None and bound[0] is record
                                and bound[1] is env.range_policy and bound[2] is env.costs):
                            plan = bound[3]
                        elif record.process.state is not _RUNNING:
                            plan = None
                        else:
                            plan = plan_for(env, self.caller_machine, record, self.import_sig)
                            self._bound = (record, env.range_policy, env.costs, plan)
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
                                plan=plan,
                            )
                            break
                        except StaleBinding:
                            if stale_retry:
                                raise
                            # cache-refresh-on-failed-call: fetch the new
                            # location and retry once at the new binding
                            self.failovers += 1
                            record, moved = self._refresh(record, timeline)
                            failed_over = failed_over or moved
                    # a deposit into a full bucket changes nothing
                    if budget is not None and budget.tokens < budget.capacity:
                        budget.on_success()
                    return out
                except CallTimeout as exc:
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
                                f"{self.import_sig.name}: "
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
        except DeadlineExceeded:
            # fast-fail semantics: late work is a caller-side
            # condition, not a line error — the line's remote
            # procedures stay up for the next call
            raise
        except CallFailed:
            # the paper's error semantics: "when ... an error occurs,
            # the Manager terminates only the remote procedures within
            # the affected line"
            self.manager.quit_line(self.line)
            self.invalidate()
            raise

    def call1(self, **args: Any) -> Any:
        """Convenience: call and return the single result parameter.  A
        procedure without exactly one is refused before anything is
        sent."""
        returned = self.import_sig.returned_params
        if len(returned) != 1:
            raise ValueError(
                f"{self.import_sig.name} has {len(returned)} result parameters; use __call__"
            )
        return self(**args)[returned[0].name]
