"""The batch admission core: one chronology, two executors.

The paper's Schooner has one Manager that decides and per-machine
Servers that only execute.  The serve plane is built the same way:
:class:`AdmissionCore` owns every admission decision of a batch serve —
priority tiers, queue-full shedding, workload leader/follower dedup,
op-point family chains, the least-virtual-time fairness heap, one
admission per freed slot with the wait charged forward, parked-deadline
expiry, and the straggler frontier — and drives an *executor* that only
knows how to advance sessions:

``step(ctx)``
    advance one session one step; return its next fairness key (its
    virtual time after the step), or ``None`` when that step finished it.
``replay(ctx, count=False)``
    finish ``ctx`` from the workload record of an identical session if
    one exists and say whether it did (``count`` marks the lookup as
    cache traffic rather than a scheduling probe).
``occupancy(ctx)``
    a finished session's charged wait plus its own virtual time — the
    instant its live slot frees.
``ship(batch)``
    called with the admitted tier before anything steps, with every
    batch about to enter the heap, and empty at the end; a no-op unless
    sessions execute somewhere else.

There are exactly two: :class:`InlineExecutor` here (real
``SessionContext.run_next_step``, ``WorkloadCache.peek``) and the shard
parent's in :mod:`repro.serve.shards` (the per-step trails and wire
results its workers return).  Shard workers run this same core over
their share of each wave, so the chronology exists once.

Freed slots are paired with parked sessions in *heap completion order*,
not timeline order: a session that finishes its last step earlier on
the fairness heap frees its slot first even when its occupancy instant
is later (tests/serve/test_admission.py pins the case).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from .installation import SharedInstallation
from .session import SessionContext

__all__ = ["AdmissionCore", "AdmissionPolicy", "InlineExecutor", "parked_expiry_reason"]


@dataclass(frozen=True)
class AdmissionPolicy:
    """Overload policy for one ``serve()`` call.

    ``max_live`` bounds how many sessions run concurrently; the next
    ``max_parked`` wait in a priority queue (higher ``SessionSpec.priority``
    first, admission order breaking ties) and are admitted as live slots
    free, with their queue wait charged against their deadlines.
    Sessions beyond both bounds are **shed** — rejected with an explicit
    reason, never silently dropped.  A parked session whose deadline
    expires before a slot frees is shed at admission time rather than
    run to a guaranteed SLO miss (the load-shedding half of the
    deadline-propagation story: refuse late work as early as possible).

    The defaults (both ``None``) disable admission control entirely,
    preserving the PR-4 serve semantics.
    """

    max_live: Optional[int] = None
    max_parked: Optional[int] = None

    @property
    def effective_max_live(self) -> Optional[int]:
        """``max_live`` clamped to ≥ 1: every serve path grants at least
        one live slot, so a bound of 0 cannot deadlock the queue."""
        return None if self.max_live is None else max(1, self.max_live)

    @property
    def effective_max_parked(self) -> Optional[int]:
        """``max_parked`` clamped to ≥ 0: a negative value would slice
        the ranked list backwards and silently mis-shed."""
        return None if self.max_parked is None else max(0, self.max_parked)

    def queue_full_reason(self, priority: int) -> str:
        """The shed reason for a session that found both tiers full, in
        the slots actually granted."""
        return (
            f"queue full ({self.effective_max_live} live + "
            f"{self.effective_max_parked} parked slots, priority {priority})"
        )


def parked_expiry_reason(ctx: SessionContext, freed_at_s: float) -> Optional[str]:
    """The shed reason for a parked session whose charged wait has used
    up its deadline by the time a live slot frees at ``freed_at_s``
    (on the caller's timeline), or ``None`` while it can still be
    served."""
    deadline_s = ctx.spec.deadline_s
    if deadline_s is None or ctx.wait_s < deadline_s:
        return None
    return (
        f"deadline ({deadline_s:g}s) expired while parked: "
        f"first live slot freed at t={freed_at_s:.3f}s"
    )


class InlineExecutor:
    """Executes sessions on this interpreter against one installation.
    ``trails``, when a dict is passed, is filled with each session's
    per-step virtual-time trail (``seq -> [virtual_now after each
    step]``; sessions that replay never step and leave none) — what a
    shard worker hands its parent."""

    def __init__(
        self,
        installation: SharedInstallation,
        trails: Optional[Dict[int, List[float]]] = None,
    ):
        self.cache = installation.cache
        self.trails = trails

    def step(self, ctx: SessionContext) -> Optional[float]:
        """A step that raises is *contained*: the session finishes as
        ``degraded`` (carrying the error) and is torn down."""
        try:
            ctx.run_next_step()
        except Exception as exc:
            ctx.fail(exc)
        if self.trails is not None:
            self.trails.setdefault(ctx.seq, []).append(ctx.virtual_now)
        return None if ctx.done else ctx.virtual_now

    def replay(self, ctx: SessionContext, count: bool = False) -> bool:
        record = self.cache.get(ctx.key, count=count)
        if record is None:
            return False
        ctx.replay(record)
        return True

    def occupancy(self, ctx: SessionContext) -> float:
        return ctx.wait_s + ctx.virtual_now

    def ship(self, batch: Sequence[SessionContext]) -> None:
        pass


class AdmissionCore:
    """One batch serve's admission state machine (see the module doc).

    Construction ranks ``contexts`` by (priority desc, admission seq),
    fills ``admitted`` (the live slots), parks the next tier in
    ``parked`` and sheds the rest with a reason; :meth:`run` drives the
    chronology through an executor.  Contexts may carry a pre-charged
    ``wait_s``; it is never reset to an earlier instant."""

    def __init__(
        self,
        contexts: Sequence[SessionContext],
        admission: Optional[AdmissionPolicy],
        dedup: bool,
    ):
        admission = admission or AdmissionPolicy()
        self.dedup = dedup
        ranked = sorted(contexts, key=lambda c: (-c.spec.priority, c.seq))
        max_live = (
            len(ranked) if admission.max_live is None else admission.effective_max_live
        )
        max_parked = (
            len(ranked)
            if admission.max_parked is None
            else admission.effective_max_parked
        )
        self.admitted: List[SessionContext] = sorted(
            ranked[:max_live], key=lambda c: c.seq
        )
        self.parked: List[SessionContext] = ranked[max_live : max_live + max_parked]
        self.n_parked = len(self.parked)
        for ctx in ranked[max_live + max_parked :]:
            ctx.shed(admission.queue_full_reason(ctx.spec.priority))
        #: workload key -> the session currently running it live, and the
        #: sessions waiting to replay its record
        self.leaders: Dict[str, SessionContext] = {}
        self.followers: Dict[str, List[SessionContext]] = {}
        #: op-point family -> its live sessions in admission order; only
        #: the head runs.  Serialising a family is what makes every
        #: per-point cache lookup see a deterministic store state (inline
        #: digests depend on it); distinct families still interleave.
        self.op_chains: Dict[str, List[SessionContext]] = {}
        self.finished: Set[int] = set()

    def run(self, ex) -> None:
        """Drive every admitted and parked session to a result through
        executor ``ex`` (the four calls in the module doc)."""
        runnable = []
        for ctx in self.admitted:
            # a follower's workload either matches an earlier leader in
            # this batch or is already cached from a previous serve
            if self._dedups(ctx):
                if ex.replay(ctx, count=True):
                    continue
                if ctx.key in self.leaders:
                    self.followers.setdefault(ctx.key, []).append(ctx)
                    continue
                self.leaders[ctx.key] = ctx
            if self._heads_chain(ctx):
                runnable.append(ctx)
        ex.ship(self.admitted)

        # sessions enter the heap unstepped: fairness key 0.0, ties
        # broken by push order
        ticket = itertools.count()
        heap = [(0.0, next(ticket), ctx) for ctx in runnable]
        while heap:
            _, _, ctx = heapq.heappop(heap)
            key = ex.step(ctx)
            if key is not None:
                heapq.heappush(heap, (key, next(ticket), ctx))
                continue
            entering = self._on_done(ctx, ex)
            # the slot frees at the completing session's *occupancy*
            # instant, so successive admissions chain and the Nth
            # session in line is charged the whole queue ahead of it
            nxt = self._admit_next(ex.occupancy(ctx), ex)
            if nxt is not None:
                entering.append(nxt)
            ex.ship(entering)
            for c in entering:
                heapq.heappush(heap, (0.0, next(ticket), c))

        # a parked session can only still be waiting if every live
        # session replayed instantly and freed no slot above — admit the
        # stragglers at the batch frontier.  Each advances the frontier
        # by its own occupancy, so the Nth straggler in line is charged
        # the queue ahead of it.
        frontier = 0.0
        while self.parked:
            nxt = self._admit_next(frontier, ex)
            if nxt is None:
                break
            work = [nxt]
            while work:
                ctx = work.pop(0)
                ex.ship([ctx])
                while ex.step(ctx) is not None:
                    pass
                frontier = max(frontier, ex.occupancy(ctx))
                work.extend(self._on_done(ctx, ex))
        ex.ship([])

    def _dedups(self, ctx: SessionContext) -> bool:
        return self.dedup and ctx.spec.cacheable

    def _heads_chain(self, ctx: SessionContext) -> bool:
        """Join ``ctx`` to its op-point family's chain; True when it may
        run now (it heads the chain, or has no family), False when an
        earlier same-family session is still running and it must wait
        its turn instead of racing that session's store."""
        fam = ctx.op_chain_key
        if fam is None:
            return True
        chain = self.op_chains.setdefault(fam, [])
        chain.append(ctx)
        return len(chain) == 1

    def _on_done(self, ctx: SessionContext, ex) -> List[SessionContext]:
        """Everything a finished session unblocks, in push order: its
        workload followers that must now run live — they replay unless
        the leader left no record (caching off, or it degraded: degraded
        records are never cached) — then the next waiter on its op-point
        family chain, now guaranteed a fully-populated family store.
        A requeued follower joins its family chain like any admission;
        the finished leader is still on that chain here, so the follower
        queues behind it and comes out below, once, in its turn."""
        self.finished.add(ctx.seq)
        out = []
        for f in self.followers.pop(ctx.key, []):
            if not ex.replay(f):
                self.leaders[f.key] = f
                if self._heads_chain(f):
                    out.append(f)
        chain = self.op_chains.get(ctx.op_chain_key)
        if chain:
            if ctx in chain:
                chain.remove(ctx)
            if chain:
                out.append(chain[0])
            else:
                del self.op_chains[ctx.op_chain_key]
        return out

    def _admit_next(self, fair_now: float, ex) -> Optional[SessionContext]:
        """A live slot freed at virtual instant ``fair_now``: admit the
        highest-ranked parked session that can still be served, charging
        the wait against its deadline.  Parked sessions that resolve to
        a replay, a follower, or an op-chain waiter do not consume the
        slot — keep admitting until one needs to run live (or the queue
        drains)."""
        while self.parked:
            ctx = self.parked.pop(0)
            # never reset an already-accumulated wait to an earlier
            # instant: stragglers admitted in sequence keep the queue
            # time their predecessors charged them
            ctx.wait_s = max(ctx.wait_s, fair_now)
            reason = parked_expiry_reason(ctx, ctx.wait_s)
            if reason is not None:
                ctx.shed(reason, deadline_met=False)
                continue
            if self._dedups(ctx):
                if ex.replay(ctx):
                    continue
                leader = self.leaders.get(ctx.key)
                if leader is not None and leader.seq not in self.finished:
                    self.followers.setdefault(ctx.key, []).append(ctx)
                    continue
                self.leaders[ctx.key] = ctx
            if self._heads_chain(ctx):
                return ctx
        return None
