"""The admission core: one timeline, two executors.

The paper's Schooner has one Manager that decides and per-machine
Servers that only execute.  The serve plane is built the same way:
:class:`AdmissionCore` is the one discrete-event chronology every serve
path runs — a closed batch is simply the arrival trace whose sessions
all sit at t = 0 — and it drives an *executor* that only runs sessions.

The events, on the serve call's shared virtual timeline:

* an **arrival** replays at once, holding no live slot, when its
  workload is already recorded; otherwise it starts if a slot is free
  (queue wait 0), parks if the queue has room, displaces the
  worst-ranked parked session if it outranks it, and is shed with an
  explicit reason if not;
* a **departure** — at ``start + virtual_s``; a session runs to
  completion the moment it starts, so its departure is a pure function
  of its spec and charged wait — frees the slot for the best-ranked
  parked session, charged ``wait_s = now - arrival_s``; one whose
  deadline ran out in the queue is shed there instead of run to a
  guaranteed miss;
* a **shed** may come back: ``on_shed`` can re-offer the session later
  on the same timeline, as one more arrival.

At an equal instant departures go before arrivals (the arriving session
sees the freed slot), and arrivals are offered in rank order —
``(priority desc, seq)`` — so a batch fills its live, parked and shed
tiers best-ranked first.

The executor is two calls:

``run(batch)``
    run these started sessions to completion, in order, and return each
    one's ``virtual_s`` — or ``None`` for a session that instead
    replayed the record an identical session earlier in ``batch`` left.
``replay(ctx, count=False)``
    finish ``ctx`` from the workload record of an identical session if
    one exists and say whether it did (``count`` marks the lookup as
    cache traffic rather than a scheduling probe).  The executor may
    finish it in its next ``run`` instead: the core calls ``run`` at
    least once after every replay it asks for, with an empty batch if
    nothing else started.

There are exactly two: :class:`InlineExecutor` here (real
``SessionContext.run_next_step``, ``WorkloadCache.get``) and the shard
parent's in :mod:`repro.serve.shards`, for which ``run`` is one wave to
its workers.  That is why the core asks for ``virtual_s`` as late as it
can: started sessions accumulate until the next event cannot be decided
without their departures — the slots are full, or a departure is due — so
an unbounded batch is a single ``run``.  Shard workers run this same
core over their share of each wave, so the chronology exists once.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

from .installation import SharedInstallation
from .session import SessionContext, SessionSpec

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
    """Executes sessions on this interpreter against one installation."""

    def __init__(self, installation: SharedInstallation):
        self.cache = installation.cache

    def run(self, batch: Sequence[SessionContext]) -> List[Optional[float]]:
        """A step that raises is *contained*: the session finishes as
        ``degraded`` (carrying the error) and is torn down."""
        out: List[Optional[float]] = []
        ran: Set[str] = set()
        for ctx in batch:
            if ctx.key in ran and self.replay(ctx, count=True):
                out.append(None)
                continue
            if ctx.dedup and ctx.spec.cacheable:
                ran.add(ctx.key)
            while not ctx.done:
                try:
                    ctx.run_next_step()
                except Exception as exc:
                    ctx.fail(exc)
            out.append(ctx.result().virtual_s)
        return out

    def replay(self, ctx: SessionContext, count: bool = False) -> bool:
        record = self.cache.get(ctx.key, count=count)
        if record is None:
            return False
        ctx.replay(record)
        return True


#: event kinds: at an equal instant a departure is processed before an
#: arrival (the freed slot is visible to the arriving session)
_DEPART, _ARRIVE = 0, 1


def _rank(ctx: SessionContext) -> Tuple[int, int]:
    return (-ctx.spec.priority, ctx.seq)


class AdmissionCore:
    """One serve call's admission state machine (see the module doc).

    :meth:`offer` puts a session on the timeline; :meth:`run` drives
    every offered session to a result through an executor.  A context
    may be handed a pre-charged ``wait_s`` between the two (a shard
    worker's share arrives with the parent's queue time on it); it is
    never reset to an earlier instant."""

    def __init__(
        self,
        installation: Optional[SharedInstallation],
        admission: Optional[AdmissionPolicy] = None,
        dedup: bool = True,
        on_shed: Optional[
            Callable[[SessionContext, float], Optional[Tuple[float, SessionSpec]]]
        ] = None,
    ):
        self.installation = installation
        self.admission = admission or AdmissionPolicy()
        self.dedup = dedup
        self.on_shed = on_shed
        live, parked = self.admission.effective_max_live, self.admission.effective_max_parked
        self.max_live = float("inf") if live is None else live
        self.max_parked = float("inf") if parked is None else parked
        #: every offered session (retries included), in offer order
        self.contexts: List[SessionContext] = []
        #: the queue, best-ranked first
        self.parked: List[Tuple[Tuple[int, int], SessionContext]] = []
        self.n_parked = 0
        #: sessions holding a live slot: started and not yet departed
        self.live = 0
        self._events: list = []
        self._ticket = itertools.count()
        #: (session, start instant) started since the last ``ex.run``,
        #: and the workload keys among them that a twin could replay
        self._started: List[Tuple[SessionContext, float]] = []
        self._started_keys: Set[str] = set()
        #: a replay was resolved since the last ``ex.run``
        self._replayed = False

    def offer(self, at_s: float, spec: SessionSpec) -> SessionContext:
        """A session arrives at ``at_s``; returns its context."""
        ctx = SessionContext(
            spec,
            self.installation,
            seq=len(self.contexts),
            dedup=self.dedup,
            arrival_s=float(at_s),
        )
        self.contexts.append(ctx)
        heapq.heappush(self._events, (ctx.arrival_s, _ARRIVE, *_rank(ctx), ctx))
        return ctx

    def run(self, ex) -> None:
        """Drive every offered session, and every retry ``on_shed``
        offers on the way, to a result through executor ``ex``."""
        events = self._events
        while events or self._started:
            # started sessions are counted live until their departures
            # are known, which over-counts: only when that bound fills
            # the slots, or a departure is next, does the order of
            # events depend on them
            if self._started and (
                not events or events[0][1] == _DEPART or self.live >= self.max_live
            ):
                self._resolve(ex)
                continue
            now, kind, _, _, ctx = heapq.heappop(events)
            if kind == _DEPART:
                self.live -= 1
                self._admit_parked(now, ex)
            else:
                self._arrive(ctx, now, ex)
        if self._replayed:
            self._resolve(ex)

    def _dedups(self, ctx: SessionContext) -> bool:
        return self.dedup and ctx.spec.cacheable

    def _resolve(self, ex) -> None:
        started, self._started = self._started, []
        self._started_keys.clear()
        self._replayed = False
        for (ctx, at_s), virtual_s in zip(started, ex.run([c for c, _ in started])):
            if virtual_s is None:
                self.live -= 1  # it replayed its twin: no slot was held
            else:
                heapq.heappush(
                    self._events,
                    (at_s + virtual_s, _DEPART, 0, next(self._ticket), ctx),
                )

    def _start(self, ctx: SessionContext, now: float) -> None:
        ctx.wait_s = max(ctx.wait_s, now - ctx.arrival_s)
        self.live += 1
        self._started.append((ctx, now))
        if self._dedups(ctx):
            self._started_keys.add(ctx.key)

    def _shed(
        self,
        ctx: SessionContext,
        now: float,
        reason: str,
        deadline_met: Optional[bool] = None,
    ) -> None:
        ctx.shed(reason, deadline_met=deadline_met)
        if self.on_shed is not None:
            retry = self.on_shed(ctx, now)
            if retry is not None:
                at_s, spec = retry
                # a retry cannot arrive in the simulated past
                self.offer(max(float(at_s), now), spec)

    def _park(self, ctx: SessionContext) -> None:
        bisect.insort(self.parked, (_rank(ctx), ctx))
        self.n_parked += 1

    def _arrive(self, ctx: SessionContext, now: float, ex) -> None:
        # a twin of a session started but not yet run cannot replay yet:
        # it starts behind it (there is room, or ``run`` would have
        # resolved first) and the executor replays it if a record is left
        if (
            self._dedups(ctx)
            and ctx.key not in self._started_keys
            and self._replay(ex, ctx, count=True)
        ):
            return
        if self.live < self.max_live:
            self._start(ctx, now)
        elif len(self.parked) < self.max_parked:
            self._park(ctx)
        elif self.parked and _rank(ctx) < self.parked[-1][0]:
            _, worst = self.parked.pop()
            worst.wait_s = max(worst.wait_s, now - worst.arrival_s)
            self._shed(
                worst,
                now,
                f"displaced while parked by higher-priority arrival "
                f"{ctx.spec.name!r} at t={now:.3f}s",
            )
            self._park(ctx)
        else:
            self._shed(ctx, now, self.admission.queue_full_reason(ctx.spec.priority))

    def _admit_parked(self, now: float, ex) -> None:
        """A live slot freed at ``now``: start the best-ranked parked
        session that can still be served, charging each one taken off
        the queue the wait from its own arrival.  Expired and replayed
        sessions take no slot, so the queue keeps draining past them;
        the replay lookup here is a scheduling probe, not counted cache
        traffic."""
        while self.live < self.max_live and self.parked:
            _, best = self.parked.pop(0)
            best.wait_s = max(best.wait_s, now - best.arrival_s)
            reason = parked_expiry_reason(best, now)
            if reason is not None:
                self._shed(best, now, reason, deadline_met=False)
            elif not (self._dedups(best) and self._replay(ex, best)):
                self._start(best, now)

    def _replay(self, ex, ctx: SessionContext, count: bool = False) -> bool:
        replayed = ex.replay(ctx, count=count)
        self._replayed |= replayed
        return replayed
