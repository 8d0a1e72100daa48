"""The serve entry points: many sessions multiplexed over one shared
installation on one virtual timeline.

:func:`serve_arrivals` offers sessions at arrival instants on a shared
virtual timeline: queue wait is charged from *arrival*, deadlines run
from arrival, and shed sessions can re-enter through a retry hook (the
:mod:`repro.traffic` package drives it with seeded arrival processes
and traffic-class mixes).  :func:`serve_sessions` hands over a closed
batch, which is the same thing with every arrival at t = 0.  Both are
argument handling around one chronology,
:class:`~repro.serve.admission.AdmissionCore`, run with the inline
executor here and, for ``mode="shard"``, with the shard parent's
(:mod:`repro.serve.shards`).

A session runs to completion the moment it starts.  Its clock is its
own, ``serve`` returns only when everything is done, and nothing reads
the order in which co-resident sessions' steps interleave — so none is
kept: sessions execute one after another in the order the timeline
starts them, which is also what makes every shared-cache lookup see a
deterministic store.

Dedup rides on the same loop: a session whose
:meth:`~repro.serve.session.SessionSpec.workload_key` is already
recorded in the :class:`~repro.serve.installation.WorkloadCache`
replays the recorded run exactly and takes no live slot.  Replay is the
big multi-tenant win — the N-th user of a popular scenario costs
milliseconds, not a fresh Newton solve — and it is *safe* because a
session's traces are a pure function of its spec (differential-tested).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..records import flatten
from ..resilience.ledger import LedgerBook
from .admission import AdmissionCore, AdmissionPolicy, InlineExecutor
from .installation import SharedInstallation
from .session import SessionContext, SessionResult, SessionSpec

__all__ = [
    "AdmissionPolicy",
    "Arrival",
    "ServeReport",
    "serve_arrivals",
    "serve_sessions",
]

#: below this much wall time a rate is meaningless noise — the report
#: says 0.0 (with a note in the ``serve`` record) instead of inf
WALL_S_FLOOR = 1e-6


@dataclass
class ServeReport:
    """What one ``serve()`` call hands back: per-session results in
    admission order plus the aggregate throughput the benchmarks and
    the CI gate consume.

    ``cache_hits``/``cache_misses`` (workload replay) and
    ``op_exact``/``op_near``/``op_miss`` (operating-point cache) are
    **per-call deltas**: counters are snapshotted at serve start, so a
    long-running server reusing one :class:`SharedInstallation` across
    calls sees each call's own traffic, never the accumulated lifetime
    totals."""

    results: List[SessionResult]
    wall_s: float
    mode: str
    workers: int
    live: int
    replayed: int
    cache_hits: int
    cache_misses: int
    parked: int = 0  # sessions that waited in the admission queue
    op_exact: int = 0  # op-point cache: solves skipped outright
    op_near: int = 0  # op-point cache: seeded/interpolated warm starts
    op_miss: int = 0  # op-point cache: cold solves
    #: per-shard breakdown rows (process-sharded serving only)
    shard_rows: Optional[List[dict]] = None

    @property
    def sessions(self) -> int:
        return len(self.results)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.results if r.status == "completed")

    @property
    def degraded(self) -> int:
        return sum(1 for r in self.results if r.status == "degraded")

    @property
    def shed(self) -> int:
        return sum(1 for r in self.results if r.status == "shed")

    @property
    def deadline_met(self) -> int:
        return sum(1 for r in self.results if r.deadline_met is True)

    @property
    def deadline_missed(self) -> int:
        """Sessions that missed their SLO — including shed-for-deadline
        ones, whose ``deadline_met`` is recorded as False at shedding."""
        return sum(1 for r in self.results if r.deadline_met is False)

    @property
    def points(self) -> int:
        return sum(len(r.results) for r in self.results)

    @property
    def points_per_s(self) -> float:
        """Wall-clock point throughput; 0.0 (never inf) when the serve
        was too small to time — see ``WALL_S_FLOOR``."""
        return self.points / self.wall_s if self.wall_s > WALL_S_FLOOR else 0.0

    @property
    def sessions_per_s(self) -> float:
        """Wall-clock session throughput; 0.0 (never inf) below the
        ``WALL_S_FLOOR``."""
        return self.sessions / self.wall_s if self.wall_s > WALL_S_FLOOR else 0.0

    @property
    def aggregate_virtual_s(self) -> float:
        return sum(r.virtual_s for r in self.results)

    @property
    def makespan_virtual_s(self) -> float:
        """Last completion instant on the serve call's shared virtual
        timeline — the installation-occupancy denominator of goodput.
        Under batch handover (arrivals all at 0) this is the largest
        wait + virtual time; under ``serve_arrivals`` it spans the
        arrival horizon too."""
        return max((r.finished_s for r in self.results), default=0.0)

    def by_name(self, name: str) -> SessionResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def records(self) -> List[dict]:
        """One ``serve`` record, then a ``session`` record per result, a
        ``class`` record per traffic class (the attempt level of a
        :class:`~repro.resilience.ledger.ClassLedger`; unlabelled
        sessions group under ``"default"``, shed ones add no latency
        samples) and a ``shard`` record per shard row."""
        head = {
            "mode": self.mode,
            "workers": self.workers,
            "sessions": self.sessions,
            "points": self.points,
            "live": self.live,
            "replayed": self.replayed,
            "completed": self.completed,
            "degraded": self.degraded,
            "shed": self.shed,
            "parked": self.parked,
            "deadline_met": self.deadline_met,
            "deadline_missed": self.deadline_missed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "op_exact": self.op_exact,
            "op_near": self.op_near,
            "op_miss": self.op_miss,
            "wall_s": self.wall_s,
            "points_per_s": self.points_per_s,
            "sessions_per_s": self.sessions_per_s,
            "aggregate_virtual_s": self.aggregate_virtual_s,
            "makespan_virtual_s": self.makespan_virtual_s,
        }
        if self.wall_s <= WALL_S_FLOOR:
            head["wall_s_note"] = (
                f"wall_s {self.wall_s!r} at or below the {WALL_S_FLOOR:g}s "
                f"floor; points_per_s/sessions_per_s reported as 0.0"
            )
        book = LedgerBook()
        for r in self.results:
            book.observe_attempt(r, is_retry=False)
        return [
            flatten("serve", head),
            *(r.record() for r in self.results),
            *(led.record() for led in book.ledgers.values()),
            *(flatten("shard", row) for row in self.shard_rows or ()),
        ]


class _CallTally:
    """One non-shard serve call's clock and counter snapshots, taken at
    serve start so the report carries this call's deltas rather than the
    installation's lifetime totals (a long-running server reuses one
    installation across many calls)."""

    def __init__(self, installation: SharedInstallation):
        self.installation = installation
        self.cache0 = (installation.cache.hits, installation.cache.misses)
        op = installation.op_cache
        self.op0 = (op.exact_hits, op.near_hits, op.misses)
        self.t0 = time.perf_counter()

    def report(self, contexts: Sequence[SessionContext], parked: int) -> ServeReport:
        wall_s = time.perf_counter() - self.t0
        results = [ctx.result() for ctx in contexts]
        n_replayed = sum(1 for r in results if r.replayed)
        n_shed = sum(1 for r in results if r.status == "shed")
        cache, op = self.installation.cache, self.installation.op_cache
        return ServeReport(
            results=results,
            wall_s=wall_s,
            mode="inline",
            workers=1,
            live=len(results) - n_replayed - n_shed,
            replayed=n_replayed,
            cache_hits=cache.hits - self.cache0[0],
            cache_misses=cache.misses - self.cache0[1],
            parked=parked,
            op_exact=op.exact_hits - self.op0[0],
            op_near=op.near_hits - self.op0[1],
            op_miss=op.misses - self.op0[2],
        )


def serve_sessions(
    specs: Sequence[SessionSpec],
    installation: Optional[SharedInstallation] = None,
    mode: str = "inline",
    workers: int = 4,
    dedup: bool = True,
    admission: Optional[AdmissionPolicy] = None,
    transport: str = "auto",
) -> ServeReport:
    """Serve every session in ``specs`` concurrently over one shared
    installation and return the :class:`ServeReport`.

    ``installation`` defaults to a fresh
    :meth:`SharedInstallation.standard`; pass one explicitly to keep the
    workload cache warm across serve() calls (a long-running server).
    ``dedup=False`` forces every session live — the contrast arm of the
    determinism tests and benchmarks.  ``admission`` bounds concurrency
    and queueing under overload (see :class:`AdmissionPolicy`); the
    default admits everything.

    A session step that raises is *contained*: the session finishes as
    ``degraded`` (carrying the error) and is torn down; the other
    sessions keep being served.

    ``mode="shard"`` scales across cores: a
    :class:`~repro.serve.shards.ShardPool` of ``workers`` OS processes
    (at least one) is spawned for this call, the sessions are served on
    it by :func:`~repro.serve.shards.serve_sessions_sharded` — each
    worker serving inline on its own installation replica — and the
    pool is closed.  Digests and virtual times stay bitwise-identical to
    inline mode; a live ``installation`` cannot be passed (each shard
    builds its own) and is refused before anything is spawned.
    ``transport`` picks the shard data plane — ``"pipe"`` (framed
    pipes), ``"shm"`` (shared-memory payload rings, pipes as the
    control channel), or ``"auto"`` (shm where available); it and
    ``workers`` are ignored outside shard mode.  A long-running server
    keeps its own pool and calls ``serve_sessions_sharded`` on it.
    """
    if mode == "shard":
        from .shards import NotShardSafe, ShardPool, serve_sessions_sharded

        if installation is not None:
            raise NotShardSafe(
                "a live SharedInstallation (machine park, caches, retry budget) "
                "cannot cross a process boundary; shard workers each build their "
                "own replica — pass installation=None for sharded serving"
            )
        with ShardPool(workers, transport=transport) as pool:
            return serve_sessions_sharded(specs, pool, dedup=dedup, admission=admission)
    if mode != "inline":
        raise ValueError(f"unknown serve mode {mode!r}")
    return serve_arrivals(
        [(0.0, spec) for spec in specs], installation, dedup=dedup, admission=admission
    )


@dataclass(frozen=True)
class Arrival:
    """One offered session on the shared virtual timeline: the spec plus
    the instant it arrives at the installation's front door."""

    at_s: float
    spec: SessionSpec


def serve_arrivals(
    arrivals: Sequence,
    installation: Optional[SharedInstallation] = None,
    dedup: bool = True,
    admission: Optional[AdmissionPolicy] = None,
    on_shed: Optional[
        Callable[[SessionContext, float], Optional[Tuple[float, SessionSpec]]]
    ] = None,
) -> ServeReport:
    """Open-loop serving: admit each session at its *arrival instant* on
    a shared virtual timeline instead of batch handover.

    ``arrivals`` is a sequence of :class:`Arrival` (or ``(at_s, spec)``
    pairs); arrivals at an equal instant are offered best-ranked first
    (priority, then input order).  The event rules — start, park,
    displace, shed, admit from the queue at a departure, expire a parked
    deadline — are :class:`~repro.serve.admission.AdmissionCore`'s.
    ``on_shed`` (the :mod:`repro.traffic` retry-feedback hook) may hand
    back ``(at_s, spec)`` to re-offer a shed session later on the same
    timeline — the closed-loop retry storm that makes overload
    measurements honest.

    Everything lands in the ordinary :class:`ServeReport`: results in
    arrival order with retries after them, per-session
    ``arrival_s``/``wait_s``/``end_to_end_s`` carrying the timeline, and
    the ``class`` records of :meth:`ServeReport.records` the per-class
    latency ledgers.
    """
    normalized: List[Tuple[float, SessionSpec]] = []
    for a in arrivals:
        at_s, spec = (a.at_s, a.spec) if isinstance(a, Arrival) else a
        if at_s < 0:
            raise ValueError(f"negative arrival time {at_s!r} for {spec.name!r}")
        normalized.append((float(at_s), spec))
    installation = installation or SharedInstallation.standard()
    tally = _CallTally(installation)
    core = AdmissionCore(installation, admission, dedup, on_shed)
    for at_s, spec in sorted(normalized, key=lambda p: p[0]):  # stable: ties keep input order
        core.offer(at_s, spec)
    core.run(InlineExecutor(installation))
    return tally.report(core.contexts, core.n_parked)
