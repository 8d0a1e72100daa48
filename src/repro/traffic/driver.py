"""The open-loop traffic driver: one offered stream, one report.

``build_stream`` samples a :class:`~repro.traffic.classes.TrafficMix`
along a seeded arrival process into a :class:`TrafficStream` — the
offered workload, fixed before anything runs.  ``run_traffic`` serves
it through :func:`repro.serve.serve_arrivals` with the retry-on-shed
feedback loop wired to each class's policy, then settles the per-class
:class:`~repro.resilience.ledger.ClassLedger` book.

Determinism contract (asserted in tests/traffic/): the same stream on
a fresh installation produces the same
:attr:`TrafficReport.digest`, which folds in every attempt's trace
digest *and* its numeric latency/disposition row.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..resilience.ledger import ClassLedger, LedgerBook
from ..serve import (
    AdmissionPolicy,
    Arrival,
    ServeReport,
    SessionSpec,
    SharedInstallation,
    serve_arrivals,
)
from .classes import TrafficMix

__all__ = [
    "TrafficStream",
    "TrafficReport",
    "build_stream",
    "run_traffic",
    "settle_ledgers",
]


def task_name(attempt_name: str) -> str:
    """Retries are named ``<task>#rN``; strip back to the task."""
    return attempt_name.split("#", 1)[0]


@dataclass(frozen=True)
class TrafficStream:
    """An offered workload: arrival instants with sampled specs, plus
    the provenance needed to rebuild it (mix, process kind, rate,
    seed)."""

    name: str
    seed: int
    process_kind: str
    rate_per_s: float
    mix: TrafficMix
    arrivals: Tuple[Arrival, ...]


def build_stream(
    mix: TrafficMix,
    process,
    sessions: int,
    seed: int = 0,
    name: Optional[str] = None,
) -> TrafficStream:
    """Sample ``sessions`` arrivals: instants from ``process``, specs
    from ``mix`` — both driven by ``seed``, so the stream is a pure
    function of its arguments."""
    rng_seed = f"stream:{seed}"
    import random

    rng = random.Random(rng_seed)
    times = process.times(sessions)
    arrivals = []
    for i, at_s in enumerate(times):
        cls = mix.pick(rng)
        spec = cls.make_spec(rng, name=f"{cls.name}-{i:04d}")
        arrivals.append(Arrival(at_s=at_s, spec=spec))
    return TrafficStream(
        name=name or f"{mix.name}@{process.rate_per_s:g}/s",
        seed=seed,
        process_kind=process.kind,
        rate_per_s=process.rate_per_s,
        mix=mix,
        arrivals=tuple(arrivals),
    )


@dataclass
class TrafficReport:
    """One traffic run: the raw serve report, the settled ledger book,
    and the determinism digest."""

    stream: TrafficStream
    report: ServeReport
    ledgers: Dict[str, ClassLedger]
    digest: str

    @property
    def total(self) -> ClassLedger:
        return self.ledgers[LedgerBook.TOTAL]


def _digest(results) -> str:
    """SHA-256 over every attempt's identity row: trace digest plus the
    numeric latency/disposition fields the ledgers are built from.
    Stronger than trace digests alone (which hash RPC structure, not
    argument payloads): any drift in waits, virtual times, results, or
    dispositions shows up here."""
    rows = [
        {
            "name": r.name,
            "class": r.traffic_class,
            "status": r.status,
            "digest": r.digest,
            "replayed": r.replayed,
            "arrival_s": round(r.arrival_s, 9),
            "wait_s": round(r.wait_s, 9),
            "virtual_s": round(r.virtual_s, 9),
            "deadline_met": r.deadline_met,
            "points": [round(p.get("thrust_N", 0.0), 6) for p in r.results],
        }
        for r in results
    ]
    payload = json.dumps(rows, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def run_traffic(
    stream: TrafficStream,
    installation: Optional[SharedInstallation] = None,
    admission: Optional[AdmissionPolicy] = None,
    dedup: bool = True,
) -> TrafficReport:
    """Serve the stream open-loop and settle the ledgers.

    Shed sessions whose class has ``retry_on_shed`` budget are
    re-offered at ``now + backoff * 2**(attempt-1)``; each retry gets a
    fresh deadline budget (the resubmitting user restates their SLO),
    while the ledger's *task* accounting still judges the user's
    request once, by its final attempt.
    """
    classes = {c.name: c for c in stream.mix.classes}
    attempts_made: Dict[str, int] = {}

    def on_shed(ctx, now: float) -> Optional[Tuple[float, SessionSpec]]:
        cls = classes.get(ctx.spec.traffic_class)
        if cls is None or cls.retry_on_shed <= 0:
            return None
        base = task_name(ctx.spec.name)
        n = attempts_made.get(base, 0)
        if n >= cls.retry_on_shed:
            return None
        attempts_made[base] = n + 1
        spec = replace(ctx.spec, name=f"{base}#r{n + 1}")
        return (now + cls.retry_backoff_s * (2**n), spec)

    report = serve_arrivals(
        stream.arrivals,
        installation=installation or SharedInstallation.standard(),
        dedup=dedup,
        admission=admission,
        on_shed=on_shed,
    )

    return TrafficReport(
        stream=stream,
        report=report,
        ledgers=settle_ledgers(stream, report.results),
        digest=_digest(report.results),
    )


def settle_ledgers(stream: TrafficStream, results) -> Dict[str, ClassLedger]:
    """Fold serve results into the per-class ledger book: every attempt,
    then every task (an arrival and its retries, grouped by name)."""
    by_task: Dict[str, List] = {}
    for r in results:
        by_task.setdefault(task_name(r.name), []).append(r)
    with_deadline = {
        a.spec.name for a in stream.arrivals if a.spec.deadline_s is not None
    }

    book = LedgerBook()
    for base, rs in by_task.items():
        for r in rs:
            book.observe_attempt(r, is_retry=r.name != base)
        # the spec's deadline is per-attempt state; any attempt carrying
        # a verdict means the task had a deadline
        had_deadline = base in with_deadline or any(
            x.deadline_met is not None for x in rs
        )
        book.observe_task(rs, had_deadline=had_deadline)
    return book.classes()
