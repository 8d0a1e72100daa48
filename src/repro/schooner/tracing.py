"""RPC trace analysis.

The runtime records a :class:`~repro.schooner.runtime.CallTrace` per
call; this module aggregates trace lists into the per-procedure and
per-link summaries the benchmark harness reports — calls, bytes, and
where the virtual time went (network vs marshal vs compute).

Byte counts are UTS *payload* bytes (the marshaled arguments); the fixed
per-message Schooner header is accounted separately by
:class:`~repro.network.transport.TrafficStats`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from .runtime import CallTrace

__all__ = ["ProcedureSummary", "summarize", "render_summary", "trace_digest"]


def trace_digest(traces) -> str:
    """SHA-256 over the serialized call traces — the replay-identity
    witness.  Every field that could vary between runs is included;
    process-global counters (instance ids, pids) are deliberately not
    part of a trace."""
    h = hashlib.sha256()
    for t in traces:
        h.update(
            (
                f"{t.procedure}|{t.caller}|{t.callee}|{t.request_bytes}|"
                f"{t.reply_bytes}|{t.started_at!r}|{t.finished_at!r}|"
                f"{t.client_cpu_s!r}|{t.server_cpu_s!r}|{t.compute_s!r}|"
                f"{t.network_s!r}|{t.outcome}|{t.retries}|{int(t.failed_over)}|"
                f"{t.dispatch}|{t.timeout_hop}\n"
            ).encode()
        )
    return h.hexdigest()


@dataclass
class ProcedureSummary:
    """Aggregate statistics for one remote procedure."""

    procedure: str
    calls: int = 0
    total_s: float = 0.0
    network_s: float = 0.0
    client_cpu_s: float = 0.0
    server_cpu_s: float = 0.0
    compute_s: float = 0.0
    request_bytes: int = 0
    reply_bytes: int = 0
    routes: Dict[Tuple[str, str], int] = field(default_factory=dict)
    # resilience: attempts that timed out, total retries behind the
    # successful calls, and calls completed only after a failover
    timeouts: int = 0
    retries: int = 0
    failovers: int = 0
    #: attempts refused as already-late (deadline expired in flight or
    #: before dispatch) — distinct from timeouts: delivered, but late
    deadline_refusals: int = 0
    #: which leg the timeouts lost, e.g. {"request": 3, "reply": 1}
    timeout_hops: Dict[str, int] = field(default_factory=dict)
    #: calls issued through a CallBatch rather than serialized sync
    overlapped: int = 0

    def add(self, t: CallTrace) -> None:
        self.calls += 1
        if t.dispatch == "overlap":
            self.overlapped += 1
        self.total_s += t.total_s
        self.network_s += t.network_s
        self.client_cpu_s += t.client_cpu_s
        self.server_cpu_s += t.server_cpu_s
        self.compute_s += t.compute_s
        self.request_bytes += t.request_bytes
        self.reply_bytes += t.reply_bytes
        route = (t.caller, t.callee)
        self.routes[route] = self.routes.get(route, 0) + 1
        if t.outcome == "timeout":
            self.timeouts += 1
            if t.timeout_hop:
                self.timeout_hops[t.timeout_hop] = (
                    self.timeout_hops.get(t.timeout_hop, 0) + 1
                )
        elif t.outcome == "deadline":
            self.deadline_refusals += 1
        else:
            # the completing attempt carries the whole call's counters,
            # so summing only successful traces avoids double counting
            self.retries += t.retries
            if t.failed_over:
                self.failovers += 1

    @property
    def mean_ms(self) -> float:
        return 1e3 * self.total_s / self.calls if self.calls else 0.0

    @property
    def network_share(self) -> float:
        """Fraction of the total virtual time spent on the wire — the
        latency-bound-ness of this procedure's call pattern."""
        return self.network_s / self.total_s if self.total_s else 0.0

    @property
    def overhead_share(self) -> float:
        """Everything but useful computation, as a fraction."""
        if not self.total_s:
            return 0.0
        return 1.0 - self.compute_s / self.total_s


def summarize(traces: Iterable[CallTrace]) -> Dict[str, ProcedureSummary]:
    """Group traces by procedure name."""
    out: Dict[str, ProcedureSummary] = {}
    for t in traces:
        out.setdefault(t.procedure, ProcedureSummary(procedure=t.procedure)).add(t)
    return out


def render_summary(traces: Iterable[CallTrace]) -> str:
    """A printable per-procedure cost table."""
    summaries = sorted(summarize(traces).values(), key=lambda s: -s.total_s)
    if not summaries:
        return "(no RPC traces)"
    faulty = any(s.timeouts or s.retries or s.failovers for s in summaries)
    late = any(s.deadline_refusals for s in summaries)
    overlapping = any(s.overlapped for s in summaries)

    def hops(s: ProcedureSummary) -> str:
        """Compact lost-leg annotation, e.g. ``req:3/rep:1``."""
        if not s.timeout_hops:
            return ""
        return "/".join(
            f"{k[:3]}:{n}" for k, n in sorted(s.timeout_hops.items())
        )

    lines = [
        f"{'procedure':<12} {'calls':>6} {'mean ms':>9} {'net %':>6} "
        f"{'ovh %':>6} {'req B':>8} {'rep B':>8}"
        + (f" {'ovl':>6}" if overlapping else "")
        + (f" {'t/o':>4} {'rty':>4} {'f/o':>4}" if faulty else "")
        + (f" {'ddl':>4}" if late else "")
        + (f" {'lost leg':>11}" if faulty else "")
    ]
    for s in summaries:
        lines.append(
            f"{s.procedure:<12} {s.calls:>6} {s.mean_ms:>9.2f} "
            f"{100*s.network_share:>6.1f} {100*s.overhead_share:>6.1f} "
            f"{s.request_bytes:>8} {s.reply_bytes:>8}"
            + (f" {s.overlapped:>6}" if overlapping else "")
            + (f" {s.timeouts:>4} {s.retries:>4} {s.failovers:>4}" if faulty else "")
            + (f" {s.deadline_refusals:>4}" if late else "")
            + (f" {hops(s):>11}" if faulty else "")
        )
    total = sum(s.total_s for s in summaries)
    calls = sum(s.calls for s in summaries)
    lines.append(f"{'TOTAL':<12} {calls:>6} {'':>9} "
                 f"{'':>6} {'':>6} total {total:.2f} virtual s")
    return "\n".join(lines)
