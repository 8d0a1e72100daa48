"""repro.resilience: SLO-aware serving under chaos.

The production-serving behaviours layered over :mod:`repro.schooner`'s
per-call retry/failover (PR 2) and :mod:`repro.serve`'s multi-session
scheduler (PR 4):

* :class:`Deadline` — virtual-time deadlines that ride in the RPC
  header; servers refuse already-late work with
  :class:`~repro.schooner.errors.DeadlineExceeded`, and the retry
  engine spends the remaining budget instead of its own clock.
* :class:`RetryBudget` — an installation-wide token bucket that stops
  retry storms across concurrent sessions.
* :class:`PercentileLedger` — exact streaming quantiles (p50/p95/p99)
  over virtual-time latency samples; the accounting substrate for the
  serve report's per-class queue-wait stats and the
  :mod:`repro.traffic` capacity sweeps — with :class:`ClassLedger` /
  :class:`LedgerBook`, the per-class attempt and task accounting over
  it.
* :mod:`repro.resilience.soak` — the deterministic chaos-soak harness
  (``python -m repro chaos``): N mixed sessions against seeded fault
  plans, with replay/leak/solo-equivalence invariants asserted after
  every soak.

The soak harness is intentionally not imported here (it pulls in the
whole serving stack); import :mod:`repro.resilience.soak` directly.
"""

from .budget import RetryBudget
from .deadline import Deadline
from .ledger import ClassLedger, LedgerBook, PercentileLedger

__all__ = [
    "Deadline",
    "RetryBudget",
    "PercentileLedger",
    "ClassLedger",
    "LedgerBook",
]
