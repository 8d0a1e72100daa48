"""Exact streaming percentile ledgers and per-class SLO accounting.

A :class:`PercentileLedger` accepts samples one at a time (queue waits,
end-to-end latencies, lateness) and answers *exact* quantiles on
demand.  Exactness is a deliberate choice over the constant-memory
estimators (P², t-digest): the serving stack's latencies are virtual-
time quantities that must reproduce bit-for-bit across runs and modes,
and an estimator whose state depends on arrival order would smuggle
scheduling noise into the capacity numbers.  The ledger therefore keeps
every sample — compactly, in a C-double ``array`` (8 bytes each, so a
million-sample soak is 8 MB) — and sorts lazily, amortized across
queries with a dirty flag.

The quantile definition is the *inclusive* linear-interpolation grid
(``statistics.quantiles(..., method="inclusive")``, numpy's default):
for ``n`` sorted samples, ``quantile(q)`` interpolates at rank
``(n - 1) * q``.  The cross-check against :mod:`statistics` lives in
tests/resilience/test_ledger.py.

A :class:`ClassLedger` accumulates one traffic class's attempts and
tasks over serve results; a :class:`LedgerBook` holds one per class
plus the ``total`` roll-up.  Two levels of accounting deliberately
coexist:

* **attempts** — every offered session, retries included.  Queue-wait
  and end-to-end percentiles are attempt-level (each attempt really
  waited that long), as are the served/shed/deadline counters.  A serve
  report observes this level alone.
* **tasks** — distinct user requests (an original arrival plus all its
  retries is one task).  A task is *met* when its final attempt
  finished inside its deadline; *lost* when its final attempt was shed
  with no retry budget left.  ``deadline_met_rate`` — the knee metric —
  is task-level over tasks that carried deadlines, so retry feedback
  cannot launder a refused user into a smaller denominator.

The results observed are :class:`repro.serve.SessionResult` rows, read
by attribute only: this module imports nothing from the serving stack.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Optional

__all__ = ["PercentileLedger", "ClassLedger", "LedgerBook"]


class PercentileLedger:
    """Streaming-safe exact quantiles over float samples.

    ``add`` is O(1); ``quantile`` sorts lazily (amortized: repeated
    queries between adds reuse the sorted buffer).  ``merge`` folds
    another ledger in, which is how per-class ledgers roll up into a
    total.
    """

    __slots__ = ("_samples", "_dirty", "total")

    #: the percentile columns every record reports
    STOCK_POINTS = (0.50, 0.95, 0.99)

    def __init__(self, samples: Optional[Iterable[float]] = None) -> None:
        self._samples = array("d")
        self._dirty = False
        self.total = 0.0
        if samples is not None:
            self.extend(samples)

    # ------------------------------------------------------------- intake
    def add(self, x: float) -> None:
        self._samples.append(float(x))
        self.total += float(x)
        self._dirty = True

    def extend(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(x)

    def merge(self, other: "PercentileLedger") -> None:
        self._samples.extend(other._samples)
        self.total += other.total
        self._dirty = True

    @classmethod
    def merged(cls, ledgers: Iterable["PercentileLedger"]) -> "PercentileLedger":
        """One ledger folding every input in — how per-shard (or
        per-class) ledgers roll up into a single report row.  Exactness
        makes the fold order-independent: the merged quantiles equal
        those of the concatenated sample set, however it was sharded."""
        out = cls()
        for led in ledgers:
            out.merge(led)
        return out

    # ------------------------------------------------------------ queries
    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        n = len(self._samples)
        return self.total / n if n else math.nan

    @property
    def min(self) -> float:
        return min(self._samples) if self._samples else math.nan

    @property
    def max(self) -> float:
        return max(self._samples) if self._samples else math.nan

    def _sorted(self) -> array:
        if self._dirty:
            self._samples = array("d", sorted(self._samples))
            self._dirty = False
        return self._samples

    def quantile(self, q: float) -> float:
        """Exact quantile at ``q`` in [0, 1], inclusive linear
        interpolation over the sorted samples.  NaN when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile fraction {q!r} outside [0, 1]")
        xs = self._sorted()
        n = len(xs)
        if n == 0:
            return math.nan
        if n == 1:
            return xs[0]
        h = (n - 1) * q
        lo = math.floor(h)
        hi = min(lo + 1, n - 1)
        frac = h - lo
        return xs[lo] + (xs[hi] - xs[lo]) * frac

    def percentiles(self) -> Dict[str, float]:
        """The stock p50/p95/p99 columns, as a dict."""
        return {f"p{int(q * 100)}": self.quantile(q) for q in self.STOCK_POINTS}

    def __len__(self) -> int:
        return len(self._samples)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._samples:
            return "PercentileLedger(empty)"
        return (
            f"PercentileLedger(n={self.count}, mean={self.mean:.4g}, "
            f"p99={self.quantile(0.99):.4g})"
        )


@dataclass
class ClassLedger:
    """One traffic class's attempt- and task-level accounting."""

    name: str
    # ----- attempt level -----
    offered: int = 0
    served: int = 0  # completed + degraded (replays included)
    completed: int = 0
    degraded: int = 0
    replayed: int = 0
    shed: int = 0
    retries: int = 0  # attempts beyond each task's first
    points: int = 0
    good_points: int = 0  # points from attempts that met their deadline
    deadline_met: int = 0
    deadline_missed: int = 0
    queue_wait: PercentileLedger = field(default_factory=PercentileLedger)
    end_to_end: PercentileLedger = field(default_factory=PercentileLedger)
    # ----- task level -----
    tasks: int = 0
    tasks_with_deadline: int = 0
    tasks_met: int = 0
    tasks_missed: int = 0  # final attempt ran (or was shed) but blew the SLO
    tasks_lost: int = 0  # final attempt shed, no retry budget left

    def observe_attempt(self, r, is_retry: bool) -> None:
        self.offered += 1
        if is_retry:
            self.retries += 1
        if r.status == "shed":
            self.shed += 1
        else:
            self.served += 1
            self.completed += 1 if r.status == "completed" else 0
            self.degraded += 1 if r.status == "degraded" else 0
            self.replayed += 1 if r.replayed else 0
            self.points += len(r.results)
            self.queue_wait.add(r.wait_s)
            self.end_to_end.add(r.end_to_end_s)
            if r.deadline_met is not False:
                self.good_points += len(r.results)
        if r.deadline_met is True:
            self.deadline_met += 1
        elif r.deadline_met is False:
            self.deadline_missed += 1

    def observe_task(self, attempts: List, had_deadline: bool) -> None:
        """Fold in one task given its attempts in offer order (the last
        one is final — either it was served, or it was shed with no
        retry granted)."""
        final = attempts[-1]
        self.tasks += 1
        if had_deadline:
            self.tasks_with_deadline += 1
            if final.deadline_met is True:
                self.tasks_met += 1
            elif final.status == "shed":
                self.tasks_lost += 1
                # a shed-for-queue-full final attempt never got a
                # deadline verdict; it is still a missed task
                self.tasks_missed += 1
            else:
                self.tasks_missed += 1
        elif final.status == "shed":
            self.tasks_lost += 1

    @property
    def deadline_met_rate(self) -> Optional[float]:
        """Task-level SLO attainment — the knee metric.  None when the
        class carries no deadlines (nothing to attain)."""
        if self.tasks_with_deadline == 0:
            return None
        return self.tasks_met / self.tasks_with_deadline

    def record(self) -> dict:
        """The ledger as one ``class`` record: every counter, the
        task-level ``deadline_met_rate``, and the stock queue-wait and
        end-to-end percentiles in virtual seconds (``None`` when the
        class served nothing).  A serve report observes attempts only,
        so its task fields are 0."""
        out = {"record": "class", "class": self.name}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, int):
                out[f.name] = value
        out["deadline_met_rate"] = self.deadline_met_rate
        for label, led in (("wait", self.queue_wait), ("e2e", self.end_to_end)):
            for q in led.STOCK_POINTS:
                out[f"{label}_p{int(q * 100)}_virtual_s"] = (
                    led.quantile(q) if led.count else None
                )
        return out


class LedgerBook:
    """Per-class ledgers plus the ``total`` roll-up, built from a serve
    report's results (and, for task accounting, the traffic driver's
    task map)."""

    TOTAL = "total"

    def __init__(self) -> None:
        #: class name -> ledger, in first-seen order
        self.ledgers: Dict[str, ClassLedger] = {}

    def ledger(self, cls: str) -> ClassLedger:
        name = cls or "default"
        led = self.ledgers.get(name)
        if led is None:
            led = self.ledgers[name] = ClassLedger(name=name)
        return led

    def observe_attempt(self, r, is_retry: bool) -> None:
        self.ledger(r.traffic_class).observe_attempt(r, is_retry)

    def observe_task(self, attempts: List, had_deadline: bool) -> None:
        self.ledger(attempts[-1].traffic_class).observe_task(attempts, had_deadline)

    def total(self) -> ClassLedger:
        """Merge every class into one roll-up ledger (computed fresh —
        call after all observations): counters summed, percentile
        ledgers folded."""
        out = ClassLedger(name=self.TOTAL)
        for led in self.ledgers.values():
            for f in fields(ClassLedger):
                mine, theirs = getattr(out, f.name), getattr(led, f.name)
                if isinstance(mine, PercentileLedger):
                    mine.merge(theirs)
                elif isinstance(mine, int):
                    setattr(out, f.name, mine + theirs)
        return out

    def classes(self) -> Dict[str, ClassLedger]:
        """Per-class ledgers in sorted-name order, total last."""
        out = {name: self.ledgers[name] for name in sorted(self.ledgers)}
        out[self.TOTAL] = self.total()
        return out
