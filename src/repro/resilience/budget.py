"""Installation-wide retry budgets.

A retry storm is the classic metastable failure: a blip makes every
session retry, the retries triple the load, the load makes more calls
time out, and the installation never recovers.  The cure (gRPC's
``retryThrottling``, Finagle's ``RetryBudget``) is a shared token
bucket: first attempts *deposit* a fraction of a token, retries *spend*
a whole one, and when the bucket runs dry retries are simply not
attempted — first attempts always proceed, so a healthy installation is
unaffected while a sick one sheds its retry amplification.

One :class:`RetryBudget` is shared by every resilient session of a
:class:`~repro.serve.installation.SharedInstallation`, which is exactly
what makes it an *admission* mechanism rather than a per-client
politeness: concurrent sessions draw from the same bucket.  Deposits
and spends happen in call order, so inline (deterministic) serving
replays identically.

Across **process shards** the bucket cannot be one shared float —
shard workers live in separate interpreters.  The spanning discipline is
a parent-arbitrated *token lease* (:meth:`lease` / :meth:`absorb`): the
parent carves its bucket into per-shard sub-budgets granted up front,
each worker spends against its lease locally with zero cross-process
traffic, and at settle time the parent folds every lease's unspent
tokens and spent/denied counters back in — the installation-wide
scarcity invariant (total granted retries never exceed the parent
bucket) holds without a single mid-run round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

__all__ = ["RetryBudget"]


@dataclass
class RetryBudget:
    """Token bucket: retries spend 1.0, successes deposit ``deposit``."""

    capacity: float = 10.0
    deposit: float = 0.1  # per first-attempt success
    tokens: float = 10.0
    spent: int = 0  # retries granted
    denied: int = 0  # retries refused (bucket dry)

    def on_success(self) -> None:
        """A first attempt completed: grow the budget toward capacity."""
        self.tokens = min(self.capacity, self.tokens + self.deposit)

    def try_spend(self) -> bool:
        """Spend one token for a retry; False means the retry must not
        be attempted (the caller surfaces the original failure)."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.spent += 1
            return True
        self.denied += 1
        return False

    def snapshot(self) -> dict:
        return {
            "tokens": self.tokens,
            "capacity": self.capacity,
            "spent": self.spent,
            "denied": self.denied,
        }

    # ------------------------------------------------- cross-shard leases
    def lease(self, shares: int) -> List["RetryBudget"]:
        """Carve this bucket into ``shares`` independent sub-budgets.

        The parent's tokens are *withdrawn* (split evenly, to the last
        drop) and handed to the leases, so the sum of retries grantable
        across every shard can never exceed what the parent bucket held
        — the arbitration happens once, up front, instead of per spend.
        Each lease keeps the parent's ``deposit`` rate and a
        proportional share of ``capacity`` so per-shard regrowth is
        bounded the same way the shared bucket's was.  Settle with
        :meth:`absorb`.
        """
        if shares < 1:
            raise ValueError(f"lease shares must be >= 1, got {shares!r}")
        grant = self.tokens / shares
        cap = self.capacity / shares
        self.tokens = 0.0
        return [
            RetryBudget(capacity=cap, deposit=self.deposit, tokens=grant)
            for _ in range(shares)
        ]

    def absorb(self, settled: dict) -> None:
        """Fold a settled lease (its :meth:`snapshot`) back in: unspent
        tokens return to the bucket (clamped to capacity) and the
        spent/denied counters sum — after every lease is absorbed the
        parent reads as if all shards had drawn on one shared bucket."""
        self.tokens = min(self.capacity, self.tokens + settled["tokens"])
        self.spent += settled["spent"]
        self.denied += settled["denied"]
