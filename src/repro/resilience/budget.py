"""Installation-wide retry budgets.

A retry storm is the classic metastable failure: a blip makes every
session retry, the retries triple the load, the load makes more calls
time out, and the installation never recovers.  The cure (gRPC's
``retryThrottling``, Finagle's ``RetryBudget``) is a shared token
bucket: first attempts *deposit* a fraction of a token, retries *spend*
a whole one, and when the bucket runs dry retries are simply not
attempted — first attempts always proceed, so a healthy installation is
unaffected while a sick one sheds its retry amplification.

One :class:`RetryBudget` is shared by every session of a
:class:`~repro.serve.installation.SharedInstallation`, which is exactly
what makes it an *admission* mechanism rather than a per-client
politeness: concurrent sessions draw from the same bucket.  Deposits
and spends happen in call order, so inline (deterministic) serving
replays identically.

Each :class:`~repro.serve.installation.SharedInstallation` holds its
own bucket, so a process shard's episode installation has one too: a
worker's sessions share it exactly as an inline serve's share
theirs.
"""

from __future__ import annotations

from dataclasses import dataclass

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
