"""Seeded arrival processes: virtual-clock arrival instants.

Every process is a frozen spec whose :meth:`times` is a pure function
of its fields — the same (rate, seed) always yields the same arrival
instants, which is what makes a traffic run a reproducible experiment
instead of an anecdote.  Rates are *offered load* in sessions per
virtual second; the sweep runner builds one process per rate on its
axis with :func:`make_process`.

Two analytic shapes:

* :class:`PoissonArrivals` — exponential interarrivals, the memoryless
  baseline every queueing result is quoted against;
* :class:`ParetoArrivals` — power-law interarrivals (``alpha`` near 1
  is very bursty), mean pinned to ``1/rate``; the classic
  self-similar-traffic stand-in.

A recorded trace needs no process: :func:`repro.serve.serve_arrivals`
takes the literal ``(at_s, spec)`` pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

__all__ = [
    "PoissonArrivals",
    "ParetoArrivals",
    "make_process",
]

#: arrival instants are snapped to this many decimals — microsecond
#: resolution on the virtual clock, so CSV rows render identically
#: everywhere without float-repr noise
_DECIMALS = 6


def _cumulate(interarrivals: List[float]) -> List[float]:
    t = 0.0
    out = []
    for dt in interarrivals:
        t += dt
        out.append(round(t, _DECIMALS))
    return out


@dataclass(frozen=True)
class PoissonArrivals:
    """Exponential interarrivals at ``rate_per_s``."""

    rate_per_s: float
    seed: int = 0

    kind = "poisson"

    def times(self, n: int) -> List[float]:
        if self.rate_per_s <= 0:
            raise ValueError(f"rate_per_s must be > 0, got {self.rate_per_s!r}")
        rng = random.Random(f"poisson:{self.seed}")
        return _cumulate([rng.expovariate(self.rate_per_s) for _ in range(n)])


@dataclass(frozen=True)
class ParetoArrivals:
    """Pareto (power-law) interarrivals with mean ``1/rate_per_s``;
    ``alpha`` must exceed 1 for the mean to exist — the closer to 1,
    the heavier the tail (long silences, tight bursts)."""

    rate_per_s: float
    alpha: float = 1.6
    seed: int = 0

    kind = "pareto"

    def times(self, n: int) -> List[float]:
        if self.rate_per_s <= 0:
            raise ValueError(f"rate_per_s must be > 0, got {self.rate_per_s!r}")
        if self.alpha <= 1.0:
            raise ValueError(
                f"alpha must be > 1 for a finite mean interarrival, got {self.alpha!r}"
            )
        # E[xm * Pareto(alpha)] = xm * alpha/(alpha-1) = 1/rate
        xm = (self.alpha - 1.0) / (self.alpha * self.rate_per_s)
        rng = random.Random(f"pareto:{self.seed}")
        return _cumulate([xm * rng.paretovariate(self.alpha) for _ in range(n)])


def make_process(kind: str, rate_per_s: float, seed: int = 0):
    """Factory the sweep runner uses: ``kind`` is ``poisson`` or
    ``pareto`` (the analytic default for alpha)."""
    if kind == "poisson":
        return PoissonArrivals(rate_per_s=rate_per_s, seed=seed)
    if kind == "pareto":
        return ParetoArrivals(rate_per_s=rate_per_s, seed=seed)
    raise ValueError(f"unknown arrival process kind {kind!r}")
