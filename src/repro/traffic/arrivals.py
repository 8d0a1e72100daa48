"""Seeded arrival processes: virtual-clock arrival instants.

Every process is a frozen spec whose :meth:`times` is a pure function
of its fields — the same (rate, seed) always yields the same arrival
instants, which is what makes a traffic run a reproducible experiment
instead of an anecdote.  Rates are *offered load* in sessions per
virtual second; the sweep runner re-parameterizes one process across a
rate axis via :meth:`at_rate`.

Two analytic shapes plus replay:

* :class:`PoissonArrivals` — exponential interarrivals, the memoryless
  baseline every queueing result is quoted against;
* :class:`ParetoArrivals` — power-law interarrivals (``alpha`` near 1
  is very bursty), mean pinned to ``1/rate``; the classic
  self-similar-traffic stand-in;
* :class:`TraceArrivals` — deterministic replay of recorded instants,
  rescalable to a target rate so a captured day can be re-offered at
  2x load.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Tuple

__all__ = [
    "PoissonArrivals",
    "ParetoArrivals",
    "TraceArrivals",
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

    def at_rate(self, rate_per_s: float) -> "PoissonArrivals":
        return replace(self, rate_per_s=rate_per_s)


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

    def at_rate(self, rate_per_s: float) -> "ParetoArrivals":
        return replace(self, rate_per_s=rate_per_s)


@dataclass(frozen=True)
class TraceArrivals:
    """Deterministic replay of recorded arrival instants.

    ``instants`` must be non-negative and non-decreasing.  ``at_rate``
    rescales the whole trace so its *mean* interarrival matches the
    target rate — the shape (bursts, silences) is preserved, only the
    offered load changes, which is exactly what a capacity sweep over a
    recorded day wants.
    """

    instants: Tuple[float, ...]
    seed: int = 0  # unused (replay is literal); kept for interface parity

    kind = "trace"

    def __post_init__(self) -> None:
        prev = 0.0
        for t in self.instants:
            if t < prev:
                raise ValueError(
                    f"trace instants must be non-negative and non-decreasing "
                    f"(saw {t!r} after {prev!r})"
                )
            prev = t

    def times(self, n: int) -> List[float]:
        if n > len(self.instants):
            raise ValueError(
                f"trace holds {len(self.instants)} arrivals, {n} requested"
            )
        return [round(float(t), _DECIMALS) for t in self.instants[:n]]

    @property
    def rate_per_s(self) -> float:
        """The trace's empirical offered rate (arrivals over span)."""
        if len(self.instants) < 2 or self.instants[-1] <= 0:
            return 0.0
        return len(self.instants) / self.instants[-1]

    def at_rate(self, rate_per_s: float) -> "TraceArrivals":
        if rate_per_s <= 0:
            raise ValueError(f"rate_per_s must be > 0, got {rate_per_s!r}")
        current = self.rate_per_s
        if current <= 0:
            raise ValueError("cannot rescale a trace with no span")
        scale = current / rate_per_s
        return replace(
            self,
            instants=tuple(round(t * scale, _DECIMALS) for t in self.instants),
        )


def make_process(kind: str, rate_per_s: float, seed: int = 0):
    """Factory the sweep runner uses: ``kind`` is ``poisson`` or
    ``pareto`` (the analytic default for alpha)."""
    if kind == "poisson":
        return PoissonArrivals(rate_per_s=rate_per_s, seed=seed)
    if kind == "pareto":
        return ParetoArrivals(rate_per_s=rate_per_s, seed=seed)
    raise ValueError(f"unknown arrival process kind {kind!r}")
