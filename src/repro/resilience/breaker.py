"""Per-(procedure, host) circuit breakers.

A :class:`CircuitBreaker` protects callers from a crashed or derated
machine: after ``failure_threshold`` consecutive call failures the
breaker *opens* and calls to that (procedure, host) pair fast-fail with
:class:`~repro.schooner.errors.BreakerOpen` instead of burning the full
retry/backoff ladder each time.  After ``cooldown_s`` virtual seconds
the breaker goes *half-open*: one trial call is let through; success
closes the breaker, failure re-opens it with a longer cooldown
(exponential, capped at ``max_cooldown_s``).

The :class:`BreakerBoard` is the per-environment registry, keyed
``(procedure name, hostname)``.  The client stub consults it before
every attempt; an open breaker also triggers a binding refresh through
the Manager, so a session with an attached
:class:`~repro.faults.recovery.FailoverSupervisor` is steered *away*
from the sick host (the supervisor rebinds the dead instance onto a
survivor) rather than merely refused.

All cooldowns are measured on the virtual clock, so breaker behaviour
replays byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["BreakerPolicy", "CircuitBreaker", "BreakerBoard"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Tunables shared by every breaker on a board."""

    failure_threshold: int = 3  # consecutive failures that open the breaker
    cooldown_s: float = 2.0  # open -> half-open after this much virtual time
    cooldown_multiplier: float = 2.0  # growth per re-open from half-open
    max_cooldown_s: float = 30.0


@dataclass
class CircuitBreaker:
    """One (procedure, host) breaker: closed -> open -> half-open."""

    policy: BreakerPolicy = field(default_factory=BreakerPolicy)
    state: str = CLOSED
    failures: int = 0  # consecutive, while closed
    opened_at: float = 0.0
    cooldown_s: float = 0.0
    opens: int = 0  # lifetime trips, for reporting
    fast_fails: int = 0  # calls refused while open

    def allow(self, now: float) -> bool:
        """May a call proceed at virtual instant ``now``?  An open
        breaker whose cooldown has elapsed transitions to half-open and
        admits the trial call."""
        if self.state == OPEN:
            if now >= self.opened_at + self.cooldown_s:
                self.state = HALF_OPEN
                return True
            self.fast_fails += 1
            return False
        return True

    def record_success(self, now: float) -> None:
        self.state = CLOSED
        self.failures = 0
        self.cooldown_s = 0.0

    def record_failure(self, now: float) -> None:
        if self.state == HALF_OPEN:
            # the trial failed: re-open with a longer cooldown
            self.state = OPEN
            self.opened_at = now
            self.cooldown_s = min(
                self.cooldown_s * self.policy.cooldown_multiplier,
                self.policy.max_cooldown_s,
            )
            self.opens += 1
            return
        self.failures += 1
        if self.state == CLOSED and self.failures >= self.policy.failure_threshold:
            self.state = OPEN
            self.opened_at = now
            self.cooldown_s = self.policy.cooldown_s
            self.opens += 1

    @property
    def retry_after_s(self) -> float:
        """When an open breaker will admit its next trial."""
        return self.opened_at + self.cooldown_s


@dataclass
class BreakerBoard:
    """The environment's breaker registry, keyed (procedure, hostname).

    Breakers are created on first lease and driven from the
    deterministic call path, in call order.
    """

    policy: BreakerPolicy = field(default_factory=BreakerPolicy)
    _breakers: Dict[Tuple[str, str], CircuitBreaker] = field(default_factory=dict)

    def lease(self, procedure: str, hostname: str) -> CircuitBreaker:
        key = (procedure, hostname)
        br = self._breakers.get(key)
        if br is None:
            br = CircuitBreaker(policy=self.policy)
            self._breakers[key] = br
        return br

    def open_hosts(self) -> Tuple[str, ...]:
        """Hosts with at least one currently-open breaker — the set the
        failover supervisor treats as suspect when placing restarts."""
        return tuple(
            sorted({h for (_, h), br in self._breakers.items() if br.state == OPEN})
        )

    def trips(self) -> int:
        """Total lifetime breaker openings across the board."""
        return sum(br.opens for br in self._breakers.values())

    def fast_fails(self) -> int:
        return sum(br.fast_fails for br in self._breakers.values())

    def __len__(self) -> int:
        return len(self._breakers)
