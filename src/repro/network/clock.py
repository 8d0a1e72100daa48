"""Virtual time.

Every cost in the simulation — computation, marshaling, network transfer —
is charged to a :class:`VirtualClock` instead of the wall clock.  This
makes experiments deterministic and lets the benchmarks report the
*modelled* 1993 timings separately from simulator overhead.

Concurrent activities (Schooner *lines*, AVS modules firing in parallel)
each carry a :class:`Timeline`; timelines advance independently and the
clock's global ``now`` is the maximum across them, which is the standard
conservative-parallel virtual-time treatment.  The concurrency is
virtual: one OS thread runs every timeline, so the clock takes no lock,
and a timeline touches it only when an advance pushes the envelope —
which is also the only moment a scheduled event can fire.  Scheduled
events are the one way virtual time triggers work: a fault plan's
events.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["VirtualClock", "Timeline", "ScheduledEvent"]


@dataclass
class Timeline:
    """One independent thread of virtual time (e.g. one Schooner line)."""

    name: str
    clock: "VirtualClock"
    _elapsed: float = 0.0

    @property
    def now(self) -> float:
        return self._elapsed

    def advance(self, dt: float) -> float:
        """Advance this timeline by ``dt`` virtual seconds.

        A negative or NaN ``dt`` is refused and leaves the timeline
        untouched: a NaN instant compares false with everything, so the
        timeline could never move (nor a deadline expire) again."""
        if not dt >= 0.0:
            raise ValueError(f"cannot advance time by {dt}")
        t = self._elapsed = self._elapsed + dt
        # the clock is touched only by an advance that pushes the
        # envelope: global time follows it, and due events fire inside
        # it (inline here and in sync_to, and inlined again, statement
        # for statement, in each charge of schooner.runtime.execute_call
        # and in Transport.send)
        clock = self.clock
        if t > clock._now:
            clock._now = t
            if clock._events and clock._events[0][0] <= t:
                clock._notify()
        # read again: what fired may itself have charged this timeline
        return self._elapsed

    def sync_to(self, t: float) -> None:
        """Move this timeline forward to absolute virtual time ``t``
        (used when a message from another timeline arrives: the receiver
        cannot act before the send completes).  An instant at or
        before now is a no-op; a NaN one is refused."""
        if t > self._elapsed:
            self._elapsed = t
            clock = self.clock
            if t > clock._now:
                clock._now = t
                if clock._events and clock._events[0][0] <= t:
                    clock._notify()
        elif t != t:
            raise ValueError(f"cannot move time to {t}")


@dataclass
class ScheduledEvent:
    """Handle for one pending clock event (see :meth:`VirtualClock.schedule`).

    ``seq`` is the monotonic tiebreak counter: events scheduled for the
    same instant fire in the order they were scheduled."""

    at_s: float
    seq: int
    callback: Callable[[], None]
    cancelled: bool = False


@dataclass
class VirtualClock:
    """Global virtual time: the envelope of all timelines.

    Work is triggered by one-shot *events* scheduled for an absolute
    instant (:meth:`schedule`): a fault injector puts its plan's events
    there.  The queue is a :mod:`heapq`
    priority queue keyed ``(at_s, seq)`` — ``seq`` is a monotonic
    counter, so same-instant events fire in scheduling order, exactly
    like the sorted-list queue this replaced.  An event callback may
    advance time or schedule further events; a dispatch guard keeps
    those advances from recursing, and the dispatch loop fires every
    event they make due until the clock is quiescent.
    """

    _now: float = 0.0
    _timelines: Dict[str, Timeline] = field(default_factory=dict)
    _dispatching: bool = False
    # pending one-shot events: a heap of (at_s, seq, ScheduledEvent)
    _events: List[Tuple[float, int, ScheduledEvent]] = field(default_factory=list)
    _event_seq: Any = field(default_factory=itertools.count, repr=False)

    @property
    def now(self) -> float:
        return self._now

    def timeline(self, name: str) -> Timeline:
        """Get or create a named timeline."""
        if name not in self._timelines:
            self._timelines[name] = Timeline(name=name, clock=self)
        return self._timelines[name]

    def advance(self, dt: float) -> float:
        """Advance global time directly (for strictly sequential runs)."""
        if not dt >= 0.0:  # a negative or NaN step; now stays as it was
            raise ValueError(f"cannot advance time by {dt}")
        self._now += dt
        self._notify()
        return self._now

    # -- one-shot events ----------------------------------------------------
    def schedule(self, at_s: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback()`` to fire once when global time reaches
        ``at_s``.  Returns a handle for :meth:`cancel`.

        An event already due (``at_s <= now``) fires on the next time
        advance or explicit :meth:`fire_due` — never synchronously from
        inside ``schedule`` itself, so a callback may safely schedule
        follow-up events."""
        ev = ScheduledEvent(at_s=at_s, seq=next(self._event_seq), callback=callback)
        heapq.heappush(self._events, (ev.at_s, ev.seq, ev))
        return ev

    def cancel(self, event: ScheduledEvent) -> None:
        """Cancel a pending event (lazy: the heap entry is skipped when
        it surfaces)."""
        event.cancelled = True

    def fire_due(self) -> None:
        """Fire every pending event whose instant is at or before now
        (used after attaching a schedule to an already-advanced clock)."""
        self._notify()

    def _notify(self) -> None:
        if self._dispatching:
            return
        self._dispatching = True
        try:
            # a callback may advance time or schedule further events:
            # the head is read again after each one, so every event
            # that came due fires in (at_s, seq) order
            events = self._events
            while events and events[0][0] <= self._now:
                _, _, ev = heapq.heappop(events)
                if not ev.cancelled:
                    ev.cancelled = True  # one-shot
                    ev.callback()
        finally:
            self._dispatching = False
