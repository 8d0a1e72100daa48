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
which is also the only moment a scheduled event or a subscriber can
fire.
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
        # envelope: global time follows it, and due events and
        # subscribers fire inside it (inline here and in sync_to: every
        # charge of every call comes through this method)
        clock = self.clock
        if t > clock._now:
            clock._now = t
            if clock._events or clock._subscribers:
                clock._notify()
        # read again: what fired may itself have charged this timeline
        return self._elapsed

    def branch(self, name: str) -> "Timeline":
        """A scratch timeline starting at this timeline's current
        instant — one concurrent branch of execution (an overlapped
        call batch, an FD-probe column).  The branch is not registered
        with the clock's named timelines; its advances still push the
        global envelope."""
        return Timeline(name=name, clock=self.clock, _elapsed=self._elapsed)

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
                if clock._events or clock._subscribers:
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

    Subscribers (fault injectors, failure supervisors) are notified
    whenever global time moves forward; a dispatch guard keeps a
    subscriber that itself advances time (heartbeat messages, checkpoint
    transfers) from recursing — its advances are folded into the same
    notification pass.

    One-shot *events* may additionally be scheduled for an absolute
    instant (:meth:`schedule`).  The queue is a :mod:`heapq` priority
    queue keyed ``(at_s, seq)`` — ``seq`` is a monotonic counter, so
    same-instant events fire in scheduling order, exactly like the
    sorted-list queue this replaced.  Due events fire *before* the
    subscriber pass at each instant, and an event callback may advance
    time or schedule further events; the dispatch loop runs until the
    clock is quiescent.
    """

    _now: float = 0.0
    _timelines: Dict[str, Timeline] = field(default_factory=dict)
    _subscribers: List[Callable[[float], None]] = field(default_factory=list)
    _notified_at: float = 0.0
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

    def subscribe(self, callback: Callable[[float], None]) -> None:
        """Call ``callback(now)`` every time global time advances."""
        if callback not in self._subscribers:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[float], None]) -> None:
        if callback in self._subscribers:
            self._subscribers.remove(callback)

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

    def _fire_due_events(self) -> bool:
        fired = False
        while self._events and self._events[0][0] <= self._now:
            _, _, ev = heapq.heappop(self._events)
            if ev.cancelled:
                continue
            ev.cancelled = True  # one-shot
            fired = True
            ev.callback()
        return fired

    def _notify(self) -> None:
        if self._dispatching or not (self._subscribers or self._events):
            return
        self._dispatching = True
        try:
            # subscribers and event callbacks may advance time themselves
            # (or schedule further events); loop until the clock is
            # quiescent so no advance goes unreported.  Due events fire
            # before the subscriber pass at each instant.
            while True:
                fired = self._fire_due_events()
                if self._notified_at < self._now:
                    t = self._now
                    self._notified_at = t
                    for callback in list(self._subscribers):
                        callback(t)
                elif not fired:
                    break
        finally:
            self._dispatching = False
