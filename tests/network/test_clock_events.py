"""The heap-scheduled clock event queue: the one way virtual time
triggers work.

The headline property: on randomized schedules of inserts, cancels, and
time advances, the heapq-based queue fires events in *exactly* the order
the previous sorted-list implementation did — ``(at_s, scheduling
order)``, one-shot.  A fault plan's events are such events; the
failover supervisor's checkpoints are not (the call that wrote the
state takes them), so a fault-free serve schedules none, and an
advance with nothing due dispatches nothing.
"""

from __future__ import annotations

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import CheckpointStore
from repro.network import ScheduledEvent, VirtualClock
from repro.serve import SessionSpec, serve_sessions


class SortedListScheduler:
    """The reference implementation: the sorted pending list the
    fault injector used before the clock grew an event queue.  Kept in
    the test (not the tree) as the firing-order oracle."""

    def __init__(self):
        self._pending = []  # (at_s, seq, id) kept sorted
        self._seq = 0
        self.fired = []

    def schedule(self, at_s, event_id):
        self._pending.append((at_s, self._seq, event_id))
        self._pending.sort(key=lambda e: (e[0], e[1]))
        self._seq += 1

    def cancel(self, event_id):
        self._pending = [e for e in self._pending if e[2] != event_id]

    def on_tick(self, now):
        while self._pending and self._pending[0][0] <= now:
            at, _, event_id = self._pending.pop(0)
            self.fired.append(event_id)


# one randomized schedule: a list of operations against both queues
_ops = st.lists(
    st.one_of(
        # schedule an event at a coarse-grained instant (collisions likely)
        st.tuples(st.just("schedule"), st.integers(0, 20)),
        # cancel the i-th scheduled event, if it exists
        st.tuples(st.just("cancel"), st.integers(0, 30)),
        # advance time by a coarse step (0 exercises same-instant firing)
        st.tuples(st.just("advance"), st.integers(0, 6)),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(_ops)
def test_heap_firing_order_matches_sorted_list_reference(ops):
    clock = VirtualClock()
    ref = SortedListScheduler()
    fired = []
    handles = []
    next_id = 0

    for op, arg in ops:
        if op == "schedule":
            event_id = next_id
            next_id += 1
            at_s = float(arg)
            handles.append(
                (event_id, clock.schedule(at_s, lambda i=event_id: fired.append(i)))
            )
            ref.schedule(at_s, event_id)
        elif op == "cancel":
            if arg < len(handles):
                event_id, handle = handles[arg]
                clock.cancel(handle)
                ref.cancel(event_id)
        else:  # advance
            clock.advance(float(arg))
            ref.on_tick(clock.now)

    # drain both queues at a far-future instant
    clock.advance(1e9)
    ref.on_tick(clock.now)
    assert fired == ref.fired


def test_same_instant_events_fire_in_scheduling_order():
    clock = VirtualClock()
    fired = []
    for i in range(5):
        clock.schedule(1.0, lambda i=i: fired.append(i))
    clock.advance(2.0)
    assert fired == [0, 1, 2, 3, 4]


def test_event_is_one_shot():
    clock = VirtualClock()
    fired = []
    clock.schedule(1.0, lambda: fired.append("x"))
    clock.advance(1.0)
    clock.advance(1.0)
    clock.advance(5.0)
    assert fired == ["x"]


def test_cancel_prevents_firing():
    clock = VirtualClock()
    fired = []
    keep = clock.schedule(1.0, lambda: fired.append("keep"))
    drop = clock.schedule(1.0, lambda: fired.append("drop"))
    clock.cancel(drop)
    clock.advance(2.0)
    assert fired == ["keep"]
    assert isinstance(keep, ScheduledEvent)


def test_already_due_event_fires_on_fire_due_not_synchronously():
    clock = VirtualClock()
    clock.advance(5.0)
    fired = []
    clock.schedule(1.0, lambda: fired.append("late"))
    assert fired == []  # never fires from inside schedule()
    clock.fire_due()
    assert fired == ["late"]


def test_callback_may_schedule_followup_events():
    clock = VirtualClock()
    fired = []

    def first():
        fired.append("first")
        # same instant: fires within the same dispatch pass
        clock.schedule(clock.now, lambda: fired.append("chained"))

    clock.schedule(1.0, first)
    clock.advance(1.0)
    assert fired == ["first", "chained"]


def test_a_fault_free_serve_schedules_no_clock_event_at_all(monkeypatch):
    """Nothing polls, and a checkpoint is taken by the call that wrote
    the state: a fault-free session schedules no clock event, so no
    advance reaches the dispatch loop."""
    scheduled = []
    dispatches = []
    taken = []
    schedule, notify = VirtualClock.schedule, VirtualClock._notify
    take = CheckpointStore.take

    def counted_take(self, *args):
        taken.append(args)
        take(self, *args)

    def counted_schedule(self, at_s, callback):
        scheduled.append(callback)
        return schedule(self, at_s, callback)

    def counted_notify(self):
        dispatches.append(self)
        notify(self)

    monkeypatch.setattr(VirtualClock, "schedule", counted_schedule)
    monkeypatch.setattr(VirtualClock, "_notify", counted_notify)
    monkeypatch.setattr(CheckpointStore, "take", counted_take)
    specs = [SessionSpec(name=f"s{i}", points=(1.28 + 0.02 * i,)) for i in range(2)]
    report = serve_sessions(specs)
    assert all(r.status == "completed" for r in report.results)
    assert scheduled == [] and dispatches == []
    assert taken  # each session's set* calls checkpointed their state


def test_heap_invariant_holds_under_interleaved_schedule_and_fire():
    """The internal queue stays a valid heap while callbacks insert."""
    clock = VirtualClock()
    fired = []
    for at in (3.0, 1.0, 2.0, 1.0):
        clock.schedule(at, lambda at=at: fired.append(at))
    clock.advance(1.5)  # fires both t=1 events
    clock.schedule(1.8, lambda: fired.append(1.8))
    clock.advance(10.0)
    assert fired == [1.0, 1.0, 1.8, 2.0, 3.0]
    heap = clock._events
    assert all(
        heap[i] <= heap[2 * i + k]
        for i in range(len(heap))
        for k in (1, 2)
        if 2 * i + k < len(heap)
    )
    assert heapq  # the module under test really is heap-backed
