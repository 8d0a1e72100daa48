"""The admission core — one timeline for closed and open-loop serving.

``AdmissionCore`` decides; an executor only runs sessions.  Most tests
here drive the core with a scripted executor — each session's own
virtual time and outcome written down in the test, no engine built — so
every admission decision (who runs, who waits, what wait is charged, the
exact shed reason) is checked in milliseconds, independently of both
real executors.  The differential at the end holds the three public
ways to serve a batch (``serve_sessions``, ``serve_arrivals`` at t = 0,
two shard workers) to each other on the real engine.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    AdmissionPolicy,
    SessionSpec,
    serve_arrivals,
    serve_sessions,
)
from repro.serve.admission import AdmissionCore
from repro.serve.demo import build_session_specs


class ScriptedExecutor:
    """``virtual_s[name]`` is the session's own virtual time; names in
    ``degraded`` finish without leaving a workload record.  Like the
    shard parent, it learns nothing about a session before the wave
    (``run`` call) that session is in."""

    def __init__(self, virtual_s, degraded=(), records=()):
        self.virtual_s = virtual_s
        self.degraded = set(degraded)
        self.records = set(records)
        self.waves = []  # names, per run() call
        self.ran = []  # names, in execution order
        self.replayed = []

    def run(self, batch):
        self.waves.append([c.spec.name for c in batch])
        out, seen = [], set()
        for ctx in batch:
            if ctx.key in seen and self.replay(ctx, count=True):
                out.append(None)
                continue
            if ctx.dedup:
                seen.add(ctx.key)
            name = ctx.spec.name
            self.ran.append(name)
            if name not in self.degraded:
                self.records.add(ctx.key)
            out.append(self.virtual_s[name])
        return out

    def replay(self, ctx, count=False):
        if ctx.key not in self.records:
            return False
        self.replayed.append(ctx.spec.name)
        return True


def _spec(name, wf, **kw):
    """Distinct ``wf`` -> distinct workload key; equal ``wf`` -> dedup twins."""
    return SessionSpec(name=name, points=(wf,), **kw)


def _run(specs, virtual_s, max_live=None, max_parked=None, dedup=True, **script):
    core = AdmissionCore(
        None, AdmissionPolicy(max_live=max_live, max_parked=max_parked), dedup
    )
    for spec in specs:
        core.offer(0.0, spec)
    ex = ScriptedExecutor(virtual_s, **script)
    core.run(ex)
    return {c.spec.name: c for c in core.contexts}, core, ex


class TestTiers:
    def test_live_parked_and_shed_tiers_with_exact_reasons(self):
        specs = [
            _spec("a", 1.30),
            _spec("b", 1.31),
            _spec("vip", 1.32, priority=5),
            _spec("c", 1.33),
            _spec("d", 1.34),
            _spec("e", 1.35, priority=-1),
        ]
        virtual_s = {n: 8.0 for n in "abcde"} | {"vip": 6.0}
        by_name, core, ex = _run(specs, virtual_s, max_live=2, max_parked=2)
        # rank is (priority desc, seq): vip and a take the live slots,
        # b then c park, d and e are shed
        assert core.n_parked == 2
        assert by_name["d"].shed_reason == (
            "queue full (2 live + 2 parked slots, priority 0)"
        )
        assert by_name["e"].shed_reason == (
            "queue full (2 live + 2 parked slots, priority -1)"
        )
        assert by_name["d"].result().status == "shed"
        # vip (6 s) frees the first slot for b, a (8 s) the second for c
        assert ex.ran == ["vip", "a", "b", "c"]
        assert {n: by_name[n].wait_s for n in ("a", "vip", "b", "c")} == {
            "a": 0.0, "vip": 0.0, "b": 6.0, "c": 8.0,
        }
        # everything that starts at t = 0 is one wave; after that the
        # core asks each time the next departure depends on the answer
        assert ex.waves == [["vip", "a"], ["b"], ["c"]]

    def test_max_live_zero_still_grants_one_slot(self):
        specs = [_spec("a", 1.30), _spec("b", 1.31)]
        by_name, _, ex = _run(specs, {"a": 5.0, "b": 5.0}, max_live=0, max_parked=0)
        assert ex.ran == ["a"]
        assert by_name["b"].shed_reason == (
            "queue full (1 live + 0 parked slots, priority 0)"
        )

    def test_parked_deadline_expires_at_the_freeing_instant(self):
        specs = [
            _spec("live", 1.30),
            _spec("late", 1.31, deadline_s=8.0),
            _spec("exact", 1.32, deadline_s=10.0),
            _spec("ok", 1.33, deadline_s=10.5),
        ]
        virtual_s = {"live": 10.0, "late": 1.0, "exact": 1.0, "ok": 1.0}
        by_name, _, ex = _run(specs, virtual_s, max_live=1, max_parked=3)
        # one slot frees at t=10: late and exact (wait >= deadline) are
        # shed there and the same slot goes on to ok
        for name, deadline in (("late", "8"), ("exact", "10")):
            result = by_name[name].result()
            assert result.status == "shed" and result.deadline_met is False
            assert result.shed_reason == (
                f"deadline ({deadline}s) expired while parked: "
                f"first live slot freed at t=10.000s"
            )
            assert result.wait_s == 10.0
        assert by_name["ok"].wait_s == 10.0
        assert ex.ran == ["live", "ok"]

    def test_an_unbounded_batch_is_one_wave(self):
        """Nothing can park, so no decision waits on a departure: the
        shard parent's whole batch goes out at once."""
        specs = [_spec(n, 1.30 + i / 100, priority=i % 2) for i, n in enumerate("abcd")]
        _, _, ex = _run(specs, {n: 3.0 for n in "abcd"})
        assert ex.waves == [["b", "d", "a", "c"]]


class TestDedup:
    SPECS = staticmethod(
        lambda: [_spec("lead", 1.30), _spec("f1", 1.30), _spec("f2", 1.30), _spec("x", 1.40)]
    )
    VIRTUAL_S = {"lead": 4.0, "f1": 4.0, "f2": 4.0, "x": 18.0}

    def test_followers_replay_a_clean_leader(self):
        _, _, ex = _run(self.SPECS(), self.VIRTUAL_S)
        assert ex.ran == ["lead", "x"]
        assert ex.replayed == ["f1", "f2"]
        # twins ride their leader's wave: dedup costs no extra round trip
        assert ex.waves == [["lead", "f1", "f2", "x"]]

    def test_degraded_leader_requeues_its_followers_live(self):
        """A degraded leader leaves no record, so the next follower runs
        live — and the one after it replays *that* run.  ROADMAP 4(e):
        every session decides replay-vs-run after everything started
        before it has finished, so a follower queued behind a clean twin
        can no longer re-solve what the twin just recorded (the old
        leader/follower maps requeued f1 and f2 together and ran both)."""
        _, _, ex = _run(self.SPECS(), self.VIRTUAL_S, degraded={"lead"})
        assert ex.ran == ["lead", "f1", "x"]
        assert ex.replayed == ["f2"]

    def test_parked_twin_follows_a_running_leader_without_a_slot(self):
        specs = [_spec("hog", 1.40), _spec("lead", 1.30), _spec("twin", 1.30),
                 _spec("next", 1.50)]
        virtual_s = {"hog": 20.0, "lead": 5.0, "next": 1.0}
        by_name, _, ex = _run(specs, virtual_s, max_live=1, max_parked=3)
        # lead has not run when twin arrives, so twin parks behind it;
        # when lead's slot frees at 25 twin replays its record (no slot
        # consumed) and the same slot admits next
        assert ex.ran == ["hog", "lead", "next"]
        assert ex.replayed == ["twin"]
        assert by_name["lead"].wait_s == 20.0
        assert by_name["twin"].wait_s == by_name["next"].wait_s == 25.0

    def test_an_arrival_replays_a_recorded_twin_at_once(self):
        """A session runs to completion the moment it starts, so its
        record is there for every later arrival — even one that finds
        the slots full, which replays with no wait instead of parking."""
        specs = [_spec("lead", 1.30), _spec("other", 1.40), _spec("twin", 1.30)]
        by_name, core, ex = _run(
            specs, {"lead": 20.0, "other": 6.0}, max_live=2, max_parked=0
        )
        assert ex.replayed == ["twin"]
        assert by_name["twin"].wait_s == 0.0 and core.n_parked == 0


class TestExecutionOrder:
    def test_sessions_run_to_completion_in_decision_order(self):
        """Sessions execute one after another in the order the timeline
        starts them: rank order within an instant, then departure by
        departure.  That total order is what gives every op-point cache
        lookup a deterministic store (it replaces the per-family chains:
        a1..a4 share a family, b1 does not, and nothing special happens)."""
        specs = [
            _spec("a1", 1.30, op_cache=True),
            _spec("b1", 1.31, op_cache=True, mach=0.5),
            _spec("a2", 1.32, op_cache=True),
            _spec("a3", 1.33, op_cache=True, priority=1),
            _spec("a4", 1.34, op_cache=True),
        ]
        virtual_s = {n: 2.0 for n in ("a1", "a2", "a3", "a4")} | {"b1": 50.0}
        by_name, _, ex = _run(specs, virtual_s, max_live=4, max_parked=1, dedup=False)
        assert ex.ran == ["a3", "a1", "b1", "a2", "a4"]
        assert by_name["a4"].wait_s == 2.0


class TestStragglers:
    def test_replays_take_no_slot_so_they_free_none(self):
        """r1 and r2 replay a warm cache at arrival and hold no slot, so
        both slots go to p1 and p2 at t = 0 and p3 waits only for the
        first of them.  (The batch path used to seat r1 and r2 in the
        live tier, park all three others, and then — no slot ever
        freeing — admit them one after another at 0, 7 and 12 s, where
        p3's deadline had expired.)"""
        specs = [_spec("r1", 1.30), _spec("r2", 1.30), _spec("p1", 1.40),
                 _spec("p2", 1.50), _spec("p3", 1.60, deadline_s=10.0)]
        recorded = specs[0].workload_key()
        by_name, core, ex = _run(
            specs, {"p1": 7.0, "p2": 5.0, "p3": 1.0},
            max_live=2, max_parked=3, records={recorded},
        )
        assert ex.replayed == ["r1", "r2"]
        assert ex.ran == ["p1", "p2", "p3"]
        assert [by_name[n].wait_s for n in ("p1", "p2", "p3")] == [0.0, 0.0, 5.0]
        assert core.n_parked == 1


class TestTimelineOrderPairing:
    def test_freed_slots_pair_in_timeline_order(self):
        """Live A (10 s) and B (30 s); parked, in rank order, C (25 s),
        D, E.  A frees C's slot at 10, so C departs at 35 — after B at
        30.  The better-ranked D gets the earlier slot (30) and E the
        later (35).  (The step heap used to pair them the other way
        round, D=35 / E=30, because C *finished stepping* before B.)"""
        specs = [_spec(n, 1.30 + i / 100) for i, n in enumerate("ABCDE")]
        virtual_s = {"A": 10.0, "B": 30.0, "C": 25.0, "D": 40.0, "E": 1.0}
        by_name, _, ex = _run(specs, virtual_s, max_live=2, max_parked=3)
        assert ex.ran == ["A", "B", "C", "D", "E"]
        assert {n: by_name[n].wait_s for n in "CDE"} == {
            "C": 10.0, "D": 30.0, "E": 35.0,
        }


class EagerCore(AdmissionCore):
    """Asks for every session's ``virtual_s`` the moment it starts — the
    loop ``serve_arrivals`` used to be, and the reference the deferred
    core must be indistinguishable from."""

    def run(self, ex):
        self._ex = ex
        super().run(ex)

    def _start(self, ctx, now):
        super()._start(ctx, now)
        self._resolve(self._ex)


#: times on a quarter-second grid, so instants add and subtract exactly
_quarters = st.integers(1, 60).map(lambda k: k / 4)

_session = st.fixed_dictionaries({
    "gap": st.one_of(st.just(0.0), _quarters),
    "priority": st.integers(-1, 2),
    "deadline_s": st.one_of(st.none(), _quarters),
    "virtual_s": _quarters,
    "workload": st.integers(0, 3),  # few workloads -> dedup twins
    "degraded": st.booleans(),
})


class TestOneTimeline:
    @settings(max_examples=250, deadline=None)
    @given(
        sessions=st.lists(_session, min_size=1, max_size=10),
        all_at_zero=st.booleans(),
        max_live=st.one_of(st.none(), st.integers(0, 3)),
        max_parked=st.one_of(st.none(), st.integers(0, 3)),
        dedup=st.booleans(),
        backoff_s=st.one_of(st.none(), _quarters),
    )
    def test_invariants_and_deferred_equals_eager(
        self, sessions, all_at_zero, max_live, max_parked, dedup, backoff_s
    ):
        arrivals, virtual_s, degraded, at_s = [], {}, set(), 0.0
        for i, s in enumerate(sessions):
            at_s += 0.0 if all_at_zero else s["gap"]
            name = f"s{i}"
            arrivals.append((at_s, _spec(
                name, 1.30 + s["workload"] / 100,
                priority=s["priority"], deadline_s=s["deadline_s"],
            )))
            for attempt in (name, name + "#r"):
                virtual_s[attempt] = s["virtual_s"]
                if s["degraded"]:
                    degraded.add(attempt)

        def on_shed(ctx, now):
            if backoff_s is None or ctx.spec.name.endswith("#r"):
                return None
            return (now + backoff_s, dataclasses.replace(ctx.spec, name=ctx.spec.name + "#r"))

        def serve(core_type):
            core = core_type(None, AdmissionPolicy(max_live, max_parked), dedup, on_shed)
            for at, spec in arrivals:
                core.offer(at, spec)
            ex = ScriptedExecutor(virtual_s, degraded=degraded)
            core.run(ex)
            rows = [
                (c.spec.name, c.arrival_s, c.wait_s, c.shed_reason,
                 c.spec.name in ex.ran, c.spec.name in ex.replayed)
                for c in core.contexts
            ]
            return core, ex, rows

        core, ex, rows = serve(AdmissionCore)
        assert rows == serve(EagerCore)[2]

        slots = core.max_live
        by_name = {c.spec.name: c for c in core.contexts}
        for c in core.contexts:
            name, deadline_s = c.spec.name, c.spec.deadline_s
            shed = c.done and c.result().status == "shed"
            # exactly one disposition, and a shed always says why
            assert [name in ex.ran, name in ex.replayed, shed].count(True) == 1
            assert bool(c.shed_reason) == shed
            assert c.wait_s >= 0.0
            # nothing is served once its deadline ran out in the queue
            if not shed and deadline_s is not None and c.wait_s > 0:
                assert c.wait_s < deadline_s
        # execution order is timeline order: start instants never go back
        starts = [by_name[n].arrival_s + by_name[n].wait_s for n in ex.ran]
        assert starts == sorted(starts)
        # never more than max_live sessions between start and departure
        # (a departure at an instant frees its slot for a start there)
        edges = sorted(
            [(t, 1) for t in starts]
            + [(t + virtual_s[n], 0) for t, n in zip(starts, ex.ran)]
        )
        live = 0
        for _, is_start in edges:
            live += 1 if is_start else -1
            assert live <= slots
        assert core.live == 0 and not core.parked


class TestShedReasonParity:
    def test_max_live_zero_reports_the_granted_slot_on_every_path(self):
        """Every path grants ``max(1, max_live)`` live slots; the shed
        reason must say so (``serve_arrivals`` used to print the raw 0
        after running one session live)."""
        policy = AdmissionPolicy(max_live=0, max_parked=0)
        specs = [_spec("a", 1.30), _spec("b", 1.34)]
        reports = [
            serve_sessions(specs, admission=policy, dedup=False),
            serve_arrivals([(0.0, s) for s in specs], admission=policy, dedup=False),
            serve_sessions(specs, mode="shard", workers=2, admission=policy, dedup=False),
        ]
        for report in reports:
            assert report.by_name("a").status == "completed"
            assert report.by_name("b").shed_reason == (
                "queue full (1 live + 0 parked slots, priority 0)"
            )


def _rows(report):
    return [
        (r.name, r.status, r.replayed, r.digest, r.virtual_s, r.wait_s,
         r.deadline_met, r.shed_reason)
        for r in report.results
    ]


def _cold(n):
    return [
        SessionSpec(name=f"c{i:02d}", points=(1.30 + i * 0.004, 1.34 + i * 0.004))
        for i in range(n)
    ]


def _near(n):
    """One op-point family; each session's points sit beside the last's."""
    return [
        SessionSpec(
            name=f"n{i:02d}", points=(1.30 + i * 0.003, 1.31 + i * 0.003), op_cache=True
        )
        for i in range(n)
    ]


def _mixed(n):
    return [
        dataclasses.replace(
            s, priority=(i * 7) % 3, deadline_s=(30.0 + 9.0 * i) if i % 2 else None
        )
        for i, s in enumerate(_cold(n))
    ]


BATCHES = {
    "cold-unbounded": (lambda: _cold(12), dict(dedup=False)),
    "cold-bounded": (lambda: _cold(12), dict(dedup=False, admission=AdmissionPolicy(3, 6))),
    "near-unbounded": (lambda: _near(12), dict(dedup=False)),
    "near-bounded": (lambda: _near(12), dict(dedup=False, admission=AdmissionPolicy(3, 30))),
    "dedup-unbounded": (lambda: build_session_specs(12, classes=5, points=2), dict()),
    "dedup-bounded": (
        lambda: build_session_specs(12, classes=5, points=2),
        dict(admission=AdmissionPolicy(2, 8)),
    ),
    "mixed-bounded": (lambda: _mixed(12), dict(dedup=False, admission=AdmissionPolicy(3, 6))),
}


class TestThreeWayDifferential:
    """A batch, the same sessions as arrivals at t = 0, and the batch
    over two shard workers are one chronology: equal rows — statuses,
    replay flags, digests, virtual times, charged waits, deadline
    verdicts and shed reasons.  (Before the loops were merged, the
    first two disagreed on every bounded batch here.)"""

    @pytest.mark.parametrize("batch", sorted(BATCHES))
    def test_batch_equals_arrivals_at_zero_equals_two_shards(self, batch):
        make, kw = BATCHES[batch]
        specs = make()
        rows = _rows(serve_sessions(specs, **kw))
        assert _rows(serve_arrivals([(0.0, s) for s in specs], **kw)) == rows
        assert _rows(serve_sessions(specs, mode="shard", workers=2, **kw)) == rows
        if "admission" in kw:
            assert any(r[5] > 0 for r in rows), "a bounded batch must queue"


class TestParkedFamilyIsChargedItsQueue:
    def test_op_family_sessions_wait_for_the_departures_ahead_of_them(self):
        """Regression: parked ``op_cache`` sessions of one family were
        all "admitted" at the first freed instant (a chain waiter took
        no slot) and then ran one after another with the rest of their
        queueing uncharged — every one of them reported the same wait,
        and ``deadline_met`` was judged against it.  On the timeline the
        k-th session off the queue starts at the k-th departure."""
        policy = AdmissionPolicy(max_live=2, max_parked=10)
        specs = _near(8)
        report = serve_sessions(specs, admission=policy, dedup=False)
        waits = [r.wait_s for r in report.results]
        assert waits[:2] == [0.0, 0.0] and report.parked == 6
        departures = sorted(r.finished_s for r in report.results)
        assert waits[2:] == departures[:6]
        assert len(set(waits[2:])) == 6  # strictly one after another

        # the last session, with a deadline the old flat wait (the first
        # departure) would have met with room to spare: it cannot start
        # in time, so it is shed at the instant its slot frees
        last = report.results[-1]
        deadline_s = (waits[2] + last.virtual_s + last.wait_s) / 2
        assert waits[2] + last.virtual_s < deadline_s < last.wait_s
        specs[-1] = dataclasses.replace(specs[-1], deadline_s=deadline_s)
        judged = serve_sessions(specs, admission=policy, dedup=False).results[-1]
        assert judged.status == "shed" and judged.deadline_met is False
        assert judged.shed_reason == (
            f"deadline ({deadline_s:g}s) expired while parked: "
            f"first live slot freed at t={last.wait_s:.3f}s"
        )
