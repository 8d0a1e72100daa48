"""Serve-accounting regressions (PR 6 satellites).

Four bugs, four tests:

1. ``ServeReport.cache_hits``/``cache_misses`` reported the
   installation's *lifetime* counters — a long-running server's second
   call claimed the first call's traffic too.  Fixed by snapshotting at
   serve start and reporting per-call deltas.
2. The probe that re-examines a parked session when a slot frees
   counted as cache traffic, inflating the hit rate.  Fixed with a
   non-counting ``peek``.  Every session is one counted lookup — at its
   own arrival, or at its turn to run when its twin is just ahead of it
   — so an in-batch twin is a counted *hit*.
3. Parked sessions behind a live tier that only replayed were admitted
   with their accumulated queue wait reset to ``0.0``, so
   ``_disposition`` could report ``deadline_met=True`` for a session
   that waited far past its deadline.  On the one timeline a parked
   session starts at the departure that frees its slot and is charged
   up to it (and a replay holds no slot to begin with).
4. A negative ``AdmissionPolicy.max_parked`` sliced the ranked list
   backwards, mis-shedding admitted sessions.  Fixed by clamping to 0.
"""

from __future__ import annotations

from repro.serve import (
    AdmissionPolicy,
    SessionSpec,
    SharedInstallation,
    serve_sessions,
)


def _spec(name, points=(1.30, 1.34), **kw):
    return SessionSpec(name=name, points=points, **kw)


class TestPerCallDeltas:
    def test_second_call_reports_only_its_own_traffic(self):
        """A warm second serve() on the same installation reports its
        own hits, not the lifetime totals."""
        inst = SharedInstallation.standard()
        first = serve_sessions([_spec("a1"), _spec("a2")], installation=inst)
        # a1 found an empty cache; a2, right behind it, found a1's record
        assert first.cache_hits == 1
        assert first.cache_misses == 1
        second = serve_sessions([_spec("b1"), _spec("b2")], installation=inst)
        # the workload is now cached: both replay as hits, and the
        # first call's misses must not leak into this report
        assert second.cache_hits == 2
        assert second.cache_misses == 0
        assert second.replayed == 2
        # the installation's lifetime counters keep accumulating
        assert inst.cache.hits == 3
        assert inst.cache.misses == 1

    def test_op_counters_are_per_call_too(self):
        inst = SharedInstallation.standard()
        first = serve_sessions(
            [_spec("a", points=(1.30,), op_cache=True)],
            installation=inst, dedup=False,
        )
        assert (first.op_exact, first.op_near, first.op_miss) == (0, 0, 1)
        second = serve_sessions(
            [_spec("b", points=(1.30,), op_cache=True)],
            installation=inst, dedup=False,
        )
        assert (second.op_exact, second.op_near, second.op_miss) == (1, 0, 0)


class TestProbesDoNotCount:
    def test_admission_probe_and_follower_requeue_are_uncounted(self):
        """One live slot; b and c (one workload) arrive while a holds
        it, find nothing recorded — two counted misses beside a's — and
        park.  When the slot frees they are *re-probed*: b still finds
        nothing and runs, c finds b's record and replays.  Neither
        re-probe is cache traffic.  (The old code counted a
        miss-then-hit pair per parked session.)"""
        report = serve_sessions(
            [_spec("a", points=(1.46,)), _spec("b"), _spec("c")],
            admission=AdmissionPolicy(max_live=1, max_parked=10),
        )
        assert report.completed == 3
        assert report.parked == 2
        assert report.replayed == 1
        assert report.cache_misses == 3
        assert report.cache_hits == 0

    def test_follower_requeue_does_not_recount(self):
        """Twins in one batch are one counted lookup each, made when the
        session ahead of them has run: the leader's miss, then a hit per
        follower — not a miss at admission *and* nothing at replay, as
        when followers were split off before their leader ran (3 misses,
        0 hits)."""
        report = serve_sessions([_spec("a"), _spec("b"), _spec("c")])
        assert report.replayed == 2
        assert report.cache_misses == 1
        assert report.cache_hits == 2
        # ... and the same through a single live slot, where b and c
        # arrive to find the slot taken and a's record already there
        bounded = serve_sessions(
            [_spec("a"), _spec("b"), _spec("c")],
            admission=AdmissionPolicy(max_live=1, max_parked=10),
        )
        assert (bounded.replayed, bounded.cache_misses, bounded.cache_hits) == (2, 1, 2)
        assert bounded.parked == 0

    def test_workload_cache_peek_is_silent(self):
        inst = SharedInstallation.standard()
        assert inst.cache.peek("nope") is None
        assert (inst.cache.hits, inst.cache.misses) == (0, 0)
        assert inst.cache.get("nope") is None
        assert (inst.cache.hits, inst.cache.misses) == (0, 1)


class TestStragglerWaitPreserved:
    def test_straggler_behind_long_session_cannot_fake_its_deadline(self):
        """The only live slot goes to ``long`` (the replayer holds
        none), so ``tight`` waits for ``long``'s full occupancy; its
        deadline expired in the queue and it must be shed — not run and
        reported ``deadline_met=True`` off a reset wait."""
        long_spec = _spec("long", points=(1.30, 1.34, 1.38, 1.42), priority=5)
        tight = _spec("tight", points=(1.46,), priority=1)
        v_long = serve_sessions([long_spec], dedup=False).results[0].virtual_s
        v_tight = serve_sessions([tight], dedup=False).results[0].virtual_s
        assert v_tight < v_long  # the deadline below is satisfiable solo

        inst = SharedInstallation.standard()
        warm = _spec("warm")
        serve_sessions([warm], installation=inst)  # warm the workload cache
        deadline = (v_tight + v_long) / 2.0
        report = serve_sessions(
            [
                _spec("replayer"),  # replays instantly, taking no slot
                long_spec,
                SessionSpec(
                    name="tight", points=(1.46,), priority=1, deadline_s=deadline
                ),
            ],
            installation=inst,
            admission=AdmissionPolicy(max_live=1, max_parked=10),
        )
        assert report.by_name("replayer").replayed
        assert report.by_name("long").status == "completed"
        r = report.by_name("tight")
        # it waited v_long in the queue — past its deadline
        assert r.status == "shed"
        assert r.deadline_met is False
        assert report.deadline_missed == 1

    def test_straggler_wait_is_charged_not_reset(self):
        """Even without a deadline, a session behind another carries
        its predecessor's occupancy as ``wait_s``."""
        inst = SharedInstallation.standard()
        serve_sessions([_spec("warm")], installation=inst)
        report = serve_sessions(
            [_spec("replayer"), _spec("s1", points=(1.30, 1.34, 1.38)),
             _spec("s2", points=(1.46,))],
            installation=inst,
            admission=AdmissionPolicy(max_live=1, max_parked=10),
        )
        s1 = report.by_name("s1")
        s2 = report.by_name("s2")
        assert s1.status == "completed"
        assert s2.status == "completed"
        assert s2.wait_s >= s1.virtual_s  # charged s1's occupancy, not 0.0


class TestNegativeMaxParked:
    def test_negative_max_parked_clamps_to_zero(self):
        report = serve_sessions(
            [_spec("a"), _spec("b", points=(1.46,)), _spec("c", points=(1.54,))],
            admission=AdmissionPolicy(max_live=1, max_parked=-5),
            dedup=False,
        )
        assert report.completed == 1
        assert report.shed == 2
        assert report.degraded == 0
        for r in report.results:
            assert r.status in ("completed", "shed")

    def test_effective_max_parked_property(self):
        assert AdmissionPolicy(max_parked=-3).effective_max_parked == 0
        assert AdmissionPolicy(max_parked=2).effective_max_parked == 2
        assert AdmissionPolicy().effective_max_parked is None
