"""The batch admission core against a scripted executor.

``AdmissionCore`` decides; an executor only advances sessions.  These
tests drive the core with a fake executor — per-session step trails
and outcomes written down in the test, no engine built — so every
admission decision (who runs, who waits, what wait is charged, the
exact shed reason) is checked in milliseconds, independently of both
real executors (which tests/serve/test_shards.py holds to each other).
"""

from __future__ import annotations

from repro.serve import AdmissionPolicy, SessionContext, SessionSpec
from repro.serve.admission import AdmissionCore


class ScriptedExecutor:
    """``trails[name]`` is the session's virtual time after each of its
    steps (the last entry is its total); names in ``degraded`` finish
    without leaving a workload record."""

    def __init__(self, trails, degraded=(), records=()):
        self.trails = trails
        self.degraded = set(degraded)
        self.records = set(records)
        self.pos = {}
        self.started = []  # names, in first-step order
        self.finished = []  # names, in completion order
        self.replayed = []
        self.shipped = []

    def step(self, ctx):
        name = ctx.spec.name
        trail = self.trails[name]
        i = self.pos.get(name, 0)
        self.pos[name] = i + 1
        if i == 0:
            self.started.append(name)
        if i + 1 < len(trail):
            return trail[i]
        self.finished.append(name)
        if name not in self.degraded:
            self.records.add(ctx.key)
        return None

    def replay(self, ctx, count=False):
        if ctx.key not in self.records:
            return False
        self.replayed.append(ctx.spec.name)
        return True

    def occupancy(self, ctx):
        return ctx.wait_s + self.trails[ctx.spec.name][-1]

    def ship(self, batch):
        self.shipped.append([c.spec.name for c in batch])


def _contexts(*specs):
    return [SessionContext(spec, None, seq=i) for i, spec in enumerate(specs)]


def _spec(name, wf, **kw):
    """Distinct ``wf`` -> distinct workload key; equal ``wf`` -> dedup twins."""
    return SessionSpec(name=name, points=(wf,), **kw)


def _run(specs, trails, max_live=None, max_parked=None, dedup=True, **script):
    contexts = _contexts(*specs)
    core = AdmissionCore(
        contexts, AdmissionPolicy(max_live=max_live, max_parked=max_parked), dedup
    )
    ex = ScriptedExecutor(trails, **script)
    core.run(ex)
    return {c.spec.name: c for c in contexts}, core, ex


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
        trails = {n: [4.0, 8.0] for n in "abcde"} | {"vip": [3.0, 6.0]}
        by_name, core, ex = _run(specs, trails, max_live=2, max_parked=2)
        # rank is (priority desc, seq): vip and a take the live slots
        # (started in seq order), b then c park, d and e are shed
        assert ex.started[:2] == ["a", "vip"]
        assert core.n_parked == 2
        assert by_name["d"].shed_reason == (
            "queue full (2 live + 2 parked slots, priority 0)"
        )
        assert by_name["e"].shed_reason == (
            "queue full (2 live + 2 parked slots, priority -1)"
        )
        assert by_name["d"].result().status == "shed"
        # vip (6 s) frees the first slot for b, a (8 s) the second for c
        assert ex.finished == ["vip", "a", "b", "c"]
        assert {n: by_name[n].wait_s for n in ("a", "vip", "b", "c")} == {
            "a": 0.0, "vip": 0.0, "b": 6.0, "c": 8.0,
        }
        # the admitted tier ships first, then each batch entering the heap
        assert ex.shipped == [["a", "vip"], ["b"], ["c"], [], [], []]

    def test_max_live_zero_still_grants_one_slot(self):
        specs = [_spec("a", 1.30), _spec("b", 1.31)]
        by_name, _, ex = _run(specs, {"a": [5.0], "b": [5.0]}, max_live=0, max_parked=0)
        assert ex.finished == ["a"]
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
        trails = {"live": [10.0], "late": [1.0], "exact": [1.0], "ok": [1.0]}
        by_name, _, ex = _run(specs, trails, max_live=1, max_parked=3)
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
        assert ex.finished == ["live", "ok"]


class TestDedup:
    SPECS = staticmethod(
        lambda: [_spec("lead", 1.30), _spec("f1", 1.30), _spec("f2", 1.30), _spec("x", 1.40)]
    )
    TRAILS = {"lead": [2.0, 4.0], "f1": [2.0, 4.0], "f2": [2.0, 4.0], "x": [9.0, 18.0]}

    def test_followers_replay_a_clean_leader(self):
        _, _, ex = _run(self.SPECS(), self.TRAILS)
        assert ex.started == ["lead", "x"]
        assert ex.replayed == ["f1", "f2"]

    def test_degraded_leader_requeues_its_followers_live(self):
        """A degraded leader leaves no record, so its followers run
        live — entering the heap together, in admission order, when the
        leader finishes."""
        _, core, ex = _run(self.SPECS(), self.TRAILS, degraded={"lead"})
        assert ex.replayed == []
        assert ex.started == ["lead", "x", "f1", "f2"]
        assert ex.finished == ["lead", "f1", "f2", "x"]
        assert ["f1", "f2"] in ex.shipped
        assert core.leaders[core.admitted[0].key].spec.name == "f2"

    def test_parked_twin_follows_a_running_leader_without_a_slot(self):
        specs = [_spec("lead", 1.30), _spec("other", 1.40), _spec("twin", 1.30),
                 _spec("next", 1.50)]
        trails = {"lead": [5.0, 20.0], "other": [3.0, 6.0], "twin": [5.0, 20.0],
                  "next": [1.0]}
        by_name, _, ex = _run(specs, trails, max_live=2, max_parked=2)
        # other frees a slot at 6: twin becomes lead's follower (no slot
        # consumed) and the same slot admits next; twin replays when
        # lead finishes, keeping the wait it was charged
        assert ex.started == ["lead", "other", "next"]
        assert ex.replayed == ["twin"]
        assert by_name["twin"].wait_s == by_name["next"].wait_s == 6.0


class TestOpChains:
    def test_family_runs_one_at_a_time_in_admission_order(self):
        specs = [
            _spec("a1", 1.30, op_cache=True),
            _spec("b1", 1.31, op_cache=True, mach=0.5),  # another family
            _spec("a2", 1.32, op_cache=True),
            _spec("a3", 1.33, op_cache=True),
            _spec("a4", 1.34, op_cache=True),
        ]
        trails = {n: [1.0, 2.0] for n in ("a1", "a2", "a3", "a4")} | {"b1": [25.0, 50.0]}
        by_name, core, ex = _run(specs, trails, max_live=4, max_parked=1, dedup=False)
        # a2 and a3 hold live slots but wait their chain turn; a4 is
        # admitted into a1's freed slot and queues behind them
        assert ex.started == ["a1", "b1", "a2", "a3", "a4"]
        assert ex.finished == ["a1", "a2", "a3", "a4", "b1"]
        assert by_name["a4"].wait_s == 2.0
        assert core.op_chains == {}


class LivenessExecutor(ScriptedExecutor):
    """Also records how often each session finished and the most
    sessions of one op-point family that were ever live at once."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.live = {}  # name -> family, while started and unfinished
        self.finishes = {}
        self.peak_family_live = 0

    def step(self, ctx):
        name = ctx.spec.name
        self.live[name] = ctx.op_chain_key
        families = [f for f in self.live.values() if f is not None]
        self.peak_family_live = max(
            [self.peak_family_live] + [families.count(f) for f in families]
        )
        key = super().step(ctx)
        if key is None:
            del self.live[name]
            self.finishes[name] = self.finishes.get(name, 0) + 1
        return key


class TestRequeuedFollowerJoinsItsChain:
    def test_degraded_op_cache_leader_requeues_its_follower_onto_the_chain(self):
        """A degraded leader's follower runs live; when it is an
        ``op_cache`` session it must take its turn on the family chain
        (the finished leader still heads it at that moment) instead of
        running beside the waiter the chain releases — and the waiter
        must not be handed back a second time when the follower ends."""
        specs = [
            _spec("lead", 1.30, op_cache=True),
            _spec("twin", 1.30, op_cache=True),
            _spec("wait", 1.31, op_cache=True),  # same family, other workload
        ]
        trails = {n: [2.0, 4.0, 6.0] for n in ("lead", "twin", "wait")}
        contexts = _contexts(*specs)
        core = AdmissionCore(contexts, AdmissionPolicy(), True)
        ex = LivenessExecutor(trails, degraded={"lead"})
        core.run(ex)
        assert ex.replayed == []
        assert ex.finishes == {"lead": 1, "twin": 1, "wait": 1}
        assert ex.peak_family_live == 1
        # chain order: the waiter was admitted onto the chain before the
        # follower was requeued onto it
        assert ex.finished == ["lead", "wait", "twin"]
        assert ex.pos == {n: 3 for n in trails}
        assert core.op_chains == {}


class TestStragglers:
    def test_all_replayed_live_tier_admits_parked_at_the_frontier(self):
        """Every live session replays (a warm cache), so no slot ever
        frees on the heap: the parked tier is admitted one after another
        at the advancing frontier, each charged the queue ahead of it."""
        specs = [_spec("r1", 1.30), _spec("r2", 1.30), _spec("p1", 1.40),
                 _spec("p2", 1.50), _spec("p3", 1.60, deadline_s=10.0)]
        trails = {"p1": [3.0, 7.0], "p2": [5.0], "p3": [1.0]}
        contexts = _contexts(*specs)
        core = AdmissionCore(contexts, AdmissionPolicy(max_live=2, max_parked=3), True)
        ex = ScriptedExecutor(trails, records={contexts[0].key})
        core.run(ex)
        assert ex.replayed == ["r1", "r2"]
        assert ex.finished == ["p1", "p2"]
        assert [c.wait_s for c in contexts[2:]] == [0.0, 7.0, 12.0]
        assert contexts[4].shed_reason == (
            "deadline (10s) expired while parked: first live slot freed at t=12.000s"
        )


class TestCompletionOrderPairing:
    def test_freed_slots_pair_in_heap_completion_order_not_timeline_order(self):
        """Pins today's quirk.  Live A (10 s) and B (30 s); parked, in
        rank order, C (25 s), D, E.  A frees C's slot at 10.  C's own
        virtual time (12, then 25) stays below B's fairness key (15),
        so C *finishes on the heap before B* although its occupancy
        instant (10 + 25 = 35) is later than B's (30).  The
        better-ranked D is therefore paired with the later slot (35)
        and E with the earlier one (30); timeline order would give
        D 30 and E 35.  A change to this pairing moves charged waits —
        it has to be made on purpose, and say so."""
        specs = [_spec(n, 1.30 + i / 100) for i, n in enumerate("ABCDE")]
        trails = {
            "A": [5.0, 10.0],
            "B": [15.0, 30.0],
            "C": [12.0, 25.0],
            "D": [20.0, 40.0],
            "E": [1.0],
        }
        by_name, _, ex = _run(specs, trails, max_live=2, max_parked=3)
        assert ex.finished[:3] == ["A", "C", "B"]
        assert {n: by_name[n].wait_s for n in "CDE"} == {
            "C": 10.0, "D": 35.0, "E": 30.0,
        }


class TestShedReasonParity:
    def test_max_live_zero_reports_the_granted_slot_on_every_path(self):
        """Every path grants ``max(1, max_live)`` live slots; the shed
        reason must say so (``serve_arrivals`` used to print the raw 0
        after running one session live)."""
        from repro.serve import serve_arrivals, serve_sessions, serve_sessions_sharded

        policy = AdmissionPolicy(max_live=0, max_parked=0)
        specs = [_spec("a", 1.30), _spec("b", 1.34)]
        reports = [
            serve_sessions(specs, admission=policy, dedup=False),
            serve_arrivals([(0.0, s) for s in specs], admission=policy, dedup=False),
            serve_sessions_sharded(specs, workers=2, admission=policy, dedup=False),
        ]
        for report in reports:
            assert report.by_name("a").status == "completed"
            assert report.by_name("b").shed_reason == (
                "queue full (1 live + 0 parked slots, priority 0)"
            )
