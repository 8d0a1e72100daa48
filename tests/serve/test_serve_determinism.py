"""Multi-session determinism (PR 4, satellite 4 + tentpole acceptance).

The serving layer's core guarantee: a session's virtual times and trace
digest are a pure function of its spec — unchanged by co-resident
sessions, by the wall-parallel lines pool (on or off), by the
workload cache, and by a faulted neighbour.
"""

from __future__ import annotations

import pytest

from repro.faults.plan import FaultPlan, GatewayOutage, GatewayRestore, LatencySpike
from repro.serve import (
    SessionSpec,
    SharedInstallation,
    serve_sessions,
)
from repro.serve.demo import build_session_specs


def _solo(spec, **kw):
    return serve_sessions([spec], dedup=False, **kw).results[0]


class TestInterleavedEqualsSolo:
    def test_two_interleaved_sessions_match_solo_digests(self):
        a = SessionSpec(name="a", points=(1.30, 1.34, 1.38))
        b = SessionSpec(name="b", points=(1.46, 1.50, 1.54))
        solo_a, solo_b = _solo(a), _solo(b)
        mixed = serve_sessions([a, b], dedup=False)
        assert mixed.by_name("a").digest == solo_a.digest
        assert mixed.by_name("b").digest == solo_b.digest
        assert mixed.by_name("a").virtual_s == solo_a.virtual_s
        assert mixed.by_name("b").virtual_s == solo_b.virtual_s

    def test_sixteen_interleaved_sessions_match_solo_virtual_times(self):
        """The acceptance differential: per-session virtual times in a
        16-session batch are numerically identical to solo runs."""
        specs = build_session_specs(16, classes=4, points=2)
        batch = serve_sessions(specs, dedup=False)
        for spec in specs[:4]:  # one per workload class
            solo = _solo(spec)
            served = batch.by_name(spec.name)
            assert served.virtual_s == solo.virtual_s
            assert served.digest == solo.digest

    def test_transient_sessions_interleave_deterministically(self):
        steady = SessionSpec(name="steady", points=(1.30, 1.34))
        trans = SessionSpec(name="trans", points=(1.40,), transient_s=0.1)
        solo_t = _solo(trans)
        mixed = serve_sessions([steady, trans], dedup=False)
        assert mixed.by_name("trans").digest == solo_t.digest
        assert mixed.by_name("trans").virtual_s == solo_t.virtual_s
        assert mixed.by_name("trans").transient is not None


class TestModesAgree:
    def test_dedup_replays_are_byte_identical_to_live_runs(self):
        specs = build_session_specs(8, classes=2, points=2)
        live = serve_sessions(specs, dedup=False)
        cached = serve_sessions(specs, dedup=True)
        assert cached.replayed == 6  # 2 leaders live, 6 followers replay
        assert [(r.digest, r.virtual_s, r.results) for r in cached.results] == [
            (r.digest, r.virtual_s, r.results) for r in live.results
        ]

    def test_warm_cache_replays_across_serve_calls(self):
        installation = SharedInstallation.standard()
        specs = build_session_specs(2, classes=2, points=2)
        first = serve_sessions(specs, installation=installation)
        second = serve_sessions(specs, installation=installation)
        assert first.live == 2 and first.replayed == 0
        assert second.live == 0 and second.replayed == 2
        assert [r.digest for r in second.results] == [r.digest for r in first.results]


class TestFaultIsolation:
    PLAN = FaultPlan(
        seed=11,
        events=(
            LatencySpike(at_s=0.5, until_s=8.0, extra_s=0.3),
            GatewayOutage(at_s=2.0, site="lerc.nasa.gov"),
            GatewayRestore(at_s=4.0, site="lerc.nasa.gov"),
        ),
    )

    def test_faulted_session_does_not_perturb_healthy_neighbour(self):
        healthy = SessionSpec(name="healthy", points=(1.30, 1.34, 1.38))
        faulted = SessionSpec(
            name="faulted", points=(1.42, 1.46), fault_plan=self.PLAN
        )
        solo_h = _solo(healthy)
        mixed = serve_sessions([healthy, faulted], dedup=False)
        h = mixed.by_name("healthy")
        assert h.digest == solo_h.digest
        assert h.virtual_s == solo_h.virtual_s

    def test_faulted_session_is_itself_deterministic_and_diverges(self):
        faulted = SessionSpec(
            name="faulted", points=(1.42, 1.46), fault_plan=self.PLAN
        )
        clean = SessionSpec(name="clean", points=(1.42, 1.46))
        f1, f2 = _solo(faulted), _solo(faulted)
        assert f1.digest == f2.digest
        assert f1.virtual_s == f2.virtual_s
        assert f1.fault_log  # the plan actually fired
        assert f1.virtual_s != _solo(clean).virtual_s  # and actually hurt

    def test_fault_sessions_are_never_cached(self):
        faulted = SessionSpec(
            name="faulted", points=(1.42,), fault_plan=self.PLAN
        )
        assert not faulted.cacheable
        installation = SharedInstallation.standard()
        serve_sessions([faulted], installation=installation)
        assert len(installation.cache) == 0


class TestWorkloadKey:
    def test_name_is_excluded(self):
        a = SessionSpec(name="a", points=(1.3,))
        b = SessionSpec(name="b", points=(1.3,))
        assert a.workload_key() == b.workload_key()

    def test_every_trace_determining_field_changes_the_key(self):
        base = SessionSpec(name="x")
        variants = [
            SessionSpec(name="x", points=(1.30, 1.34)),
            SessionSpec(name="x", altitude_m=5000.0),
            SessionSpec(name="x", mach=0.4),
            SessionSpec(name="x", transient_s=0.5),
            SessionSpec(name="x", transient_dt=0.01),
            SessionSpec(name="x", dispatch="sync"),
            SessionSpec(name="x", placement={"combustor": "cray-ymp.lerc.nasa.gov"}),
        ]
        keys = {base.workload_key()} | {v.workload_key() for v in variants}
        assert len(keys) == 1 + len(variants)


class TestServeReport:
    def test_report_shape_and_order(self):
        specs = build_session_specs(4, classes=2, points=2)
        report = serve_sessions(specs)
        assert [r.name for r in report.results] == [s.name for s in specs]
        assert report.sessions == 4
        assert report.points == 8
        assert report.live == 2 and report.replayed == 2
        assert report.points_per_s > 0
        assert report.records()[0]["sessions"] == 4
        with pytest.raises(KeyError):
            report.by_name("nope")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown serve mode"):
            serve_sessions([SessionSpec(name="a")], mode="warp")
