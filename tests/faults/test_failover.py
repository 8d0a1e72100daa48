"""Acceptance tests for checkpointed failover (the issue's bar).

A seeded plan kills the machine hosting the F100 nozzle halfway through
a transient; the run must still complete, with the post-recovery
operating points matching the fault-free run within checkpoint-interval
tolerance, and a byte-identical trace digest on replay.

These run the real executive, so they are the slow end of the suite
(a few seconds); the cheap unit coverage lives in
``test_plan_injector.py``.
"""

import pytest

from repro.faults.demo import DOOMED_HOST, demo_records, run_demo
from repro.schooner.tracing import trace_digest


def recoveries(result):
    """The demo's failure log, as its ``recovery`` records."""
    return [r for r in demo_records(result) if r["record"] == "recovery"]


@pytest.fixture(scope="module")
def machine_crash():
    return run_demo("machine-crash", seed=0, quick=True)


class TestAcceptance:
    def test_transient_completes_despite_crash(self, machine_crash):
        r = machine_crash
        assert r["recoveries"] == 1
        # native-format roundtrips on the recovery path may round
        # doubles; everything else is exact
        assert r["rel_err"] < 1e-6
        assert r["final_n1"] == pytest.approx(r["final_n1_ref"], rel=1e-6)

    def test_failover_lands_on_surviving_machine(self, machine_crash):
        ex = machine_crash["executive"]
        assert DOOMED_HOST in ex.supervisor.dead_hosts
        fo = [e for e in ex.supervisor.events if e.kind == "failover"]
        assert len(fo) == 1
        assert DOOMED_HOST in fo[0].detail
        target = fo[0].detail.split("-> ")[1].split(",")[0]
        assert target != DOOMED_HOST
        assert ex.env.park[target].up

    def test_state_restored_from_checkpoint(self, machine_crash):
        ex = machine_crash["executive"]
        assert ex.supervisor.store.taken > 0
        (fo,) = [e for e in ex.supervisor.events if e.kind == "failover"]
        assert "from checkpoint" in fo.detail
        crash_at = machine_crash["injections"][0][0]
        # the restored snapshot predates the crash by at most one
        # checkpoint interval
        checkpoints = list(ex.supervisor.store._latest.values())
        assert checkpoints, "no checkpoint retained"
        assert any(blob for c in checkpoints for _, blob in c.blobs)

    def test_traces_record_the_failover(self, machine_crash):
        ex = machine_crash["executive"]
        assert any(t.failed_over for t in ex.env.traces)
        assert all(t.outcome in ("ok", "timeout") for t in ex.env.traces)


class TestDeterminism:
    def test_replay_is_byte_identical(self, machine_crash):
        replay = run_demo("machine-crash", seed=0, quick=True)
        assert replay["digest"] == machine_crash["digest"]
        assert replay["injections"] == machine_crash["injections"]
        assert recoveries(replay) == recoveries(machine_crash)

    def test_digest_covers_outcomes(self, machine_crash):
        # the digest is over the serialized traces: dropping the faulted
        # traces' outcome flags would change it
        ex = machine_crash["executive"]
        full = trace_digest(ex.env.traces)
        assert full == machine_crash["digest"]
        truncated = trace_digest(ex.env.traces[:-1])
        assert truncated != full


class TestOtherPlans:
    def test_process_crash_recovers(self):
        r = run_demo("process-crash", seed=0, quick=True)
        assert r["recoveries"] == 1
        assert r["rel_err"] < 1e-6

    def test_packet_loss_retries_through(self):
        r = run_demo("packet-loss", seed=0, quick=True)
        assert r["dropped"] >= 1
        assert r["recoveries"] == 0
        assert r["rel_err"] < 1e-6
        ex = r["executive"]
        assert any(t.outcome == "timeout" for t in ex.env.traces)
        assert any(t.retries > 0 for t in ex.env.traces)
