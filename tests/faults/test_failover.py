"""Acceptance tests for checkpointed failover (the issue's bar).

A seeded plan kills the machine hosting the F100 nozzle halfway through
a transient; the run must still complete, with the post-recovery
operating points matching the fault-free run (the checkpoint holds the
declared state ``setnozl`` installed, which nothing changes afterwards),
and a byte-identical trace digest on replay.

These run the real executive, so they are the slow end of the suite
(a few seconds); the cheap unit coverage lives in
``test_plan_injector.py``.
"""

import pytest

from repro.core import REMOTE_PATHS, install_tess_executables
from repro.core.specs import DUCT_SPEC_SOURCE
from repro.faults import (
    CrashMachine,
    CrashProcess,
    FailoverSupervisor,
    FaultInjector,
    FaultPlan,
)
from repro.faults.demo import DOOMED_HOST, _build_executive, demo_records, run_demo
from repro.schooner import Manager, ManagerMode, ModuleContext, SchoonerEnvironment
from repro.schooner.tracing import trace_digest
from repro.uts import SpecFile, codec_for

DUCT = SpecFile.parse(DUCT_SPEC_SOURCE).as_imports()


def recoveries(result):
    """The demo's failure log, as its ``recovery`` records."""
    return [r for r in demo_records(result) if r["record"] == "recovery"]


def checkpoint_time(failover):
    """The virtual instant of the checkpoint a failover event restored."""
    return float(failover.detail.rsplit("@ ", 1)[1].rstrip("s"))


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
        (fo,) = [e for e in ex.supervisor.events if e.kind == "failover"]
        assert "2 state vars from checkpoint" in fo.detail
        crash_at = machine_crash["injections"][0][0]
        assert checkpoint_time(fo) < crash_at
        # the restarted nozzle holds what setnozl installed in the
        # fault-free run, and so does the checkpoint taken of it
        (line,) = ex.manager.active_lines
        record = ex.manager.lookup(line, "nozl")
        assert record.machine.hostname != DOOMED_HOST
        (ref_line,) = machine_crash["reference"].manager.active_lines
        installed = dict(ref_line.records[0].state_storage())
        assert sorted(installed) == ["area", "cd"]
        assert dict(record.state_storage()) == installed
        checkpoint = ex.supervisor.store.latest(line.line_id, record.path)
        types = record.procedure.state_spec
        decoded = {var: codec_for(types[var]).decode(blob)[0] for var, blob in checkpoint.blobs}
        assert decoded == installed

    def test_traces_record_the_failover(self, machine_crash):
        ex = machine_crash["executive"]
        assert any(t.failed_over for t in ex.env.traces)
        assert all(t.outcome in ("ok", "timeout") for t in ex.env.traces)


class TestProcessCrash:
    def test_the_death_is_logged_between_the_crash_and_the_failover(self):
        """A process that dies on a live host is detected by the call
        that fails on it; the host is not marked dead."""
        r = run_demo("process-crash", seed=0, quick=True)
        supervisor = r["executive"].supervisor
        crash_at = r["injections"][-1][0]  # the plan ends with its crash
        (dead,) = [e for e in supervisor.events if e.kind == "process-dead"]
        (fo,) = [e for e in supervisor.events if e.kind == "failover"]
        assert crash_at < dead.at_s <= fo.at_s
        assert dead.subject == fo.subject
        assert dead.detail == f"failed call on {DOOMED_HOST}"
        assert DOOMED_HOST not in supervisor.dead_hosts


class TestTwoCrashes:
    def test_second_restart_comes_back_with_the_declared_state(self):
        env = SchoonerEnvironment.standard()
        install_tess_executables(env.park)
        manager = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
        supervisor = FailoverSupervisor(manager=manager)
        supervisor.attach()
        ctx = ModuleContext(manager=manager, module_name="duct", machine=manager.host)
        ctx.sch_contact_schx("lerc-cray", REMOTE_PATHS["duct"])
        ctx.import_proc(DUCT.import_named("setduct"))(dpqp=0.02)
        duct = ctx.import_proc(DUCT.import_named("duct"))
        crashed_at = []
        for _ in range(2):
            env.clock.advance(0.01)  # one tick: the (restored) state is saved
            dead = manager.lookup(ctx.line, "duct")
            dead.machine.crash_process(dead.process.pid)
            crashed_at.append(env.clock.now)
            out = duct(w=100.0, tt=300.0, pt=2e5, far=0.0)
            assert out["pto"] == pytest.approx(2e5 * (1 - 0.02), rel=1e-12)
        first, second = [e for e in supervisor.events if e.kind == "failover"]
        assert "1 state vars from checkpoint" in first.detail
        assert "1 state vars from checkpoint" in second.detail
        # the second restart restored the restarted process's checkpoint
        assert checkpoint_time(first) < crashed_at[0]
        assert crashed_at[0] < checkpoint_time(second) < crashed_at[1]


def quick_run(event):
    """The quick demo transient under a one-event plan: its executive
    and the plan's injector."""
    ex = _build_executive(0.4, 0.02)
    with FaultInjector(env=ex.env, plan=FaultPlan(events=(event,))) as injector:
        ex.run_simulation()
    return ex, injector


@pytest.fixture(scope="module")
def fault_free_thrust():
    ref = _build_executive(0.4, 0.02)
    ref.run_simulation()
    return ref.solution.thrust_N


class TestSameAdvance:
    """Checkpoints are clock events: a fault that comes due in the same
    advance fires in instant order with them."""

    def test_no_host_is_declared_dead_before_it_crashed(self):
        # only the call that meets the dead host declares it dead
        ex, injector = quick_run(CrashMachine(at_s=1.511, hostname=DOOMED_HOST))
        (crash_at, _), = injector.log
        dead = [e for e in ex.supervisor.events if e.kind == "host-dead"]
        assert dead and all(e.at_s >= crash_at for e in dead)

    def test_a_checkpoint_due_before_the_crash_survives_it(self, fault_free_thrust):
        # setnozl wrote its state before 0.5165 s, and the advance that
        # makes the crash due is the first after the write
        ex, _ = quick_run(CrashProcess(at_s=0.5165, hostname=DOOMED_HOST))
        (fo,) = [e for e in ex.supervisor.events if e.kind == "failover"]
        assert "2 state vars from checkpoint" in fo.detail
        assert ex.solution.thrust_N == pytest.approx(fault_free_thrust, rel=1e-9, abs=0)

    def test_a_checkpoint_carries_the_instant_of_its_write(self):
        # the checkpoint fires in the advance past 0.5165 s (at
        # 0.517241 s), but holds the state setnozl wrote inside its
        # call, before the crash
        ex, _ = quick_run(CrashProcess(at_s=0.5165, hostname=DOOMED_HOST))
        (fo,) = [e for e in ex.supervisor.events if e.kind == "failover"]
        setnozl = next(t for t in ex.env.traces if t.procedure == "setnozl")
        assert setnozl.started_at < checkpoint_time(fo) < 0.5165


class TestDetectionByCall:
    def test_a_crash_no_call_meets_is_not_logged_until_one_does(self):
        """Nothing polls: a host that dies while no call goes to it is
        logged dead by the next call that meets it, at that call's
        instant, which then fails over."""
        env = SchoonerEnvironment.standard()
        install_tess_executables(env.park)
        manager = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
        supervisor = FailoverSupervisor(manager=manager)
        supervisor.attach()
        ctx = ModuleContext(manager=manager, module_name="duct", machine=manager.host)
        ctx.sch_contact_schx("lerc-cray", REMOTE_PATHS["duct"])
        ctx.import_proc(DUCT.import_named("setduct"))(dpqp=0.02)
        host = "cray-ymp.lerc.nasa.gov"
        plan = FaultPlan(events=(CrashMachine(at_s=1.0, hostname=host),))
        FaultInjector(env=env, plan=plan).attach()
        ctx.line.timeline.advance(2.0)  # the crash fires; no call is made
        assert not env.park[host].up
        assert supervisor.events == [] and supervisor.dead_hosts == set()
        called_at = ctx.line.timeline.now
        out = ctx.import_proc(DUCT.import_named("duct"))(w=100.0, tt=300.0, pt=2e5, far=0.0)
        assert out["pto"] == pytest.approx(2e5 * (1 - 0.02), rel=1e-12)
        dead, fo = supervisor.events
        assert (dead.kind, dead.subject, dead.detail) == ("host-dead", host, "failed call")
        assert fo.kind == "failover" and fo.subject == REMOTE_PATHS["duct"]
        assert called_at <= dead.at_s <= fo.at_s <= env.traces[-1].started_at
        assert supervisor.dead_hosts == {host}


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
