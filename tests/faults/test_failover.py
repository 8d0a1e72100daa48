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

from repro.core import REMOTE_PATHS, SchoonerHost, install_tess_executables
from repro.core.specs import DUCT_SPEC_SOURCE
from repro.faults import (
    CrashMachine,
    CrashProcess,
    FailoverSupervisor,
    FaultInjector,
    FaultPlan,
)
from repro.faults.demo import (
    DOOMED_HOST,
    PLAN_NAMES,
    _build_executive,
    demo_records,
    run_demo,
)
from repro.schooner import Manager, ManagerMode, ModuleContext, SchoonerEnvironment
from repro.schooner.tracing import trace_digest
from repro.serve import SessionSpec, serve_sessions
from repro.serve import session as session_module
from repro.serve.installation import SharedInstallation
from repro.tess import Duct, GasState
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
        assert {var: value for var, _, value in checkpoint.state} == installed

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
            env.clock.advance(0.01)  # the (restored) state was saved a tick ago
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
    """A checkpoint is taken inside the call that wrote the state, so a
    fault that comes due in the advance after that call never precedes
    it."""

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
        # setnozl took the checkpoint when it returned, inside its call
        # and before the crash, which fires in the advance past 0.5165 s
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

    def test_re_contacting_a_crashed_placement_recovers_nothing(self):
        """``SchoonerHost.setup`` re-contacts every placement; a process
        that died under it is neither logged nor replaced until a
        component call meets it, which then fails over once."""
        env = SchoonerEnvironment.standard()
        install_tess_executables(env.park)
        manager = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
        supervisor = FailoverSupervisor(manager=manager)
        supervisor.attach()
        host = SchoonerHost(manager=manager, avs_machine=manager.host,
                            placements={"duct:core": "lerc-cray"})
        state = GasState(W=63.0, Tt=745.0, Pt=2.2e6, far=0.0)
        host.duct("core", Duct(dpqp=0.02), state)  # set* writes, and checkpoints
        cray = "cray-ymp.lerc.nasa.gov"
        plan = FaultPlan(events=(CrashProcess(at_s=1.0, hostname=cray),))
        FaultInjector(env=env, plan=plan).attach()
        env.clock.advance(2.0)
        assert env.park[cray].running_processes == ()
        host.setup()
        assert supervisor.events == [] and supervisor.recoveries == 0
        assert [m.hostname for m in env.park if m.running_processes] == []
        out = host.duct("core", Duct(dpqp=0.02), state)
        assert out.Pt == pytest.approx(state.Pt * 0.98, rel=1e-12)
        assert [e.kind for e in supervisor.events] == ["process-dead", "failover"]
        assert sum(t.failed_over for t in env.traces) == 1

    def test_a_served_session_that_recovers_is_degraded_by_its_call(self, monkeypatch):
        """The failover is visible in the session's own traces: exactly
        one call is marked ``failed_over``, a trace that alone makes the
        session degraded."""
        seen = []
        digest = session_module.trace_digest
        monkeypatch.setattr(session_module, "trace_digest",
                            lambda traces: seen.append(list(traces)) or digest(traces))
        # the nozzle is the only process on its host
        plan = FaultPlan(events=(CrashProcess(at_s=2.0, hostname=DOOMED_HOST),))
        spec = SessionSpec(name="recovers", points=(1.28,), fault_plan=plan)
        (result,) = serve_sessions(
            [spec], installation=SharedInstallation.standard(), dedup=False
        ).results
        assert result.status == "degraded" and result.error == ""
        assert len(result.results) == 1
        traces = seen[-1]
        assert [t.procedure for t in traces if t.failed_over] == ["nozl"]
        assert all(t.outcome == "ok" and not t.retries for t in traces)


class TestOneFailoverOneMark:
    @pytest.mark.parametrize("quick", (True, False), ids=("quick", "full"))
    @pytest.mark.parametrize("plan", PLAN_NAMES)
    def test_each_recovery_marks_one_call_failed_over(self, plan, quick):
        ex = run_demo(plan, seed=0, quick=quick)["executive"]
        assert sum(t.failed_over for t in ex.env.traces) == ex.supervisor.recoveries


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
