"""The one restart path: every record a process hosted comes back, with
the declared state it was given, in the database that held it.

``Manager.restart`` serves a move (the live process's state) and a
failover (the latest checkpoint's).  A declared variable that nothing
installed is read strictly: the procedure fails with ``StateLost``
naming itself, the variable and the host, instead of computing with a
default.
"""

import pytest

from repro.core import REMOTE_PATHS, install_tess_executables
from repro.core.specs import DUCT_SPEC_SOURCE, SHAFT_SPEC_SOURCE
from repro.faults import CheckpointStore, CrashProcess, FailoverSupervisor, FaultPlan
from repro.schooner import (
    CallFailed,
    Manager,
    ManagerMode,
    ModuleContext,
    SchoonerEnvironment,
    StaleBinding,
    StateLost,
)
from repro.schooner.lines import LineState, _ProcessState
from repro.serve import SessionSpec, serve_sessions
from repro.serve.installation import SharedInstallation
from repro.uts import SpecFile

DUCT = SpecFile.parse(DUCT_SPEC_SOURCE).as_imports()
SHAFT = SpecFile.parse(SHAFT_SPEC_SOURCE).as_imports()
DUCT_ARGS = dict(w=100.0, tt=300.0, pt=2e5, far=0.0)
SHAFT_ARGS = dict(
    ecom=[12.9e6, 0, 0, 0], incom=1, etur=[13.4e6, 0, 0, 0], intur=1,
    ecorr=0.0, xspool=1.0, xmyi=2.2,
)


@pytest.fixture
def world():
    env = SchoonerEnvironment.standard()
    install_tess_executables(env.park)
    manager = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
    return env, manager


def context(manager, name):
    return ModuleContext(manager=manager, module_name=name, machine=manager.host)


def crash(record):
    record.machine.crash_process(record.process.pid)


class TestSharedInstances:
    def test_move_of_shared_duct_takes_setduct_along(self, world):
        env, manager = world
        manager.start_shared(env.park["lerc-cray"], REMOTE_PATHS["duct"])
        ctx = context(manager, "a")
        ctx.import_proc(DUCT.import_named("setduct"))(dpqp=0.02)
        duct = manager.move(ctx.line, "duct", env.park["lerc-rs6000"])
        setduct = manager.lookup(ctx.line, "setduct")
        assert setduct.process is duct.process
        assert setduct.process.alive
        assert setduct.machine is env.park["lerc-rs6000"]
        assert setduct.generation == 1
        # the declared state travelled with the process
        out = ctx.import_proc(DUCT.import_named("duct"))(**DUCT_ARGS)
        assert out["pto"] == pytest.approx(2e5 * (1 - 0.02), rel=1e-12)

    def test_failover_of_shared_duct_rebinds_the_registry(self, world):
        env, manager = world
        manager.start_shared(env.park["lerc-cray"], REMOTE_PATHS["duct"])
        requester, other = context(manager, "a"), context(manager, "b")
        supervisor = FailoverSupervisor(manager=manager)
        dead = manager.lookup(requester.line, "duct")
        crash(dead)
        new = supervisor.recover(requester.line, dead, requester.line.timeline)
        assert {r.procedure.name for r in new} == {"setduct", "duct"}
        # every line resolves the restarted process, not the dead one
        for ctx in (requester, other, context(manager, "c")):
            rec = manager.lookup(ctx.line, "duct")
            assert rec.process.alive and rec.generation == 1
            assert manager.lookup(ctx.line, "setduct").process is rec.process
        # and it stays shared: no line got a private binding
        assert not requester.line.has_name("duct")

    def test_failover_of_shared_duct_restores_its_checkpoint(self, world):
        env, manager = world
        supervisor = FailoverSupervisor(manager=manager)
        supervisor.attach()
        manager.start_shared(env.park["lerc-cray"], REMOTE_PATHS["duct"])
        setter, caller = context(manager, "a"), context(manager, "b")
        setter.import_proc(DUCT.import_named("setduct"))(dpqp=0.02)
        assert supervisor.store.taken == 1  # taken by the call that wrote it
        env.clock.advance(2.0)  # unchanged: no further checkpoint
        assert supervisor.store.taken == 1
        dead = manager.lookup(caller.line, "duct")
        crash(dead)
        out = caller.import_proc(DUCT.import_named("duct"))(**DUCT_ARGS)
        assert out["pto"] == pytest.approx(2e5 * (1 - 0.02), rel=1e-12)
        restarted = manager.lookup(caller.line, "duct")
        assert restarted.process.alive and restarted.process is not dead.process
        (failover,) = [e for e in supervisor.events if e.kind == "failover"]
        assert "1 state vars from checkpoint" in failover.detail


class TestStateWrites:
    MUTATORS = (
        lambda s: s.__setitem__("a", 1),
        lambda s: s.update(b=2),
        lambda s: s.setdefault("c", 3),
        lambda s: s.__ior__({"d": 4}),
        lambda s: s.__delitem__("d"),
        lambda s: s.pop("c"),
        lambda s: s.popitem(),
        lambda s: s.clear(),
    )

    def test_every_mutator_marks_a_write_and_reads_mark_none(self):
        state = _ProcessState("cray")
        taken = []
        state.hook = lambda: taken.append(dict(state))
        for write in self.MUTATORS:
            state.component = "built"
            write(state)
            assert state.written and state.component is None
            state.checkpoint()
            assert not state.written
        assert len(taken) == len(self.MUTATORS) and state == {}
        state["a"] = 1
        state.checkpoint()
        assert state.get("a") == 1 and "a" in state and list(state) == ["a"]
        with pytest.raises(StateLost):
            state["missing"]
        assert not state.written
        state.checkpoint()  # nothing written since the last checkpoint
        assert taken[-1] == {"a": 1} and len(taken) == len(self.MUTATORS) + 1


class TestStateLost:
    def test_supervisor_restart_without_checkpoint_fails_the_compute(self, world):
        env, manager = world
        ctx = context(manager, "duct")
        ctx.sch_contact_schx("lerc-cray", REMOTE_PATHS["duct"])
        ctx.import_proc(DUCT.import_named("setduct"))(dpqp=0.02)
        # attached after the duct started: its process is not watched,
        # so no checkpoint holds its state
        FailoverSupervisor(manager=manager).attach()
        crash(manager.lookup(ctx.line, "duct"))
        with pytest.raises(StateLost, match=r"^duct: declared state 'dpqp' is not installed on "):
            ctx.import_proc(DUCT.import_named("duct"))(**DUCT_ARGS)
        assert "no checkpoint available" in manager.supervisor.events[-1].detail

    def test_move_before_set_fails_at_the_destination(self, world):
        env, manager = world
        ctx = context(manager, "shaft")
        ctx.sch_contact_schx("lerc-rs6000", REMOTE_PATHS["shaft"])
        ctx.sch_move("shaft", "lerc-cray")
        stub = ctx.import_proc(SHAFT.import_named("shaft"))
        with pytest.raises(StateLost) as caught:
            stub(**SHAFT_ARGS)
        assert str(caught.value) == (
            "shaft: declared state 'inertia' is not installed on cray-ymp.lerc.nasa.gov"
        )
        assert isinstance(caught.value, CallFailed)

    def test_session_error_names_state_lost(self, monkeypatch):
        # a session whose supervisor never holds a checkpoint:
        # the restarted Cray duct has no dpqp
        monkeypatch.setattr(CheckpointStore, "take", lambda self, line_id, records, now: None)
        plan = FaultPlan(events=(CrashProcess(at_s=2.0, hostname="cray-ymp.lerc.nasa.gov"),))
        spec = SessionSpec(name="lost", points=(1.28,), fault_plan=plan)
        (result,) = serve_sessions(
            [spec], installation=SharedInstallation.standard(), dedup=False
        ).results
        assert result.status == "degraded"
        assert result.error.startswith("StateLost: duct: declared state 'dpqp'"), result.error
        assert result.results == []


class TestNoSupervisor:
    def test_dead_instance_on_unchanged_placement_is_gone(self, world):
        env, manager = world
        ctx = context(manager, "duct")
        records = ctx.sch_contact_schx("lerc-cray", REMOTE_PATHS["duct"])
        crash(records[0])
        # re-contacting the placement starts nothing: the dead binding
        # is the next call's to meet
        assert ctx.sch_contact_schx("lerc-cray", REMOTE_PATHS["duct"]) == records
        line = ctx.line
        with pytest.raises(StaleBinding):
            ctx.import_proc(DUCT.import_named("duct"))(**DUCT_ARGS)
        # the failed call ended the line, and nothing took its place
        assert line.state is LineState.TERMINATED
        assert [m.hostname for m in env.park if m.running_processes] == []

    def test_moved_instance_is_the_placements_new_binding(self, world):
        env, manager = world
        ctx = context(manager, "duct")
        ctx.sch_contact_schx("lerc-cray", REMOTE_PATHS["duct"])
        moved = ctx.sch_move("duct", "lerc-rs6000")
        records = ctx.sch_contact_schx("lerc-cray", REMOTE_PATHS["duct"])
        assert moved in records
        assert all(r.machine is env.park["lerc-rs6000"] for r in records)
