"""Supervision on the fault-free path, and detection by the failed call.

Every run is supervised (the executive makes its supervisor with its
Manager), so what a supervisor does while nothing fails is paid by
every session: ``watch`` hooks the records of each process the Manager
starts and builds no state; the call that writes a declared state
checkpoints it when its procedure returns or raises, as conformed
values under the database that binds it (a line's id, or
:data:`SHARED`), encoding nothing and scheduling no clock event.
Nothing polls: a host that dies is logged dead by the first call that
meets it.
"""

import pytest

from repro.core import REMOTE_PATHS, NPSSExecutive, install_tess_executables
from repro.core.specs import DUCT_SPEC_SOURCE, SHAFT_SPEC_SOURCE
from repro.faults import CrashMachine, FailoverSupervisor, FaultInjector, FaultPlan
from repro.faults import checkpoint
from repro.network.transport import MessageDropped
from repro.machines import Language
from repro.schooner import (
    CallFailed,
    Executable,
    Manager,
    ManagerMode,
    ModuleContext,
    Procedure,
    SchoonerEnvironment,
)
from repro.schooner import manager as manager_module
from repro.schooner.lines import declared_state
from repro.uts import INTEGER, SpecFile, UTSTypeError, compiled

DUCT = SpecFile.parse(DUCT_SPEC_SOURCE).as_imports()
SHAFT = SpecFile.parse(SHAFT_SPEC_SOURCE).as_imports()
DUCT_ARGS = dict(w=100.0, tt=300.0, pt=2e5, far=0.0)
DUCT_PATH = REMOTE_PATHS["duct"]


@pytest.fixture
def world():
    """A bare Manager with its supervisor attached before it starts anything."""
    env = SchoonerEnvironment.standard()
    install_tess_executables(env.park)
    manager = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
    supervisor = FailoverSupervisor(manager=manager)
    supervisor.attach()
    return env, manager, supervisor


def context(manager, name):
    return ModuleContext(manager=manager, module_name=name, machine=manager.host)


def duct_line(manager, host="lerc-cray"):
    ctx = context(manager, "duct")
    ctx.sch_contact_schx(host, DUCT_PATH)
    return ctx


def dpqp(cp):
    """A duct checkpoint's ``dpqp`` (stored as the Cray rounded it)."""
    return pytest.approx(values(cp)["dpqp"], rel=1e-12)


def values(cp):
    return {var: value for var, _, value in cp.state}


COUNTER = SpecFile.parse('export count prog("n" val integer, "done" res integer)')
COUNTER_PATH = "/bin/count"


def counter_line(env, manager, impl):
    """A line bound to a ``count`` procedure on the Cray that declares
    one integer of state, ``count``, and runs ``impl``."""
    env.park["lerc-cray"].install(COUNTER_PATH, Executable("count", (Procedure(
        name="count", signature=COUNTER.export_named("count"), impl=impl,
        language=Language.C, stateless=False, state_spec={"count": INTEGER},
    ),)))
    ctx = context(manager, "counter")
    ctx.sch_contact_schx("lerc-cray", COUNTER_PATH)
    return ctx


class TestWatchBuildsNoState:
    def test_a_started_process_has_no_state_until_a_call_needs_it(self, world):
        _, manager, _ = world
        ctx = duct_line(manager)
        setduct = manager.lookup(ctx.line, "setduct")
        duct = manager.lookup(ctx.line, "duct")
        # hooked, not built
        assert setduct.state_hook is not None and setduct.state_hook is duct.state_hook
        assert DUCT_PATH not in duct.process.memory
        ctx.import_proc(DUCT.import_named("setduct"))(dpqp=0.02)
        # the first call made the state, with the supervisor's hook on it
        state = duct.process.memory[DUCT_PATH]
        assert state.hook is duct.state_hook
        assert list(state) == ["dpqp"]
        assert state["dpqp"] == pytest.approx(0.02, rel=1e-12)  # Cray doubles round

    def test_declared_state_of_an_unreached_process_makes_none(self, world):
        _, manager, supervisor = world
        ctx = duct_line(manager)
        records = [manager.lookup(ctx.line, n) for n in ("setduct", "duct")]
        assert declared_state(records) == ()
        assert DUCT_PATH not in records[0].process.memory
        supervisor.store.take(ctx.line.line_id, records, 0.0)
        assert supervisor.store.taken == 0


class TestCheckpointsVisitWrittenStates:
    def test_only_the_states_a_call_wrote_are_taken(self, world):
        env, manager, supervisor = world
        duct = duct_line(manager)
        shaft = context(manager, "shaft")
        shaft.sch_contact_schx("lerc-rs6000", REMOTE_PATHS["shaft"])
        duct.import_proc(DUCT.import_named("setduct"))(dpqp=0.02)
        # taken by the call that wrote it, not by a later clock advance
        store = supervisor.store
        first = store.latest(duct.line.line_id, DUCT_PATH)
        assert store.taken == 1 and dpqp(first) == 0.02
        (call,) = [t for t in env.traces if t.procedure == "setduct"]
        assert call.started_at < first.taken_at < env.clock.now
        assert store.latest(shaft.line.line_id, REMOTE_PATHS["shaft"]) is None
        shaft.import_proc(SHAFT.import_named("setshaft"))(
            inertia=2.2, omegad=10000.0, mecheff=0.99
        )
        # the shaft's write took the shaft alone: the duct's is untouched
        assert store.taken == 2
        assert store.latest(duct.line.line_id, DUCT_PATH) is first
        taken = store.latest(shaft.line.line_id, REMOTE_PATHS["shaft"])
        assert [var for var, _, _ in taken.state] == ["inertia", "mecheff", "omegad"]
        # a call that only reads takes nothing
        duct.import_proc(DUCT.import_named("duct"))(**DUCT_ARGS)
        env.clock.advance(0.01)
        assert store.taken == 2

    def test_a_write_outside_any_call_is_taken_by_the_next_call_or_never(self, world):
        env, manager, supervisor = world
        ctx = duct_line(manager)
        ctx.import_proc(DUCT.import_named("setduct"))(dpqp=0.02)
        saved = supervisor.store.latest(ctx.line.line_id, DUCT_PATH)
        assert supervisor.store.taken == 1
        # a write with no call around it marks the state, and the next
        # call on the live process takes it
        live = manager.lookup(ctx.line, "duct")
        live.process.memory[DUCT_PATH]["dpqp"] = 0.03
        assert supervisor.store.taken == 1
        ctx.import_proc(DUCT.import_named("duct"))(**DUCT_ARGS)
        assert supervisor.store.taken == 2
        saved = supervisor.store.latest(ctx.line.line_id, DUCT_PATH)
        assert dpqp(saved) == 0.03
        # one whose process then dies is never taken
        live.process.memory[DUCT_PATH]["dpqp"] = 0.05
        live.machine.crash_process(live.process.pid)
        env.clock.advance(0.01)
        assert supervisor.store.taken == 2
        assert supervisor.store.latest(ctx.line.line_id, DUCT_PATH) is saved

    def test_a_call_that_writes_and_then_raises_leaves_its_checkpoint(self, world):
        env, manager, supervisor = world
        ctx = counter_line(env, manager, lambda n, _state: (
            _state.update(count=n), 1 // 0))
        line_id = ctx.line.line_id  # the error ends the line
        with pytest.raises(CallFailed, match="ZeroDivisionError"):
            ctx.import_proc(COUNTER.as_imports(), name="count")(n=7)
        checkpoint = supervisor.store.latest(line_id, COUNTER_PATH)
        assert supervisor.store.taken == 1 and values(checkpoint) == {"count": 7}

    def test_a_value_that_fails_to_conform_is_refused_by_the_call_that_wrote_it(self, world):
        env, manager, supervisor = world

        def count(n, _state):
            _state["count"] = "seven" if n == 7 else n
            return n

        ctx = counter_line(env, manager, count)
        line_id = ctx.line.line_id
        stub = ctx.import_proc(COUNTER.as_imports(), name="count")
        assert stub(n=1) == {"done": 1}
        with pytest.raises(UTSTypeError, match="expected integer, got str"):
            stub(n=7)
        # the refused state is not kept: the store holds the last good one
        checkpoint = supervisor.store.latest(line_id, COUNTER_PATH)
        assert supervisor.store.taken == 1 and values(checkpoint) == {"count": 1}

    def test_taking_a_checkpoint_encodes_nothing(self, world, monkeypatch):
        env, manager, supervisor = world
        ctx = duct_line(manager)
        encodes = []
        encode = compiled.CompiledCodec.encode
        monkeypatch.setattr(compiled.CompiledCodec, "encode",
                            lambda codec, value: encodes.append(codec) or encode(codec, value))
        ctx.import_proc(DUCT.import_named("setduct"))(dpqp=0.02)
        assert supervisor.store.taken == 1 and encodes == []

    def test_the_shared_database_is_the_registrys(self):
        # a checkpoint taken under the id the Manager watches a shared
        # process with is the one a failover of it looks up
        assert checkpoint.SHARED is manager_module.SHARED
        assert manager_module.SharedRegistry.line_id == checkpoint.SHARED == "shared"


@pytest.mark.parametrize("shared", [False, True], ids=["line", "shared"])
def test_a_restarted_process_checkpoints_under_the_same_database(world, shared):
    env, manager, supervisor = world
    ctx = context(manager, "duct")
    if shared:
        manager.start_shared(env.park["lerc-cray"], DUCT_PATH)
        database, other = checkpoint.SHARED, ctx.line.line_id
    else:
        ctx.sch_contact_schx("lerc-cray", DUCT_PATH)
        database, other = ctx.line.line_id, checkpoint.SHARED
    ctx.import_proc(DUCT.import_named("setduct"))(dpqp=0.02)
    dead = manager.lookup(ctx.line, "duct")
    dead.machine.crash_process(dead.process.pid)
    out = ctx.import_proc(DUCT.import_named("duct"))(**DUCT_ARGS)
    assert out["pto"] == pytest.approx(2e5 * (1 - 0.02), rel=1e-12)
    restarted = manager.lookup(ctx.line, "duct")
    assert restarted.process is not dead.process and restarted.generation == 1
    # the restarted process is watched under the database that binds it
    ctx.import_proc(DUCT.import_named("setduct"))(dpqp=0.03)
    assert dpqp(supervisor.store.latest(database, DUCT_PATH)) == 0.03
    assert supervisor.store.latest(other, DUCT_PATH) is None


class TestDetectionByCall:
    def test_a_death_is_never_stamped_before_its_crash(self, world):
        """A crash fires when any timeline pushes the clock past it; a
        line still behind that instant meets the dead host at its own
        earlier time, and moves to the crash before it logs the death
        and fails over."""
        env, manager, supervisor = world
        cray = env.park["lerc-cray"]
        ctx = duct_line(manager)
        ctx.import_proc(DUCT.import_named("setduct"))(dpqp=0.02)
        behind = ctx.line.timeline.now
        crash = CrashMachine(at_s=behind + 0.1, hostname=cray.hostname)
        with FaultInjector(env=env, plan=FaultPlan(seed=1, events=(crash,))):
            env.clock.advance(2.0)
            assert not cray.up and ctx.line.timeline.now == behind
            out = ctx.import_proc(DUCT.import_named("duct"))(**DUCT_ARGS)
        assert out["pto"] == pytest.approx(2e5 * (1 - 0.02), rel=1e-12)
        dead, failover = supervisor.events
        assert (dead.kind, dead.subject, dead.at_s) == ("host-dead", cray.hostname, crash.at_s)
        assert failover.kind == "failover" and failover.at_s >= crash.at_s

    def test_a_failover_whose_state_is_lost_leaves_no_process_behind(self, world):
        """The restore message never arrives: the call fails, and the
        process the failover started for that state is reaped, not left
        running on the shared park."""
        env, manager, _ = world
        ctx = duct_line(manager)
        ctx.import_proc(DUCT.import_named("setduct"))(dpqp=0.02)
        env.park["lerc-cray"].crash()
        env.transport.fault_filter = lambda src, dst, kind, total, now: (
            kind.startswith("restore:"), 0.0)
        with pytest.raises(MessageDropped, match="restore:"):
            ctx.import_proc(DUCT.import_named("duct"))(**DUCT_ARGS)
        assert [m.hostname for m in env.park if m.running_processes] == []

    def test_the_executive_supervises_its_manager(self):
        ex = NPSSExecutive()
        assert ex.manager.supervisor is ex.supervisor
        assert ex.supervisor.events == [] and ex.supervisor.recoveries == 0

    def test_a_dead_host_running_only_shared_instances_is_logged_by_the_next_call(self, world):
        env, manager, supervisor = world
        cray = env.park["lerc-cray"]
        manager.start_shared(cray, DUCT_PATH)
        setter, caller = context(manager, "a"), context(manager, "b")
        setter.import_proc(DUCT.import_named("setduct"))(dpqp=0.02)
        cray.crash()
        env.clock.advance(2.0)  # no call is made: nothing notices
        assert supervisor.events == [] and supervisor.dead_hosts == set()
        out = caller.import_proc(DUCT.import_named("duct"))(**DUCT_ARGS)
        assert out["pto"] == pytest.approx(2e5 * (1 - 0.02), rel=1e-12)
        dead, failover = supervisor.events
        assert (dead.kind, dead.subject, dead.detail) == ("host-dead", cray.hostname, "failed call")
        assert failover.kind == "failover" and failover.subject == DUCT_PATH
        assert "1 state vars from checkpoint" in failover.detail
        assert supervisor.dead_hosts == {cray.hostname}
