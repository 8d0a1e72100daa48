"""Tests for the paper's error semantics: an error in a procedure
terminates its line (and only its line), and every call path is
runtime type checked."""

import math

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, PacketLoss, PartitionLink
from repro.machines import Language
from repro.schooner import (
    CallFailed,
    CallTimeout,
    Executable,
    LineState,
    LineTerminated,
    Manager,
    ManagerMode,
    ModuleContext,
    Procedure,
    SchoonerEnvironment,
    TypeCheckError,
)
from repro.schooner.lines import new_instance_record
from repro.schooner.runtime import execute_call
from repro.uts import DOUBLE, INTEGER, ParamMode, Parameter, Signature, SpecFile


@pytest.fixture
def world():
    env = SchoonerEnvironment.standard()
    spec = SpecFile.parse('export f prog("x" val double, "y" res double)')

    def f(x):
        if x < 0:
            raise ValueError("negative input")
        return x * 2

    exe = Executable(
        "f", (Procedure(name="f", signature=spec.export_named("f"), impl=f,
                        language=Language.C),),
    )
    for nick in ("lerc-rs6000", "lerc-cray"):
        env.park[nick].install("/bin/f", exe)
    manager = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
    return env, manager, spec


def _partition(env):
    """An injector that cuts LeRC from Arizona while it is attached."""
    cut = PartitionLink(at_s=env.clock.now, site_a="lerc", site_b="arizona")
    return FaultInjector(env=env, plan=FaultPlan(seed=1, events=(cut,)))


def fail_call(env, stub, how):
    """Make one call on ``stub`` (bound on lerc-rs6000) end in a line
    error, then let the host answer again.  ``remote-error``: the remote
    procedure raises.  ``request-loss`` and ``partition``: every attempt
    times out, and the teardown's shutdown message is lost as well."""
    if how == "remote-error":
        with pytest.raises(CallFailed, match="negative"):
            stub(x=-1.0)
        return
    if how == "request-loss":
        loss = PacketLoss(at_s=0.0, until_s=math.inf, rate=1.0,
                          dst_host=env.park["lerc-rs6000"].hostname)
        fault = FaultInjector(env=env, plan=FaultPlan(seed=1, events=(loss,)))
    else:
        fault = _partition(env)
    with fault, pytest.raises(CallTimeout):
        stub(x=1.0)
    assert sum(t.outcome == "timeout" for t in env.traces) == env.retry.max_attempts


FAILURES = ("remote-error", "request-loss", "partition")


class TestErrorTerminatesLine:
    @pytest.mark.parametrize("how", FAILURES)
    def test_error_kills_only_its_line(self, world, how):
        env, manager, spec = world
        bad = ModuleContext(manager=manager, module_name="bad", machine=env.park["ua-sparc10"])
        good = ModuleContext(manager=manager, module_name="good", machine=env.park["ua-sparc10"])
        bad.sch_contact_schx("lerc-rs6000", "/bin/f")
        good.sch_contact_schx("lerc-cray", "/bin/f")
        bad_stub = bad.import_proc(spec.as_imports(), name="f")
        good_stub = good.import_proc(spec.as_imports(), name="f")
        bad_line = bad.line  # hold the original (ctx.line auto-reconnects)
        assert good_stub.call1(x=2.0) == 4.0

        fail_call(env, bad_stub, how)
        # the erroring line is dead; its remote process was shut down
        assert bad_line.state is LineState.TERMINATED
        assert len(env.park["lerc-rs6000"].running_processes) == 0
        # the other line is untouched and keeps working
        assert good.line.state is LineState.ACTIVE
        assert good_stub.call1(x=3.0) == 6.0
        assert manager.running

    @pytest.mark.parametrize("how", FAILURES)
    def test_module_recovers_with_a_fresh_line(self, world, how):
        """After an error kills the line, the module's next contact gets
        a fresh line (the AVS user reruns the module), served at once:
        nothing remembers the failure across lines."""
        env, manager, spec = world
        ctx = ModuleContext(manager=manager, module_name="m", machine=env.park["ua-sparc10"])
        ctx.sch_contact_schx("lerc-rs6000", "/bin/f")
        stub = ctx.import_proc(spec.as_imports(), name="f")
        old_line = ctx.line
        fail_call(env, stub, how)
        ctx.sch_contact_schx("lerc-rs6000", "/bin/f")  # re-establish
        assert ctx.line is not old_line
        fresh = ctx.import_proc(spec.as_imports(), name="f")
        traces = len(env.traces)
        assert fresh.call1(x=5.0) == 10.0
        assert [t.outcome for t in env.traces[traces:]] == ["ok"]

    @pytest.mark.parametrize("how", FAILURES)
    def test_a_call_on_the_terminated_line_sends_nothing(self, world, how):
        env, manager, spec = world
        ctx = ModuleContext(manager=manager, module_name="m", machine=env.park["ua-sparc10"])
        ctx.sch_contact_schx("lerc-rs6000", "/bin/f")
        stub = ctx.import_proc(spec.as_imports(), name="f")
        fail_call(env, stub, how)
        assert stub.line.state is LineState.TERMINATED
        timeline, traces = stub.line.timeline, len(env.traces)
        before_s = timeline.now
        with pytest.raises(LineTerminated):
            stub(x=2.0)
        # refused at the local lookup: no call left the caller and no
        # call timeout was spent
        assert len(env.traces) == traces
        assert timeline.now - before_s < env.costs.call_timeout_s


class TestPerCallTypeChecking:
    def test_direct_execute_call_is_checked(self, world):
        """Even bypassing the stub/lookup path, the runtime rejects a
        mismatched import signature."""
        env, manager, spec = world
        ctx = ModuleContext(manager=manager, module_name="m", machine=env.park["ua-sparc10"])
        (rec_f,) = ctx.sch_contact_schx("lerc-rs6000", "/bin/f")
        wrong = Signature(
            "f",
            (Parameter("x", ParamMode.VAL, INTEGER),  # export says double
             Parameter("y", ParamMode.RES, DOUBLE)),
        )
        with pytest.raises(TypeCheckError):
            execute_call(env, env.park["ua-sparc10"], ctx.line.timeline,
                         rec_f, wrong, {"x": 1})

    def test_correct_direct_call_passes(self, world):
        env, manager, spec = world
        ctx = ModuleContext(manager=manager, module_name="m", machine=env.park["ua-sparc10"])
        (rec_f,) = ctx.sch_contact_schx("lerc-rs6000", "/bin/f")
        out = execute_call(env, env.park["ua-sparc10"], ctx.line.timeline,
                           rec_f, spec.as_imports().import_named("f"), {"x": 4.0})
        assert out["y"] == 8.0
