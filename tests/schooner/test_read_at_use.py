"""What a fault event changes in the *middle* of a call is read when it
is used.

``tests/schooner/test_call_plans.py`` changes run-time state between
calls.  Fault events fire inside ``Timeline.advance`` (the clock's event
heap), so state can also change between two statements of one
``execute_call``: these tests schedule a clock event for an instant
inside the server's unmarshal charge — after the request was delivered,
before the liveness check, the implementation and the compute charge —
and pin that the same call sees it.  Each case runs as a blocking call
and as a member of an overlapped :class:`CallBatch`.  They are what
stops a route or rate "plan" from hoisting a read out of the call.
"""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, HealLink, PartitionLink
from repro.machines import Language
from repro.network.clock import Timeline
from repro.schooner import (
    CallTimeout,
    Executable,
    Manager,
    ManagerMode,
    ModuleContext,
    Procedure,
    SchoonerEnvironment,
    StaleBinding,
)
from repro.schooner.runtime import CallBatch, CallerContext
from repro.uts import SpecFile

ECHO_SPEC = 'export echo prog("x" val double, "y" res double)'
ECHO_PATH = "/bin/echo"
CALLEE = "lerc-rs6000"


class World:
    """One echo procedure on ``CALLEE``, called from Arizona; one call
    already made, so the binding's plan exists and the probe trace
    gives the durations of every later call with the same argument."""

    def __init__(self, stateless: bool = True):
        self.env = env = SchoonerEnvironment.standard()
        spec = SpecFile.parse(ECHO_SPEC)
        self.impl_calls = []
        self.proc = Procedure(
            name="echo", signature=spec.export_named("echo"),
            impl=lambda x: (self.impl_calls.append(x), x)[1],
            language=Language.C, stateless=stateless,
        )
        exe = Executable("echo", (self.proc,))
        for machine in env.park:
            machine.install(ECHO_PATH, exe)
        home = env.park["ua-sparc10"]
        manager = Manager(env=env, host=home, mode=ManagerMode.LINES)
        self.caller = CallerContext(timeline=env.clock.timeline("caller"))
        self.ctx = ModuleContext(
            manager=manager, module_name="m", machine=home, caller=self.caller
        )
        (self.record,) = self.ctx.sch_contact_schx(CALLEE, ECHO_PATH)
        self.callee = self.record.machine
        self.stub = self.ctx.import_proc(spec.as_imports().import_named("echo"))
        self.stub(x=1.0)
        self.probe = env.traces[-1]
        assert self.probe.outcome == "ok"
        assert env.park.call_plans, "the first call compiled the call's plan"

    def mid_call_instant(self) -> float:
        """An instant inside the *next* call's server-side unmarshal
        charge.  Request and reply are the same size here, so each of
        the probe's totals is two equal halves."""
        env, probe = self.env, self.probe
        start = self.caller.timeline.now
        assert start == env.clock.now == self.ctx.line.timeline.now
        delivered = start + probe.client_cpu_s / 2 + probe.network_s / 2
        at_s = delivered + probe.server_cpu_s / 4
        assert delivered < at_s < delivered + probe.server_cpu_s / 2
        return at_s

    def schedule_mid_call(self, callback) -> float:
        """Schedule ``callback`` for :meth:`mid_call_instant`."""
        at_s = self.mid_call_instant()
        self.env.clock.schedule(at_s, callback)
        return at_s

    def call(self, how: str):
        """The next call: blocking, or as an overlapped batch member.
        Returns ``(results or None, error or None, traces)``."""
        before = len(self.env.traces)
        out = err = None
        try:
            if how == "sync":
                out = self.stub(x=1.0)
            else:
                batch = CallBatch(self.env, self.caller, label="in-call")
                out = self.stub.begin(batch, x=1.0).wait()
        except Exception as exc:  # the caller asserts on it
            err = exc
        return out, err, self.env.traces[before:]


@pytest.mark.parametrize("how", ["sync", "overlap"])
class TestStateChangedInsideACall:
    def test_load_set_mid_call_prices_that_calls_compute(self, how):
        w = World()
        marshal = w.probe.server_cpu_s / 2  # one idle marshal charge
        w.schedule_mid_call(lambda: setattr(w.callee, "load", 0.5))
        out, err, traces = w.call(how)
        assert err is None and out == {"y": 1.0}
        (trace,) = traces
        assert trace.dispatch == how
        # the unmarshal charge was priced before the event fired; the
        # compute charge and the reply's marshal charge after it
        assert trace.compute_s == pytest.approx(2 * w.probe.compute_s, rel=1e-12)
        assert trace.server_cpu_s == pytest.approx(marshal + 2 * marshal, rel=1e-12)
        assert trace.client_cpu_s == w.probe.client_cpu_s

    def test_callee_crash_mid_call_is_a_stale_binding(self, how):
        w = World()
        w.impl_calls.clear()
        sent = dict(w.env.transport.stats.by_kind)
        w.schedule_mid_call(w.callee.crash)
        out, err, traces = w.call(how)
        # the stub refreshes once, finds the instance still dead (no
        # supervisor) and gives up; what pins *mid-call* is that the
        # request was delivered, the implementation never ran and no
        # reply was sent
        assert isinstance(err, StaleBinding)
        assert w.impl_calls == []
        now = w.env.transport.stats.by_kind
        assert now["call:echo"] == sent["call:echo"] + 1
        assert now["reply:echo"] == sent["reply:echo"]
        assert w.stub.failovers == 1

    def test_direct_execute_call_names_the_mid_call_death(self, how):
        from repro.schooner.runtime import execute_call

        w = World()
        w.schedule_mid_call(w.callee.crash)
        tl = w.ctx.line.timeline
        if how == "overlap":  # a batch member's own timeline
            tl = Timeline("member", tl.clock, tl.now)
        with pytest.raises(StaleBinding, match="host died mid-call"):
            execute_call(w.env, w.ctx.machine, tl, w.record,
                         w.stub.import_sig, {"x": 1.0}, dispatch=how)

    @pytest.mark.parametrize("stateless", [True, False])
    def test_partition_after_the_request_loses_the_reply(self, how, stateless):
        w = World(stateless=stateless)
        assert w.proc.retry_ok is stateless
        a, b = w.ctx.machine.site, w.callee.site
        assert a != b
        at_s = w.mid_call_instant()
        # healed while the caller is still waiting out the lost reply
        heal_s = at_s + w.env.costs.call_timeout_s / 2
        plan = FaultPlan(seed=1, events=(
            PartitionLink(at_s=at_s, site_a=a, site_b=b),
            HealLink(at_s=heal_s, site_a=a, site_b=b),
        ))
        FaultInjector(env=w.env, plan=plan).attach()
        out, err, traces = w.call(how)
        first = traces[0]
        assert (first.outcome, first.timeout_hop) == ("timeout", "reply")
        assert first.request_bytes == 8 and first.reply_bytes == 0
        assert w.impl_calls[:2] == [1.0, 1.0], "the remote did execute"
        if stateless:
            # re-execution is harmless: retried over the healed network
            assert err is None and out == {"y": 1.0}
            (retried,) = traces[1:]
            assert (retried.outcome, retried.retries) == ("ok", 1)
            assert w.impl_calls == [1.0, 1.0, 1.0]
        else:
            # a lost reply of a stateful procedure is never retried
            assert isinstance(err, CallTimeout) and len(traces) == 1
            assert len(w.impl_calls) == 2
            assert err.hop == "reply" and err.retry_safe is False
            assert err.trace is first

    def test_fault_filter_installed_mid_call_sees_the_reply(self, how):
        w = World()
        seen = []

        def watch(src, dst, kind, total, now):
            seen.append((src.hostname, dst.hostname, kind, total))
            return False, 0.25

        at_s = w.schedule_mid_call(
            lambda: setattr(w.env.transport, "fault_filter", watch)
        )
        out, err, traces = w.call(how)
        assert err is None and out == {"y": 1.0}
        header = w.env.costs.header_bytes
        assert seen == [
            (w.callee.hostname, w.ctx.machine.hostname, "reply:echo", 8 + header)
        ], "installed after the request left: consulted for the reply only"
        (trace,) = traces
        assert trace.network_s == pytest.approx(w.probe.network_s + 0.25, rel=1e-12)
        assert trace.finished_at > at_s + 0.25
