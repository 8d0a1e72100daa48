"""Overlapped RPC dispatch: virtual-time semantics and ordering.

The overlap model is fork/join: a :class:`CallBatch` dispatches calls
from one caller instant, members on different lines overlap their full
round trips (the caller pays the max), members on the same line queue
for the server, and probe regions serialize their internal calls while
overlapping with each other.
"""

import pytest

from repro.schooner import ModuleContext
from repro.schooner.runtime import CallBatch, CallerContext

from .conftest import SHAFT_ARGS, SHAFT_PATH


@pytest.fixture
def caller(env):
    return CallerContext(timeline=env.clock.timeline("caller:avs"))


def make_stub(manager, env, caller, name, machine_nick):
    """One module context (= one line) on the given machine, sharing
    the caller's context, with its shaft stub."""
    from .conftest import SHAFT_SPEC
    from repro.uts import SpecFile

    ctx = ModuleContext(
        manager=manager, module_name=name,
        machine=env.park["ua-sparc10"], caller=caller,
    )
    ctx.sch_contact_schx(machine_nick, SHAFT_PATH)
    return ctx.import_proc(
        SpecFile.parse(SHAFT_SPEC).as_imports().import_named("shaft")
    )


class TestOverlapVirtualTime:
    def test_batch_costs_the_caller_the_max_not_the_sum(
        self, manager, env, caller
    ):
        a = make_stub(manager, env, caller, "mod-a", "lerc-rs6000")
        b = make_stub(manager, env, caller, "mod-b", "lerc-cray")
        a(**SHAFT_ARGS)  # warm the bindings: the first call pays the
        b(**SHAFT_ARGS)  # Manager lookup round trip

        # sequential: back-to-back blocking calls on different lines sum
        t0 = caller.timeline.now
        a(**SHAFT_ARGS)
        cost_a = caller.timeline.now - t0
        t1 = caller.timeline.now
        b(**SHAFT_ARGS)
        cost_b = caller.timeline.now - t1
        sequential = cost_a + cost_b

        # overlapped: the same two calls from one instant cost the max
        t2 = caller.timeline.now
        batch = CallBatch(env, caller, label="pair")
        fa = a.begin(batch, **SHAFT_ARGS)
        fb = b.begin(batch, **SHAFT_ARGS)
        fa.wait()
        overlapped = caller.timeline.now - t2

        assert fa.done and fb.done
        assert overlapped == pytest.approx(max(cost_a, cost_b), rel=1e-6)
        assert overlapped < 0.75 * sequential

    def test_same_line_members_queue_for_the_server(self, manager, env, caller):
        stub = make_stub(manager, env, caller, "mod-q", "lerc-rs6000")
        stub(**SHAFT_ARGS)  # warm the binding outside the measurement

        env.reset_traces()
        t0 = caller.timeline.now
        batch = CallBatch(env, caller, label="queue")
        stub.begin(batch, **SHAFT_ARGS)
        stub.begin(batch, **SHAFT_ARGS)
        batch.wait()
        first, second = env.traces
        # pipelined requests, serialized server: both start at the batch
        # instant, and the line finishes later than one call alone
        assert first.started_at == pytest.approx(t0)
        occupancy = first.server_cpu_s + first.compute_s
        assert second.finished_at >= first.finished_at + occupancy * 0.99

    def test_probe_regions_serialize_inside_and_overlap_outside(
        self, manager, env, caller
    ):
        a = make_stub(manager, env, caller, "mod-ra", "lerc-rs6000")
        b = make_stub(manager, env, caller, "mod-rb", "lerc-cray")
        a(**SHAFT_ARGS)
        b(**SHAFT_ARGS)

        t0 = caller.timeline.now
        a(**SHAFT_ARGS)
        cost_a = caller.timeline.now - t0
        t1 = caller.timeline.now
        b(**SHAFT_ARGS)
        cost_b = caller.timeline.now - t1

        t2 = caller.timeline.now
        batch = CallBatch(env, caller, label="probes")
        caller.batch = batch
        try:
            with batch.region("col-0") as branch0:
                a(**SHAFT_ARGS)
                a(**SHAFT_ARGS)
                col0 = branch0.now - t2
            with batch.region("col-1") as branch1:
                b(**SHAFT_ARGS)
                col1 = branch1.now - t2
        finally:
            caller.batch = None
        batch.wait()
        elapsed = caller.timeline.now - t2

        # inside a region calls serialize (the column's data dependency)...
        assert col0 == pytest.approx(2 * cost_a, rel=0.3)
        # ...while the regions themselves overlap: total = max, not sum
        assert elapsed == pytest.approx(max(col0, col1), rel=1e-6)
        assert elapsed < 0.75 * (col0 + col1)

    def test_traces_are_marked_and_flushed_in_submission_order(
        self, manager, env, caller
    ):
        a = make_stub(manager, env, caller, "mod-ta", "lerc-rs6000")
        b = make_stub(manager, env, caller, "mod-tb", "lerc-cray")
        a(**SHAFT_ARGS)
        b(**SHAFT_ARGS)

        env.reset_traces()
        batch = CallBatch(env, caller, label="marked")
        b.begin(batch, **SHAFT_ARGS)
        a.begin(batch, **SHAFT_ARGS)
        batch.wait()
        assert [t.dispatch for t in env.traces] == ["overlap", "overlap"]
        assert [t.procedure for t in env.traces] == ["shaft", "shaft"]
        assert env.traces[0].callee != env.traces[1].callee


class TestWaitedBatchIsClosed:
    """``wait()`` flushes the batch's traces exactly once, so a call
    issued afterwards would run, advance its branch, and never reach
    ``env.traces`` — the session digest would silently miss an RPC.
    Every way of issuing refuses instead."""

    def test_region_and_branch_calls_refuse_after_wait(self, manager, env, caller):
        stub = make_stub(manager, env, caller, "mod-late", "lerc-rs6000")
        stub(**SHAFT_ARGS)  # bind
        batch = CallBatch(env, caller, label="late")
        with batch.region("early") as branch:
            batch.call_on_branch(stub, SHAFT_ARGS, branch)
        batch.wait()
        env.reset_traces()
        caller.batch = batch
        try:
            with pytest.raises(RuntimeError, match="CallBatch already waited on"):
                with batch.region("late"):
                    stub(**SHAFT_ARGS)
            with pytest.raises(RuntimeError, match="CallBatch already waited on"):
                batch.call_on_branch(stub, SHAFT_ARGS, branch)
            with pytest.raises(RuntimeError, match="CallBatch already waited on"):
                stub.begin(batch, **SHAFT_ARGS)
        finally:
            caller.batch = None
        assert env.traces == []  # nothing ran behind the log's back


class TestBatchShape:
    """A batch builds what it uses: a plain timeline per member, a branch
    per probe region, one trace list, and futures that only hold a
    result."""

    def test_a_region_restores_the_enclosing_branch_even_on_error(self, env, caller):
        batch = CallBatch(env, caller, label="shape")
        with batch.region("outer") as outer:
            with pytest.raises(KeyError):
                with batch.region("inner") as inner:
                    assert batch._active_branch is inner is not outer
                    assert inner.now == outer.now == batch.t0
                    raise KeyError("column failed")
            assert batch._active_branch is outer
        assert batch._active_branch is None
        batch.wait()

    def test_a_failed_member_is_raised_after_the_join(self, manager, env, caller):
        from repro.uts.errors import UTSTypeError

        good = make_stub(manager, env, caller, "mod-good", "lerc-cray")
        bad = make_stub(manager, env, caller, "mod-bad", "lerc-rs6000")
        good(**SHAFT_ARGS)
        bad(**SHAFT_ARGS)
        env.reset_traces()
        batch = CallBatch(env, caller, label="fails")
        fg = good.begin(batch, **SHAFT_ARGS)
        fb = bad.begin(batch, **{**SHAFT_ARGS, "incom": "many"})
        assert fg.done and fb.done and fb.error is not None
        with pytest.raises(UTSTypeError, match="expected integer"):
            batch.wait()
        # the join ran first: the good member's trace is flushed and the
        # caller moved to its finish
        (trace,) = env.traces
        assert trace.dispatch == "overlap" and caller.timeline.now == trace.finished_at
        assert fg.wait() == fg.results
        with pytest.raises(UTSTypeError):
            fb.wait()
