"""Call plans: what a plan caches, where it lives, and what must throw it
away.

``execute_call`` walks a :class:`~repro.schooner.runtime.CallPlan`
compiled the first time an installation makes a call.  A plan holds only
pure functions of the import signature, the bound procedure, the caller
and callee machines and the out-of-range policy; the machine park keeps
one per such key in ``park.call_plans`` for every session over it.
These tests pin that every one of those inputs changing yields a fresh
plan, that what is not an input (a failover's generation, a second
session) reuses one, and that what a fault, partition or policy flip
changes at run time is still read on every call.
"""

import gc
import math

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, PartitionLink
from repro.machines import Language
from repro.network import Topology
from repro.schooner import (
    CallTimeout,
    Executable,
    Manager,
    ManagerMode,
    ModuleContext,
    Procedure,
    SchoonerEnvironment,
    TypeCheckError,
)
from repro.schooner.runtime import CallPlan, execute_call
from repro.serve import SessionSpec, SharedInstallation, serve_sessions
from repro.uts import (
    DOUBLE,
    INTEGER,
    OutOfRangePolicy,
    ParamMode,
    Parameter,
    Signature,
    SpecFile,
    UTSRangeError,
)

ECHO_SPEC = 'export echo prog("x" val double, "y" res double)'
ECHO_PATH = "/bin/echo"
THIRD = 1.0 / 3.0  # needs all 52 IEEE mantissa bits; a Cray word keeps 48


@pytest.fixture
def world():
    env = SchoonerEnvironment.standard()
    spec = SpecFile.parse(ECHO_SPEC)
    exe = Executable(
        "echo",
        (Procedure(name="echo", signature=spec.export_named("echo"),
                   impl=lambda x: x, language=Language.C),),
    )
    for machine in env.park:
        machine.install(ECHO_PATH, exe)
    manager = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
    ctx = ModuleContext(manager=manager, module_name="m", machine=env.park["ua-sparc10"])
    return env, ctx, spec.as_imports().import_named("echo")


def contact(ctx, nick):
    (record,) = ctx.sch_contact_schx(nick, ECHO_PATH)
    return record


def plans(env):
    """The park's plans, in the order they were compiled."""
    return list(env.park.call_plans.values())


def plan_to(env, machine):
    """The one plan compiled for calls into ``machine``."""
    (plan,) = [p for p in plans(env) if p.callee_machine is machine]
    return plan


@pytest.fixture
def builds(monkeypatch):
    """Every ``CallPlan`` constructed while the test runs."""
    built = []
    init = CallPlan.__init__

    def counted(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(CallPlan, "__init__", counted)
    return built


class TestPlanLifetime:
    def test_built_on_the_first_call_and_kept(self, world):
        env, ctx, sig = world
        record = contact(ctx, "lerc-rs6000")
        stub = ctx.import_proc(sig)
        assert plans(env) == [], "a stub builds no plan before it calls"
        stub(x=1.0)
        (plan,) = plans(env)
        assert isinstance(plan, CallPlan)
        assert plan.callee_machine is record.machine
        assert plan.caller_machine is ctx.machine
        for _ in range(3):
            stub(x=2.0)
        assert plans(env) == [plan]

    def test_type_check_runs_once_per_binding(self, world, monkeypatch):
        env, ctx, sig = world
        contact(ctx, "lerc-rs6000")
        stub = ctx.import_proc(sig)
        stub(x=1.0)  # resolves (the Manager's own check) and builds the plan
        checks = []
        real = Signature.check_import_subset
        monkeypatch.setattr(
            Signature, "check_import_subset",
            lambda self, export: (checks.append(self.name), real(self, export))[1],
        )
        for _ in range(5):
            stub(x=1.0)
        assert checks == []

    def test_a_planned_send_asks_no_link(self, world, monkeypatch):
        """A pair's link cannot change, so the plan's hops keep it: a
        call made through a plan classifies nothing."""
        env, ctx, sig = world
        contact(ctx, "lerc-rs6000")
        stub = ctx.import_proc(sig)
        stub(x=1.0)
        classified = []
        real = Topology.classify
        monkeypatch.setattr(
            Topology, "classify",
            lambda self, src, dst: classified.append((src, dst)) or real(self, src, dst),
        )
        sent = env.transport.stats.messages
        for _ in range(3):
            assert stub.call1(x=2.0) == 2.0
        assert env.transport.stats.messages == sent + 6
        assert classified == []

    def test_equal_signatures_share_a_plan(self, world):
        """The plan is keyed by the signature's value: a second stub that
        parsed its own copy of the import reuses it."""
        env, ctx, sig = world
        record = contact(ctx, "lerc-rs6000")
        twin = SpecFile.parse(ECHO_SPEC).as_imports().import_named("echo")
        assert twin is not sig and twin == sig
        execute_call(env, ctx.machine, ctx.line.timeline, record, sig, {"x": 1.0})
        (plan,) = plans(env)
        execute_call(env, ctx.machine, ctx.line.timeline, record, twin, {"x": 1.0})
        assert plans(env) == [plan]


class TestPlanInvalidation:
    def test_migration_to_a_cray_converts_through_the_new_format(self, world):
        env, ctx, sig = world
        contact(ctx, "lerc-rs6000")
        stub = ctx.import_proc(sig)
        # IEEE on both ends: every double comes back bit-for-bit
        assert stub.call1(x=THIRD) == THIRD
        assert stub.call1(x=math.inf) == math.inf
        (ieee,) = plans(env)

        new = ctx.sch_move("echo", "lerc-cray")
        moved = stub.call1(x=THIRD)  # stale cache -> refresh -> fresh plan
        assert stub._cache is new
        cray = plan_to(env, env.park["lerc-cray"])
        assert cray is not ieee and plans(env) == [ieee, cray]
        assert moved != THIRD and moved == pytest.approx(THIRD, rel=2.0**-47)
        # the Cray word has no infinity: the paper's section-4.1 policy
        with pytest.raises(UTSRangeError, match="Cray"):
            stub(x=math.inf)

    def test_migration_to_a_convex_applies_its_range(self, world):
        env, ctx, sig = world
        contact(ctx, "lerc-rs6000")
        stub = ctx.import_proc(sig)
        assert stub.call1(x=1e300) == 1e300
        ctx.sch_move("echo", "lerc-convex")
        with pytest.raises(UTSRangeError):
            stub(x=1e300)
        # D_floating has no infinity either: the other policy saturates
        # at its largest magnitude
        env.range_policy = OutOfRangePolicy.INFINITY
        assert stub.call1(x=1e300) == pytest.approx(1.7014118e38)
        assert stub.call1(x=-1e300) == pytest.approx(-1.7014118e38)

    def test_range_policy_flip_takes_effect_on_the_next_call(self, world, builds):
        env, ctx, sig = world
        contact(ctx, "lerc-cray")
        stub = ctx.import_proc(sig)
        stub(x=1.0)
        (strict,) = plans(env)
        with pytest.raises(UTSRangeError):
            stub(x=math.inf)
        env.range_policy = OutOfRangePolicy.INFINITY
        assert stub.call1(x=math.inf) == math.inf
        lax = plans(env)[-1]
        assert lax is not strict and lax.policy is OutOfRangePolicy.INFINITY
        env.range_policy = OutOfRangePolicy.ERROR
        with pytest.raises(UTSRangeError):
            stub(x=math.inf)
        # flipping back finds the first plan again
        assert plans(env) == [strict, lax] and builds == [strict, lax]

    def test_generation_bump_reuses_the_plan(self, world, builds):
        """A failover that restarts the procedure on the same machine is
        the same call: the generation is not part of the key."""
        env, ctx, sig = world
        record = contact(ctx, "lerc-rs6000")
        stub = ctx.import_proc(sig)
        stub(x=1.0)
        (before,) = plans(env)
        record.generation += 1
        stub(x=1.0)
        assert plans(env) == [before] and builds == [before]

    def test_another_caller_machine_yields_a_fresh_plan(self, world):
        env, ctx, sig = world
        record = contact(ctx, "lerc-rs6000")
        tl = ctx.line.timeline
        execute_call(env, env.park["ua-sparc10"], tl, record, sig, {"x": THIRD})
        (from_sparc,) = plans(env)
        out = execute_call(env, env.park["lerc-cray"], tl, record, sig, {"x": THIRD})
        assert plans(env)[-1] is not from_sparc and len(plans(env)) == 2
        assert plans(env)[-1].caller_machine is env.park["lerc-cray"]
        assert out["y"] != THIRD  # stored through the Cray caller's 48 bits

    def test_stale_binding_refresh_yields_a_fresh_plan(self, world):
        """A dead process is the stub's cue to re-resolve; the call that
        follows runs a plan compiled for the new binding."""
        env, ctx, sig = world
        old = contact(ctx, "lerc-rs6000")
        stub = ctx.import_proc(sig)
        stub(x=1.0)
        new = ctx.sch_move("echo", "lerc-sgi420")
        assert not old.process.alive
        failovers = stub.failovers
        assert stub.call1(x=2.0) == 2.0
        assert stub.failovers == failovers + 1
        assert plan_to(env, new.machine) is not plan_to(env, old.machine)
        assert env.traces[-1].callee == env.park["lerc-sgi420"].hostname
        assert env.traces[-1].failed_over


class TestImportCheckedOncePerInstallation:
    """The Manager's import check is a pure function of the two
    signatures, so an installation runs it once per (import, export)
    pair: a session after the first, and the call plan, find the pair
    kept on the park.  A pair that fails is kept nowhere."""

    @pytest.fixture
    def installation(self):
        inst = SharedInstallation.standard()
        exe = Executable(
            "echo",
            (Procedure(name="echo", signature=SpecFile.parse(ECHO_SPEC).export_named("echo"),
                       impl=lambda x: x, language=Language.C),),
        )
        for machine in inst.park:
            machine.install(ECHO_PATH, exe)
        return inst

    @staticmethod
    def session(inst):
        """A fresh session's environment, Manager and contacted line."""
        env = inst.session_env()
        manager = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
        ctx = ModuleContext(manager=manager, module_name="m", machine=env.park["ua-sparc10"])
        ctx.sch_contact_schx("lerc-rs6000", ECHO_PATH)
        return env, ctx

    def test_a_later_session_checks_nothing(self, installation, monkeypatch):
        checks = []
        real = Signature.check_import_subset
        monkeypatch.setattr(
            Signature, "check_import_subset",
            lambda self, export: (checks.append(self.name), real(self, export))[1],
        )
        sig = SpecFile.parse(ECHO_SPEC).as_imports().import_named("echo")
        first_calls = []
        for _ in range(2):
            env, ctx = self.session(installation)
            ctx.import_proc(sig)(x=1.0)
            first_calls.append((env.clock.now, env.transport.stats.by_kind["lookup"]))
        assert checks == ["echo"], "the lookup of the first session checks; nothing after"
        # the lookup round trip is still made and charged in every session
        assert first_calls[0] == first_calls[1] and first_calls[0][1] == 1

    def test_a_mismatched_import_is_refused_in_every_session(self, installation):
        for _ in range(2):
            env, ctx = self.session(installation)
            with pytest.raises(TypeCheckError, match="import type integer"):
                ctx.import_proc(TestTypeCheckStillHolds.WRONG)(x=1)
        assert not any(imp == TestTypeCheckStillHolds.WRONG
                       for imp, _ in installation.park.checked_imports)


class TestTypeCheckStillHolds:
    WRONG = Signature(
        "echo",
        (Parameter("x", ParamMode.VAL, INTEGER),  # the export says double
         Parameter("y", ParamMode.RES, DOUBLE)),
    )

    def test_direct_execute_call_refuses_every_time(self, world, builds):
        env, ctx, sig = world
        record = contact(ctx, "lerc-rs6000")
        for _ in range(2):
            with pytest.raises(TypeCheckError, match="import type integer"):
                execute_call(env, ctx.machine, ctx.line.timeline,
                             record, self.WRONG, {"x": 1})
        assert plans(env) == [] and builds == [], "no plan is kept for a bad import"

    def test_stub_path_refuses(self, world):
        env, ctx, sig = world
        record = contact(ctx, "lerc-rs6000")
        with pytest.raises(TypeCheckError):
            ctx.import_proc(self.WRONG)(x=1)  # the Manager's lookup check
        # and past the lookup, on a stub whose cache already names the
        # record: the runtime's own check, made when the plan is built
        from repro.schooner.stubs import ClientStub

        stub = ClientStub(manager=ctx.manager, line=ctx.line,
                          caller_machine=ctx.machine, import_sig=self.WRONG,
                          _cache=record)
        for _ in range(2):
            with pytest.raises(TypeCheckError):
                stub(x=1)
        assert plans(env) == []


class TestRuntimeStateIsStillReadPerCall:
    def test_fault_filter_installed_after_the_first_call_is_consulted(self, world):
        env, ctx, sig = world
        contact(ctx, "lerc-rs6000")
        stub = ctx.import_proc(sig)
        stub(x=1.0)
        seen = []

        def drop_first_request(src, dst, kind, total, now):
            seen.append(kind)
            return seen == ["call:echo"], 0.0

        env.transport.fault_filter = drop_first_request
        assert stub.call1(x=3.0) == 3.0
        assert seen[0] == "call:echo" and seen.count("call:echo") == 2
        lost, retried = env.traces[-2:]
        assert (lost.outcome, lost.timeout_hop) == ("timeout", "request")
        assert (retried.outcome, retried.retries) == ("ok", 1)

    def test_partition_after_the_first_call_is_consulted(self, world):
        env, ctx, sig = world
        record = contact(ctx, "lerc-rs6000")
        tl = ctx.line.timeline
        execute_call(env, ctx.machine, tl, record, sig, {"x": 1.0})
        (plan,) = plans(env)
        a, b = ctx.machine.site, record.machine.site
        assert a != b
        cut = PartitionLink(at_s=env.clock.now, site_a=a, site_b=b)
        with FaultInjector(env=env, plan=FaultPlan(seed=1, events=(cut,))):
            with pytest.raises(CallTimeout, match="request lost: network partition"):
                execute_call(env, ctx.machine, tl, record, sig, {"x": 1.0})
        assert execute_call(env, ctx.machine, tl, record, sig, {"x": 4.0}) == {"y": 4.0}
        assert plans(env) == [plan], "a partition is not a reason to recompile"

    def test_load_change_is_charged_on_the_next_call(self, world):
        env, ctx, sig = world
        record = contact(ctx, "lerc-rs6000")
        stub = ctx.import_proc(sig)
        stub(x=1.0)
        idle = env.traces[-1].compute_s
        record.machine.load = 0.5
        stub(x=1.0)
        assert env.traces[-1].compute_s == pytest.approx(2 * idle)


def cold_specs(n: int):
    return [SessionSpec(name=f"cold-{i}", points=(1.30 + 0.01 * i,)) for i in range(n)]


class TestOnePlanPerInstallation:
    def test_cold_sessions_build_each_plan_once(self, builds):
        """Each cold session starts its own remote processes; the plans
        for its calls are the installation's, built by the first.  The
        F100's three duct lines call one ``setduct``/``duct`` pair, so
        that is 6 plans where one per binding made 10 per session."""
        inst = SharedInstallation.standard()
        serve_sessions(cold_specs(1), installation=inst, dedup=False)
        assert sorted(p.procedure.name for p in builds) == [
            "comb", "duct", "nozl", "setcomb", "setduct", "setnozl",
        ]
        report = serve_sessions(cold_specs(24), installation=inst, dedup=False)
        assert len(report.results) == 24
        assert all(r.status == "completed" and r.traces for r in report.results)
        assert len(builds) == 6 == len(inst.park.call_plans)

    def test_a_move_to_another_format_builds_one_more_and_back_reuses(self, world, builds):
        env, ctx, sig = world
        contact(ctx, "lerc-rs6000")
        stub = ctx.import_proc(sig)
        stub(x=1.0)
        ctx.sch_move("echo", "lerc-cray")
        stub(x=1.0)
        # and back: the original machine's plan is found again
        ctx.sch_move("echo", "lerc-rs6000")
        stub(x=1.0)
        stub(x=2.0)
        assert [p.callee_machine.hostname for p in builds] == [
            env.park["lerc-rs6000"].hostname, env.park["lerc-cray"].hostname,
        ]
        assert plans(env) == builds

    def test_two_installations_share_nothing(self, builds):
        a, b = SharedInstallation.standard(), SharedInstallation.standard()
        serve_sessions(cold_specs(1), installation=a, dedup=False)
        serve_sessions(cold_specs(1), installation=b, dedup=False)
        assert len(a.park.call_plans) == len(b.park.call_plans) == 6
        assert not set(map(id, a.park.call_plans.values())) & set(
            map(id, b.park.call_plans.values())
        )
        assert len(builds) == 12

    def test_a_dropped_installation_s_plans_are_collected(self):
        def live_plans() -> int:
            gc.collect()
            return sum(1 for obj in gc.get_objects() if type(obj) is CallPlan)

        before = live_plans()
        inst = SharedInstallation.standard()
        serve_sessions(cold_specs(2), installation=inst, dedup=False)
        assert live_plans() == before + 6
        del inst
        assert live_plans() == before
