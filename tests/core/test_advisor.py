"""Tests for the placement advisor (§2.3 default actions)."""

import pytest

from repro.core import install_tess_executables
from repro.core.advisor import PlacementAdvisor
from repro.core.specs import build_combustor_executable
from repro.schooner import SchoonerEnvironment


@pytest.fixture
def world():
    env = SchoonerEnvironment.standard()
    install_tess_executables(env.park)
    comb = build_combustor_executable().procedure_named("comb")
    return env, PlacementAdvisor(env=env), comb


REQ, REP = 40, 32  # comb call payload bytes


class TestEstimates:
    def test_local_placement_has_no_wan_cost(self, world):
        env, advisor, comb = world
        caller = env.park["ua-sparc10"]
        local = advisor.estimate(caller, env.park["ua-sgi340"], comb, REQ, REP)
        remote = advisor.estimate(caller, env.park["lerc-cray"], comb, REQ, REP)
        assert local.network_s < remote.network_s / 10

    def test_fast_machine_low_compute(self, world):
        env, advisor, comb = world
        caller = env.park["ua-sparc10"]
        cray = advisor.estimate(caller, env.park["lerc-cray"], comb, REQ, REP)
        sparc = advisor.estimate(caller, env.park["lerc-sparc10"], comb, REQ, REP)
        assert cray.compute_s < sparc.compute_s

    def test_estimate_matches_measured_call(self, world):
        """The advisor's prediction agrees with what the RPC engine
        actually charges."""
        from repro.core import REMOTE_PATHS
        from repro.schooner import Manager, ManagerMode, ModuleContext
        from repro.uts import SpecFile
        from repro.core.specs import COMBUSTOR_SPEC_SOURCE

        env, advisor, comb = world
        caller = env.park["ua-sparc10"]
        target = env.park["lerc-cray"]
        manager = Manager(env=env, host=caller, mode=ManagerMode.LINES)
        ctx = ModuleContext(manager=manager, module_name="m", machine=caller)
        ctx.sch_contact_schx(target, REMOTE_PATHS["combustor"])
        spec = SpecFile.parse(COMBUSTOR_SPEC_SOURCE).as_imports()
        ctx.import_proc(spec.import_named("setcomb"))(eta=0.985, dpqp=0.05, tmax=2200.0)
        stub = ctx.import_proc(spec.import_named("comb"))
        env.reset_traces()
        stub(w=63.0, tt=745.0, pt=2.2e6, far=0.0, wfuel=1.5)
        trace = env.traces[-1]
        est = advisor.estimate(
            caller, target, comb,
            request_bytes=trace.request_bytes,
            reply_bytes=trace.reply_bytes,
        )
        assert est.total_s == pytest.approx(trace.total_s, rel=0.05)


class TestRanking:
    def test_latency_bound_call_prefers_local(self, world):
        """The §2.3 answer for small calls: the non-optimum local
        machine beats the optimum remote one."""
        env, advisor, comb = world
        caller = env.park["ua-sparc10"]
        ranked = advisor.rank(caller, list(env.park), comb, REQ, REP)
        assert env.park[ranked[0].machine].site == "arizona"

    def test_compute_bound_call_prefers_the_cray(self, world):
        """Crank the work up: the Cray wins despite the WAN."""
        env, advisor, comb = world
        caller = env.park["ua-sparc10"]
        ranked = advisor.rank(caller, list(env.park), comb, REQ, REP, flops=1e11)
        assert ranked[0].machine == "cray-ymp.lerc.nasa.gov"

    def test_down_machines_excluded(self, world):
        env, advisor, comb = world
        env.park["ua-sgi340"].shutdown()
        ranked = advisor.rank(
            env.park["ua-sparc10"], list(env.park), comb, REQ, REP
        )
        assert all(e.machine != "sgi4d340.cs.arizona.edu" for e in ranked)
