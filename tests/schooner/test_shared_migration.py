"""Tests for shared-procedure migration and Manager lifecycle edges.

§4.2: "When a shared procedure is terminated or moved, the mapping
database is updated for all lines."
"""

import pytest

from repro.machines import Language
from repro.schooner import (
    Executable,
    Manager,
    ManagerMode,
    ModuleContext,
    NameNotFound,
    Procedure,
    SchoonerEnvironment,
)
from repro.uts import DOUBLE, SpecFile

ATMOS_SPEC = SpecFile.parse('export atmos prog("alt" val double, "t" res double)')


def make_atmos_exe():
    def atmos(alt, _state):
        _state["calls"] = _state.get("calls", 0) + 1
        return 288.15 - 0.0065 * alt

    return Executable(
        "atmosphere",
        (
            Procedure(
                name="atmos", signature=ATMOS_SPEC.export_named("atmos"),
                impl=atmos, language=Language.C, stateless=False,
                state_spec={},
            ),
        ),
    )


@pytest.fixture
def world():
    env = SchoonerEnvironment.standard()
    for nick in ("lerc-convex", "lerc-cray", "lerc-rs6000"):
        env.park[nick].install("/bin/atmos", make_atmos_exe())
    manager = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
    return env, manager


class TestSharedMigration:
    def test_move_updates_all_lines(self, world):
        env, manager = world
        manager.start_shared(env.park["lerc-convex"], "/bin/atmos")
        ctx_a = ModuleContext(manager=manager, module_name="a", machine=env.park["ua-sparc10"])
        ctx_b = ModuleContext(manager=manager, module_name="b", machine=env.park["ua-sparc10"])
        stub_a = ctx_a.import_proc(ATMOS_SPEC.as_imports(), name="atmos")
        stub_b = ctx_b.import_proc(ATMOS_SPEC.as_imports(), name="atmos")
        assert stub_a.call1(alt=1000.0) == pytest.approx(288.15 - 6.5)
        assert stub_b.call1(alt=0.0) == pytest.approx(288.15)

        # move the shared procedure via either line
        new_rec = manager.move(ctx_a.line, "atmos", env.park["lerc-cray"], "/bin/atmos")
        assert new_rec.machine is env.park["lerc-cray"]
        # both lines' stubs fail over and find the new location
        assert stub_a.call1(alt=1000.0) == pytest.approx(288.15 - 6.5, rel=1e-9)
        assert stub_b.call1(alt=0.0) == pytest.approx(288.15, rel=1e-9)
        assert stub_a.failovers == 1
        assert stub_b.failovers == 1
        # resolves through the shared registry for a fresh line too
        ctx_c = ModuleContext(manager=manager, module_name="c", machine=env.park["ua-sparc10"])
        rec = manager.lookup(ctx_c.line, "atmos")
        assert rec.machine is env.park["lerc-cray"]

    def test_stop_shared_removes_for_everyone(self, world):
        env, manager = world
        (rec,) = manager.start_shared(env.park["lerc-convex"], "/bin/atmos")
        ctx = ModuleContext(manager=manager, module_name="a", machine=env.park["ua-sparc10"])
        stub = ctx.import_proc(ATMOS_SPEC.as_imports(), name="atmos")
        stub(alt=0.0)
        manager.stop_shared(rec)
        with pytest.raises(NameNotFound):
            stub(alt=0.0)  # failover lookup finds nothing


class TestManagerLifecycleEdges:
    def test_shutdown_all_in_lines_mode_keeps_manager(self, world):
        env, manager = world
        manager.start_shared(env.park["lerc-convex"], "/bin/atmos")
        ctx = ModuleContext(manager=manager, module_name="a", machine=env.park["ua-sparc10"])
        ctx.sch_contact_schx("lerc-rs6000", "/bin/atmos")
        manager.shutdown_all()
        assert manager.running  # lines-model Manager is persistent
        assert len(env.park["lerc-rs6000"].running_processes) == 0
        assert len(env.park["lerc-convex"].running_processes) == 0

    def test_terminate_is_final(self, world):
        env, manager = world
        manager.terminate()
        assert not manager.running
        from repro.schooner import ManagerError

        with pytest.raises(ManagerError):
            manager.start_shared(env.park["lerc-convex"], "/bin/atmos")

    def test_servers_are_per_machine_singletons(self, world):
        env, manager = world
        s1 = manager.server_for(env.park["lerc-cray"])
        s2 = manager.server_for(env.park["lerc-cray"])
        s3 = manager.server_for(env.park["lerc-rs6000"])
        assert s1 is s2
        assert s1 is not s3
