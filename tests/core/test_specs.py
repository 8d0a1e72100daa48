"""Tests for the adapted-module UTS specs and executables."""

import pytest

from repro.core import (
    REMOTE_PATHS,
    SHAFT_SPEC_SOURCE,
    build_combustor_executable,
    build_duct_executable,
    build_nozzle_executable,
    build_shaft_executable,
    install_tess_executables,
)
from repro.machines import standard_park
from repro.uts import ArrayType, DOUBLE, INTEGER, ParamMode, SpecFile


class TestShaftSpec:
    def test_shaft_signature_shape_matches_paper(self):
        """The paper's export spec: energy arrays + counts + correction +
        spool speed + inertia -> dxspl."""
        spec = SpecFile.parse(SHAFT_SPEC_SOURCE)
        sig = spec.export_named("shaft")
        names = [p.name for p in sig.params]
        assert names == [
            "ecom", "incom", "etur", "intur", "ecorr", "xspool", "xmyi", "dxspl",
        ]
        assert sig.param_named("ecom").type == ArrayType(4, DOUBLE)
        assert sig.param_named("incom").type == INTEGER
        assert sig.param_named("dxspl").mode is ParamMode.RES
        assert all(
            p.mode is ParamMode.VAL for p in sig.params if p.name != "dxspl"
        )

    def test_both_procedures_exported(self):
        spec = SpecFile.parse(SHAFT_SPEC_SOURCE)
        assert set(spec.exports) == {"setshaft", "shaft"}


class TestExecutables:
    @pytest.mark.parametrize(
        "builder,procs",
        [
            (build_shaft_executable, {"setshaft", "shaft"}),
            (build_duct_executable, {"setduct", "duct"}),
            (build_combustor_executable, {"setcomb", "comb"}),
            (build_nozzle_executable, {"setnozl", "nozl"}),
        ],
    )
    def test_builders_export_set_and_compute(self, builder, procs):
        exe = builder()
        assert {p.name for p in exe.procedures} == procs

    def test_all_procedures_stateful_with_transfer_spec(self):
        """The set/compute pairs communicate through process state, so
        every procedure declares its state for migration."""
        for builder in (
            build_shaft_executable,
            build_duct_executable,
            build_combustor_executable,
            build_nozzle_executable,
        ):
            for proc in builder().procedures:
                assert not proc.stateless
                assert proc.state_spec

    def test_install_covers_every_machine(self):
        park = standard_park()
        install_tess_executables(park)
        for machine in park:
            for path in REMOTE_PATHS.values():
                assert machine.executable_at(path) is not None

    def test_duct_impl_roundtrip(self):
        exe = build_duct_executable()
        state = {}
        setduct = exe.procedure_named("setduct")
        duct = exe.procedure_named("duct")
        assert setduct.impl(dpqp=0.1, _state=state) == 1
        w, tt, pt, far = duct.impl(w=100.0, tt=300.0, pt=2e5, far=0.0, _state=state)
        assert pt == pytest.approx(1.8e5)
        assert (w, tt, far) == (100.0, 300.0, 0.0)

    def test_shaft_impl_uses_set_state(self):
        exe = build_shaft_executable()
        state = {}
        exe.procedure_named("setshaft").impl(
            inertia=2.0, omegad=1000.0, mecheff=1.0, _state=state
        )
        dx = exe.procedure_named("shaft").impl(
            ecom=[10e6, 0, 0, 0], incom=1, etur=[12e6, 0, 0, 0], intur=1,
            ecorr=0.0, xspool=1.0, xmyi=2.0, _state=state,
        )
        assert dx == pytest.approx(2e6 / (2.0 * 1000.0**2))


class TestComponentBuiltOncePerWrite:
    """A compute procedure builds its TESS component from the declared
    state once per write of that state, not once per call: the process
    state keeps it, and every mutator (a ``set*``, a restart installing
    state) clears it."""

    DUCT_ARGS = dict(w=100.0, tt=300.0, pt=2e5, far=0.0)

    @pytest.fixture
    def world(self):
        from repro.schooner import Manager, ManagerMode, SchoonerEnvironment

        env = SchoonerEnvironment.standard()
        install_tess_executables(env.park)
        return env, Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)

    @pytest.fixture
    def builds(self, monkeypatch):
        from repro.tess.components import Duct

        built = []
        real = Duct.__post_init__
        monkeypatch.setattr(Duct, "__post_init__", lambda self: (built.append(self.dpqp), real(self)))
        return built

    def duct_line(self, manager, name="duct", machine="lerc-cray"):
        from repro.core.specs import DUCT_SPEC_SOURCE
        from repro.schooner import ModuleContext

        imports = SpecFile.parse(DUCT_SPEC_SOURCE).as_imports()
        ctx = ModuleContext(manager=manager, module_name=name, machine=manager.host)
        ctx.sch_contact_schx(machine, REMOTE_PATHS["duct"])
        return ctx, ctx.import_proc(imports.import_named("setduct")), ctx.import_proc(
            imports.import_named("duct"))

    def test_a_reset_is_seen_by_the_next_call(self, world, builds):
        _, manager = world
        _, setduct, duct = self.duct_line(manager)
        setduct(dpqp=0.02)
        for _ in range(3):
            assert duct(**self.DUCT_ARGS)["pto"] == pytest.approx(2e5 * 0.98, rel=1e-12)
        assert builds == pytest.approx([0.02])  # Cray storage rounds
        setduct(dpqp=0.05)
        assert duct(**self.DUCT_ARGS)["pto"] == pytest.approx(2e5 * 0.95, rel=1e-12)
        duct(**self.DUCT_ARGS)
        assert builds == pytest.approx([0.02, 0.05])

    def test_a_refused_state_is_refused_on_every_call(self, world, builds):
        from repro.schooner import CallFailed
        from repro.schooner.lines import _ProcessState

        # the procedure itself: the check raises each time, nothing is kept
        duct = build_duct_executable().procedure_named("duct")
        state = _ProcessState("cray")
        state["dpqp"] = 1.5
        for _ in range(2):
            with pytest.raises(ValueError, match="outside"):
                duct.impl(**self.DUCT_ARGS, _state=state)
        assert state.component is None
        # over RPC: the failure ends its line, and a fresh line given the
        # same state is refused again
        _, manager = world
        for name in ("first", "second"):
            _, setduct, duct_stub = self.duct_line(manager, name)
            setduct(dpqp=1.5)
            with pytest.raises(CallFailed, match="outside"):
                duct_stub(**self.DUCT_ARGS)
        assert builds == pytest.approx([1.5] * 4)

    def test_a_move_installs_state_the_next_call_builds_from(self, world, builds):
        _, manager = world
        ctx, setduct, duct = self.duct_line(manager)
        setduct(dpqp=0.05)
        duct(**self.DUCT_ARGS)
        ctx.sch_move("duct", "lerc-rs6000")
        assert duct(**self.DUCT_ARGS)["pto"] == pytest.approx(2e5 * 0.95, rel=1e-12)
        assert builds == pytest.approx([0.05, 0.05])

    def test_a_failover_installs_state_the_next_call_builds_from(self, world, builds):
        from repro.faults import FailoverSupervisor

        env, manager = world
        supervisor = FailoverSupervisor(manager=manager)
        supervisor.attach()
        ctx, setduct, duct = self.duct_line(manager)
        setduct(dpqp=0.05)
        env.clock.advance(0.01)  # one tick: the write is checkpointed
        duct(**self.DUCT_ARGS)
        dead = manager.lookup(ctx.line, "duct")
        dead.machine.crash_process(dead.process.pid)
        assert duct(**self.DUCT_ARGS)["pto"] == pytest.approx(2e5 * 0.95, rel=1e-12)
        assert manager.lookup(ctx.line, "duct").process is not dead.process
        assert builds == pytest.approx([0.05, 0.05])
