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
