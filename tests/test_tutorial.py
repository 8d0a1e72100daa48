"""The tutorial's afterburner walkthrough, executed as a test — keeps
docs/TUTORIAL.md honest."""

import pytest

from repro.machines import Language
from repro.schooner import (
    Executable,
    Manager,
    ManagerMode,
    ModuleContext,
    Procedure,
    SchoonerEnvironment,
    render_summary,
)
from repro.tess.gas import FUEL_LHV, GasState, temperature_from_enthalpy
from repro.uts import DOUBLE, SpecFile

AFTERBURNER_SPEC = """
export setab prog(
    "eta"   val double,
    "ok"    res integer)

export ab prog(
    "w"     val double,
    "tt"    val double,
    "pt"    val double,
    "far"   val double,
    "wfab"  val double,
    "tto"   res double,
    "faro"  res double)
"""


def build_afterburner():
    spec = SpecFile.parse(AFTERBURNER_SPEC)

    def setab(eta, _state):
        _state["eta"] = eta
        return 1

    def ab(w, tt, pt, far, wfab, _state):
        state = GasState(W=w, Tt=tt, Pt=pt, far=far)
        w_air = w / (1.0 + far)
        far_out = (far * w_air + wfab) / w_air
        h_out = (w * state.ht + wfab * FUEL_LHV * _state["eta"]) / (w + wfab)
        return (temperature_from_enthalpy(h_out, far_out), far_out)

    return Executable(
        "npss-ab",
        (
            Procedure(name="setab", signature=spec.export_named("setab"),
                      impl=setab, language=Language.FORTRAN, stateless=False,
                      state_spec={"eta": DOUBLE}),
            Procedure(name="ab", signature=spec.export_named("ab"), impl=ab,
                      language=Language.FORTRAN, flops=5e4, stateless=False,
                      state_spec={"eta": DOUBLE}),
        ),
    ), spec


class TestTutorialWalkthrough:
    def test_the_full_tutorial(self):
        afterburner, spec = build_afterburner()
        env = SchoonerEnvironment.standard()
        for machine in env.park:
            machine.install("/npss/bin/npss-ab", afterburner)
        manager = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
        ctx = ModuleContext(manager=manager, module_name="afterburner",
                            machine=env.park["ua-sparc10"])
        ctx.sch_contact_schx("cray-ymp.lerc.nasa.gov", "/npss/bin/npss-ab")

        imports = spec.as_imports()
        assert ctx.import_proc(imports.import_named("setab")).call1(eta=0.92) == 1
        out = ctx.import_proc(imports.import_named("ab"))(
            w=100.0, tt=950.0, pt=2.8e5, far=0.02, wfab=2.0
        )
        # the afterburner heats the stream considerably
        assert out["tto"] > 1500.0
        assert out["faro"] > 0.02

        # §4.2 migration, as the tutorial shows
        ctx.sch_move("ab", "rs6000.lerc.nasa.gov")
        out2 = ctx.import_proc(imports.import_named("ab"))(
            w=100.0, tt=950.0, pt=2.8e5, far=0.02, wfab=2.0
        )
        # eta survived the move; the Cray's 48-bit storage makes the
        # before/after values agree closely but not necessarily exactly
        assert out2["tto"] == pytest.approx(out["tto"], rel=1e-9)

        summary = render_summary(env.traces)
        assert "ab" in summary
        ctx.sch_i_quit()
        assert manager.running

    def test_energy_balance_of_tutorial_physics(self):
        afterburner, spec = build_afterburner()
        ab = afterburner.procedure_named("ab")
        state = {"eta": 1.0}
        tto, faro = ab.impl(w=100.0, tt=950.0, pt=2.8e5, far=0.02, wfab=2.0,
                            _state=state)
        inp = GasState(W=100.0, Tt=950.0, Pt=2.8e5, far=0.02)
        h_out = GasState(W=102.0, Tt=tto, Pt=2.8e5, far=faro).ht
        assert 102.0 * h_out == pytest.approx(
            100.0 * inp.ht + 2.0 * FUEL_LHV, rel=1e-9
        )

    def test_the_stub_compiler_block(self):
        """§1's snippet: the one stub compiler's source for one call."""
        from repro.machines import CRAY_YMP_ARCH, SPARC
        from repro.schooner.stubgen import call_stubs
        from repro.uts import OutOfRangePolicy

        sig = SpecFile.parse(AFTERBURNER_SPEC).as_imports().import_named("ab")
        stubs = call_stubs(sig, SPARC.native_format, CRAY_YMP_ARCH.native_format,
                           OutOfRangePolicy.ERROR)
        for name in ("request", "serve", "reply", "finish"):
            assert f"def {name}(" in stubs.source
