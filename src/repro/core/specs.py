"""UTS specifications and executables for the four adapted TESS modules.

Section 3.3: "Four of the engine modules have been modified so that
their computations are executed remotely using Schooner: the shaft,
duct, combustor, and nozzle modules."  Each adapted module contributes
two remote procedures: a ``set*`` initialization procedure "called once
at the start of a steady-state computation" and a compute procedure
"called repeatedly during both steady-state and transient computations".

The shaft specification follows the paper's export spec exactly in shape
(energy arrays + counts, correction, spool speed, inertia -> spool
derivative).  One deliberate deviation, recorded in DESIGN.md: the
paper's spec used single-precision ``float`` parameters; these specs use
``double`` because the balance solver differentiates residuals with
1e-7 steps, which single precision cannot carry.  The paper itself
added ``double`` to UTS for exactly this class of need (§4.1).
"""

from __future__ import annotations

from typing import Dict

from ..machines.fortran import Language
from ..schooner.procedure import Executable, Procedure
from ..tess.components import Combustor, ConvergentNozzle, Duct, Shaft
from ..tess.gas import GasState
from ..uts.spec import SpecFile
from ..uts.types import DOUBLE

__all__ = [
    "SHAFT_SPEC_SOURCE",
    "DUCT_SPEC_SOURCE",
    "COMBUSTOR_SPEC_SOURCE",
    "NOZZLE_SPEC_SOURCE",
    "REMOTE_PATHS",
    "build_shaft_executable",
    "build_duct_executable",
    "build_combustor_executable",
    "build_nozzle_executable",
    "install_tess_executables",
]

SHAFT_SPEC_SOURCE = """
export setshaft prog(
    "inertia" val double,
    "omegad"  val double,
    "mecheff" val double,
    "ecorr"   res double)

export shaft prog(
    "ecom"   val array[4] of double,
    "incom"  val integer,
    "etur"   val array[4] of double,
    "intur"  val integer,
    "ecorr"  val double,
    "xspool" val double,
    "xmyi"   val double,
    "dxspl"  res double)
"""

DUCT_SPEC_SOURCE = """
export setduct prog(
    "dpqp" val double,
    "ok"   res integer)

export duct prog(
    "w"    val double,
    "tt"   val double,
    "pt"   val double,
    "far"  val double,
    "wo"   res double,
    "tto"  res double,
    "pto"  res double,
    "faro" res double)
"""

COMBUSTOR_SPEC_SOURCE = """
export setcomb prog(
    "eta"  val double,
    "dpqp" val double,
    "tmax" val double,
    "ok"   res integer)

export comb prog(
    "w"    val double,
    "tt"   val double,
    "pt"   val double,
    "far"  val double,
    "wfuel" val double,
    "wo"   res double,
    "tto"  res double,
    "pto"  res double,
    "faro" res double)
"""

NOZZLE_SPEC_SOURCE = """
export setnozl prog(
    "cd"   val double,
    "area" val double,
    "ok"   res integer)

export nozl prog(
    "w"    val double,
    "tt"   val double,
    "pt"   val double,
    "far"  val double,
    "ps0"  val double,
    "v0"   val double,
    "wcap" res double,
    "fnet" res double)
"""

#: where the executables live on every machine (the pathname widget value)
REMOTE_PATHS: Dict[str, str] = {
    "shaft": "/npss/bin/npss-shaft",
    "duct": "/npss/bin/npss-duct",
    "combustor": "/npss/bin/npss-comb",
    "nozzle": "/npss/bin/npss-nozl",
}

# per-call cost models (flops), sized so remote compute time is small
# next to 1993 WAN latency — matching the paper's observation that these
# setup procedures are cheap and the RPC pattern is latency-bound
_SHAFT_FLOPS = 2.0e3
_DUCT_FLOPS = 1.0e4
_COMB_FLOPS = 8.0e4
_NOZL_FLOPS = 5.0e4


def build_shaft_executable() -> Executable:
    """npss-shaft: the paper's running example."""
    spec = SpecFile.parse(SHAFT_SPEC_SOURCE)

    def setshaft(inertia, omegad, mecheff, _state):
        _state["inertia"] = inertia
        _state["omegad"] = omegad
        _state["mecheff"] = mecheff
        return 0.0  # ecorr: no parasitic extraction modelled

    def shaft(ecom, incom, etur, intur, ecorr, xspool, xmyi, _state):
        sh = Shaft(
            inertia=_state["inertia"],
            omega_design=_state["omegad"],
            mech_eff=_state["mecheff"],
        )
        return sh.accel(ecom, incom, etur, intur, ecorr, xspool, xmyi)

    return Executable(
        "npss-shaft",
        (
            Procedure(
                name="setshaft", signature=spec.export_named("setshaft"),
                impl=setshaft, language=Language.FORTRAN, flops=_SHAFT_FLOPS,
                stateless=False, idempotent=True,
                state_spec={"inertia": DOUBLE, "omegad": DOUBLE, "mecheff": DOUBLE},
            ),
            Procedure(
                name="shaft", signature=spec.export_named("shaft"),
                impl=shaft, language=Language.FORTRAN, flops=_SHAFT_FLOPS,
                stateless=False, idempotent=True,
                state_spec={"inertia": DOUBLE, "omegad": DOUBLE, "mecheff": DOUBLE},
            ),
        ),
    )


def build_duct_executable() -> Executable:
    spec = SpecFile.parse(DUCT_SPEC_SOURCE)

    def setduct(dpqp, _state):
        _state["dpqp"] = dpqp
        return 1

    def duct(w, tt, pt, far, _state):
        d = Duct(dpqp=_state["dpqp"])
        out = d.run(GasState(w, tt, pt, far))
        return (out.W, out.Tt, out.Pt, out.far)

    return Executable(
        "npss-duct",
        (
            Procedure(
                name="setduct", signature=spec.export_named("setduct"),
                impl=setduct, language=Language.FORTRAN, flops=_DUCT_FLOPS,
                stateless=False, idempotent=True, state_spec={"dpqp": DOUBLE},
            ),
            Procedure(
                name="duct", signature=spec.export_named("duct"),
                impl=duct, language=Language.FORTRAN, flops=_DUCT_FLOPS,
                stateless=False, idempotent=True, state_spec={"dpqp": DOUBLE},
            ),
        ),
    )


def build_combustor_executable() -> Executable:
    spec = SpecFile.parse(COMBUSTOR_SPEC_SOURCE)

    def setcomb(eta, dpqp, tmax, _state):
        _state.update(eta=eta, dpqp=dpqp, tmax=tmax)
        return 1

    def comb(w, tt, pt, far, wfuel, _state):
        c = Combustor(
            efficiency=_state["eta"],
            dpqp=_state["dpqp"],
            t_max=_state["tmax"],
        )
        out = c.burn(GasState(w, tt, pt, far), wfuel)
        return (out.W, out.Tt, out.Pt, out.far)

    return Executable(
        "npss-comb",
        (
            Procedure(
                name="setcomb", signature=spec.export_named("setcomb"),
                impl=setcomb, language=Language.FORTRAN, flops=_COMB_FLOPS,
                stateless=False, idempotent=True,
                state_spec={"eta": DOUBLE, "dpqp": DOUBLE, "tmax": DOUBLE},
            ),
            Procedure(
                name="comb", signature=spec.export_named("comb"),
                impl=comb, language=Language.FORTRAN, flops=_COMB_FLOPS,
                stateless=False, idempotent=True,
                state_spec={"eta": DOUBLE, "dpqp": DOUBLE, "tmax": DOUBLE},
            ),
        ),
    )


def build_nozzle_executable() -> Executable:
    spec = SpecFile.parse(NOZZLE_SPEC_SOURCE)

    def setnozl(cd, area, _state):
        _state.update(cd=cd, area=area)
        return 1

    def nozl(w, tt, pt, far, ps0, v0, _state):
        n = ConvergentNozzle(cd=_state["cd"], area_m2=_state["area"])
        state = GasState(w, tt, pt, far)
        return (n.flow_capacity(state, ps0), n.net_thrust(state, ps0, v0))

    return Executable(
        "npss-nozl",
        (
            Procedure(
                name="setnozl", signature=spec.export_named("setnozl"),
                impl=setnozl, language=Language.FORTRAN, flops=_NOZL_FLOPS,
                stateless=False, idempotent=True, state_spec={"cd": DOUBLE, "area": DOUBLE},
            ),
            Procedure(
                name="nozl", signature=spec.export_named("nozl"),
                impl=nozl, language=Language.FORTRAN, flops=_NOZL_FLOPS,
                stateless=False, idempotent=True, state_spec={"cd": DOUBLE, "area": DOUBLE},
            ),
        ),
    )


_BUILDERS = {
    "shaft": build_shaft_executable,
    "duct": build_duct_executable,
    "combustor": build_combustor_executable,
    "nozzle": build_nozzle_executable,
}


def install_tess_executables(park) -> None:
    """Install the four adapted-module executables on every machine in
    the park that lacks them — the simulated equivalent of building them
    everywhere.  Idempotent: an executable is built (its export spec
    parsed) only when some machine is missing its path, and a path
    already installed is never overwritten, so an executive opened over
    an installed park builds nothing."""
    for kind, builder in _BUILDERS.items():
        path = REMOTE_PATHS[kind]
        missing = [m for m in park if not m.has_executable(path)]
        if missing:
            exe = builder()
            for machine in missing:
                machine.install(path, exe)
