"""The inputs the contract serves that are not ``bench/`` workloads.

Each is defined once, here; the tests that serve them import them.

* ``BATCHES`` — the seven batches ``TestThreeWayDifferential`` serves
  three ways (``tests/serve/test_admission.py``);
* ``mixed_batch`` plus ``from_lerc`` — the built-once batch of
  ``tests/serve/test_built_once.py``: two steady sessions, a transient
  and a faulted one, and a fifth opened from the other AVS machine;
* ``run_transient`` — Table 2's 1 s throttle transient, all four adapted
  executables remote (``tests/core/test_transient_floor.py``);
* ``CRASH_CASES`` plus ``crash_plan`` and ``serve_crash`` — the crash
  matrix of ``tests/faults/test_crash_matrix.py``: each adapted kind
  crashed on its Table 2 host, by process and by machine.
"""

from __future__ import annotations

import dataclasses

from repro.core import NPSSExecutive
from repro.faults import (
    CrashMachine,
    CrashProcess,
    FaultPlan,
    GatewayOutage,
    GatewayRestore,
    LatencySpike,
)
from repro.serve import AdmissionPolicy, SessionSpec, SharedInstallation, serve_sessions
from repro.serve.demo import build_session_specs


def _cold(n):
    return [
        SessionSpec(name=f"c{i:02d}", points=(1.30 + i * 0.004, 1.34 + i * 0.004))
        for i in range(n)
    ]


def near(n):
    """One op-point family; each session's points sit beside the last's."""
    return [
        SessionSpec(
            name=f"n{i:02d}", points=(1.30 + i * 0.003, 1.31 + i * 0.003), op_cache=True
        )
        for i in range(n)
    ]


def _mixed(n):
    return [
        dataclasses.replace(
            s, priority=(i * 7) % 3, deadline_s=(30.0 + 9.0 * i) if i % 2 else None
        )
        for i, s in enumerate(_cold(n))
    ]


#: name -> (spec builder, serve keywords)
BATCHES = {
    "cold-unbounded": (lambda: _cold(12), dict(dedup=False)),
    "cold-bounded": (lambda: _cold(12), dict(dedup=False, admission=AdmissionPolicy(3, 6))),
    "near-unbounded": (lambda: near(12), dict(dedup=False)),
    "near-bounded": (lambda: near(12), dict(dedup=False, admission=AdmissionPolicy(3, 30))),
    "dedup-unbounded": (lambda: build_session_specs(12, classes=5, points=2), dict()),
    "dedup-bounded": (
        lambda: build_session_specs(12, classes=5, points=2),
        dict(admission=AdmissionPolicy(2, 8)),
    ),
    "mixed-bounded": (lambda: _mixed(12), dict(dedup=False, admission=AdmissionPolicy(3, 6))),
}


def mixed_batch():
    plan = FaultPlan(
        seed=11,
        events=(
            LatencySpike(at_s=0.5, until_s=8.0, extra_s=0.3),
            GatewayOutage(at_s=2.0, site="lerc.nasa.gov"),
            GatewayRestore(at_s=4.0, site="lerc.nasa.gov"),
        ),
    )
    return [
        SessionSpec(name="steady", points=(1.30, 1.34)),
        SessionSpec(name="transient", points=(1.32,), transient_s=0.1),
        SessionSpec(name="faulted", points=(1.42,), fault_plan=plan),
        # named for the serving mode it once opted into; every session
        # is supervised now, and the name keeps its contract row
        SessionSpec(name="resilient", points=(1.36,)),
    ]


def from_lerc():
    """The batch's fifth session, opened from the other AVS machine."""
    return SessionSpec(name="from-lerc", points=(1.30, 1.34), avs_machine="lerc-sparc10")


#: Table 2's placement: every adapted executable runs remote
ALL_REMOTE = {
    "combustor": "sgi4d340.cs.arizona.edu",
    "duct-bypass": "cray-ymp.lerc.nasa.gov",
    "duct-core": "cray-ymp.lerc.nasa.gov",
    "nozzle": "sgi4d420.lerc.nasa.gov",
    "shaft-low": "rs6000.lerc.nasa.gov",
    "shaft-high": "rs6000.lerc.nasa.gov",
}


def run_transient(dispatch: str, jac_reuse: bool) -> NPSSExecutive:
    ex = NPSSExecutive(avs_machine="ua-sparc10", dispatch=dispatch, jac_reuse=jac_reuse)
    ex.modules = ex.build_f100_network()
    ex.modules["combustor"].set_param("fuel flow", 1.35)
    ex.modules["combustor"].set_param("fuel flow-op", 1.45)
    ex.modules["combustor"].set_param("ramp seconds", 0.3)
    ex.modules["system"].set_param("transient seconds", 1.0)
    ex.modules["system"].set_param("steady-state method", "Newton-Raphson")
    ex.modules["system"].set_param("transient method", "Modified Euler")
    for module, machine in ALL_REMOTE.items():
        ex.modules[module].set_param("remote machine", machine)
    ex.execute()
    return ex


# ------------------------------------------------------------ fault recovery
#: the crash matrix's session: three balances and a 0.2 s transient
CRASH_POINTS = (1.28, 1.30, 1.32)
CRASH_TRANSIENT_S = 0.2
#: kind -> (its Table 2 host, a crash instant after its set* ran)
CRASH_CASES = {
    "duct": ("cray-ymp.lerc.nasa.gov", 2.0),
    "combustor": ("sgi4d340.cs.arizona.edu", 2.0),
    "nozzle": ("sgi4d420.lerc.nasa.gov", 2.0),
    "shaft": ("rs6000.lerc.nasa.gov", 15.0),
}
CRASH_EVENTS = (CrashProcess, CrashMachine)
CRASH_POINT_FIELDS = ("n1", "n2", "thrust_N", "t4", "sfc")
CRASH_TRANSIENT_FIELDS = ("n1_final", "n2_final", "thrust_final")


def crash_plan(kind: str, event) -> FaultPlan:
    host, at_s = CRASH_CASES[kind]
    return FaultPlan(seed=0, events=(event(at_s=at_s, hostname=host),))


def serve_crash(**kw):
    """The crash matrix's session, served alone on a fresh installation;
    with no keywords, the fault-free reference.  A plan's crash ends
    with its session, so no run meets another's."""
    spec = SessionSpec(name="crash", points=CRASH_POINTS, transient_s=CRASH_TRANSIENT_S, **kw)
    (result,) = serve_sessions(
        [spec], installation=SharedInstallation.standard(), dedup=False
    ).results
    return result


def crash_rel_errors(result, reference):
    """Relative error of every value a crash run delivered."""
    pairs = [
        (point[f], ref[f])
        for point, ref in zip(result.results, reference.results)
        for f in CRASH_POINT_FIELDS
    ]
    if result.transient is not None:
        pairs += [(result.transient[f], reference.transient[f]) for f in CRASH_TRANSIENT_FIELDS]
    return [abs(a - b) / abs(b) for a, b in pairs]
