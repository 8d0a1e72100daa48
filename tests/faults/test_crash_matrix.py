"""A crashed remote process comes back with its declared state, or the
session fails typed.

Each adapted module kind is crashed on its Table 2 host, by
``CrashProcess`` and by ``CrashMachine``, in a plain session and in a
resilient one (a failover supervisor attached).  The session balances
fuel flows 1.28/1.30/1.32 kg/s and runs a 0.2 s transient.  Every crash
lands after that kind's ``set*`` ran: at 2.0 virtual s, inside the first
balance, for the duct, combustor and nozzle; at 15.0 virtual s, inside
the transient, for the shafts, which are first called there (setshaft
at 13.6 s).

The pass rule: every point a run delivered equals the fault-free run's
within 1e-12 relative, and the run either delivered everything or ended
with a typed Schooner error — never the generic ``CallFailed`` that
wraps whatever a remote procedure raised.  A resilient run restores the
latest checkpoint and agrees to about 8e-14 (the duct); a plain run
has no state to restart with and ends ``InstanceGone``.

Before the one restart path, a plain session cold-restarted the dead
process without its ``set*`` state and its procedures read defaults:
the Cray duct's lossless ``dpqp`` of 0.0 put thrust 10.1 % high
(60,316 -> 66,389 N) with no error; the SGI 4D/420 nozzle, whose
``area`` had no default, failed ``CallFailed: ... ValueError('nozzle
not sized')``; the RS6000 shafts lost ``mecheff`` (0.995 read as 1.0)
and the transient's thrust was 0.66 % off.  Two kinds read equal there
for reasons that hid the fault:

* RS6000, crashed at 2.0 s as well: the shafts' ``setshaft`` had not
  run before the crash (they are first called in the transient), so the
  cold restart lost nothing and the later ``setshaft`` ran normally;
* SGI 4D/340: ``comb``'s defaults 0.985/0.05/2200 equal the F100
  deck's efficiency, pressure loss and temperature limit, so a
  combustor that lost its state computed the right numbers by chance.
"""

import pytest

from repro.faults import CrashMachine, CrashProcess, FaultPlan
from repro.schooner import errors
from repro.serve import SessionSpec, serve_sessions
from repro.serve.installation import SharedInstallation

POINTS = (1.28, 1.30, 1.32)
TRANSIENT_S = 0.2
#: kind -> (its Table 2 host, a crash instant after its set* ran)
CASES = {
    "duct": ("cray-ymp.lerc.nasa.gov", 2.0),
    "combustor": ("sgi4d340.cs.arizona.edu", 2.0),
    "nozzle": ("sgi4d420.lerc.nasa.gov", 2.0),
    "shaft": ("rs6000.lerc.nasa.gov", 15.0),
}
POINT_FIELDS = ("n1", "n2", "thrust_N", "t4", "sfc")
TRANSIENT_FIELDS = ("n1_final", "n2_final", "thrust_final")
#: the generic bases: a wrapped remote exception is not a typed outcome
UNTYPED = {"SchoonerError", "CallFailed"}


def serve_one(**kw):
    # a fresh installation per run: a CrashMachine downs a host of the
    # installation's shared park for every later session
    spec = SessionSpec(name="crash", points=POINTS, transient_s=TRANSIENT_S, **kw)
    (result,) = serve_sessions(
        [spec], installation=SharedInstallation.standard(), dedup=False
    ).results
    return result


def rel_errors(result, reference):
    """Relative error of every value the run delivered."""
    pairs = [
        (point[f], ref[f])
        for point, ref in zip(result.results, reference.results)
        for f in POINT_FIELDS
    ]
    if result.transient is not None:
        pairs += [(result.transient[f], reference.transient[f]) for f in TRANSIENT_FIELDS]
    return [abs(a - b) / abs(b) for a, b in pairs]


@pytest.fixture(scope="module")
def reference():
    result = serve_one()
    assert result.status == "completed" and result.transient is not None
    return result


@pytest.mark.parametrize("resilient", [False, True], ids=["plain", "resilient"])
@pytest.mark.parametrize("event", [CrashProcess, CrashMachine], ids=lambda e: e.__name__)
@pytest.mark.parametrize("kind", sorted(CASES))
def test_crash_restores_state_or_fails_typed(kind, event, resilient, reference):
    host, at_s = CASES[kind]
    plan = FaultPlan(seed=0, events=(event(at_s=at_s, hostname=host),))
    result = serve_one(fault_plan=plan, resilient=resilient)
    assert result.status == "degraded"
    assert max(rel_errors(result, reference), default=0.0) <= 1e-12
    delivered_all = len(result.results) == len(POINTS) and result.transient is not None
    if result.error or not delivered_all:
        name = result.error.split(":", 1)[0]
        assert name in errors.__all__ and name not in UNTYPED, result.error
    if resilient:
        # the supervisor restored the checkpoint: nothing was lost
        assert delivered_all and result.error == ""
    else:
        assert result.error.startswith("InstanceGone: "), result.error
