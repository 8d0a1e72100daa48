"""A crashed remote process comes back with its declared state.

Each adapted module kind is crashed on its Table 2 host, by
``CrashProcess`` and by ``CrashMachine``, in a served session (every
session is supervised: its executive's failover supervisor restarts the
dead process with its latest checkpoint).  The session balances
fuel flows 1.28/1.30/1.32 kg/s and runs a 0.2 s transient.  Every crash
lands after that kind's ``set*`` ran: at 2.0 virtual s, inside the first
balance, for the duct, combustor and nozzle; at 15.0 virtual s, inside
the transient, for the shafts, which are first called there (setshaft
at 13.6 s).  The cases are the contract's (``CRASH_CASES`` in
``tests/contract/scenarios.py``), which holds each run's outcome as a
``crash/`` row.

The pass rule: the run delivers every point and the transient with no
error, each value equal to the fault-free run's within 1e-12 relative
(the restored duct agrees to about 8e-14).

Before the one restart path, an unsupervised session cold-restarted the dead
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

from tests.contract.scenarios import (
    CRASH_CASES,
    CRASH_EVENTS,
    CRASH_POINTS,
    crash_plan,
    crash_rel_errors,
    serve_crash,
)


@pytest.fixture(scope="module")
def reference():
    result = serve_crash()
    assert result.status == "completed" and result.transient is not None
    return result


@pytest.mark.parametrize("event", CRASH_EVENTS, ids=lambda e: e.__name__)
@pytest.mark.parametrize("kind", sorted(CRASH_CASES))
def test_crash_restores_state(kind, event, reference):
    result = serve_crash(fault_plan=crash_plan(kind, event))
    assert result.status == "degraded"
    assert max(crash_rel_errors(result, reference), default=0.0) <= 1e-12
    # the supervisor restored the checkpoint: nothing was lost
    assert result.error == "", result.error
    assert len(result.results) == len(CRASH_POINTS) and result.transient is not None
