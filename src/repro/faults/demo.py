"""The fault-injection demo: ``python -m repro faults``.

Runs the F100 transient with one TESS component placed on a remote
machine, first fault-free (the reference), then under a seeded
:class:`~repro.faults.plan.FaultPlan` with a
:class:`~repro.faults.recovery.FailoverSupervisor` attached.  The
default plan kills the component's host halfway through the run; the
transient still completes, with the instance restarted from its latest
UTS-encoded checkpoint on a surviving machine.

The demo's outcome is records: the thrust and N1 of both runs, a
SHA-256 digest of the serialized traces (replaying the same plan and
seed yields the same digest, byte for byte), the injection log and the
supervisor's failure log.  ``python -m repro faults`` prints them and
the per-procedure trace summary (including timeout/retry/failover
columns).
"""

from __future__ import annotations

from typing import Dict, List

from ..core.specs import REMOTE_PATHS
from ..schooner.tracing import trace_digest
from .plan import (
    CrashMachine,
    CrashProcess,
    DerateHost,
    FaultPlan,
    PacketLoss,
)

__all__ = ["PLAN_NAMES", "demo_records", "named_plan", "run_demo"]

#: the machine the demo dooms, and the component it hosts
DOOMED_HOST = "sgi4d420.lerc.nasa.gov"
COMPONENT = "nozzle"

PLAN_NAMES = ("machine-crash", "process-crash", "packet-loss")


def named_plan(name: str, seed: int, horizon_s: float) -> FaultPlan:
    """One of the demo's stock plans, scaled to a run of ``horizon_s``
    virtual seconds."""
    half = horizon_s / 2.0
    if name == "machine-crash":
        events = (CrashMachine(at_s=half, hostname=DOOMED_HOST),)
    elif name == "process-crash":
        events = (
            DerateHost(at_s=0.25 * horizon_s, hostname=DOOMED_HOST, load=0.7),
            CrashProcess(
                at_s=half, hostname=DOOMED_HOST, path=REMOTE_PATHS[COMPONENT]
            ),
        )
    elif name == "packet-loss":
        # the rate is sized for the overlapped+reused call pattern: the
        # executive issues a few hundred messages per second of
        # transient, and the demo wants a handful of deterministic drops
        events = (
            PacketLoss(
                at_s=0.25 * horizon_s,
                until_s=0.75 * horizon_s,
                rate=0.05,
            ),
        )
    else:
        raise ValueError(f"unknown plan {name!r}; choose from {PLAN_NAMES}")
    return FaultPlan(seed=seed, events=events)


def _build_executive(transient_s: float, dt: float):
    from ..core import NPSSExecutive

    ex = NPSSExecutive()
    modules = ex.build_f100_network()
    modules["system"].set_param("transient seconds", transient_s)
    modules["system"].set_param("time step", dt)
    # throttle ramp: without it the transient sits at the steady point
    # and the solver's reuse path collapses the run to a handful of
    # RPCs, leaving the fault plans nothing to act on
    modules["combustor"].set_param("fuel flow", 1.35)
    modules["combustor"].set_param("fuel flow-op", 1.45)
    modules["combustor"].set_param("ramp seconds", 0.3)
    modules[COMPONENT].set_param("remote machine", DOOMED_HOST)
    return ex


def run_demo(
    plan_name: str = "machine-crash",
    seed: int = 0,
    quick: bool = False,
) -> Dict[str, object]:
    """Run the reference and the faulted transient.  The result's
    scalar outcome is :func:`demo_records`' ``faults`` record; ``ok``
    says the faulted thrust is within 1e-3 of the fault-free one and,
    unless the plan only drops packets, a failover happened.  The
    injection log and both executives ride along; the faulted one's
    supervisor holds the failure log."""
    transient_s = 0.4 if quick else 1.0
    dt = 0.02

    # --- reference: fault-free -------------------------------------------
    ref = _build_executive(transient_s, dt)
    ref.run_simulation()
    horizon_s = ref.env.clock.now

    # --- the faulted run --------------------------------------------------
    plan = named_plan(plan_name, seed, horizon_s)
    ex = _build_executive(transient_s, dt)
    ex.run_resilient(plan)

    thrust_ref = ref.solution.thrust_N
    thrust = ex.solution.thrust_N
    rel_err = abs(thrust - thrust_ref) / abs(thrust_ref)
    return {
        "plan": plan_name,
        "seed": seed,
        "horizon_virtual_s": horizon_s,
        "reference_rpcs": len(ref.env.traces),
        "thrust_ref_N": thrust_ref,
        "thrust_N": thrust,
        "rel_err": rel_err,
        "final_n1_ref": float(ref.transient_result.n1[-1]),
        "final_n1": float(ex.transient_result.n1[-1]),
        "end_virtual_s": ex.env.clock.now,
        "recoveries": ex.supervisor.recoveries,
        "checkpoints": ex.supervisor.store.taken,
        "dropped": ex.env.transport.dropped,
        "digest": trace_digest(ex.env.traces),
        "ok": rel_err < 1e-3
        and (plan_name == "packet-loss" or ex.supervisor.recoveries >= 1),
        "injections": list(ex.injector.log),
        "executive": ex,
        "reference": ref,
    }


def demo_records(result: Dict[str, object]) -> List[dict]:
    """:func:`run_demo`'s result as records: one ``faults`` record, an
    ``injection`` record per fired fault and a ``recovery`` record per
    supervisor event."""
    head = {
        k: v for k, v in result.items()
        if k not in ("injections", "executive", "reference")
    }
    return [
        {"record": "faults", **head},
        *(
            {"record": "injection", "at_virtual_s": at, "fault": desc}
            for at, desc in result["injections"]
        ),
        *(
            {
                "record": "recovery",
                "at_virtual_s": ev.at_s,
                "kind": ev.kind,
                "subject": ev.subject,
                "detail": ev.detail,
            }
            for ev in result["executive"].supervisor.events
        ),
    ]
