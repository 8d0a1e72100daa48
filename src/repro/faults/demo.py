"""The fault-injection demo: ``python -m repro faults``.

Runs the F100 transient with one TESS component placed on a remote
machine, first fault-free (the reference), then under a seeded
:class:`~repro.faults.plan.FaultPlan` with a
:class:`~repro.faults.recovery.FailoverSupervisor` attached.  The
default plan kills the component's host halfway through the run; the
transient still completes, with the instance restarted from its latest
UTS-encoded checkpoint on a surviving machine.

The demo prints the injection log, the supervisor's failure log, the
per-procedure trace summary (including timeout/retry/failover columns),
and a SHA-256 digest of the serialized traces — replaying the same plan
and seed yields the same digest, byte for byte.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional

from ..core.specs import REMOTE_PATHS
from ..schooner.tracing import trace_digest
from .plan import (
    CrashMachine,
    CrashProcess,
    DerateHost,
    FaultPlan,
    PacketLoss,
)

__all__ = ["PLAN_NAMES", "named_plan", "run_demo", "main"]

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
    checkpoint_interval_s: float = 1.0,
    verbose: bool = True,
) -> Dict[str, object]:
    """Run the reference and the faulted transient; returns the results
    both the CLI and the test-suite assertions consume."""
    from ..schooner.tracing import render_summary

    transient_s = 0.4 if quick else 1.0
    dt = 0.02

    def say(msg: str) -> None:
        if verbose:
            print(msg)

    # --- reference: fault-free -------------------------------------------
    ref = _build_executive(transient_s, dt)
    ref.run_simulation()
    horizon_s = ref.env.clock.now
    say(
        f"reference run: thrust {ref.solution.thrust_N / 1e3:.2f} kN, "
        f"{horizon_s:.1f} virtual s, {len(ref.env.traces)} RPCs"
    )

    # --- the faulted run --------------------------------------------------
    plan = named_plan(plan_name, seed, horizon_s)
    say("\n" + plan.describe())
    ex = _build_executive(transient_s, dt)
    ex.run_resilient(plan, checkpoint_interval_s=checkpoint_interval_s)

    say("\ninjection log:")
    for at, desc in ex.injector.log:
        say(f"  t={at:8.3f}s  {desc}")
    say("\nfailure log:")
    say("  " + ex.supervisor.render_events().replace("\n", "\n  "))

    thrust_ref = ref.solution.thrust_N
    thrust = ex.solution.thrust_N
    rel_err = abs(thrust - thrust_ref) / abs(thrust_ref)
    final_n1_ref = float(ref.transient_result.n1[-1])
    final_n1 = float(ex.transient_result.n1[-1])
    say(
        f"\nfaulted run:   thrust {thrust / 1e3:.2f} kN "
        f"(rel err {rel_err:.2e} vs fault-free), "
        f"final N1 {final_n1:.6f} (ref {final_n1_ref:.6f}), "
        f"{ex.env.clock.now:.1f} virtual s"
    )
    say(
        f"checkpoints taken: {ex.supervisor.store.taken}, "
        f"recoveries: {ex.supervisor.recoveries}, "
        f"messages dropped: {ex.env.transport.dropped}"
    )
    say("\n" + render_summary(ex.env.traces))

    digest = trace_digest(ex.env.traces)
    events = [ev.describe() for ev in ex.supervisor.events]
    say(f"\ntrace digest: {digest}")

    return {
        "plan": plan_name,
        "seed": seed,
        "horizon_s": horizon_s,
        "thrust_ref_N": thrust_ref,
        "thrust_N": thrust,
        "rel_err": rel_err,
        "final_n1_ref": final_n1_ref,
        "final_n1": final_n1,
        "recoveries": ex.supervisor.recoveries,
        "checkpoints": ex.supervisor.store.taken,
        "dropped": ex.env.transport.dropped,
        "digest": digest,
        "events": events,
        "injections": list(ex.injector.log),
        "executive": ex,
        "reference": ref,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro faults",
        description="deterministic fault injection + checkpointed failover demo",
    )
    parser.add_argument("--plan", choices=PLAN_NAMES, default="machine-crash")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--checkpoint-interval", type=float, default=1.0, metavar="S",
        help="virtual seconds between state checkpoints (default 1.0)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="short transient (CI smoke)"
    )
    args = parser.parse_args(argv)
    result = run_demo(
        plan_name=args.plan,
        seed=args.seed,
        quick=args.quick,
        checkpoint_interval_s=args.checkpoint_interval,
    )
    ok = result["rel_err"] < 1e-3 and (
        args.plan == "packet-loss" or result["recoveries"] >= 1
    )
    print("\n" + ("OK: transient completed under faults" if ok else "FAILED"))
    return 0 if ok else 1
