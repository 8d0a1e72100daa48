"""Failover ablation — recovery latency per crash plan.

Crashes the F100 nozzle halfway through a transient, once per crash
plan of ``python -m repro faults`` (``machine-crash`` kills its host,
``process-crash`` its process), and measures on the virtual clock how
long the run is disrupted:

* detection latency — crash until the supervisor logs the death: the
  host's (``host-dead``) for a machine crash, the process's
  (``process-dead``, logged by the failed call on it) for a process
  crash;
* recovery latency — crash until the instance is rebound on a
  surviving machine with its checkpointed state restored;
* checkpoints — snapshots written; a process is checkpointed at the
  first clock advance after its declared state changes, so the count
  is the nozzle's ``setnozl`` plus one per restart;
* accuracy — final thrust vs the fault-free reference.  The checkpoint
  holds exactly the declared state, so it must agree to ``run_demo``'s
  1e-9.

Usable both as a pytest-benchmark module and as a script::

    PYTHONPATH=src python benchmarks/bench_failover.py --quick
"""

import argparse
import math
import sys

import pytest

from repro.faults import FaultInjector
from repro.faults.demo import _build_executive, named_plan

#: the crash plans measured by both entry points
PLANS = ("machine-crash", "process-crash")
#: ``run_demo``'s accuracy bar: a failover that lost declared state is
#: off by far more
REL_ERR_MAX = 1e-9


def run_reference(quick: bool = True):
    """The fault-free run every faulted configuration is compared to."""
    transient_s = 0.4 if quick else 1.0
    ref = _build_executive(transient_s, 0.02)
    ref.run_simulation()
    return ref


def measure(reference, plan_name: str, seed: int = 0, quick: bool = True) -> dict:
    """One faulted run; returns the latency/accuracy row for one plan."""
    transient_s = 0.4 if quick else 1.0
    plan = named_plan(plan_name, seed, reference.env.clock.now)
    crash_at = plan.events[-1].at_s  # each plan ends with its crash
    ex = _build_executive(transient_s, 0.02)
    with FaultInjector(env=ex.env, plan=plan):
        ex.run_simulation()

    detected = [
        e for e in ex.supervisor.events
        if e.kind in ("host-dead", "process-dead")
    ]
    failovers = [e for e in ex.supervisor.events if e.kind == "failover"]
    detect_s = detected[0].at_s - crash_at if detected else math.nan
    recover_s = failovers[0].at_s - crash_at if failovers else math.nan
    rel_err = abs(ex.solution.thrust_N - reference.solution.thrust_N) / abs(
        reference.solution.thrust_N
    )
    return {
        "plan": plan_name,
        "checkpoints": ex.supervisor.store.taken,
        "recoveries": ex.supervisor.recoveries,
        "detect_s": detect_s,
        "recover_s": recover_s,
        "rel_err": rel_err,
    }


def row_ok(row: dict) -> bool:
    """Recovered, accurate, and the death logged no later than the
    failover (a NaN detection — an unlogged death — fails)."""
    return (
        row["recoveries"] >= 1
        and row["recover_s"] > 0
        and 0 <= row["detect_s"] <= row["recover_s"]
        and row["rel_err"] <= REL_ERR_MAX
    )


# -- pytest-benchmark entry point -------------------------------------------

@pytest.fixture(scope="module")
def quick_reference():
    return run_reference(quick=True)


@pytest.mark.parametrize("plan_name", PLANS)
def test_recovery_latency(benchmark, quick_reference, plan_name):
    row = benchmark.pedantic(
        lambda: measure(quick_reference, plan_name), rounds=1, iterations=1
    )
    assert row_ok(row), row
    benchmark.extra_info.update(
        {
            "plan": plan_name,
            "checkpoints": row["checkpoints"],
            "recover_virtual_s": round(row["recover_s"], 3),
            "detect_virtual_s": round(row["detect_s"], 3),
            "rel_err": f"{row['rel_err']:.2e}",
        }
    )


# -- script entry point -----------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="recovery latency (virtual s) per crash plan"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quick", action="store_true", help="short transient (CI smoke)"
    )
    args = parser.parse_args(argv)

    reference = run_reference(quick=args.quick)
    print(
        f"reference: thrust {reference.solution.thrust_N / 1e3:.2f} kN over "
        f"{reference.env.clock.now:.1f} virtual s; crash at halfway\n"
    )
    print("plan           checkpoints  detect-s  recover-s   rel-err")
    ok = True
    for plan_name in PLANS:
        row = measure(reference, plan_name, seed=args.seed, quick=args.quick)
        ok &= row_ok(row)
        print(
            f"{row['plan']:<13}  {row['checkpoints']:11d}  {row['detect_s']:8.3f}  "
            f"{row['recover_s']:9.3f}  {row['rel_err']:9.2e}"
        )
    print(
        "\nOK: every crash detected and recovered, thrust within 1e-9" if ok
        else "\nFAILED: a run missed detection, recovery or accuracy"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
