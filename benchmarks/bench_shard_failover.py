"""Shard failover cost: ``python benchmarks/bench_shard_failover.py``.

Serves the ``bench_serve`` workload twice over 4 workers with dedup off
— once uninterrupted, once with a seeded SIGKILL of one busy worker at
its first wave — and holds the self-healing pool to both halves of its
contract:

* **digest parity** — the killed run's per-session rows must be
  bitwise-identical to the unkilled run's (which itself must equal
  inline).  Recovery that changes any answer fails the bench outright.
* **recovery_overhead_ratio** — the extra wall the kill cost,
  ``(killed_wall - unkilled_wall) / lost_shard_wall``, where
  ``lost_shard_wall`` is the killed shard's episode wall in the
  unkilled run (the work that had to be redone).  Killing a worker
  mid-wave forfeits at most that shard's episode, so the overhead must
  stay under 1.5x the lost work — respawn, re-open, and op-store
  re-seed ride inside the margin.

The accounting is also gated exactly: one crash on the targeted shard,
exit code ``-SIGKILL``, zero crashes elsewhere.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

#: recovery may cost at most this multiple of the lost shard's work
RECOVERY_OVERHEAD_CEILING = 1.5
#: tolerated relative regression for deterministic metrics
GATE_MARGIN = 0.20

SESSIONS = 32
CLASSES = 4
POINTS = 3
WORKERS = 4


def measure() -> dict:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.faults.plan import FaultPlan, KillShardWorker
    from repro.serve.demo import build_session_specs
    from repro.serve import ShardPool, serve_sessions, serve_sessions_sharded
    from repro.serve.shards import assign_shards

    specs = build_session_specs(SESSIONS, classes=CLASSES, points=POINTS)
    buckets = assign_shards(list(enumerate(specs)), WORKERS)
    victim = max(range(WORKERS), key=lambda w: len(buckets[w]))
    plan = FaultPlan(
        seed=1,
        events=(KillShardWorker(at_s=0.0, shard=victim, phase="wave", wave=0),),
    )

    inline = serve_sessions(specs, dedup=False)
    inline_rows = [(r.name, r.digest, r.virtual_s) for r in inline.results]

    def serve_on_new_pool(kill_plan=None):
        """One serve on a pool spawned for it; spawn and close are timed."""
        t0 = time.perf_counter()
        with ShardPool(WORKERS) as pool:
            pool.arm_kills(kill_plan)
            report = serve_sessions_sharded(specs, pool, dedup=False)
        return report, time.perf_counter() - t0

    unkilled, unkilled_wall = serve_on_new_pool()
    killed, killed_wall = serve_on_new_pool(plan)

    unkilled_rows = [(r.name, r.digest, r.virtual_s) for r in unkilled.results]
    killed_rows = [(r.name, r.digest, r.virtual_s) for r in killed.results]
    parity = killed_rows == unkilled_rows == inline_rows

    rows = {r["shard"]: r for r in killed.shard_rows}
    crashes = {w: rows[w]["crashes"] for w in rows}
    lost_shard_wall = next(
        r["wall_s"] for r in unkilled.shard_rows if r["shard"] == victim
    )
    overhead = max(0.0, killed_wall - unkilled_wall)
    ratio = overhead / lost_shard_wall if lost_shard_wall > 0 else 0.0

    return {
        "sessions": SESSIONS,
        "classes": CLASSES,
        "points_per_session": POINTS,
        "workers": WORKERS,
        "victim_shard": victim,
        "victim_sessions": len(buckets[victim]),
        "unkilled_wall_s": round(unkilled_wall, 4),
        "killed_wall_s": round(killed_wall, 4),
        "lost_shard_wall_s": round(lost_shard_wall, 4),
        "recovery_overhead_s": round(overhead, 4),
        "recovery_overhead_ratio": round(ratio, 3),
        "recovery_wall_s": round(rows[victim]["recovery_wall_s"], 4),
        "crashes_on_victim": crashes[victim],
        "crashes_elsewhere": sum(c for w, c in crashes.items() if w != victim),
        "victim_exitcodes": rows[victim].get("crash_exitcodes", []),
        "digests_equal_to_unkilled": parity,
        "session_virtual_s": round(inline.results[0].virtual_s, 6),
    }


def check(current: dict, baseline: dict) -> list:
    failures = []

    # exactness first: recovery that changes any answer is wrong
    if not current["digests_equal_to_unkilled"]:
        failures.append(
            "digests_equal_to_unkilled: the killed serve diverged from the "
            "uninterrupted run"
        )

    # the kill must actually have fired, exactly once, on the victim
    if current["crashes_on_victim"] != 1 or current["crashes_elsewhere"] != 0:
        failures.append(
            f"crash accounting: expected exactly 1 crash on shard "
            f"{current['victim_shard']}, got {current['crashes_on_victim']} "
            f"there and {current['crashes_elsewhere']} elsewhere"
        )
    if current["victim_exitcodes"] != [-signal.SIGKILL]:
        failures.append(
            f"victim_exitcodes: expected [-{signal.SIGKILL}], "
            f"got {current['victim_exitcodes']}"
        )

    # recovery cost: bounded by the work the kill actually destroyed
    if current["recovery_overhead_ratio"] > RECOVERY_OVERHEAD_CEILING:
        failures.append(
            f"recovery_overhead_ratio: {current['recovery_overhead_ratio']:.3f} "
            f"over the {RECOVERY_OVERHEAD_CEILING}x ceiling "
            f"(lost {current['lost_shard_wall_s']}s of shard work, paid "
            f"{current['recovery_overhead_s']}s extra wall; baseline ratio "
            f"{baseline['recovery_overhead_ratio']:.3f})"
        )

    # deterministic: per-session virtual time, compared absolutely
    reg = current["session_virtual_s"] / baseline["session_virtual_s"] - 1.0
    if reg > GATE_MARGIN:
        failures.append(
            f"session_virtual_s: {current['session_virtual_s']} is {reg:+.1%} "
            f"vs baseline {baseline['session_virtual_s']} (gate {GATE_MARGIN:.0%})"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", metavar="BASELINE", type=Path, default=None,
        help="baseline JSON to gate against "
             "(e.g. benchmarks/BENCH_shard_failover.json)",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="shorthand for --check benchmarks/BENCH_shard_failover.json",
    )
    parser.add_argument(
        "--write", metavar="OUT", type=Path, default=None,
        help="where to write this run's numbers (the CI artifact)",
    )
    args = parser.parse_args(argv)
    if args.gate and args.check is None:
        args.check = Path(__file__).resolve().parent / "BENCH_shard_failover.json"

    current = measure()
    print(json.dumps(current, indent=2))
    if args.write is not None:
        args.write.write_text(json.dumps(current, indent=2) + "\n")
        print(f"wrote {args.write}")
    if args.check is None:
        return 0

    baseline = json.loads(args.check.read_text())
    failures = check(current, baseline)
    if failures:
        print(f"\nFAILOVER GATE FAILED vs {args.check}:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"\nfailover gate OK vs {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
