"""The ``python -m repro serve`` demo: a multi-tenant serving run.

Builds ``n`` sessions drawn from a few workload *classes* (distinct
fuel-flow ladders over the Table-2 all-remote placement — the "several
users asked for nearly the same study" shape of a real installation),
serves them concurrently, and prints the per-session and aggregate
numbers: who ran live, who replayed from the workload cache, virtual
seconds each, and points/sec of wall-clock throughput.
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional, Sequence

from .scheduler import ServeReport, serve_sessions
from .session import SessionSpec

__all__ = ["build_session_specs", "main"]

#: base fuel flows of the demo's workload classes, kg/s
CLASS_BASE_WF = (1.30, 1.38, 1.46, 1.54)


def build_session_specs(
    n: int,
    classes: int = 4,
    points: int = 3,
    transient_every: int = 0,
    op_cache: bool = False,
) -> List[SessionSpec]:
    """``n`` sessions cycling through ``classes`` workload classes.

    Sessions of the same class share a workload key, so with dedup on
    the first of each class runs live and the rest replay.  Class ``c``
    solves ``points`` steady points stepping up from ``CLASS_BASE_WF[c]``;
    with ``transient_every`` > 0 every that-many-th session also runs a
    short transient from its last point.  ``op_cache=True`` opts every
    session into the installation-wide operating-point cache (the
    class ladders overlap, so later sessions land exact/near hits).
    """
    classes = max(1, min(classes, len(CLASS_BASE_WF)))
    specs = []
    for i in range(n):
        c = i % classes
        base = CLASS_BASE_WF[c]
        wf_points = tuple(round(base + 0.04 * j, 6) for j in range(points))
        transient_s = 0.2 if transient_every and (i % transient_every == 0) else 0.0
        specs.append(
            SessionSpec(
                name=f"session-{i:02d}",
                points=wf_points,
                transient_s=transient_s,
                op_cache=op_cache,
            )
        )
    return specs


def main(argv: Optional[Sequence[str]] = None) -> ServeReport:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve many concurrent engine sessions over one shared installation.",
    )
    parser.add_argument("--sessions", type=int, default=16, help="number of sessions")
    parser.add_argument("--classes", type=int, default=4, help="distinct workload classes")
    parser.add_argument("--points", type=int, default=3, help="steady points per session")
    parser.add_argument(
        "--mode", choices=("inline", "shard"), default="inline",
        help="scheduler mode (results are identical; inline is the baseline; "
             "shard deals sessions across OS worker processes)",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="shard-mode worker process count",
    )
    parser.add_argument(
        "--transport", choices=("auto", "pipe", "shm"), default="auto",
        help="shard-mode data plane: 'shm' ships large payloads through "
             "per-worker shared-memory rings, 'pipe' stays on framed pipes, "
             "'auto' probes and prefers shm",
    )
    parser.add_argument(
        "--no-dedup", action="store_true",
        help="disable the workload cache (every session runs live)",
    )
    parser.add_argument(
        "--transient-every", type=int, default=0,
        help="every Nth session also runs a 0.2s transient (0 = none)",
    )
    parser.add_argument(
        "--op-cache", action="store_true",
        help="share solved operating points installation-wide (exact hits "
             "skip the solve, near hits warm-start from neighbours)",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    args = parser.parse_args(argv)

    specs = build_session_specs(
        args.sessions, classes=args.classes, points=args.points,
        transient_every=args.transient_every, op_cache=args.op_cache,
    )
    report = serve_sessions(
        specs, mode=args.mode, workers=args.workers, dedup=not args.no_dedup,
        transport=args.transport,
    )

    if args.json:
        payload = report.summary()
        payload["sessions_detail"] = [
            {
                "name": r.name,
                "replayed": r.replayed,
                "virtual_s": r.virtual_s,
                "points": len(r.results),
                "digest": r.digest[:16],
            }
            for r in report.results
        ]
        print(json.dumps(payload, indent=2))
        return report

    workers_note = f", {report.workers} worker processes" if report.mode == "shard" else ""
    print(f"serving {report.sessions} sessions ({report.mode} mode{workers_note}, dedup "
          f"{'off' if args.no_dedup else 'on'})")
    print(f"{'session':<12} {'ran':<8} {'points':>6} {'virtual s':>10}  digest")
    for r in report.results:
        ran = "replay" if r.replayed else "live"
        print(f"{r.name:<12} {ran:<8} {len(r.results):>6} {r.virtual_s:>10.3f}  "
              f"{r.digest[:16]}")
    print(
        f"\n{report.live} live + {report.replayed} replayed in "
        f"{report.wall_s * 1e3:.1f} ms wall — {report.points_per_s:.0f} points/s, "
        f"{report.sessions_per_s:.1f} sessions/s, "
        f"{report.aggregate_virtual_s:.1f} aggregate virtual s"
    )
    if args.op_cache:
        print(
            f"op-point cache: {report.op_exact} exact (solve skipped), "
            f"{report.op_near} near (warm-started), {report.op_miss} cold"
        )
    if report.shard_rows:
        for row in report.shard_rows:
            print(
                f"shard {row['shard']}: {row['sessions']} sessions "
                f"({row['live']} live + {row['replayed']} replayed), "
                f"{row['points']} points in {row['wall_s'] * 1e3:.1f} ms"
            )
    return report


if __name__ == "__main__":  # pragma: no cover
    main()
