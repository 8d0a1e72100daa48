"""Capacity knee under open-loop traffic: ``python benchmarks/bench_traffic_sweep.py``.

The ``repro.traffic`` acceptance number.  Runs the stock ``smoke`` and
``overload`` sweeps — (arrival rate × class mix × admission policy)
grids served open-loop on fresh installations — and distils each to its
knee summary: per class, the highest offered rate that still clears the
95% task-level deadline-met bar.

Gated properties (``--gate`` against ``benchmarks/BENCH_traffic.json``):

* **a knee exists** — on the overload spec every deadline-carrying
  class has some swept rate that meets the target, i.e. the rate axis
  actually straddles capacity;
* **degradation is monotone past the knee** — attainment never recovers
  at higher offered load, so the knee is a real capacity cliff, not
  sampling noise;
* **the committed baseline reproduces exactly** — every knee rate and
  every met-by-rate point is a pure virtual-time quantity, so any drift
  is a behaviour change, not machine noise.  A sweep cell's stream is
  seeded from (seed, mix, rate) alone, and two runs of it produce
  identical digests (asserted in tests/traffic/).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: deterministic virtual-time numbers must reproduce within float noise
DRIFT_TOLERANCE = 1e-6

SWEEPS = ("smoke", "overload")


def measure() -> dict:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.traffic import STOCK_SWEEPS, run_sweep

    out = {}
    for name in SWEEPS:
        result = run_sweep(STOCK_SWEEPS[name])
        knee = result.knee_summary()
        out[name] = {
            "seed": knee["seed"],
            "met_target": STOCK_SWEEPS[name].met_target,
            "sessions_per_cell": STOCK_SWEEPS[name].sessions,
            "cells": len(result.reports),
            "arms": knee["arms"],
        }
    return out


def check(current: dict, baseline: dict | None) -> list:
    failures = []
    for name, sweep in current.items():
        for arm, info in sweep["arms"].items():
            if not info["monotone_past_knee"]:
                failures.append(
                    f"{name}:{arm}: deadline-met rate recovers past the knee "
                    f"({info['met_by_rate']}) — not a capacity cliff"
                )
        if name == "overload" and any(
            info["knee_rate"] is None for info in sweep["arms"].values()
        ):
            failures.append(
                f"{name}: some class never meets the target at any swept "
                f"rate — the rate axis does not straddle capacity"
            )
    if baseline is not None:
        for name, sweep in current.items():
            base_sweep = baseline.get(name)
            if base_sweep is None:
                failures.append(f"{name}: missing from committed baseline")
                continue
            for arm, info in sweep["arms"].items():
                base = base_sweep["arms"].get(arm)
                if base is None:
                    failures.append(f"{name}:{arm}: missing from baseline")
                    continue
                if (info["knee_rate"] is None) != (base["knee_rate"] is None) or (
                    info["knee_rate"] is not None
                    and abs(info["knee_rate"] - base["knee_rate"]) > DRIFT_TOLERANCE
                ):
                    failures.append(
                        f"{name}:{arm}.knee_rate: {info['knee_rate']} != "
                        f"committed {base['knee_rate']}"
                    )
                for rate, met in info["met_by_rate"].items():
                    bmet = base["met_by_rate"].get(rate)
                    if bmet is None or met is None:
                        if bmet != met:
                            failures.append(
                                f"{name}:{arm}.met_by_rate[{rate}]: "
                                f"{met} != committed {bmet}"
                            )
                        continue
                    if abs(met - bmet) > DRIFT_TOLERANCE:
                        failures.append(
                            f"{name}:{arm}.met_by_rate[{rate}]: {met} != "
                            f"committed {bmet} (virtual-time numbers must "
                            f"reproduce exactly)"
                        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", metavar="BASELINE", type=Path, default=None,
        help="baseline JSON to gate against (e.g. benchmarks/BENCH_traffic.json)",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="shorthand for --check benchmarks/BENCH_traffic.json",
    )
    parser.add_argument(
        "--write", metavar="OUT", type=Path, default=None,
        help="where to write this run's numbers (the CI artifact)",
    )
    args = parser.parse_args(argv)
    if args.gate and args.check is None:
        args.check = Path(__file__).resolve().parent / "BENCH_traffic.json"

    current = measure()
    print(json.dumps(current, indent=2))
    if args.write is not None:
        args.write.write_text(json.dumps(current, indent=2) + "\n")
        print(f"wrote {args.write}")

    baseline = None
    if args.check is not None:
        baseline = json.loads(args.check.read_text())
    failures = check(current, baseline)
    if failures:
        print("\nTRAFFIC KNEE GATE FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    knees = ", ".join(
        f"{name}:{arm.rsplit('|', 1)[-1]}@{info['knee_rate']}/s"
        for name, sweep in current.items()
        for arm, info in sweep["arms"].items()
    )
    print(f"\ntraffic knee gate OK: {knees}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
