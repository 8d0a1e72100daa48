"""``python -m repro traffic`` — run the stock capacity sweeps.

Executes one or more :data:`~repro.traffic.sweep.STOCK_SWEEPS` specs,
prints per-cell class rows and the knee summary, and can export the
deterministic CSV and the JSON summary for offline plotting.
"""

from __future__ import annotations

import json
from dataclasses import replace

from .sweep import STOCK_SWEEPS, run_sweep

__all__ = ["main"]


def main(argv=None) -> int:
    """``python -m repro traffic [name ...] [--seed N] [--sessions N]
    [--csv PATH] [--json PATH]``

    With no names, runs ``smoke`` and ``overload``.  Exit status is the
    number of sweeps whose knee summary flags a non-monotone tail (a
    sweep that failed to cross a clean capacity cliff)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro traffic",
        description="open-loop capacity sweeps over the serving stack",
    )
    parser.add_argument(
        "sweeps",
        nargs="*",
        choices=[[], *STOCK_SWEEPS],
        help=f"stock sweeps to run (default: smoke, overload; "
        f"available: {', '.join(STOCK_SWEEPS)})",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument(
        "--sessions", type=int, default=None, help="override sessions per cell"
    )
    parser.add_argument("--csv", default=None, help="write aggregate CSV here")
    parser.add_argument("--json", default=None, help="write JSON summary here")
    args = parser.parse_args(argv)

    names = args.sweeps or ["smoke", "overload"]
    failures = 0
    csv_parts = []
    summaries = {}
    for name in names:
        spec = STOCK_SWEEPS[name]
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
        if args.sessions is not None:
            spec = replace(spec, sessions=args.sessions)
        result = run_sweep(spec)
        print(result.render())
        print()
        csv_parts.append(result.csv())
        summaries[name] = result.summary()
        knee = result.knee_summary()
        if any(not arm["monotone_past_knee"] for arm in knee["arms"].values()):
            failures += 1
    if args.csv:
        header, *_ = csv_parts[0].splitlines(keepends=True)
        body = "".join(
            line
            for part in csv_parts
            for line in part.splitlines(keepends=True)[1:]
        )
        with open(args.csv, "w") as fh:
            fh.write(header + body)
        print(f"wrote CSV: {args.csv}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summaries, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote JSON: {args.json}")
    if failures:
        print(f"{failures} sweep(s) show a non-monotone tail past the knee")
    else:
        print("all sweeps crossed a clean knee")
    return failures


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
