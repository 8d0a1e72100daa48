"""``python -m repro`` — a guided tour of the reproduction.

With no arguments, runs the headline demonstration: the F100 in the
prototype executive, all-local and then distributed per the paper's
Table 2, with the correctness check and the modelled 1993 cost.

Four subcommands run the serving stack's scenarios and print their
records (:mod:`repro.records`) as tables, or as JSON lines with
``--json``:

* ``serve`` serves many concurrent sessions over one shared
  installation, optionally sharded across OS processes
  (``--mode shard --workers N``; see :mod:`repro.serve.demo`);
* ``traffic`` runs open-loop capacity sweeps with arrival-driven
  traffic (see :mod:`repro.traffic.sweep`);
* ``chaos`` runs the deterministic chaos-soak harness over the serving
  stack (see :mod:`repro.resilience.soak`);
* ``faults`` runs the fault-injection/failover demo (see
  :mod:`repro.faults.demo`).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


#: options more than one subcommand takes, each with one meaning;
#: ``None`` means the scenario's own value
SHARED_OPTIONS = {
    "--seed": dict(type=int, default=None, help="seed (default: the scenario's)"),
    "--sessions": dict(
        type=_positive_int, default=None,
        help="session count (default: the scenario's)",
    ),
    "--mode": dict(
        choices=("inline", "shard"), default=None,
        help="serve inline, or shard sessions across OS worker processes "
             "(rows are identical)",
    ),
}


def _subcommand(subparsers, name: str, run, about: str, *shared: str):
    """Add subcommand ``name``, which ``run(args)`` carries out, with
    the ``shared`` options and ``--json``."""
    parser = subparsers.add_parser(name, help=about, description=about)
    for flag in shared:
        parser.add_argument(flag, **SHARED_OPTIONS[flag])
    parser.add_argument(
        "--json", action="store_true",
        help="write JSON lines to stdout instead of tables",
    )
    parser.set_defaults(run=run)
    return parser


def _overridden(scenario, args, *names):
    """``scenario`` (a frozen dataclass) with each shared option in
    ``names`` that was given on the command line."""
    given = {n: getattr(args, n) for n in names if getattr(args, n) is not None}
    return replace(scenario, **given)


def _serve(args):
    from .serve import serve_sessions
    from .serve.demo import build_session_specs

    specs = build_session_specs(
        args.sessions, classes=args.classes, points=args.points,
        transient_every=args.transient_every, op_cache=args.op_cache,
    )
    report = serve_sessions(
        specs, mode=args.mode, workers=args.workers, dedup=not args.no_dedup,
    )
    return report.records(), 0, ""


def _traffic(args):
    from .traffic.sweep import STOCK_SWEEPS, run_sweep

    records, csv_parts, failures = [], [], 0
    for name in args.sweeps or ["smoke", "overload"]:
        result = run_sweep(_overridden(STOCK_SWEEPS[name], args, "seed", "sessions"))
        sweep = result.records()
        records += sweep
        csv_parts.append(result.csv())
        failures += any(
            r["record"] == "knee" and not r["monotone_past_knee"] for r in sweep
        )
    notes = []
    if args.csv:
        header = csv_parts[0].splitlines(keepends=True)[0]
        body = "".join(
            line
            for part in csv_parts
            for line in part.splitlines(keepends=True)[1:]
        )
        with open(args.csv, "w") as fh:
            fh.write(header + body)
        notes.append(f"wrote CSV: {args.csv}")
    notes.append(
        f"{failures} sweep(s) show a non-monotone tail past the knee"
        if failures else "all sweeps crossed a clean knee"
    )
    return records, failures, "\n".join(notes)


def _chaos(args):
    from .resilience.soak import STOCK_CONFIGS, run_soak

    records, failures = [], 0
    for name in args.configs or list(STOCK_CONFIGS):
        soak = run_soak(
            _overridden(STOCK_CONFIGS[name], args, "seed", "sessions", "mode")
        )
        records += soak.records()
        failures += not soak.ok
    return records, failures, (
        f"{failures} config(s) violated soak invariants"
        if failures else "all soak invariants hold"
    )


def _faults(args):
    from .faults.demo import demo_records, run_demo
    from .schooner.tracing import render_summary

    result = run_demo(plan_name=args.plan, seed=args.seed, quick=args.quick)
    notes = render_summary(result["executive"].env.traces) + "\n\n" + (
        "OK: transient completed under faults" if result["ok"] else "FAILED"
    )
    return demo_records(result), 0 if result["ok"] else 1, notes


def build_parser() -> argparse.ArgumentParser:
    from .faults.demo import PLAN_NAMES
    from .resilience.soak import STOCK_CONFIGS
    from .traffic.sweep import STOCK_SWEEPS

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="A guided tour of the reproduction (no arguments), or "
                    "one of the serving stack's scenarios.",
    )
    sub = parser.add_subparsers(dest="command", title="subcommands")

    serve = _subcommand(
        sub, "serve", _serve,
        "serve many concurrent engine sessions over one shared installation",
        "--sessions", "--mode",
    )
    serve.set_defaults(sessions=16, mode="inline")
    serve.add_argument(
        "--workers", type=_positive_int, default=4,
        help="shard-mode worker process count",
    )
    serve.add_argument("--classes", type=int, default=4, help="distinct workload classes")
    serve.add_argument("--points", type=int, default=3, help="steady points per session")
    serve.add_argument(
        "--no-dedup", action="store_true",
        help="disable the workload cache (every session runs live)",
    )
    serve.add_argument(
        "--transient-every", type=int, default=0,
        help="every Nth session also runs a 0.2s transient (0 = none)",
    )
    serve.add_argument(
        "--op-cache", action="store_true",
        help="share solved operating points installation-wide (exact hits "
             "skip the solve, near hits warm-start from neighbours)",
    )

    traffic = _subcommand(
        sub, "traffic", _traffic,
        "open-loop capacity sweeps over the serving stack; exit status is "
        "the number of sweeps with a non-monotone tail past the knee",
        "--seed", "--sessions",
    )
    traffic.add_argument(
        "sweeps", nargs="*", choices=[[], *STOCK_SWEEPS],
        help=f"stock sweeps to run (default: smoke, overload; "
             f"available: {', '.join(STOCK_SWEEPS)})",
    )
    traffic.add_argument("--csv", default=None, help="write aggregate CSV here")

    chaos = _subcommand(
        sub, "chaos", _chaos,
        "deterministic chaos soak over the serving stack; exit status is "
        "the number of configs with invariant violations",
        "--seed", "--sessions", "--mode",
    )
    chaos.add_argument(
        "configs", nargs="*", choices=[[], *STOCK_CONFIGS],
        help=f"stock configs to run (default: all of {', '.join(STOCK_CONFIGS)})",
    )

    faults = _subcommand(
        sub, "faults", _faults,
        "deterministic fault injection + checkpointed failover demo",
        "--seed",
    )
    faults.set_defaults(seed=0)
    faults.add_argument("--plan", choices=PLAN_NAMES, default="machine-crash")
    faults.add_argument(
        "--quick", action="store_true", help="short transient (CI smoke)"
    )
    return parser


def _tour() -> int:
    from repro.avs import render_network
    from repro.core import NPSSExecutive

    print(__doc__.strip().splitlines()[0])
    print()
    executive = NPSSExecutive()
    modules = executive.build_f100_network()
    modules["system"].set_param("transient seconds", 0.5)
    modules["combustor"].set_param("fuel flow", 1.35)
    modules["combustor"].set_param("fuel flow-op", 1.5)

    print(render_network(executive.editor))
    print()
    executive.execute()
    local = executive.solution.thrust_N
    print(f"all-local: thrust {local/1e3:.1f} kN, "
          f"N1 {executive.solution.n1:.4f}, T4 {executive.solution.t4:.0f} K")

    for module, machine in {
        "combustor": "sgi4d340.cs.arizona.edu",
        "duct-bypass": "cray-ymp.lerc.nasa.gov",
        "duct-core": "cray-ymp.lerc.nasa.gov",
        "nozzle": "sgi4d420.lerc.nasa.gov",
        "shaft-low": "rs6000.lerc.nasa.gov",
        "shaft-high": "rs6000.lerc.nasa.gov",
    }.items():
        modules[module].set_param("remote machine", machine)
    executive.execute()
    remote = executive.solution.thrust_N
    print(f"Table-2 distributed: thrust {remote/1e3:.1f} kN "
          f"(agrees to {abs(remote-local)/local:.1e}), "
          f"{executive.host.remote_call_count} RPCs across "
          f"{len(executive.manager.active_lines)} lines, "
          f"{executive.env.clock.now:.0f} modelled seconds")
    print()
    print("more: python -m repro --help, examples/*.py, benchmarks/report.py, "
          "EXPERIMENTS.md")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command is None:
        return _tour()
    from .records import render

    records, status, notes = args.run(args)
    print(render(records, args.json))
    if notes and not args.json:
        print()
        print(notes)
    return status


if __name__ == "__main__":
    sys.exit(main())
