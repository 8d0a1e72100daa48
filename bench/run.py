#!/usr/bin/env python3
"""One harness for the serve path.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--quick] [--record]
    python3 bench/run.py --compare A.json B.json

With ``--workload`` it measures that workload in this process and ends
with the one-line JSON result the benchmark driver reads; without, it
runs all six, one subprocess each, and writes ``bench/out/results.json``.
It finds ``src/`` beside ``bench/`` on its own (no ``PYTHONPATH``
needed) and exits non-zero where there is no program to measure.

Run protocol for one workload: generate the inputs from the seed; one
discarded warm-up call on a few sessions; then measured repeats — each
on a fresh ``SharedInstallation``, ``gc.collect()`` before, tracing off
— until ``--seconds`` of measured wall have passed, and at least
``MIN_REPEATS``.  Where the generator returns several replicas
(``traffic_open_loop``), successive repeats measure successive ones and
the virtual metrics pool them.  Wall metrics are the median over
repeats, printed with quartiles and n.  With ``--trace 1`` one more
repeat runs under ``tracer.Tracer`` for the per-layer table; end-to-end
numbers never come from it.  The oracle runs after all timing.  ``setup_s`` is timed
on fresh processes (``--setup-only``), last.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
TRAJECTORY = BENCH / "trajectory.ndjson"

sys.path.insert(0, str(BENCH))
import envinfo  # noqa: E402  (bench-local; neither needs the program to import)
import metrics  # noqa: E402

MIN_REPEATS = 3
MIN_REPEATS_QUICK = 2
SETUP_RUNS = 5
#: the issue's floor for a measured call; below it a note is printed
MIN_CALL_S = 2.0
DEFAULT_SEED = 1
#: full spans are kept for the first sessions only
KEEP_SESSIONS = 4
_PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


def _bootstrap() -> None:
    """Put the program on the path — for this process and for any
    worker it spawns — or refuse to run without one."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure: {SRC}/repro is missing "
              f"(run from a full checkout)", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # a SIGTERM (the driver's time-out) leaves through the same
    # ``finally`` as a normal exit, so ``stop_children`` still runs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:  # adopt orphaned grandchildren, so stop_children can wait for them too
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: direct children are still stopped


def descendants() -> Dict[int, str]:
    """pid -> command line ('' for a zombie) of every process below this one."""
    parent_of, me = {}, os.getpid()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:  # the field after "(comm) state" is the ppid; comm may hold spaces
                stat = Path(f"/proc/{entry}/stat").read_text()
                parent_of[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                pass  # gone while we looked
    out: Dict[int, str] = {}
    for pid in parent_of:
        p = pid
        while p in parent_of and p != me:
            p = parent_of[p]
        if p == me and pid != me:
            try:
                raw = Path(f"/proc/{pid}/cmdline").read_bytes()
            except OSError:
                raw = b""
            out[pid] = raw.replace(b"\0", b" ").decode(errors="replace").strip()
    return out


def stop_children() -> None:
    """Stop every process this one started and wait until each has
    ended; nothing may outlive a run.

    The one that otherwise does is multiprocessing's resource tracker:
    the standard library starts it with the first shared-memory segment
    (the transport probe behind the fingerprint is enough, so every
    workload has one, inline or not) and leaves it to notice, some time
    after its parent has gone, that it may exit."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes its pipe, so it unlinks nothing live, and waits for it
    if os.path.isdir("/proc"):
        for pid in descendants():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break


# ------------------------------------------------------------- one workload
def _time_setup(workload: str, seed: int, quick: bool, runs: int) -> List[float]:
    """Fresh processes, spawn to ready-to-serve: interpreter start,
    import, installation, generator, op-cache seeding."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)] + (["--quick"] if quick else [])
    samples = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
    return samples


def _rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def _traced_pass(workload: str, inputs, keep: List[str], generator_s: float,
                 untraced_median_s: float):
    """One more repeat under the tracer.  Returns (per-layer values,
    root wall, output digest) and writes ``out/trace_<workload>.json``:
    the per-layer table plus full spans of the first sessions."""
    import tracer as tr
    import workloads as wl

    tracer = tr.Tracer(keep_sessions=keep)
    state = wl.prepare(workload, inputs)  # set-up stays outside the root span
    gc.collect()
    tracer.install()
    try:
        traced = tracer.root(wl.run, workload, inputs, state)
    finally:
        tracer.uninstall()
    layer: Dict[str, float] = {**traced.layer, **tracer.self_s, **tracer.counts}
    if workload == "traffic_open_loop":
        layer["traffic.generator_s"] = generator_s
    lookups = layer.get("serve.opcache.lookups", 0)
    if lookups:
        layer["serve.opcache.useful_ratio"] = (
            layer.get("serve.opcache.exact_hits", 0) + layer.get("serve.opcache.near_hits", 0)
        ) / lookups
    calls = layer.get("schooner.calls", 0)
    if calls:
        layer["schooner.us_per_call"] = 1e6 * layer.get("schooner.self_s", 0.0) / calls
    layer["harness.trace_overhead_ratio"] = tracer.root_wall_s / untraced_median_s
    doc = tracer.chrome_trace()
    doc["workload"] = workload
    doc["root_wall_s"] = tracer.root_wall_s
    doc["per_layer"] = {m.name: float(layer.get(m.name, 0.0)) for m in metrics.PER_LAYER}
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace_{workload}.json").write_text(json.dumps(doc))
    return layer, tracer.root_wall_s, traced.digest()


def _failed_sessions(workload: str, seed: int, inputs, outcome, reference,
                     full_shard_reference: bool):
    """The oracle, after all timing: names of sessions with a wrong or
    broken answer, and (shard workload) the inline reference's wall."""
    import oracle

    local = reference or oracle.LocalReference()
    try:
        bad = oracle.check_steady(outcome.results, seed, local)
    finally:
        if reference is None:
            local.close()
    open_loop = workload == "traffic_open_loop"
    for r in outcome.results:
        # shedding and missed deadlines (a DeadlineExceeded refusal
        # included) are what the open loop measures, not failures; on a
        # closed batch nothing may be shed, degraded or raise
        slo_miss = open_loop and (r.shed or r.deadline_met is False)
        if not all(p["converged"] for p in r.results):
            bad.add(r.name)
        elif not slo_miss and (r.error or r.status != "completed"):
            bad.add(r.name)
    inline_wall = None
    if workload == "steady_warm_exact":
        bad |= oracle.check_warm_exact(outcome.results, outcome.seeding)
    if workload == "steady_cold_shard2":
        t0 = time.perf_counter()
        inline = oracle.shard_reference(inputs.specs, seed, full=full_shard_reference)
        inline_wall = time.perf_counter() - t0
        bad |= oracle.check_shard(outcome.results, inline)
    return bad, inline_wall


def measure(workload: str, seed: int, seconds: float, trace: bool, quick: bool,
            reference=None) -> dict:
    """Measure one workload in this process; returns the full result.
    ``reference`` replaces the oracle's local engine (the self-test
    passes a perturbed one to see the run fail)."""
    import workloads as wl

    notes: List[str] = []
    t0 = time.perf_counter()
    replicas = wl.generate(workload, seed, quick)
    generator_s = time.perf_counter() - t0
    inputs = replicas[0]  # what the traced pass and the shard oracle serve again

    warm = wl.warmup_inputs(workload, inputs)
    wl.run(workload, warm, wl.prepare(workload, warm))

    walls: List[float] = []
    per_point: List[float] = []
    digests: List[str] = []
    outcomes: list = []  # the first pass over the replicas
    # successive repeats measure successive replicas; one repeat more
    # than there are replicas, so that some input is always served twice
    # and ``output_digest_stable`` has two answers to compare
    min_repeats = max(MIN_REPEATS_QUICK if quick else MIN_REPEATS, len(replicas) + 1)
    while len(walls) < min_repeats or sum(walls) < seconds:
        turn = replicas[len(walls) % len(replicas)]
        state = wl.prepare(workload, turn)
        gc.collect()
        t0 = time.perf_counter()
        served = wl.run(workload, turn, state)
        wall = time.perf_counter() - t0
        walls.append(wall)
        per_point.append(1000.0 * wall / max(served.good_points, 1))
        digests.append(served.digest())
        if len(outcomes) < len(replicas):
            outcomes.append(served)
    # every virtual and count metric is over the replicas' pooled
    # sessions: a fixed sample, however many repeats the box had time for
    outcome = wl.pooled(outcomes)
    # read before anything else forks: the traced pass, the parallelism
    # burn and the set-up timers are children too
    rss_mb = _rss_mb(with_children=workload == "steady_cold_shard2")
    call_wall = metrics.quartiles(walls)
    if not quick and min(walls) < MIN_CALL_S:
        notes.append(f"a measured call took {min(walls):.2f} s, under the {MIN_CALL_S:g} s floor")

    layer = root_wall_s = None
    if trace:
        keep = [r.name for r in outcome.results[:KEEP_SESSIONS]]
        layer, root_wall_s, traced_digest = _traced_pass(
            workload, inputs, keep, generator_s, call_wall["median"])
        if traced_digest != digests[0]:  # tracing must not change an answer
            notes.append("the traced repeat answered differently from the untraced one")
            digests[0] = traced_digest  # which the check below then reports

    bad, inline_wall = _failed_sessions(workload, seed, inputs, outcome, reference,
                                        full_shard_reference=trace)
    stable = all(d == digests[i % len(replicas)] for i, d in enumerate(digests))
    if not stable:
        notes.append("output digest differs between repeats of this run")
    wrong_but_good = sum(1 for r in outcome.results if r.name in bad and wl.good(r))
    good_share = (outcome.good_sessions - wrong_but_good) / outcome.offered

    fingerprint = envinfo.fingerprint(ROOT, measure_parallelism=False)
    if layer is not None and workload == "steady_cold_shard2":
        # a full inline serve of the same specs is the scaling base
        parallelism = envinfo.measure_process_parallelism(2)
        fingerprint["process_parallelism_2p"] = round(parallelism, 3)
        layer["serve.shards.scaling_efficiency"] = (
            inline_wall / call_wall["median"] / min(2.0, parallelism)
        )

    setup = _time_setup(workload, seed, quick, 1 if quick else SETUP_RUNS)

    def sampled(values):
        return {**metrics.quartiles(values), "values": list(values)}

    def single(value):
        return sampled([float(value)])

    result = {
        "workload": workload,
        "seed": seed,
        "quick": quick,
        "seconds": seconds,
        "call_wall_s": sampled(walls),
        "sessions_offered": outcome.offered,
        "e2e_samples": len(outcome.e2e),
        "good_points": outcome.good_points,
        "end_to_end": {
            "setup_s": sampled(setup),
            "wall_ms_per_point": sampled(per_point),
            "good_share": single(good_share),
            "virtual_e2e_s_p50": single(outcome.e2e.quantile(0.5)),
            "virtual_e2e_s_p90": single(wl.p90(outcome.e2e)),
            "deadline_met_rate": single(outcome.deadline_met_rate),
            "slo_rate_per_s": single(outcome.slo_rate_per_s),
            "peak_rss_mb": single(rss_mb),
            "output_digest_stable": single(1.0 if stable else 0.0),
        },
        "digest": outcome.digest(),
        "attempted": outcome.offered,
        "failed": len(bad),
        "failed_sessions": sorted(bad)[:20],
        "correct": not bad and stable,
        "notes": notes,
        "fingerprint": fingerprint,
    }
    if layer is not None:
        result["per_layer"] = {m.name: float(layer.get(m.name, 0.0)) for m in metrics.PER_LAYER}
        result["traced_root_wall_s"] = root_wall_s
    return result


# ------------------------------------------------------------------ printing
def _fmt(x: float) -> str:
    return f"{x:.6g}"


def report(result: dict) -> None:
    """Every metric by name with its unit, the clock it is on, and for
    wall metrics the quartiles and sample count."""
    w = result["workload"]
    calls = result["call_wall_s"]
    print(f"== {w}  seed {result['seed']}{'  (quick)' if result['quick'] else ''}: "
          f"{calls['n']} measured calls, median {calls['median']:.3f} s "
          f"(q1 {calls['q1']:.3f}, q3 {calls['q3']:.3f}); "
          f"{result['sessions_offered']} sessions offered, {result['good_points']} good points")
    for m in metrics.END_TO_END:
        v = result["end_to_end"][m.name]
        detail = f"{m.clock}"
        if m.clock == "wall" and v["n"] > 1:
            detail += f"; median of {v['n']}, q1 {_fmt(v['q1'])}, q3 {_fmt(v['q3'])}"
        elif m.name.startswith("virtual_e2e"):
            detail += f"; {result['e2e_samples']} samples"
        print(f"{w}  {m.name} = {_fmt(v['median'])} {m.unit}  [{detail}; {m.better} is better]")
    print(f"{w}  failed_share = {_fmt(1.0 - result['end_to_end']['good_share']['median'])} ratio"
          f"  [count; = 1 - good_share]")
    print(f"{w}  output_digest = {result['digest']}")
    if w == "traffic_open_loop":
        print(f"{w}  note: latency is timed from each session's scheduled arrival on the "
              f"virtual timeline; generator lateness is 0 by construction on a virtual clock")
    if "per_layer" in result:
        print(f"-- {w} per layer (one traced repeat, root {result['traced_root_wall_s']:.3f} s)")
        root = result["traced_root_wall_s"] or 1.0
        for m in metrics.PER_LAYER:
            v = result["per_layer"][m.name]
            share = f"  ({100 * v / root:.1f} % of root)" if m.name in metrics.SELF_TIME_KEYS else ""
            tag = ""
            if m.name == "serve.shards.scaling_efficiency" and w == "steady_cold_shard2":
                # a box that cannot run two interpreters at once cannot
                # exercise the claim: say so instead of passing it
                par = result["fingerprint"]["process_parallelism_2p"]
                vacuous = str(par < envinfo.VACUOUS_BELOW).lower()
                tag = f"  [vacuous: {vacuous}; measured 2-process parallelism {par:.2f}]"
            print(f"{w}  {m.name} = {_fmt(v)} {m.unit}{share}{tag}")
    for note in result["notes"]:
        print(f"{w}  note: {note}")
    if not result["correct"]:
        print(f"{w}  WRONG ANSWER: {result['failed']} of {result['attempted']} sessions failed "
              f"the oracle or the determinism check: {result['failed_sessions']}")


def driver_line(result: dict, trace: bool) -> str:
    """The last line of stdout: exactly the keys the driver reads."""
    if trace:
        table = {m.name: {"value": result["per_layer"][m.name], "unit": m.unit}
                 for m in metrics.PER_LAYER}
    else:
        table = {m.name: {"value": result["end_to_end"][m.name]["median"], "unit": m.unit}
                 for m in metrics.END_TO_END}
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": table,
    })


def exit_code(result: dict) -> int:
    return 0 if result["correct"] else 1


# --------------------------------------------------------------- all workloads
def run_all(args) -> int:
    OUT.mkdir(exist_ok=True)
    results, code = {}, 0
    for w in metrics.WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        path = OUT / f"result_{w}.json"
        path.unlink(missing_ok=True)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))  # the driver line is for machines
        code = code or proc.returncode
        if path.is_file():
            results[w] = json.loads(path.read_text())
    doc = {
        "seed": args.seed,
        "quick": args.quick,
        "fingerprint": envinfo.fingerprint(ROOT, measure_parallelism=True),
        "workloads": results,
    }
    (OUT / "results.json").write_text(json.dumps(doc, indent=1))
    print(f"\nwrote {OUT / 'results.json'}  fingerprint: {json.dumps(doc['fingerprint'])}")
    if args.record:
        record(doc)
    return code


def record(doc: dict) -> None:
    """Append one line per (workload, metric) to the trajectory."""
    fp = doc["fingerprint"]
    with TRAJECTORY.open("a") as out:
        for w, result in doc["workloads"].items():
            rows = [(name, "end_to_end", v) for name, v in result["end_to_end"].items()]
            rows += [(name, "per_layer", {"median": v, "q1": v, "q3": v, "n": 1})
                     for name, v in result.get("per_layer", {}).items()]
            for name, kind, v in rows:
                m = metrics.BY_NAME[name]
                out.write(json.dumps({
                    "commit": fp["commit"], "workload": w, "metric": name, "kind": kind,
                    "unit": m.unit, "clock": m.clock, "seed": doc["seed"],
                    "median": v["median"], "q1": v["q1"], "q3": v["q3"], "n": v["n"],
                    "nproc": fp["nproc"],
                    "process_parallelism_2p": fp.get("process_parallelism_2p"),
                    "python": fp["python"], "numpy": fp["numpy"], "platform": fp["platform"],
                    "dev_shm": fp["dev_shm"], "shard_transport": fp["shard_transport"],
                }) + "\n")
    print(f"appended to {TRAJECTORY}")


# -------------------------------------------------------------------- compare
def _samples(paths: str, workload: str, metric: str) -> List[float]:
    """One side of a comparison: a results.json, or several separated
    by commas (then each file contributes its median)."""
    files = [json.loads(Path(p).read_text()) for p in paths.split(",")]
    cells = [f["workloads"][workload]["end_to_end"][metric] for f in files
             if workload in f["workloads"]]
    if len(cells) == 1:
        return cells[0]["values"]
    return [c["median"] for c in cells]


def compare(a_paths: str, b_paths: str) -> int:
    """choosing-metrics 6.5, one row per (workload, end-to-end metric).
    Exit 1 on any ``regressed`` or ``unresolved``."""
    worst = 0
    print(f"{'workload':<22}{'metric':<22}{'parent':>12}{'change':>12}{'delta':>9}  verdict")
    for w in metrics.WORKLOAD_NAMES:
        for m in metrics.END_TO_END:
            a, b = _samples(a_paths, w, m.name), _samples(b_paths, w, m.name)
            if not a or not b:
                continue
            v = metrics.verdict(m, a, b)
            ma, mb = metrics.quartiles(a)["median"], metrics.quartiles(b)["median"]
            delta = (mb - ma) / abs(ma) if ma else 0.0
            print(f"{w:<22}{m.name:<22}{_fmt(ma):>12}{_fmt(mb):>12}{100 * delta:>8.1f}%  {v}"
                  f"{'  (exact)' if m.exact else f'  (bound {m.bound:g})'}")
            if v in ("regressed", "unresolved"):
                worst = 1
    return worst


# ----------------------------------------------------------------------- main
def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=metrics.WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS,
                    help="measured wall per workload; buys repeats, not bigger inputs")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="add one traced repeat and report the per-layer metrics")
    ap.add_argument("--quick", action="store_true", help="tiny inputs (self-test)")
    ap.add_argument("--record", action="store_true",
                    help="append the full run to bench/trajectory.ndjson")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT.json", "CHANGE.json"))
    ap.add_argument("--manifest", action="store_true", help="print BENCHMARK.json")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.manifest:
        print(json.dumps(metrics.manifest(), indent=2))
        return 0
    if args.compare:
        return compare(*args.compare)
    if args.record and args.workload is not None:
        ap.error("--record needs the full run (drop --workload)")
    _bootstrap()
    try:
        if args.setup_only:
            import workloads as wl

            wl.prepare(args.workload, wl.generate(args.workload, args.seed, args.quick)[0])
            return 0
        if args.workload is None:
            return run_all(args)
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    finally:
        stop_children()  # on every path out, a wrong answer or an exception included
    report(result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result_{args.workload}.json").write_text(json.dumps(result, indent=1))
    print(driver_line(result, bool(args.trace)))
    return exit_code(result)


if __name__ == "__main__":
    sys.exit(main())
