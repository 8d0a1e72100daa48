"""The contract's one generator, and how a fresh run is held to the
committed ``golden.json``.

``generate()`` drives only public entry points, as a user would, and
returns every row of the contract:

* ``workload/<w>/<seed>/<session>`` — one row per session of the six
  ``bench/`` workloads at ``--quick`` size, seeds 1 and 7, through
  ``bench/workloads.py``'s own ``generate``/``prepare``/``run``;
  ``serve/<w>/<seed>/<k>`` — the op-cache and replay counts of each
  serve those calls made; ``metrics/<w>/<seed>`` — the virtual
  end-to-end metrics and counts as ``bench/workloads.py`` reduces them;
* ``batch/<batch>/<session>`` — the seven three-way batches and the
  built-once mixed batch (``scenarios.py``);
* ``chaos/<config>`` — the disposition counts of each stock soak;
* ``faults/<plan>`` — each ``python -m repro faults --quick`` plan's
  outcome, and ``faults/<plan>/injection/<k>`` and
  ``faults/<plan>/recovery/<k>`` each fault it fired and each death,
  and failover its supervisor logged; ``failover/<plan>`` —
  ``benchmarks/bench_failover.py``'s row per crash plan;
  ``crash/<kind>/<event>`` — the outcome of each crash-matrix run
  (``scenarios.py``);
* ``transient/floor`` — Table 2's transient on both dispatch paths;
* ``gate/<script>`` — every field of a ``benchmarks/BENCH_*.json`` not
  read off the host clock, from that script's own ``measure()``;
* ``report/<line>`` — ``benchmarks/report.py``'s stdout, verbatim.

A row is a flat JSON object; floats are written with ``repr``, which
round-trips, so a one-ulp move is a move.  Rows are compared field by
field on their JSON text (``0.0`` and ``-0.0``, ``1`` and ``1.0`` differ).
A session row keeps its physics apart from its clocks: ``results``
hashes every point field but the clock reading ``virtual_s``, which
``point_virtual_s`` lists per point, so a change that only moves the
modelled clock leaves every ``results`` hash (and ``--explain`` says
"physics held").
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib.util
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.faults.demo import PLAN_NAMES, demo_records, run_demo
from repro.resilience.soak import STOCK_CONFIGS, run_soak
from repro.serve import SharedInstallation, serve_sessions

from .scenarios import (
    BATCHES,
    CRASH_CASES,
    CRASH_EVENTS,
    crash_plan,
    crash_rel_errors,
    from_lerc,
    mixed_batch,
    run_transient,
    serve_crash,
)

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

WORKLOAD_SEEDS = (1, 7)
#: ``benchmarks/bench_<name>.py`` whose ``BENCH_*.json`` holds exact fields
GATES = ("chaos_serve", "opcache", "serve", "shard_serve", "shard_failover",
         "traffic_sweep", "transient_gate")
#: row fields a trace digest moves alone: the session's own digest and
#: the bench's output digest over it
DIGEST_FIELDS = ("digest", "output_digest")
#: row fields that say what a session computed, not when or at what cost
PHYSICS_FIELDS = ("status", "results")


def fingerprint() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def results_hash(result) -> str:
    """sha256 of a session's physics: every field of every point but
    its clock reading ``virtual_s``, and the transient, exact bits
    (``json`` writes floats with ``repr``, which round-trips)."""
    points = [{k: v for k, v in point.items() if k != "virtual_s"} for point in result.results]
    body = json.dumps([points, result.transient], sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


def session_row(result) -> dict:
    return {
        "name": result.name,
        "status": result.status,
        "replayed": result.replayed,
        "digest": result.digest,
        "virtual_s": result.virtual_s,
        "wait_s": result.wait_s,
        "deadline_met": result.deadline_met,
        "shed_reason": result.shed_reason,
        "results": results_hash(result),
        "point_virtual_s": [point.get("virtual_s") for point in result.results],
        "traces": result.traces,
        "messages": result.messages,
        "payload_bytes": result.payload_bytes,
        "header_bytes": result.header_bytes,
    }


# ------------------------------------------------------------------ sources
@functools.lru_cache(maxsize=None)
def _script(path: Path):
    """A private copy of a script outside the package: its file is
    read, never changed, and nothing else sees the copy."""
    spec = importlib.util.spec_from_file_location(f"contract_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def _same_sys_path():
    """The benchmark scripts put their own directories on ``sys.path``."""
    saved = list(sys.path)
    try:
        yield
    finally:
        sys.path[:] = saved


class _Recorder:
    """``repro.serve`` as the copy of ``bench/workloads.py`` sees it:
    every ``serve_sessions`` report is kept, in call order."""

    def __init__(self):
        self.reports = []

    def serve_sessions(self, *args, **kw):
        report = serve_sessions(*args, **kw)
        self.reports.append(report)
        return report


def _workload_rows() -> List[dict]:
    wl = _script(ROOT / "bench" / "workloads.py")
    rows = []
    for name in wl.SIZES:
        for seed in WORKLOAD_SEEDS:
            wl.serve = recorder = _Recorder()
            outcomes = [
                wl.run(name, inputs, wl.prepare(name, inputs))
                for inputs in wl.generate(name, seed, quick=True)
            ]
            reports = recorder.reports + [
                rep.report for o in outcomes for rep in (o.traffic[0] if o.traffic else ())
            ]
            outcome = wl.pooled(outcomes)
            tag = f"{name}/{seed}"
            rows += [{"row": f"workload/{tag}/{r.name}", **session_row(r)}
                     for r in outcome.results]
            rows += [
                {"row": f"serve/{tag}/{k}", "op_exact": rep.op_exact, "op_near": rep.op_near,
                 "op_miss": rep.op_miss, "cache_hits": rep.cache_hits, "parked": rep.parked}
                for k, rep in enumerate(reports)
            ]
            rows.append({
                "row": f"metrics/{tag}",
                "offered": outcome.offered,
                "good_sessions": outcome.good_sessions,
                "good_points": outcome.good_points,
                "e2e_samples": len(outcome.e2e),
                "virtual_e2e_s_p50": outcome.e2e.quantile(0.5),
                "virtual_e2e_s_p90": wl.p90(outcome.e2e),
                "deadline_met_rate": outcome.deadline_met_rate,
                "slo_rate_per_s": outcome.slo_rate_per_s,
                "output_digest": outcome.digest(),
                # the shard rows' busy time and imbalance are host seconds
                **{k: v for k, v in outcome.layer.items() if not k.startswith("serve.shards.")},
            })
    return rows


def _batch_rows() -> List[dict]:
    served = [(name, serve_sessions(make(), **kw)) for name, (make, kw) in sorted(BATCHES.items())]
    served.append(("mixed", serve_sessions(mixed_batch() + [from_lerc()],
                                           installation=SharedInstallation.standard(),
                                           dedup=False)))
    return [{"row": f"batch/{name}/{r.name}", **session_row(r)}
            for name, report in served for r in report.results]


def _chaos_rows() -> List[dict]:
    rows = []
    for name, config in STOCK_CONFIGS.items():
        soak = run_soak(config)
        rep = soak.report
        rows.append({
            "row": f"chaos/{name}",
            "sessions": rep.sessions,
            "completed": rep.completed,
            "degraded": rep.degraded,
            "shed": rep.shed,
            "parked": rep.parked,
            "deadline_met": rep.deadline_met,
            "deadline_missed": rep.deadline_missed,
            "shard_crashes": [row["crashes"] for row in rep.shard_rows or ()],
            "replay_identical": soak.replay_identical,
            "solo_checked": soak.solo_checked,
            "solo_points_checked": soak.solo_points_checked,
        })
    return rows


#: the ``faults`` record's fields a row holds
FAULT_FIELDS = ("checkpoints", "recoveries", "end_virtual_s", "thrust_N", "rel_err", "digest")


def _fault_rows() -> List[dict]:
    rows = []
    for plan in PLAN_NAMES:
        head, *log = demo_records(run_demo(plan, seed=0, quick=True))
        rows.append({"row": f"faults/{plan}", **{k: head[k] for k in FAULT_FIELDS}})
        seen = {"injection": 0, "recovery": 0}
        for record in log:
            kind = record.pop("record")
            rows.append({"row": f"faults/{plan}/{kind}/{seen[kind]}", **record})
            seen[kind] += 1
    return rows


def _failover_rows() -> List[dict]:
    rows = []
    bench = _script(ROOT / "benchmarks" / "bench_failover.py")
    reference = bench.run_reference(quick=True)
    for plan in bench.PLANS:
        row = bench.measure(reference, plan, quick=True)
        rows.append({"row": f"failover/{plan}", "checkpoints": row["checkpoints"],
                     "detect_s": row["detect_s"], "recover_s": row["recover_s"]})
    return rows


def _crash_rows() -> List[dict]:
    rows = []
    reference = serve_crash()
    for kind in sorted(CRASH_CASES):
        for event in CRASH_EVENTS:
            result = serve_crash(fault_plan=crash_plan(kind, event))
            worst = max(crash_rel_errors(result, reference), default=0.0)
            rows.append({
                "row": f"crash/{kind}/{event.__name__}",
                "status": result.status,
                "error": result.error.split(":", 1)[0],
                "points": len(result.results),
                "transient": result.transient is not None,
                "max_rel_err": "0" if worst == 0.0 else "<=1e-12" if worst <= 1e-12 else ">1e-12",
            })
    return rows


def _transient_rows() -> List[dict]:
    sync = run_transient("sync", jac_reuse=False)
    overlap = run_transient("overlap", jac_reuse=True)
    return [{
        "row": "transient/floor",
        "sync_clock": sync.env.clock.now.hex(),
        "overlap_clock": overlap.env.clock.now.hex(),
        "sync_traces": len(sync.env.traces),
        "overlap_traces": len(overlap.env.traces),
    }]


def _on_the_wall(key: str) -> bool:
    """A gate field read off the host clock (or a ratio of two)."""
    return ("wall" in key or re.search(r"_per_s(_|$)", key) is not None
            or ("speedup" in key and not key.startswith("virtual"))
            or key.startswith(("cpu_parallelism", "recovery_overhead")))


def _flat(value, prefix: str = "") -> dict:
    """A gate's nested JSON as one level of dotted keys (a list item's
    key is its index), with the fields on the host clock left out."""
    if isinstance(value, dict) and value:
        items = [(k, v) for k, v in value.items() if not _on_the_wall(k)]
    elif isinstance(value, list) and value:
        items = list(enumerate(value))
    else:
        return {prefix[:-1]: value}
    out = {}
    for key, item in items:
        out.update(_flat(item, f"{prefix}{key}."))
    return out


def _gate_rows() -> List[dict]:
    rows = []
    for name in GATES:
        script = _script(ROOT / "benchmarks" / f"bench_{name}.py")
        # these two only feed wall fields, which the golden does not keep
        if name == "serve":
            script._sequential_baseline = lambda specs: 1.0
        if name == "shard_serve":
            script.measure_cpu_parallelism = lambda procs=4: 1.0
        with _same_sys_path():
            rows.append({"row": f"gate/{name}", **_flat(script.measure())})
    return rows


def _report_rows() -> List[dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "report.py")],
        capture_output=True, text=True, encoding="utf-8", cwd=ROOT, env=env, check=True,
    )
    return [{"row": f"report/{i:03d}", "line": line}
            for i, line in enumerate(proc.stdout.splitlines(), 1)]


def generate() -> dict:
    """Every row of the contract, in golden order."""
    rows = (_workload_rows() + _batch_rows() + _chaos_rows() + _fault_rows()
            + _failover_rows() + _crash_rows() + _transient_rows() + _gate_rows()
            + _report_rows())
    ids = [row["row"] for row in rows]
    assert len(set(ids)) == len(ids), "two contract rows share an id"
    return {"fingerprint": fingerprint(), "rows": rows}


# ------------------------------------------------------------- the golden
def _text(value) -> str:
    return json.dumps(value, allow_nan=False, ensure_ascii=False)


def dumps(doc: dict) -> str:
    """One row per line, so a moved row is a one-line diff."""
    rows = ",\n".join(_text(row) for row in doc["rows"])
    return f'{{"fingerprint": {_text(doc["fingerprint"])},\n"rows": [\n{rows}\n]}}\n'


def load(path: Path = GOLDEN) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def expected(prefix: str) -> Dict[str, dict]:
    """The committed rows under ``prefix/``, by the rest of their id,
    without the id field."""
    head = prefix.rstrip("/") + "/"
    return {
        row["row"][len(head):]: {k: v for k, v in row.items() if k != "row"}
        for row in load()["rows"] if row["row"].startswith(head)
    }


def moves(golden: dict, fresh: dict) -> List[Tuple[str, list]]:
    """(row id, [(field, golden value, fresh value), ...]) for every row
    that moved, in golden order then new rows; a missing or new row is
    the one field ``row``."""
    old = {row["row"]: row for row in golden["rows"]}
    new = {row["row"]: row for row in fresh["rows"]}
    out = []
    for rid, row in old.items():
        if rid not in new:
            out.append((rid, [("row", rid, None)]))
            continue
        keys = list(row) + [k for k in new[rid] if k not in row]
        moved = [(k, row.get(k), new[rid].get(k)) for k in keys
                 if k not in row or k not in new[rid] or _text(row[k]) != _text(new[rid][k])]
        if moved:
            out.append((rid, moved))
    out += [(rid, [("row", None, rid)]) for rid in new if rid not in old]
    return out


def digest_only(fields) -> bool:
    return all(name in DIGEST_FIELDS for name, _, _ in fields)


def physics_held(moved) -> bool:
    """No row came or went and no session's status or results hash
    moved: only clocks, counts, bytes or digests did."""
    return all(name != "row" and name not in PHYSICS_FIELDS
               for _, fields in moved for name, _, _ in fields)


def verdict(golden: dict, fresh: dict, explain: bool = False) -> Tuple[bool, str]:
    """(held, what to print).  ``explain`` lists every moved field with
    its golden and its fresh value; otherwise the moved rows are named."""
    moved = moves(golden, fresh)
    total = len(fresh["rows"])
    if not moved:
        lines = [f"contract holds: {total} rows equal to {GOLDEN.name}"]
    else:
        lines = [f"contract moved: {len(moved)} of {total} rows differ from {GOLDEN.name}"]
    if golden["fingerprint"] != fresh["fingerprint"]:
        lines.append(
            "the fingerprint differs: the golden was made on "
            + ", ".join(f"{k} {v}" for k, v in sorted(golden["fingerprint"].items()))
            + "; this run is "
            + ", ".join(f"{k} {v}" for k, v in sorted(fresh["fingerprint"].items()))
        )
    if moved and all(digest_only(fields) for _, fields in moved):
        lines.append("only digests moved: every count and clock held")
    if moved and physics_held(moved):
        lines.append("physics held: every status and results hash is equal")
    for rid, fields in moved:
        if fields[0][0] == "row":
            lines.append(f"{rid}: {'new row' if fields[0][1] is None else 'row gone'}")
        elif not explain:
            lines.append(f"{rid}: " + ", ".join(name for name, _, _ in fields))
        else:
            note = "  (only the digest moved; every count and clock held)" if digest_only(fields) else ""
            lines.append(f"{rid}{note}")
            lines += [f"    {name}: golden {a!r}, now {b!r}" for name, a, b in fields]
    if moved and not explain:
        lines.append("python -m tests.contract --explain shows both values of every moved field")
    return not moved, "\n".join(lines)
