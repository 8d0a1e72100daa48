#!/usr/bin/env python3
"""The harness checking itself: ``python3 bench/selftest.py`` (< 60 s).

Tiny inputs (``--quick`` sizes) for all six workloads, run in this
process.  Not named ``test_*``/``bench_*`` so pytest never collects it.
Exits non-zero with the list of failed checks.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import sys
import time
from pathlib import Path

import metrics
import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED, OTHER_SEED = 1, 2

failures = []


def check(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)
        print(f"FAIL  {what}")


def _seam_bindings():
    """What is bound right now at every seam the tracer rebinds."""
    import tracer

    probe = tracer.Tracer()
    probe.install()
    probe.uninstall()
    return [(owner, attr, vars(owner)[attr]) for owner, attr in probe.rebound]


def _shm_segments():
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _children():
    """Command lines of this process's children, alive or zombie —
    except multiprocessing's resource tracker, which the standard
    library starts with the first shared-memory segment and keeps for
    the life of the process."""
    out = []
    for task in Path("/proc/self/task").glob("*/children"):
        for pid in task.read_text().split():
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes().replace(b"\0", b" ").decode()
            if "resource_tracker" not in cmdline:
                out.append(f"{pid}: {cmdline.strip() or 'zombie'}")
    return out


def _quick(workload: str, seed: int, reference=None) -> dict:
    return run.measure(workload, seed, seconds=0.0, trace=True, quick=True, reference=reference)


def check_tables() -> None:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(manifest == metrics.manifest(), "BENCHMARK.json is metrics.manifest()")
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER] + list(metrics.WORKLOAD_NAMES)
    check(len(set(names)) == len(names), "every name is used once")
    for m in metrics.END_TO_END + metrics.PER_LAYER:
        check(bool(NAME.match(m.name)), f"name {m.name!r} is well-formed")
        check(bool(UNIT.match(m.unit)), f"unit {m.unit!r} of {m.name} is well-formed")
    for w in metrics.WORKLOADS:
        check(bool(NAME.match(w.name)) and len(w.why) <= 200 and "\n" not in w.why,
              f"workload {w.name} has a one-line why of at most 200 characters")
    check("setup_s" in metrics.BY_NAME and metrics.BY_NAME["setup_s"].bound == max(
        m.bound for m in metrics.END_TO_END), "setup_s has the largest bound")


def check_verdicts() -> None:
    wall = metrics.BY_NAME["wall_ms_per_point"]
    exact = metrics.BY_NAME["virtual_e2e_s_p50"]
    steady = [10.0, 10.1, 10.2]
    check(metrics.verdict(wall, steady, [10.05, 10.1, 10.3]) == "unchanged", "verdict: unchanged")
    check(metrics.verdict(wall, steady, [14.0, 14.1, 14.2]) == "regressed", "verdict: regressed")
    check(metrics.verdict(wall, steady, [7.0, 7.1, 7.2]) == "improved", "verdict: improved")
    check(metrics.verdict(wall, steady, [9.0, 9.1, 9.2]) == "unchanged",
          "verdict: one run a side cannot claim a gain inside the bound")
    ten = [10.0 + 0.01 * i for i in range(10)]
    check(metrics.verdict(wall, ten, [v - 0.5 for v in ten]) == "improved",
          "verdict: ten pairs, all won, gap wider than the parent's spread")
    check(metrics.verdict(wall, [8.0, 10.0, 14.0], [9.0, 11.0, 15.0]) == "unresolved",
          "verdict: unresolved when the spread is wider than the bound and runs overlap")
    check(metrics.verdict(exact, [12.5], [12.5]) == "unchanged", "verdict: exact equal")
    check(metrics.verdict(exact, [12.5], [12.5000001]) == "regressed", "verdict: exact differs")


def check_workload(workload: str) -> None:
    shm_before = _shm_segments()
    bindings = _seam_bindings()
    a = _quick(workload, SEED)
    b = _quick(workload, SEED)
    c = _quick(workload, OTHER_SEED)
    check(_seam_bindings() == bindings, f"{workload}: every patched binding is restored")
    check(_shm_segments() <= shm_before, f"{workload}: no /dev/shm segment left behind")
    check(not multiprocessing.active_children() and not _children(),
          f"{workload}: no child process left behind ({_children()})")

    for r in (a, b, c):
        check(r["correct"] and r["failed"] == 0, f"{workload}: quick run is correct")
        check(set(r["end_to_end"]) == {m.name for m in metrics.END_TO_END},
              f"{workload}: every end-to-end metric is reported")
        check(set(r["per_layer"]) == {m.name for m in metrics.PER_LAYER},
              f"{workload}: every per-layer metric is reported")
        check(all(v["median"] != 0 for v in r["end_to_end"].values()),
              f"{workload}: no end-to-end metric reads 0")
        line = json.loads(run.driver_line(r, trace=False))
        check(set(line) == {"correct", "attempted", "failed", "metrics"}
              and all(set(v) == {"value", "unit"} for v in line["metrics"].values()),
              f"{workload}: driver line has exactly the contract's keys")
        parts = sum(r["per_layer"][k] for k in metrics.SELF_TIME_KEYS)
        root = r["traced_root_wall_s"]
        check(abs(parts - root) <= 0.05 * root,
              f"{workload}: self times sum to the traced root ({parts:.4f} vs {root:.4f})")

    exact_e2e = [m.name for m in metrics.END_TO_END if m.exact]
    exact_layer = [m.name for m in metrics.PER_LAYER if m.exact]
    for name in exact_e2e:
        check(a["end_to_end"][name]["median"] == b["end_to_end"][name]["median"],
              f"{workload}: {name} repeats bitwise at one seed")
    for name in exact_layer:
        check(a["per_layer"][name] == b["per_layer"][name],
              f"{workload}: {name} repeats exactly at one seed")
    check(a["digest"] == b["digest"], f"{workload}: output digest repeats at one seed")
    check(a["digest"] != c["digest"], f"{workload}: another seed gives another output")
    moved = [n for n in exact_layer if a["per_layer"][n] != c["per_layer"][n]]
    moved += [n for n in exact_e2e if a["end_to_end"][n]["median"] != c["end_to_end"][n]["median"]]
    check(bool(moved) or workload == "steady_warm_exact",
          f"{workload}: another seed moves some exact metric")

    inline = workload not in ("steady_cold_shard2",)
    if inline:
        shard_keys = [m.name for m in metrics.PER_LAYER
                      if m.name.startswith(("serve.shards.", "serve.shm."))]
        check(all(a["per_layer"][k] == 0 for k in shard_keys),
              f"{workload}: serve.shards.* and serve.shm.* read 0 inline")
    stores = a["per_layer"]["serve.opcache.stores"]
    check((stores > 0) == (workload == "steady_near_opcache"),
          f"{workload}: op-cache stores only on steady_near_opcache ({stores:g})")
    if workload == "steady_warm_exact":
        check(a["per_layer"]["schooner.solve_calls"] == 0 and a["per_layer"]["solvers.solves"] == 0,
              "steady_warm_exact: no solve and no solve RPC")
        check(a["per_layer"]["serve.opcache.useful_ratio"] == 1.0,
              "steady_warm_exact: every lookup is an exact hit")


def check_oracle_fails() -> None:
    """A reference with one thrust flipped must fail the run."""
    import oracle
    import workloads as wl

    reference = oracle.LocalReference()
    inputs = wl.generate("steady_cold_inline", SEED, quick=True)[0]
    wf = inputs.specs[0].points[0]
    reference.point(wf)["thrust_N"] *= -1.0
    try:
        result = _quick("steady_cold_inline", SEED, reference=reference)
    finally:
        reference.close()
    check(not result["correct"] and result["failed"] >= 1,
          "a perturbed reference fails the run")
    check(result["end_to_end"]["good_share"]["median"] < 1.0,
          "a perturbed reference raises failed_share")
    check(run.exit_code(result) != 0, "a failed run exits non-zero")


def main() -> int:
    t0 = time.perf_counter()
    run._bootstrap()
    check_tables()
    check_verdicts()
    for workload in metrics.WORKLOAD_NAMES:
        check_workload(workload)
        print(f"ok    {workload}  ({time.perf_counter() - t0:.0f} s)")
    check_oracle_fails()
    check(any("resource_tracker" in cmd for cmd in run.descendants().values()),
          "the resource tracker is running before stop_children (else the next check is vacuous)")
    run.stop_children()
    check(not run.descendants(),
          f"stop_children leaves no process behind, the resource tracker included ({run.descendants()})")
    took = time.perf_counter() - t0
    check(took < 60, f"self-test finished in under 60 s ({took:.0f} s)")
    print(f"{'FAILED' if failures else 'passed'}: {len(failures)} failed checks, {took:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        run.stop_children()
    sys.exit(code)
