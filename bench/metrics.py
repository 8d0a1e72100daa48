"""Metric tables, sample statistics and the compare verdict.

This module is the single source of the benchmark's names: the
workload list, the nine end-to-end metrics and the per-layer metrics.
``BENCHMARK.json`` at the repo root is ``manifest()`` written to disk
(``python3 bench/run.py --manifest``); ``selftest.py`` checks that the
two agree.

Every number says which clock it is on.  ``wall`` is host seconds —
noisy, so a wall metric is a median over repeats with its quartiles.
``virtual`` is modelled 1993 seconds — a pure function of the seed, so
at one seed it must repeat bitwise (``exact``); its ``bound`` only has
to cover the seed-to-seed spread the driver sees when it varies
``--seed``.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, NamedTuple, Optional, Sequence

#: what one driver run measures for (see BENCHMARK.json ``run_seconds``)
RUN_SECONDS = 10

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]


class Workload(NamedTuple):
    name: str
    why: str


WORKLOADS = (
    Workload(
        "steady_cold_inline",
        "160 sessions x 3 cold Newton solves, op-cache off: schooner call "
        "runtime, uts codec, network sim, tess and solvers do the work; "
        "scheduler, op-cache and shards do none",
    ),
    Workload(
        "steady_warm_exact",
        "1500 sessions x 3 exact op-cache hits: zero solves, so wall is "
        "per-session set-up (executive build, UTS parse, AVS connect, "
        "start_remote); a call-path change must not move it",
    ),
    Workload(
        "steady_near_opcache",
        "256 sessions x 3 points from an empty store: interpolated op-cache "
        "reads beside writes and ~1-iteration warm-started solves",
    ),
    Workload(
        "transient_remote",
        "24 sessions x (1 balance + 1.0 s transient at 20 ms, overlap "
        "dispatch): the paper's Table-2 scenario, CallBatch overlap and "
        "Jacobian carry over 50 steps",
    ),
    Workload(
        "traffic_open_loop",
        "open loop on the virtual timeline, interactive-batch mix at "
        "0.3/0.5/0.8 sessions per virtual second under max_live=4, "
        "max_parked=8: the only work for admission, shedding, retry and "
        "deadlines",
    ),
    Workload(
        "steady_cold_shard2",
        "the steady_cold_inline specs through mode=shard, workers=2, pool "
        "spawn included: shard wire, shm rings and worker imbalance do "
        "work only here",
    ),
)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    clock: str  # "wall" | "virtual" | "count"
    exact: bool  # must repeat bitwise at one seed
    bound: Optional[float]  # end-to-end only
    what: str


#: virtual seconds carry their clock in the unit, so nobody reads a
#: modelled 1993 second as a host second
VS = "s_virtual"

END_TO_END = (
    Metric(
        "setup_s", "s", "lower", "wall", False, 0.25,
        "fresh process to ready-to-serve: interpreter start, import repro, "
        "SharedInstallation.standard(), generator, op-cache seeding; median "
        "of 5 fresh processes",
    ),
    Metric(
        "wall_ms_per_point", "ms", "lower", "wall", False, 0.25,
        "median over repeats of 1000 x wall of the public call / good "
        "points (converged steady points + transient time steps; the "
        "ledger's good_points on traffic_open_loop)",
    ),
    Metric(
        "good_share", "ratio", "higher", "count", True, 0.15,
        "1 - failed_share: sessions neither degraded, shed, raised nor "
        "oracle-mismatched / sessions offered; below 1 by design only on "
        "traffic_open_loop",
    ),
    Metric(
        "virtual_e2e_s_p50", VS, "lower", "virtual", True, 0.25,
        "median session end_to_end_s (queue wait + service on the modelled "
        "timeline); on traffic_open_loop over the served attempts of all "
        "three phases of all three replicas",
    ),
    Metric(
        "virtual_e2e_s_p90", VS, "lower", "virtual", True, 0.25,
        "p90 of the same samples, smoothed: the mean of percentiles 85 to 95",
    ),
    Metric(
        "deadline_met_rate", "ratio", "higher", "virtual", True, 0.25,
        "tasks that met their deadline / tasks offered on the 0.8/s phases "
        "(shed or lost = missed); closed batches carry no deadline, so a "
        "good session counts as met",
    ),
    Metric(
        "slo_rate_per_s", "1/s_virtual", "higher", "virtual", True, 0.25,
        "offered rate at which the task-level deadline-met rate crosses "
        "0.95 on the least-squares line through the three phases; a closed "
        "batch has no deadline and no rate, so there: good sessions per "
        "virtual second of service, the rate one live slot sustains",
    ),
    Metric(
        "peak_rss_mb", "MB", "lower", "wall", False, 0.10,
        "ru_maxrss of the workload process (plus its largest child on "
        "steady_cold_shard2)",
    ),
    Metric(
        "output_digest_stable", "ratio", "higher", "count", True, 0.01,
        "1 when the sha256 over sorted (name, trace digest, virtual_s) rows "
        "is the same on every repeat of the same input in the run, else 0",
    ),
)


def _layer(layer: str, rows: Sequence[tuple]) -> List[Metric]:
    return [
        Metric(f"{layer}.{key}", unit, better, clock, exact, None, what)
        for key, unit, better, clock, exact, what in rows
    ]


_W = ("s", "lower", "wall", False)  # exclusive wall seconds
_C = ("count", "lower", "count", True)  # exact counts

PER_LAYER = tuple(
    _layer("serve.scheduler", [
        ("self_s", *_W, "serve_sessions / serve_arrivals minus child spans"),
        ("sessions_admitted", "count", "higher", "count", True, "sessions that ran or replayed"),
        ("sessions_parked", *_C, "sessions that waited in the admission queue"),
        ("sessions_shed", *_C, "attempts refused by admission"),
        ("sessions_retried", *_C, "attempts re-offered after a shed"),
        ("queue_wait_virtual_s_p90", VS, "lower", "virtual", True, "smoothed p90 queue wait of served attempts"),
    ])
    + _layer("serve.session", [
        ("steps", *_C, "SessionContext.run_next_step calls"),
        ("setup_self_s", *_W, "the setup step minus child spans"),
        ("self_s", *_W, "every other step minus child spans"),
    ])
    + _layer("serve.opcache", [
        ("lookups", *_C, "counted OpPointCache.lookup calls"),
        ("exact_hits", "count", "higher", "count", True, "lookups that skipped the solve"),
        ("near_hits", "count", "higher", "count", True, "seed / interpolated warm starts"),
        ("misses", *_C, "lookups solved cold"),
        ("stores", *_C, "OpPointCache.store calls"),
        ("self_s", *_W, "lookup + store"),
        ("useful_ratio", "ratio", "higher", "count", True, "(exact + near) / lookups"),
    ])
    + _layer("serve.shards", [
        ("spawn_s", *_W, "ShardPool construction (worker spawn + rings)"),
        ("frames", *_C, "ShardPool.send + recv frames, parent side"),
        ("wire_bytes", *_C, "encoded payload bytes, parent side"),
        ("parent_self_s", *_W, "serve_sessions_sharded + send + close minus children"),
        ("recv_wait_s", *_W, "ShardPool.recv minus decoding: parent blocked on workers"),
        ("worker_busy_s_max", *_W, "largest shard_rows wall_s"),
        ("worker_imbalance", "ratio", "lower", "wall", False, "max / mean shard wall"),
        ("scaling_efficiency", "ratio", "higher", "wall", False,
         "inline wall / shard wall / min(2, measured process parallelism)"),
    ])
    + _layer("serve.shm", [
        ("codec_self_s", *_W, "encode_payload_into + decode_payload, parent side"),
        ("ring_bytes", *_C, "bytes written to and read from shm rings"),
        ("pipe_fallbacks", *_C, "ring writes refused (ring full)"),
    ])
    + _layer("traffic", [
        ("generator_s", *_W, "building every replica's three offered streams (set-up, outside the root span)"),
        ("ledger_self_s", *_W, "run_traffic + settle_ledgers minus children"),
        ("retries_offered", *_C, "retry attempts across the three phases"),
        ("r030.deadline_met_rate", "ratio", "higher", "virtual", True, "task-level, 0.3/s phase"),
        ("r050.deadline_met_rate", "ratio", "higher", "virtual", True, "task-level, 0.5/s phase"),
        ("r080.deadline_met_rate", "ratio", "higher", "virtual", True, "task-level, 0.8/s phase"),
        ("r030.virtual_e2e_s_p90", VS, "lower", "virtual", True, "served attempts, 0.3/s phase"),
        ("r050.virtual_e2e_s_p90", VS, "lower", "virtual", True, "served attempts, 0.5/s phase"),
        ("r080.virtual_e2e_s_p90", VS, "lower", "virtual", True, "served attempts, 0.8/s phase"),
    ])
    + _layer("resilience", [
        ("deadline_refusals", *_C, "RPCs refused with CallTrace.outcome == 'deadline'"),
        ("budget_denied", *_C, "RetryBudget.denied on the installation"),
    ])
    + _layer("core", [
        ("executive_build_self_s", *_W, "NPSSExecutive.__init__ + build_f100_network + engine + clear_network"),
        ("host_calls", *_C, "SchoonerHost component / pair / jacobian calls"),
        ("host_self_s", *_W, "the same minus child spans"),
    ])
    + _layer("avs", [
        ("connect_calls", *_C, "NetworkEditor.connect calls"),
        ("self_s", *_W, "NetworkEditor.add_module + connect + clear"),
    ])
    + _layer("tess", [
        ("balance_calls", *_C, "TwinSpoolTurbofan.balance calls"),
        ("transient_steps", *_C, "time steps returned by TwinSpoolTurbofan.transient"),
        ("evaluate_calls", *_C, "TwinSpoolTurbofan.evaluate calls"),
        ("self_s", *_W, "engine side: balance + transient + evaluate minus children"),
        ("components_self_s", *_W, "adapted component bodies: Shaft.accel, Duct.run, Combustor.burn, nozzle"),
    ])
    + _layer("solvers", [
        ("solves", *_C, "newton_raphson calls"),
        ("iterations", *_C, "sum of SteadyReport.iterations"),
        ("fevals", *_C, "sum of SteadyReport.fevals"),
        ("jac_rebuilds", *_C, "sum of SteadyReport.jac_rebuilds"),
        ("nonconverged", *_C, "solves that raised or returned converged=False"),
        ("self_s", *_W, "newton_raphson + integrate + fd_jacobian minus children"),
    ])
    + _layer("schooner", [
        ("calls", *_C, "CallTraces recorded"),
        ("solve_calls", *_C, "of those, recorded while an engine balance/transient was open"),
        ("overlap_calls", *_C, "CallTraces with dispatch == 'overlap'"),
        ("retries", *_C, "sum of CallTrace.retries"),
        ("self_s", *_W, "ClientStub.__call__/begin + CallBatch.wait + execute_call minus children"),
        ("us_per_call", "us", "lower", "wall", False, "1e6 x self_s / calls"),
        ("manager_self_s", *_W, "Manager.start_remote + quit_line + sch_contact_schx"),
        ("virtual_cpu_s", VS, "lower", "virtual", True, "sum of client_cpu_s + server_cpu_s"),
    ])
    + _layer("uts", [
        ("parse_calls", *_C, "SpecFile.parse calls"),
        ("parse_self_s", *_W, "SpecFile.parse"),
        ("conform_self_s", *_W, "conform_args as bound in schooner.runtime"),
        ("codec_self_s", *_W, "SignatureCodec.encode_conformed_into + unmarshal"),
        ("native_self_s", *_W, "callables handed out by native_roundtrip_for"),
        ("wire_bytes", *_C, "sum of CallTrace request + reply bytes"),
    ])
    + _layer("network", [
        ("sends", *_C, "Transport.send calls"),
        ("payload_bytes", *_C, "sum of the nbytes argument"),
        ("drops", *_C, "sends that raised NetworkError"),
        ("self_s", *_W, "Transport.send"),
        ("virtual_s", VS, "lower", "virtual", True, "sum of CallTrace.network_s"),
    ])
    + _layer("machines", [
        ("virtual_compute_s", VS, "lower", "virtual", True, "sum of CallTrace.compute_s"),
    ])
    + _layer("harness", [
        ("trace_overhead_ratio", "ratio", "lower", "wall", False, "traced wall / untraced median"),
        ("unattributed_s", *_W, "root span minus every wrapped child"),
    ])
)

#: the exclusive wall keys that partition the traced root span
SELF_TIME_KEYS = tuple(
    m.name for m in PER_LAYER
    if m.name.endswith("self_s")
    or m.name in ("serve.shards.spawn_s", "serve.shards.recv_wait_s", "harness.unattributed_s")
)

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def manifest() -> dict:
    """``BENCHMARK.json``: exactly the keys the builder contract allows."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


# ----------------------------------------------------------------- statistics
def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """median, q1, q3 and n of the samples (``statistics.quantiles``'
    default exclusive method, the one the driver uses; with fewer than
    two samples the quartiles collapse onto the value)."""
    vals = [float(v) for v in values]
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


# -------------------------------------------------------------------- compare
#: choosing-metrics 8: a gain is claimed on at least this many pairs
MIN_PAIRS = 10


def _iqr(values: Sequence[float]) -> float:
    # inclusive quartiles: with the 3-5 repeats of one run the exclusive
    # method's quartiles are the extremes, and one slow repeat would
    # read as a spread wider than any bound
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(metric: Metric, parent: Sequence[float], change: Sequence[float]) -> str:
    """choosing-metrics 6.5 for one (workload, end-to-end metric):
    ``improved`` / ``unchanged`` / ``regressed`` / ``unresolved``.

    Exact metrics compare by equality of the medians.  Otherwise the
    change regresses when its median is worse than the parent's by more
    than the metric's bound, and where either side's spread is wider
    than the bound the pair is ``unresolved`` unless one side's every
    sample beats the other's.  ``improved`` follows section 8 when both
    sides hold at least ``MIN_PAIRS`` runs, paired in the order given:
    the medians differ by more than the parent's own spread and the
    change wins nine tenths of the pairs, ties counting for neither.
    With fewer runs the box's slow drift between two runs is not in the
    samples, so only a gap wider than the bound reads as improved.
    """
    # flip "higher is better" metrics so that lower always wins below
    sign = 1.0 if metric.better == "lower" else -1.0
    pa = [sign * float(v) for v in parent]
    ch = [sign * float(v) for v in change]
    a, b = statistics.median(pa), statistics.median(ch)
    if metric.exact:
        if a == b:
            return "unchanged"
        return "regressed" if b > a else "improved"
    base = abs(a) or 1.0
    worse_by = (b - a) / base
    if max(_iqr(pa) / base, _iqr(ch) / (abs(b) or 1.0)) > metric.bound:
        if max(ch) < min(pa):
            return "improved"
        if min(ch) > max(pa):
            return "regressed"
        return "unresolved"
    if worse_by > metric.bound:
        return "regressed"
    if len(pa) >= MIN_PAIRS and len(ch) >= MIN_PAIRS:
        wins = sum(c < p for p, c in zip(pa, ch))
        losses = sum(c > p for p, c in zip(pa, ch))
        if a - b > _iqr(pa) and wins >= 0.9 * (wins + losses):
            return "improved"
    elif -worse_by > metric.bound:
        return "improved"
    return "unchanged"
