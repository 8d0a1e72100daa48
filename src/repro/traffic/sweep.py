"""The capacity-sweep runner: declarative (rate × mix × admission) grids.

A :class:`SweepSpec` names the experiment; :func:`run_sweep` executes
every cell on a fresh installation and returns a :class:`SweepResult`
with per-class rows, a deterministic CSV, and a knee summary — the
highest offered rate at which each deadline-carrying class still meets
the ``met_target`` (default 95%) attainment bar.

Two determinism properties the tests and the CI smoke job lean on:

* the stream for a cell is seeded from ``(spec.seed, mix, rate)``
  only — *not* the admission policy — so every admission arm at a given
  rate is judged against byte-identical offered traffic;
* :meth:`SweepResult.csv` contains only virtual-time quantities with
  fixed float formatting, so the same spec yields the same bytes on any
  machine, any run.
"""

from __future__ import annotations

import io
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..serve import AdmissionPolicy, SharedInstallation
from .arrivals import make_process
from .classes import STOCK_MIXES, TrafficMix
from .driver import TrafficReport, build_stream, run_traffic

__all__ = ["SweepSpec", "SweepResult", "STOCK_SWEEPS", "run_sweep"]

#: CSV column order — append-only; CI gates byte-identical output
_COLUMNS = (
    "spec",
    "mix",
    "admission",
    "process",
    "rate_per_s",
    "sessions",
    "class",
    "offered",
    "tasks",
    "served",
    "completed",
    "degraded",
    "replayed",
    "shed",
    "retries",
    "points",
    "good_points",
    "tasks_met",
    "tasks_missed",
    "tasks_lost",
    "deadline_met_rate",
    "wait_p50_s",
    "wait_p95_s",
    "wait_p99_s",
    "e2e_p50_s",
    "e2e_p95_s",
    "e2e_p99_s",
    "makespan_virtual_s",
    "digest",
)


@dataclass(frozen=True)
class SweepSpec:
    """One declarative capacity experiment.

    ``admissions`` are ``(label, max_live, max_parked)`` triples;
    ``mixes`` name entries in :data:`repro.traffic.classes.STOCK_MIXES`.
    ``dedup`` defaults off: a capacity sweep wants every offered session
    to cost real work — cache hits would flatter the knee.

    ``warmup_s`` trims a stationarity window off every cell: tasks
    arriving in the first ``warmup_s`` of each stream are dropped from
    the ledgers (see :meth:`TrafficReport.trimmed`), so the knee is
    judged on steady-state percentiles instead of the empty-queue
    transient.  0.0 (the default, and every stock sweep) settles
    everything — the CI-gated CSV bytes are unchanged.
    """

    name: str
    rates: Tuple[float, ...]
    mixes: Tuple[str, ...] = ("interactive",)
    admissions: Tuple[Tuple[str, Optional[int], Optional[int]], ...] = (
        ("live2/park8", 2, 8),
    )
    process: str = "poisson"
    sessions: int = 12
    seed: int = 0
    dedup: bool = False
    met_target: float = 0.95
    warmup_s: float = 0.0

    def cells(self) -> List[Tuple[str, Tuple[str, Optional[int], Optional[int]], float]]:
        """The grid in execution order: mix-major, admission, then rate
        ascending — so knee scans read top to bottom."""
        out = []
        for mix in self.mixes:
            for adm in self.admissions:
                for rate in sorted(self.rates):
                    out.append((mix, adm, rate))
        return out


def _cell_seed(seed: int, mix: str, rate: float) -> int:
    """Deterministic per-cell seed from (spec seed, mix, rate) — the
    admission arm is deliberately absent so all arms see one stream."""
    return zlib.crc32(f"{seed}:{mix}:{rate:.6f}".encode())


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


@dataclass
class SweepResult:
    """Every cell's per-class rows plus the reports they came from."""

    spec: SweepSpec
    rows: List[Dict] = field(default_factory=list)
    reports: List[TrafficReport] = field(default_factory=list)

    def csv(self) -> str:
        """Deterministic CSV: fixed columns, fixed float formatting, no
        wall-clock quantities."""
        buf = io.StringIO()
        buf.write(",".join(_COLUMNS) + "\n")
        for row in self.rows:
            buf.write(",".join(_fmt(row[c]) for c in _COLUMNS) + "\n")
        return buf.getvalue()

    def knee_summary(self) -> dict:
        """Per (mix, admission, class): the goodput knee.

        ``knee_rate`` is the highest swept rate whose task-level
        deadline-met rate still clears ``met_target``; None when no
        rate clears it.  ``monotone_past_knee`` records whether
        attainment is non-increasing from the knee onward (1e-9
        tolerance) — the sanity check that the sweep crossed a real
        capacity cliff rather than noise.
        """
        target = self.spec.met_target
        by_arm: Dict[Tuple[str, str, str], Dict[float, Optional[float]]] = {}
        for row in self.rows:
            if row["class"] == "total":
                continue
            key = (row["mix"], row["admission"], row["class"])
            by_arm.setdefault(key, {})[row["rate_per_s"]] = row["deadline_met_rate"]
        arms = {}
        for (mix, adm, cls), met_by_rate in sorted(by_arm.items()):
            rates = sorted(met_by_rate)
            mets = [met_by_rate[r] for r in rates]
            if all(m is None for m in mets):
                continue  # class carries no deadlines — no knee to find
            knee = None
            for r in rates:
                m = met_by_rate[r]
                if m is not None and m >= target:
                    knee = r
            tail = [m for r, m in zip(rates, mets) if knee is None or r >= knee]
            vals = [m for m in tail if m is not None]
            monotone = all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
            arms[f"{mix}|{adm}|{cls}"] = {
                "knee_rate": knee,
                "met_target": target,
                "met_by_rate": {f"{r:.6f}": met_by_rate[r] for r in rates},
                "monotone_past_knee": monotone,
            }
        return {"spec": self.spec.name, "seed": self.spec.seed, "arms": arms}

    def summary(self) -> dict:
        return {
            "spec": self.spec.name,
            "seed": self.spec.seed,
            "process": self.spec.process,
            "sessions_per_cell": self.spec.sessions,
            "cells": len(self.reports),
            "rows": self.rows,
            "knee": self.knee_summary(),
        }

    def render(self) -> str:
        lines = [
            f"sweep '{self.spec.name}' ({self.spec.process}, "
            f"{self.spec.sessions} sessions/cell, seed {self.spec.seed}): "
            f"{len(self.reports)} cells"
        ]
        lines.append(
            f"  {'mix':<18} {'admission':<12} {'rate/s':>7} {'class':<12} "
            f"{'met%':>6} {'shed':>5} {'wait p95':>9} {'e2e p95':>9}"
        )
        for row in self.rows:
            if row["class"] == "total":
                continue
            met = row["deadline_met_rate"]
            met_s = f"{met * 100:5.1f}" if met is not None else "    -"
            w95 = row["wait_p95_s"]
            e95 = row["e2e_p95_s"]
            lines.append(
                f"  {row['mix']:<18} {row['admission']:<12} "
                f"{row['rate_per_s']:>7.3f} {row['class']:<12} {met_s:>6} "
                f"{row['shed']:>5} "
                f"{w95 if w95 is not None else float('nan'):>9.2f} "
                f"{e95 if e95 is not None else float('nan'):>9.2f}"
            )
        knee = self.knee_summary()
        lines.append(f"  knee (target {self.spec.met_target * 100:.0f}% met):")
        for arm, info in knee["arms"].items():
            k = info["knee_rate"]
            k_s = f"{k:.3f}/s" if k is not None else "below lowest swept rate"
            mono = "" if info["monotone_past_knee"] else "  [non-monotone tail]"
            lines.append(f"    {arm:<44} {k_s}{mono}")
        return "\n".join(lines)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Execute every cell of ``spec`` on a fresh installation each and
    collect per-class rows."""
    result = SweepResult(spec=spec)
    for mix_name, (adm_label, max_live, max_parked), rate in spec.cells():
        mix = STOCK_MIXES.get(mix_name)
        if mix is None:
            raise KeyError(
                f"unknown mix {mix_name!r}; stock mixes: {sorted(STOCK_MIXES)}"
            )
        seed = _cell_seed(spec.seed, mix_name, rate)
        process = make_process(spec.process, rate, seed=seed)
        stream = build_stream(mix, process, spec.sessions, seed=seed)
        report = run_traffic(
            stream,
            installation=SharedInstallation.standard(),
            admission=AdmissionPolicy(max_live=max_live, max_parked=max_parked),
            dedup=spec.dedup,
        )
        if spec.warmup_s > 0.0:
            report = report.trimmed(spec.warmup_s)
        result.reports.append(report)
        for cls_name, led in report.ledgers.items():
            wq, eq = led.queue_wait, led.end_to_end
            result.rows.append(
                {
                    "spec": spec.name,
                    "mix": mix_name,
                    "admission": adm_label,
                    "process": spec.process,
                    "rate_per_s": rate,
                    "sessions": spec.sessions,
                    "class": cls_name,
                    "offered": led.offered,
                    "tasks": led.tasks,
                    "served": led.served,
                    "completed": led.completed,
                    "degraded": led.degraded,
                    "replayed": led.replayed,
                    "shed": led.shed,
                    "retries": led.retries,
                    "points": led.points,
                    "good_points": led.good_points,
                    "tasks_met": led.tasks_met,
                    "tasks_missed": led.tasks_missed,
                    "tasks_lost": led.tasks_lost,
                    "deadline_met_rate": led.deadline_met_rate,
                    "wait_p50_s": wq.quantile(0.5) if wq.count else None,
                    "wait_p95_s": wq.quantile(0.95) if wq.count else None,
                    "wait_p99_s": wq.quantile(0.99) if wq.count else None,
                    "e2e_p50_s": eq.quantile(0.5) if eq.count else None,
                    "e2e_p95_s": eq.quantile(0.95) if eq.count else None,
                    "e2e_p99_s": eq.quantile(0.99) if eq.count else None,
                    "makespan_virtual_s": report.report.makespan_virtual_s,
                    "digest": report.digest,
                }
            )
    return result


#: stock sweeps, calibrated against the serve plane's measured service
#: times: a 1-point session costs ~6 virtual s, so two live slots serve
#: ~0.33 sessions/s of pure-interactive load — the overload rate axes
#: straddle that.
STOCK_SWEEPS: Dict[str, SweepSpec] = {
    # the CI smoke grid: 2 rates x 2 admissions on the single-class mix,
    # small enough to run in seconds, still crossing the knee
    "smoke": SweepSpec(
        name="smoke",
        rates=(0.08, 0.8),
        mixes=("interactive",),
        admissions=(("live2/park8", 2, 8), ("live1/park2", 1, 2)),
        sessions=6,
        seed=0,
    ),
    # the headline knee hunt: Poisson interactive+batch across capacity
    "overload": SweepSpec(
        name="overload",
        rates=(0.05, 0.12, 0.25, 0.5, 1.0),
        mixes=("interactive-batch",),
        admissions=(("live2/park8", 2, 8),),
        sessions=18,
        seed=0,
    ),
    # same grid under Pareto arrivals: bursts find the queue's cliff at
    # lower mean rates than Poisson does
    "heavy-tail": SweepSpec(
        name="heavy-tail",
        rates=(0.05, 0.12, 0.25, 0.5, 1.0),
        mixes=("interactive-batch",),
        admissions=(("live2/park8", 2, 8),),
        process="pareto",
        sessions=18,
        seed=0,
    ),
}
