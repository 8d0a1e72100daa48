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


#: the six percentile columns' row keys name their clock; the CSV header
#: keeps its original names (gated byte for byte)
_ROW_KEY = {
    f"{label}_p{p}_s": f"{label}_p{p}_virtual_s"
    for label in ("wait", "e2e")
    for p in (50, 95, 99)
}


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


@dataclass
class SweepResult:
    """Every cell's per-class ``sweep_row`` records plus the reports
    they came from."""

    spec: SweepSpec
    rows: List[Dict] = field(default_factory=list)
    reports: List[TrafficReport] = field(default_factory=list)

    def csv(self) -> str:
        """Deterministic CSV: fixed columns, fixed float formatting, no
        wall-clock quantities."""
        buf = io.StringIO()
        buf.write(",".join(_COLUMNS) + "\n")
        for row in self.rows:
            buf.write(
                ",".join(_fmt(row[_ROW_KEY.get(c, c)]) for c in _COLUMNS) + "\n"
            )
        return buf.getvalue()

    def _knees(self) -> List[Tuple[str, str, str, Optional[float], bool, dict]]:
        """``(mix, admission, class, knee_rate, monotone_past_knee,
        met_by_rate)`` per deadline-carrying arm, in sorted order.

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
        knees = []
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
            knees.append(
                (mix, adm, cls, knee, monotone, {r: met_by_rate[r] for r in rates})
            )
        return knees

    def knee_summary(self) -> dict:
        """Per (mix, admission, class): the goodput knee (see
        :meth:`_knees`), keyed ``"mix|admission|class"``."""
        arms = {
            f"{mix}|{adm}|{cls}": {
                "knee_rate": knee,
                "met_target": self.spec.met_target,
                "met_by_rate": {f"{r:.6f}": m for r, m in met_by_rate.items()},
                "monotone_past_knee": monotone,
            }
            for mix, adm, cls, knee, monotone, met_by_rate in self._knees()
        }
        return {"spec": self.spec.name, "seed": self.spec.seed, "arms": arms}

    def records(self) -> List[dict]:
        """The ``sweep_row`` records, then one ``knee`` record per
        deadline-carrying arm."""
        return [
            *self.rows,
            *(
                {
                    "record": "knee",
                    "spec": self.spec.name,
                    "seed": self.spec.seed,
                    "mix": mix,
                    "admission": adm,
                    "class": cls,
                    "met_target": self.spec.met_target,
                    "knee_rate": knee,
                    "monotone_past_knee": monotone,
                }
                for mix, adm, cls, knee, monotone, _ in self._knees()
            ),
        ]


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Execute every cell of ``spec`` on a fresh installation each and
    collect per-class ``sweep_row`` records: the cell's keys, its
    class ledger's record, the makespan and the cell's digest."""
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
        for led in report.ledgers.values():
            row = {
                "record": "sweep_row",
                "spec": spec.name,
                "mix": mix_name,
                "admission": adm_label,
                "process": spec.process,
                "rate_per_s": rate,
                "sessions": spec.sessions,
            }
            row.update((k, v) for k, v in led.record().items() if k != "record")
            row["makespan_virtual_s"] = report.report.makespan_virtual_s
            row["digest"] = report.digest
            result.rows.append(row)
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
