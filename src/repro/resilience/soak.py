"""The deterministic chaos-soak harness (``python -m repro chaos``).

A soak serves N mixed engine sessions — different point counts,
transients, deadlines, priorities, and seeded fault plans — over one
shared installation, then asserts the serving stack's resilience
invariants:

1. **No deadlocked scheduler, nothing lost**: the serve call returns
   and every admitted session ends in exactly one of ``completed`` /
   ``degraded`` / ``shed`` — an overloaded or faulted installation
   refuses or degrades work *explicitly*, never silently.
2. **No leaked threads**: the serving stack starts none, so after
   the soak the process's thread names are the ones it began with.
3. **Byte-identical replay**: the same soak on a fresh installation
   reproduces every session's trace digest and status — chaos included,
   because every fault is a seeded virtual-clock event.
4. **Solo equivalence**: every session that claims ``completed``
   produces results identical to a solo, fault-free run of its spec;
   anything touched by chaos must have marked itself ``degraded``.

Everything is derived from the config's seed: two runs of the same
config are indistinguishable, which is what makes a chaos failure a
*reproducible bug report* instead of an anecdote.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..faults.plan import (
    CrashMachine,
    CrashProcess,
    DerateHost,
    FaultEvent,
    FaultPlan,
    HealLink,
    LatencySpike,
    PacketLoss,
    PartitionLink,
)
from ..machines.registry import SITE_ARIZONA, SITE_LERC
from ..serve import (
    AdmissionPolicy,
    ServeReport,
    SessionSpec,
    SharedInstallation,
    ShardPool,
    build_kill_plan,
    serve_sessions,
    serve_sessions_sharded,
)

__all__ = [
    "SoakConfig",
    "SoakReport",
    "STOCK_CONFIGS",
    "build_soak_specs",
    "run_soak",
]

#: hosts a fault plan may crash: placed compute hosts, never the AVS /
#: Manager machine (sparc10.cs.arizona.edu) whose death is not a
#: recoverable fault in the 1993 architecture
CRASHABLE_HOSTS = (
    "sgi4d340.cs.arizona.edu",
    "rs6000.lerc.nasa.gov",
    "sgi4d420.lerc.nasa.gov",
)


@dataclass(frozen=True)
class SoakConfig:
    """One reproducible soak: every knob that shapes the session mix.

    The ``*_weight`` fields bias which fault species a faulty session
    draws; ``tight_deadlines`` plus ``max_live``/``max_parked`` is the
    overload posture (queue waits eat deadline budgets, the shedder has
    real work to do)."""

    name: str
    seed: int = 0
    sessions: int = 8
    #: fraction of sessions that carry a seeded fault plan
    faulty_fraction: float = 0.5
    crash_weight: float = 1.0
    partition_weight: float = 1.0
    loss_weight: float = 1.0
    #: fraction of sessions running with the resilience kit on
    resilient_fraction: float = 0.75
    tight_deadlines: bool = False
    max_live: Optional[int] = None
    max_parked: Optional[int] = None
    mode: str = "inline"
    #: shard-mode knobs: worker process count and how many
    #: seeded SIGKILLs the kill plan schedules against the pool
    #: (``mode="shard"`` refuses per-session fault plans — set
    #: ``faulty_fraction=0.0`` — so worker kills are its chaos species)
    workers: int = 0
    worker_kills: int = 0

    @property
    def admission(self) -> Optional[AdmissionPolicy]:
        if self.max_live is None and self.max_parked is None:
            return None
        return AdmissionPolicy(max_live=self.max_live, max_parked=self.max_parked)


#: the fixed-seed postures the CI chaos-soak job runs
STOCK_CONFIGS: Dict[str, SoakConfig] = {
    "crash-heavy": SoakConfig(
        name="crash-heavy",
        seed=1101,
        sessions=8,
        faulty_fraction=0.6,
        crash_weight=3.0,
        partition_weight=0.3,
        loss_weight=0.5,
    ),
    "partition-heavy": SoakConfig(
        name="partition-heavy",
        seed=2202,
        sessions=8,
        faulty_fraction=0.6,
        crash_weight=0.2,
        partition_weight=3.0,
        loss_weight=1.5,
    ),
    "overload": SoakConfig(
        name="overload",
        seed=3303,
        sessions=10,
        faulty_fraction=0.2,
        crash_weight=0.5,
        partition_weight=0.5,
        loss_weight=1.0,
        tight_deadlines=True,
        max_live=2,
        max_parked=4,
    ),
    # worker-process chaos: sessions carry NO virtual fault plans (the
    # shard plane refuses them) — the chaos here is seeded SIGKILLs of
    # the serving pool's own workers, exercising the failover path
    # (respawn, episode redo, ring rebuild, lease forfeit) end to end
    "crash-shard": SoakConfig(
        name="crash-shard",
        seed=4404,
        sessions=10,
        faulty_fraction=0.0,
        resilient_fraction=0.5,
        mode="shard",
        workers=4,
        worker_kills=3,
    ),
}


def _fault_plan(rng: random.Random, config: SoakConfig, seed: int) -> FaultPlan:
    """Draw a fault plan: 1–3 events of seeded species, pinned to
    virtual instants inside a typical session's lifetime (~10–20s)."""
    species = ["crash", "partition", "loss"]
    weights = [config.crash_weight, config.partition_weight, config.loss_weight]
    events: List[FaultEvent] = []
    for _ in range(rng.choice((1, 1, 2, 3))):
        kind = rng.choices(species, weights=weights, k=1)[0]
        at = round(rng.uniform(0.5, 6.0), 3)
        if kind == "crash":
            host = rng.choice(CRASHABLE_HOSTS)
            if rng.random() < 0.5:
                events.append(CrashMachine(at_s=at, hostname=host))
            else:
                events.append(CrashProcess(at_s=at, hostname=host))
        elif kind == "partition":
            heal = at + round(rng.uniform(0.4, 2.0), 3)
            events.append(
                PartitionLink(at_s=at, site_a=SITE_LERC, site_b=SITE_ARIZONA)
            )
            events.append(
                HealLink(at_s=heal, site_a=SITE_LERC, site_b=SITE_ARIZONA)
            )
        else:
            until = at + round(rng.uniform(1.0, 4.0), 3)
            if rng.random() < 0.7:
                events.append(
                    PacketLoss(
                        at_s=at, until_s=until, rate=round(rng.uniform(0.1, 0.4), 2)
                    )
                )
            else:
                events.append(
                    LatencySpike(
                        at_s=at,
                        until_s=until,
                        extra_s=round(rng.uniform(0.2, 1.0), 2),
                    )
                )
    return FaultPlan(seed=seed, events=tuple(events))


def build_soak_specs(config: SoakConfig) -> List[SessionSpec]:
    """The session mix, a pure function of ``config`` (so a soak and
    its replay serve byte-identical workloads)."""
    rng = random.Random(config.seed)
    specs: List[SessionSpec] = []
    for i in range(config.sessions):
        n_points = rng.choice((2, 2, 3, 4))
        start = rng.choice((1.28, 1.30, 1.32))
        points = tuple(round(start + 0.02 * k, 2) for k in range(n_points))
        transient_s = rng.choice((0.0, 0.0, 0.0, 0.2))
        faulty = rng.random() < config.faulty_fraction
        plan = (
            _fault_plan(rng, config, seed=config.seed * 1000 + i) if faulty else None
        )
        resilient = rng.random() < config.resilient_fraction
        if config.tight_deadlines:
            deadline = round(rng.uniform(15.0, 45.0), 1)
        else:
            deadline = rng.choice((None, None, 120.0, 240.0))
        specs.append(
            SessionSpec(
                name=f"{config.name}-{i}",
                points=points,
                transient_s=transient_s,
                fault_plan=plan,
                resilient=resilient,
                deadline_s=deadline,
                priority=rng.choice((0, 0, 0, 1, 2)),
            )
        )
    return specs


@dataclass
class SoakReport:
    """One soak's outcome: the two serve reports (run + replay), the
    invariant verdicts, and every violation in plain words.
    ``replay_identical`` is the replay verdict itself: every digest,
    status and per-shard crash count the same on both serves."""

    config: SoakConfig
    report: ServeReport
    replay_report: ServeReport
    replay_identical: bool
    violations: List[str] = field(default_factory=list)
    solo_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def records(self) -> List[dict]:
        """One ``soak`` record (the invariant verdicts), the run's serve
        records, then one ``violation`` record per violation."""
        rep = self.report
        head = {
            "record": "soak",
            "config": self.config.name,
            "seed": self.config.seed,
            "mode": self.config.mode,
            "sessions": rep.sessions,
            "completed": rep.completed,
            "degraded": rep.degraded,
            "shed": rep.shed,
            "parked": rep.parked,
            "deadline_met": rep.deadline_met,
            "deadline_missed": rep.deadline_missed,
            "replay_identical": self.replay_identical,
            "solo_checked": self.solo_checked,
            "violations": len(self.violations),
            "ok": self.ok,
        }
        return [
            head,
            *rep.records(),
            *(
                {"record": "violation", "config": self.config.name, "message": v}
                for v in self.violations
            ),
        ]


def _serve(config: SoakConfig, specs: List[SessionSpec]) -> ServeReport:
    if config.mode == "shard":
        workers = config.workers or 2
        with ShardPool(workers, recv_timeout_s=120.0) as pool:
            if config.worker_kills:
                pool.arm_kills(
                    build_kill_plan(config.seed, workers, config.worker_kills)
                )
            return serve_sessions_sharded(specs, pool, admission=config.admission)
    return serve_sessions(
        specs,
        installation=SharedInstallation.standard(),
        mode=config.mode,
        admission=config.admission,
    )


def run_soak(config: SoakConfig) -> SoakReport:
    """Run the soak twice (run + replay) plus solo references, and
    check every invariant.  Violations are *collected*, not raised —
    the CLI and tests decide how loudly to fail."""
    specs = build_soak_specs(config)
    violations: List[str] = []

    threads_before = {t.name for t in threading.enumerate()}
    report = _serve(config, specs)
    leaked = {t.name for t in threading.enumerate()} - threads_before
    if leaked:
        violations.append(f"leaked worker threads after soak: {sorted(leaked)}")

    # 1. accounting: nothing lost, nothing in an undeclared state
    if len(report.results) != len(specs):
        violations.append(
            f"{len(specs)} sessions in, {len(report.results)} results out"
        )
    for r in report.results:
        if r.status not in ("completed", "degraded", "shed"):
            violations.append(f"{r.name}: undeclared status {r.status!r}")
        if r.status == "shed" and not r.shed_reason:
            violations.append(f"{r.name}: shed without a reason")
        if r.deadline_met is False and r.status == "completed":
            violations.append(f"{r.name}: missed its deadline yet claims completed")

    # 2. deterministic replay on a fresh installation
    replay_report = _serve(config, specs)
    replay_identical = True
    for a, b in zip(report.results, replay_report.results):
        if a.digest != b.digest:
            replay_identical = False
            violations.append(
                f"{a.name}: replay trace digest diverged "
                f"({a.digest[:12]} != {b.digest[:12]})"
            )
        if (a.status, a.shed_reason) != (b.status, b.shed_reason):
            replay_identical = False
            violations.append(
                f"{a.name}: replay status diverged "
                f"({a.status!r} != {b.status!r})"
            )

    # 2b. shard chaos: the kill plan must actually have fired, the
    # disruption must be accounted identically on replay, and the
    # killed run's results must match an uninterrupted *inline* run
    # bitwise — the shard plane's bitwise-redo guarantee, end to end
    if config.mode == "shard":
        rows = report.shard_rows or []
        crashes = sum(r.get("crashes", 0) for r in rows)
        if config.worker_kills and crashes == 0:
            violations.append(
                f"kill plan scheduled {config.worker_kills} worker kills "
                f"but no shard row accounts a crash"
            )
        replay_rows = replay_report.shard_rows or []
        if [r.get("crashes", 0) for r in rows] != [
            r.get("crashes", 0) for r in replay_rows
        ]:
            replay_identical = False
            violations.append(
                "replay diverged: per-shard crash accounting differs between "
                "two runs of the same seeded kill plan"
            )
        inline_ref = serve_sessions(
            specs,
            installation=SharedInstallation.standard(),
            mode="inline",
            admission=config.admission,
        )
        for a, b in zip(report.results, inline_ref.results):
            if (a.digest, a.status, a.replayed) != (
                b.digest, b.status, b.replayed,
            ):
                violations.append(
                    f"{a.name}: shard serve under worker kills diverged from "
                    f"the uninterrupted inline run"
                )

    # 3. solo equivalence: completed == untouched by chaos, so a solo
    # fault-free run of the same spec must produce identical numbers
    solo_checked = 0
    solo_cache: Dict[str, Tuple[List[dict], Optional[dict]]] = {}
    for r, spec in zip(report.results, specs):
        if r.status != "completed":
            continue
        solo = solo_cache.get(r.workload_key)
        if solo is None:
            solo_spec = SessionSpec(
                name=f"solo:{spec.name}",
                points=spec.points,
                placement=dict(spec.placement),
                altitude_m=spec.altitude_m,
                mach=spec.mach,
                transient_s=spec.transient_s,
                transient_dt=spec.transient_dt,
                avs_machine=spec.avs_machine,
                dispatch=spec.dispatch,
                fault_plan=None,
                deadline_s=spec.deadline_s,
                resilient=spec.resilient,
            )
            solo_report = serve_sessions(
                [solo_spec],
                installation=SharedInstallation.standard(),
                mode="inline",
                dedup=False,
            )
            sr = solo_report.results[0]
            solo = (sr.results, sr.transient)
            solo_cache[r.workload_key] = solo
        solo_checked += 1
        if r.results != solo[0] or r.transient != solo[1]:
            violations.append(
                f"{r.name}: claims completed but differs from the solo "
                f"fault-free run (should have been marked degraded)"
            )

    return SoakReport(
        config=config,
        report=report,
        replay_report=replay_report,
        replay_identical=replay_identical,
        violations=violations,
        solo_checked=solo_checked,
    )
