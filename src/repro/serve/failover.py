"""Shard failover: worker supervision, typed death, and seeded kills.

The paper's deployment premise is a simulation spread over heterogeneous
hosts that slow down and die; PR 2 gave the *virtual* machine layer
checkpointed failover, but the shard serving plane (PRs 8–9) still
treated one dead worker process as fatal — the parent blocked forever in
``recv`` on a corpse, or marked the whole :class:`~repro.serve.shards.ShardPool`
broken and lost the serve.  This module is the supervision vocabulary
that lets the pool heal instead:

* :class:`ShardCrashed` — a worker process died.  Raised by the pool's
  sentinel-polling ``recv``/``send`` paths instead of a hang or a bare
  ``EOFError``/``BrokenPipeError``; carries the shard id, the process
  exit code (negative = killed by that signal), the last frame kind
  seen on that shard's stream, and the tail of the worker's stderr
  spool (workers redirect fd 2 into a per-worker file precisely so a
  corpse can still be autopsied).

* :class:`ShardTimeout` — a worker is *alive but wedged*: no frame
  arrived within the caller's ``recv_timeout_s``.  Carries the shard id,
  the timeout, and the last-seen frame kind, so the caller can decide
  between waiting longer and recycling the worker.

* :class:`KillSchedule` / :class:`~repro.faults.plan.KillShardWorker` —
  seeded, replayable worker kills.  A fault plan's kill events are pinned
  to *protocol points* (the k-th ``shard-open`` / ``shard-serve`` /
  ``shard-close`` frame sent to a shard), not wall instants: the pool
  consults the schedule immediately before each frame send and delivers
  ``SIGKILL`` to the worker first, so the frame provably never reaches
  it — two runs of the same plan against the same serve kill at exactly
  the same point in the conversation.  That is what makes the recovery
  differential tests deterministic rather than racy.

Recovery itself lives where the knowledge lives: the pool knows how to
replace a corpse (:meth:`~repro.serve.shards.ShardPool.respawn` — reap,
unlink and rebuild the shm rings, fresh pipe, fresh process), and the
shard parent's executor (``_ShardExecutor`` in
:mod:`repro.serve.shards`) knows what the dead episode contained (its
open payload, every wave sent, the frame in flight), so it re-opens and
replays them verbatim.  Sessions are pure functions of their specs and
op-cache exact hits are bitwise-equal to cold solves, so the redone
results are bitwise-identical to the lost ones — a serve that survives
N kills produces the same per-session digests as an uninterrupted run,
with the disruption *accounted* (per-shard ``crashes`` /
``crash_exitcodes`` / ``redone_sessions`` / ``recovery_wall_s`` rows in
the :class:`~repro.serve.scheduler.ServeReport`), never hidden.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults.plan import FaultEvent, FaultPlan, KillShardWorker

__all__ = [
    "ShardCrashed",
    "ShardTimeout",
    "KillSchedule",
    "build_kill_plan",
    "read_stderr_tail",
    "STDERR_TAIL_BYTES",
]

#: how much of a dead worker's stderr spool survives into ShardCrashed
STDERR_TAIL_BYTES = 4096


class ShardCrashed(RuntimeError):
    """A shard worker process died mid-episode.

    ``exitcode`` follows ``multiprocessing``'s convention (negative N =
    killed by signal N); ``last_kind`` is the last frame kind seen on
    this shard's stream before death (``None`` if nothing crossed yet);
    ``stderr_tail`` is the tail of the worker's stderr spool — a worker
    that died of an uncaught exception or an OS-level complaint leaves
    its last words there, a SIGKILL leaves nothing."""

    def __init__(
        self,
        shard: int,
        exitcode: Optional[int] = None,
        last_kind: Optional[str] = None,
        stderr_tail: str = "",
    ):
        self.shard = shard
        self.exitcode = exitcode
        self.last_kind = last_kind
        self.stderr_tail = stderr_tail
        died = (
            f"exit code {exitcode}"
            if exitcode is None or exitcode >= 0
            else f"killed by signal {-exitcode}"
        )
        msg = (
            f"shard {shard} worker died ({died}; last frame seen: "
            f"{last_kind or 'none'})"
        )
        if stderr_tail:
            msg += f"\n--- worker stderr tail ---\n{stderr_tail}"
        super().__init__(msg)


class ShardTimeout(RuntimeError):
    """No frame from a live shard worker within the recv timeout.

    The worker's process is still alive — death raises
    :class:`ShardCrashed` instead — so this means *wedged or slower than
    the caller is willing to wait*.  Carries the shard id, the timeout
    that expired, and the last-seen frame kind on that stream."""

    def __init__(
        self,
        shard: int,
        timeout_s: float,
        last_kind: Optional[str] = None,
    ):
        self.shard = shard
        self.timeout_s = timeout_s
        self.last_kind = last_kind
        super().__init__(
            f"shard {shard} sent no frame within {timeout_s:g}s "
            f"(worker alive; last frame seen: {last_kind or 'none'})"
        )


#: which fault-plan kill phase each outbound frame kind belongs to
_PHASE_BY_KIND = {
    "shard-open": "open",
    "shard-serve": "wave",
    "shard-close": "close",
}


class KillSchedule:
    """The armed form of a fault plan's :class:`KillShardWorker` events.

    The pool calls :meth:`take` immediately before sending each
    episode-protocol frame; a returned event means *kill this worker
    now, before the frame goes out*.  Matching is by protocol point:
    ``phase="open"``/``"close"`` events fire on the next such frame to
    their shard, ``phase="wave"`` events fire on the ``wave``-th
    ``shard-serve`` frame sent to their shard (0-based, counted from
    arming — redo re-sends count too, which is what keeps a replay of
    the same plan on the same serve killing at the same instant).  Each
    event fires at most once; :attr:`fired` records the execution order.
    """

    def __init__(self, events: Sequence[FaultEvent]):
        ordered = sorted(
            (e for e in events if isinstance(e, KillShardWorker)),
            key=lambda e: (e.at_s, e.shard, e.phase, e.wave),
        )
        self._pending: List[KillShardWorker] = list(ordered)
        self._sent: Dict[Tuple[int, str], int] = {}
        self.fired: List[KillShardWorker] = []

    def __len__(self) -> int:
        return len(self._pending)

    def take(self, shard: int, kind: str) -> Optional[KillShardWorker]:
        """The kill to execute before sending ``kind`` to ``shard``,
        if any.  Advances the per-(shard, phase) frame counter either
        way, so wave ordinals stay aligned with the protocol."""
        phase = _PHASE_BY_KIND.get(kind)
        if phase is None:
            return None
        ordinal = self._sent.get((shard, phase), 0)
        self._sent[(shard, phase)] = ordinal + 1
        for ev in self._pending:
            if ev.shard != shard or ev.phase != phase:
                continue
            if phase == "wave" and ev.wave != ordinal:
                continue
            self._pending.remove(ev)
            self.fired.append(ev)
            return ev
        return None


def build_kill_plan(seed: int, workers: int, kills: int = 3) -> FaultPlan:
    """A seeded, replayable worker-kill plan for ``workers`` shards.

    Phases cycle ``open -> wave -> close`` so three or more kills cover
    the whole kill matrix; shard choice and wave ordinals come from a
    PRNG derived from ``seed`` alone, so the same seed always builds the
    same plan (the chaos soak's replay invariant depends on it).  Wave
    kills target wave 0 — the one wave every busy shard is guaranteed
    to receive."""
    if kills < 0:
        raise ValueError(f"kills must be >= 0, got {kills!r}")
    rng = random.Random((seed * 7919) ^ (workers << 8) ^ kills)
    phases = ("open", "wave", "close")
    events = tuple(
        KillShardWorker(
            at_s=float(i),
            shard=rng.randrange(max(1, workers)),
            phase=phases[i % len(phases)],
            wave=0,
        )
        for i in range(kills)
    )
    return FaultPlan(seed=seed, events=events)


def read_stderr_tail(path: Optional[str], limit: int = STDERR_TAIL_BYTES) -> str:
    """The last ``limit`` bytes of a worker's stderr spool, decoded
    leniently; empty when the spool is missing or unreadable (a
    SIGKILLed worker usually wrote nothing)."""
    if not path:
        return ""
    try:
        size = os.path.getsize(path)
        with open(path, "rb") as fh:
            if size > limit:
                fh.seek(size - limit)
            return fh.read(limit).decode("utf-8", "replace").strip()
    except OSError:
        return ""
