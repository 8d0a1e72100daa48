"""Checkpoints of stateful remote procedures, kept as conformed values.

A stateful procedure's recoverable state is exactly what its
``state_spec`` declares (the same specification that drives §4.2
migration).  A checkpoint keeps each declared variable's conformed
value and UTS type, taken by :func:`repro.schooner.lines.declared_state`
(the snapshot a move takes of the live process too), a fresh copy that
never aliases the live state.  Nothing is encoded at take time: a
failover hands the checkpoint to :meth:`repro.schooner.Manager.restart`,
the one site where a move and a restore both encode, ship and install
state, as the decoded wire values, so state checkpointed on a Cray can
be restored into a process on a SPARC.  Neither applies the
destination's native format: a restored or moved variable is exactly
the conformed value that was saved.

When to take one is the call's that wrote the state: the generated
``serve`` of a stateful call, when its procedure returns or raises, and
``Manager.restart`` once it has installed arriving state
(:mod:`repro.faults.recovery`).  A shared instance's checkpoints are
kept under :data:`SHARED`, the shared registry's database id (no line
binds it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Sequence, Tuple

from ..schooner.lines import InstanceRecord, declared_state
from ..schooner.manager import SHARED
from ..uts.types import UTSType

__all__ = ["Checkpoint", "CheckpointStore", "SHARED"]


@dataclass(frozen=True)
class Checkpoint:
    """One snapshot of an executable instance's state variables."""

    line_id: str
    path: str
    taken_at: float  # virtual seconds
    state: Tuple[Tuple[str, UTSType, Any], ...]  # (var, type, conformed value), sorted


@dataclass
class CheckpointStore:
    """Latest checkpoint per ``(line_id, executable path)``; ``taken``
    counts the snapshots written."""

    _latest: Dict[Tuple[str, str], Checkpoint] = field(default_factory=dict)
    taken: int = 0

    def take(self, line_id: str, records: Sequence[InstanceRecord], now: float) -> None:
        """Checkpoint the declared state of the process hosting
        ``records``, as bound in ``line_id``'s database (or
        :data:`SHARED`'s).  A process with nothing declared installed
        (stateless, or ``set*`` has not run) leaves the store as it is."""
        state = declared_state(records)
        if state:
            path = records[0].path
            self._latest[line_id, path] = Checkpoint(line_id, path, now, state)
            self.taken += 1

    def latest(self, line_id: str, path: str):
        return self._latest.get((line_id, path))
