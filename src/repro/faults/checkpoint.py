"""UTS-encoded checkpoints of stateful remote procedures.

A stateful procedure's recoverable state is exactly what its
``state_spec`` declares (the same specification that drives §4.2
migration).  A checkpoint stores each state variable as UTS *wire*
bytes — the architecture-neutral format — taken by
:func:`repro.schooner.lines.declared_state`, the encoder a move's
snapshot of the live process uses too, so state checkpointed on a Cray
can be restored into a process on a SPARC.

Restoring is not this module's: a failover hands the checkpoint's
blobs to :meth:`repro.schooner.Manager.restart`, the one site where a
move and a restore both install state, as the decoded wire values.
Neither applies the destination's native format to them, so a restored
or moved variable is exactly the conformed value that was saved.
Whether arriving state should take the destination's native format, as
an RPC argument does, is decided at that one site.

When to take one is the supervisor's: the first write to a process's
declared state schedules a checkpoint event, which fires at the next
clock advance (:mod:`repro.faults.recovery`).  A shared instance's
checkpoints are kept under :data:`SHARED`, the shared registry's
database id (no line binds it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from ..schooner.lines import InstanceRecord, declared_state
from ..schooner.manager import SHARED

__all__ = ["Checkpoint", "CheckpointStore", "SHARED"]


@dataclass(frozen=True)
class Checkpoint:
    """One snapshot of an executable instance's state variables."""

    line_id: str
    path: str
    taken_at: float  # virtual seconds
    blobs: Tuple[Tuple[str, bytes], ...]  # (var, UTS wire bytes), sorted


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
        blobs = declared_state(records)
        if blobs:
            path = records[0].path
            self._latest[(line_id, path)] = Checkpoint(line_id, path, now, blobs)
            self.taken += 1

    def latest(self, line_id: str, path: str):
        return self._latest.get((line_id, path))
