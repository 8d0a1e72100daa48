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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..schooner.lines import Line, declared_state

__all__ = ["Checkpoint", "CheckpointStore"]


@dataclass(frozen=True)
class Checkpoint:
    """One snapshot of an executable instance's state variables."""

    line_id: str
    path: str
    taken_at: float  # virtual seconds
    blobs: Tuple[Tuple[str, bytes], ...]  # (var, UTS wire bytes), sorted


@dataclass
class CheckpointStore:
    """Latest checkpoint per ``(line_id, executable path)``."""

    _latest: Dict[Tuple[str, str], Checkpoint] = field(default_factory=dict)
    taken: int = 0

    def take(self, line: Line, now: float) -> int:
        """Checkpoint every live stateful executable instance of a line;
        returns the number of snapshots written."""
        wrote = 0
        by_process: Dict[int, list] = {}
        for record in line.records:
            by_process.setdefault(id(record.process), []).append(record)
        for records in by_process.values():
            record = records[0]
            if not record.process.alive:
                continue
            blobs = declared_state(records)
            if not blobs:
                continue  # stateless, or set* has not run yet: nothing to save
            self._latest[(line.line_id, record.path)] = Checkpoint(
                line_id=line.line_id,
                path=record.path,
                taken_at=now,
                blobs=blobs,
            )
            self.taken += 1
            wrote += 1
        return wrote

    def latest(self, line_id: str, path: str):
        return self._latest.get((line_id, path))
