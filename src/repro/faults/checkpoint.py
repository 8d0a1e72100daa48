"""UTS-encoded checkpoints of stateful remote procedures.

A stateful procedure's recoverable state is exactly what its
``state_spec`` declares (the same specification that drives §4.2
migration).  A checkpoint stores each state variable as UTS *wire*
bytes — the architecture-neutral format, written by the same compiled
codec (:func:`repro.uts.compiled.codec_for`) every RPC uses — so state
checkpointed on a Cray can be restored into a process on a SPARC.

Neither a restore nor a migration applies the destination's native
format to the state: ``restore`` stores the decoded wire values as they
are, and ``Manager.migrate`` copies the conformed values.  A restored
variable is therefore exactly the conformed value that was saved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..schooner.lines import InstanceRecord, Line
from ..uts.compiled import codec_for
from ..uts.values import conform

__all__ = ["Checkpoint", "CheckpointStore"]


def _state_types(records) -> Dict[str, object]:
    """Union of the state specs of an executable's procedures (they
    share one process memory)."""
    types: Dict[str, object] = {}
    for r in records:
        if r.procedure.state_spec:
            types.update(r.procedure.state_spec)
    return types


@dataclass(frozen=True)
class Checkpoint:
    """One snapshot of an executable instance's state variables."""

    line_id: str
    path: str
    taken_at: float  # virtual seconds
    blobs: Tuple[Tuple[str, bytes], ...]  # (var, UTS wire bytes), sorted

    @property
    def nbytes(self) -> int:
        return sum(len(b) for _, b in self.blobs)


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
            types = _state_types(records)
            if not types:
                continue  # stateless executable: nothing to checkpoint
            storage = record.state_storage()
            blobs = tuple(
                (var, codec_for(t).encode(conform(t, storage[var])))
                for var, t in sorted(types.items())
                if var in storage
            )
            if not blobs:
                continue  # set* has not run yet; no state to save
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

    def restore(self, checkpoint: Checkpoint, new_records) -> int:
        """Decode a checkpoint into a restarted instance's process
        memory; returns the number of variables restored."""
        types = _state_types(new_records)
        storage = new_records[0].state_storage()
        restored = 0
        for var, blob in checkpoint.blobs:
            t = types.get(var)
            if t is None:
                continue
            value, _ = codec_for(t).decode(blob)
            storage[var] = value
            restored += 1
        return restored
