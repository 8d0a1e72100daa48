"""Lines: Schooner's multiple-threads-of-control extension (§4.2).

"The option that was, in the end, chosen involves extending the model of
a Schooner program to include multiple threads of control, which we call
*lines*.  Each line ... is a sequential execution of procedures, some of
which may be located on remote machines. ... no duplicate procedure
names are permitted within a line, but multiple lines can contain remote
procedures with the same name."

A :class:`Line` owns a per-line name database and a virtual timeline
(lines "execute independently of the others with no synchronization").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Tuple

from ..machines.host import Machine
from ..machines.process import VirtualProcess
from ..network.clock import Timeline
from .errors import DuplicateName, LineTerminated, NameNotFound, StaleRebind
from .procedure import Procedure

__all__ = ["Line", "LineState", "InstanceRecord"]

_instance_ids = itertools.count(1)


@dataclass
class InstanceRecord:
    """One running remote-procedure instance, as known to the Manager.

    The record is what lookups return and what migration rewrites: it
    names the procedure, the process currently hosting it, and where
    that process runs.
    """

    instance_id: int
    procedure: Procedure
    process: VirtualProcess
    machine: Machine
    path: str
    generation: int = 0  # bumped by every migration

    @property
    def alive(self) -> bool:
        return self.process.alive

    def state_storage(self) -> dict:
        """Mutable state, kept in the hosting process's memory (which is
        why migration must explicitly transfer it).

        The storage is shared by every procedure the process's
        executable exports — a real process's global variables — which
        is what lets the paper's ``set*`` initialization procedures
        leave values behind for their compute partners."""
        key = f"exe-state:{self.path}"
        return self.process.memory.setdefault(key, {})


class LineState(Enum):
    ACTIVE = "active"
    TERMINATED = "terminated"


@dataclass
class Line:
    """One thread of control and its private procedure name database."""

    line_id: str
    timeline: Timeline
    state: LineState = LineState.ACTIVE
    # name database: every synonym of a procedure maps to its record
    _names: Dict[str, InstanceRecord] = field(default_factory=dict)
    # processes started on behalf of this line (shutdown set)
    _processes: Dict[str, VirtualProcess] = field(default_factory=dict)

    def require_active(self) -> None:
        if self.state is not LineState.ACTIVE:
            raise LineTerminated(f"line {self.line_id} is terminated")

    # -- name database -------------------------------------------------------
    def bind(self, procedure: Procedure, record: InstanceRecord) -> None:
        """Enter a procedure instance into the line's database under all
        its name synonyms.  Duplicate names within one line are an error
        (the lines model keeps the within-line uniqueness rule)."""
        self.require_active()
        synonyms = procedure.synonyms()
        for name in synonyms:
            if name in self._names:
                raise DuplicateName(
                    f"line {self.line_id}: procedure name {name!r} already bound"
                )
        for name in synonyms:
            self._names[name] = record
        self._processes[record.process.address] = record.process

    def lookup(self, name: str) -> InstanceRecord:
        self.require_active()
        try:
            return self._names[name]
        except KeyError:
            raise NameNotFound(
                f"line {self.line_id}: no procedure named {name!r}"
            ) from None

    def has_name(self, name: str) -> bool:
        return name in self._names

    def rebind(self, record: InstanceRecord) -> None:
        """Point all of a procedure's synonyms at a new record (migration
        or failover).

        Every migration/failover bumps the record's ``generation``; a
        rebind carrying a generation *older* than the current mapping is
        a late, superseded update and raises :class:`StaleRebind` rather
        than silently clobbering the newer binding."""
        self.require_active()
        synonyms = record.procedure.synonyms()
        for name in synonyms:
            cur = self._names.get(name)
            if cur is not None and cur.generation > record.generation:
                raise StaleRebind(
                    f"line {self.line_id}: rebind of {name!r} at generation "
                    f"{record.generation} would clobber generation "
                    f"{cur.generation}"
                )
        for name in synonyms:
            self._names[name] = record
        self._processes[record.process.address] = record.process

    @property
    def records(self) -> Tuple[InstanceRecord, ...]:
        seen = {}
        for rec in self._names.values():
            seen[rec.instance_id] = rec
        return tuple(seen.values())

    @property
    def processes(self) -> Tuple[VirtualProcess, ...]:
        return tuple(self._processes.values())


def new_instance_record(
    procedure: Procedure,
    process: VirtualProcess,
    machine: Machine,
    path: str,
    generation: int = 0,
) -> InstanceRecord:
    return InstanceRecord(
        instance_id=next(_instance_ids),
        procedure=procedure,
        process=process,
        machine=machine,
        path=path,
        generation=generation,
    )
