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
from typing import Dict, Iterable, Sequence, Tuple

from ..machines.host import Machine
from ..machines.process import VirtualProcess
from ..network.clock import Timeline
from ..uts.compiled import codec_for
from ..uts.values import conform
from .errors import DuplicateName, LineTerminated, NameNotFound, StaleRebind, StateLost
from .procedure import Procedure

__all__ = ["Line", "LineState", "InstanceRecord", "declared_state"]

_instance_ids = itertools.count(1)


class _ProcessState(dict):
    """A process's state variables.  Reading one that nothing installed
    raises :class:`StateLost` rather than :class:`KeyError`, so a
    procedure that reads ``_state[var]`` fails typed, naming the host.

    ``hook``, when set, is called with the state after every call of a
    mutator: a failover supervisor sets it on the processes it watches,
    so a write is what schedules their next checkpoint."""

    __slots__ = ("host", "hook")

    def __init__(self, host: str):
        self.host = host
        self.hook = None

    def __missing__(self, var):
        raise StateLost(f"declared state {var!r} is not installed on {self.host}")


def _hooked(write):
    def hooked(self, *args, **kwargs):
        result = write(self, *args, **kwargs)
        if self.hook is not None:
            self.hook(self)
        return result
    return hooked


for _name in ("__setitem__", "__delitem__", "__ior__", "clear", "pop", "popitem",
              "setdefault", "update"):
    setattr(_ProcessState, _name, _hooked(getattr(dict, _name)))


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
        leave values behind for their compute partners.  The process
        keeps it under the executable's path, so the generated ``serve``
        of a stateful call reads ``process.memory[record.path]`` and
        comes here only to make it."""
        state = self.process.memory.get(self.path)
        if state is None:
            state = self.process.memory[self.path] = _ProcessState(self.machine.hostname)
        return state


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
        rebind_names(self._names, record, f"line {self.line_id}: rebind")
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


def rebind_names(names: Dict[str, InstanceRecord], record: InstanceRecord, what: str) -> None:
    """Point every synonym of ``record``'s procedure in the name database
    ``names`` at it, unless that would clobber a newer generation."""
    synonyms = record.procedure.synonyms()
    for name in synonyms:
        cur = names.get(name)
        if cur is not None and cur.generation > record.generation:
            raise StaleRebind(
                f"{what} of {name!r} at generation {record.generation} "
                f"would clobber generation {cur.generation}"
            )
    for name in synonyms:
        names[name] = record


def state_types(records: Iterable[InstanceRecord]) -> Dict[str, object]:
    """Union of the state specs of the procedures one process hosts
    (they share its memory)."""
    types: Dict[str, object] = {}
    for r in records:
        if r.procedure.state_spec:
            types.update(r.procedure.state_spec)
    return types


def declared_state(records: Sequence[InstanceRecord]) -> Tuple[Tuple[str, bytes], ...]:
    """The declared state of the live process hosting ``records``, as
    ``(var, UTS wire bytes)`` sorted by name: what a move ships and a
    checkpoint keeps.  A declared variable not yet installed (its
    ``set*`` has not run) is left out."""
    types = state_types(records)
    if not types:
        return ()
    storage = records[0].state_storage()
    return tuple(
        (var, codec_for(t).encode(conform(t, storage[var])))
        for var, t in sorted(types.items())
        if var in storage
    )


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
