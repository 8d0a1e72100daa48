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
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..machines.host import Machine
from ..machines.process import VirtualProcess
from ..network.clock import Timeline
from ..uts.types import UTSType
from .errors import DuplicateName, LineTerminated, NameNotFound, StaleRebind, StateLost
from .procedure import Procedure

__all__ = ["Line", "LineState", "InstanceRecord", "declared_state"]

_instance_ids = itertools.count(1)


class _ProcessState(dict):
    """A process's state variables.  Reading one that nothing installed
    raises :class:`StateLost` rather than :class:`KeyError`, so a
    procedure that reads ``_state[var]`` fails typed, naming the host.

    Every mutator marks the state ``written``.  ``hook``, when set, is a
    failover supervisor's, on the processes it watches: it takes their
    checkpoint, when the call that wrote the state calls :meth:`checkpoint`.

    ``component`` is what the executable's compute procedure built from
    the declared state (a TESS ``Duct``, say), kept for its next call:
    every mutator clears it, so it is built once per write."""

    __slots__ = ("host", "hook", "component", "written")

    def __init__(self, host: str):
        self.host = host
        self.hook = None
        self.component = None
        self.written = False

    def __missing__(self, var):
        raise StateLost(f"declared state {var!r} is not installed on {self.host}")

    def checkpoint(self) -> None:
        """Call ``hook`` if a write marked the state since the last
        checkpoint (a stateful ``serve`` stub, and ``Manager.restart``)."""
        if self.written:
            self.written = False
            if self.hook is not None:
                self.hook()


def _marks_written(write):
    def marked(self, *args, **kwargs):
        self.component = None
        result = write(self, *args, **kwargs)
        self.written = True
        return result
    return marked


for _name in ("__setitem__", "__delitem__", "__ior__", "clear", "pop", "popitem",
              "setdefault", "update"):
    setattr(_ProcessState, _name, _marks_written(getattr(dict, _name)))


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
    #: the ``hook`` the process's state gets when this record makes it
    #: (a failover supervisor's, set by its ``watch``)
    state_hook: Optional[Callable[[], None]] = field(
        default=None, init=False, repr=False, compare=False
    )

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
            state.hook = self.state_hook
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


def declared_state(records: Sequence[InstanceRecord]) -> Tuple[Tuple[str, UTSType, Any], ...]:
    """The declared state of the live process hosting ``records``, as
    ``(var, UTS type, conformed value)`` by its executable's
    ``state_plan``: what a move ships and a checkpoint keeps.  A
    variable not yet installed is left out; one that fails to conform is
    refused, typed.  A conformed array or record is a fresh copy."""
    record = records[0]
    try:
        storage = record.process.memory[record.path]
    except KeyError:  # read, never made: a process no stateful call reached has none
        return ()
    return tuple([
        (var, t, conform(storage[var]))
        for var, t, conform in record.process.payload.state_plan
        if var in storage
    ])


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
