"""The Schooner Manager.

"The Manager is responsible for startup and shutdown of processes,
maintaining a table of exported procedures and their locations, and
performing runtime type-checking of procedure calls based on the UTS
specifications.  There is one such process per executing program."
(paper, section 3.1)

This implementation covers both generations of the Manager described in
section 4:

* the **original single-program model** (``ManagerMode.SINGLE_PROGRAM``):
  one global name database, duplicate names are errors, any shutdown or
  error terminates everything;
* the **extended lines model** (``ManagerMode.LINES``): a separate name
  database per line, per-line shutdown, a persistent Manager that
  survives across simulation runs, shared procedures, and procedure
  migration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional, Tuple

from ..machines.host import Machine
from ..network.clock import Timeline
from ..network.topology import NetworkError
from ..uts.compiled import codec_for
from ..uts.types import Signature, UTSType
from .errors import (
    DuplicateName,
    InstanceGone,
    ManagerError,
    MigrationError,
    NameNotFound,
    SchoonerError,
)
from .lines import (
    InstanceRecord,
    Line,
    LineState,
    declared_state,
    new_instance_record,
    rebind_names,
)
from .procedure import Executable, Procedure
from .runtime import SchoonerEnvironment, check_import_once
from .server import SchoonerServer

__all__ = ["Manager", "ManagerMode", "SharedRegistry"]


class ManagerMode(Enum):
    SINGLE_PROGRAM = "single-program"  # the original model (pre-§4.2)
    LINES = "lines"  # the extended model


#: the shared registry's database id, as a line's is its ``line_id``
SHARED = "shared"


@dataclass
class SharedRegistry:
    """The Manager's separate database for shared procedures (§4.2):
    procedures "available for use by any line"."""

    line_id = SHARED

    _names: Dict[str, InstanceRecord] = field(default_factory=dict)

    def bind(self, procedure: Procedure, record: InstanceRecord) -> None:
        for name in procedure.synonyms():
            if name in self._names:
                raise DuplicateName(f"shared procedure name {name!r} already bound")
        for name in procedure.synonyms():
            self._names[name] = record

    def lookup(self, name: str) -> Optional[InstanceRecord]:
        return self._names.get(name)

    def rebind(self, record: InstanceRecord) -> None:
        rebind_names(self._names, record, "shared rebind")

    def unbind(self, record: InstanceRecord) -> None:
        for name in list(self._names):
            if self._names[name].instance_id == record.instance_id:
                del self._names[name]

    @property
    def records(self) -> Tuple[InstanceRecord, ...]:
        uniq = {r.instance_id: r for r in self._names.values()}
        return tuple(uniq.values())


@dataclass
class Manager:
    """The (now persistent) Schooner Manager process."""

    env: SchoonerEnvironment
    host: Machine
    mode: ManagerMode = ManagerMode.LINES

    _lines: Dict[str, Line] = field(default_factory=dict)
    _servers: Dict[str, SchoonerServer] = field(default_factory=dict)
    _shared: SharedRegistry = field(default_factory=SharedRegistry)
    _line_counter: "itertools.count" = field(default_factory=lambda: itertools.count(1))
    running: bool = True
    runs_handled: int = 0
    # failure-detection/recovery sidecar (repro.faults.FailoverSupervisor):
    # consulted by client stubs and sch_contact_schx when a binding
    # resolves to a dead instance, and told of every record started
    # while attached (it watches their declared state for checkpoints).
    # None = no automatic recovery.
    supervisor: Optional[object] = None

    # -- infrastructure -----------------------------------------------------
    def require_running(self) -> None:
        if not self.running:
            raise ManagerError("the Schooner Manager has been terminated")

    def server_for(self, machine: Machine) -> SchoonerServer:
        """One Server per machine involved in the computation."""
        if machine.hostname not in self._servers:
            self._servers[machine.hostname] = SchoonerServer(env=self.env, machine=machine)
        return self._servers[machine.hostname]

    # -- the new startup protocol (§4.1) -------------------------------------
    def contact(self, line_name: str, caller_machine: Machine) -> Line:
        """A newly configured module establishes initial contact with the
        Manager and receives a fresh line.

        This is the protocol added when AVS took over program startup:
        "a newly-configured module [can] establish initial contact [with]
        the Manager and ... send requests for a remote procedure to be
        started on a specific machine."
        """
        self.require_running()
        if self.mode is ManagerMode.SINGLE_PROGRAM and self._lines:
            # the original model has exactly one thread of control
            raise ManagerError(
                "single-program mode supports only one thread of control; "
                "use ManagerMode.LINES for dynamically configured modules"
            )
        line_id = f"{line_name}#{next(self._line_counter)}"
        timeline = self.env.clock.timeline(line_id)
        # registration message: module -> Manager
        self.env.transport.send(
            caller_machine,
            self.host,
            "contact",
            line_id,
            self.env.costs.control_message_bytes,
            timeline=timeline,
        )
        line = Line(line_id=line_id, timeline=timeline)
        self._lines[line_id] = line
        return line

    @property
    def active_lines(self) -> Tuple[Line, ...]:
        return tuple(l for l in self._lines.values() if l.state is LineState.ACTIVE)

    # -- starting remote procedures -----------------------------------------
    def start_remote(self, line: Line, machine: Machine, path: str) -> Tuple[InstanceRecord, ...]:
        """Start the executable at ``path`` on ``machine`` on behalf of
        ``line``; returns a record per exported procedure.

        In SINGLE_PROGRAM mode all names land in one global namespace, so
        configuring a second instance of a module raises
        :class:`DuplicateName` — the restriction that motivated lines.
        """
        self.require_running()
        line.require_active()
        server = self.server_for(machine)
        proc = server.start_process(path, requester=self.host, timeline=line.timeline)
        executable: Executable = proc.payload
        records = []
        if self.mode is ManagerMode.SINGLE_PROGRAM:
            # global uniqueness check across every line
            for p in executable.procedures:
                for other in self._lines.values():
                    for name in p.synonyms():
                        if other.has_name(name):
                            server.stop_process(proc, requester=self.host, timeline=line.timeline)
                            raise DuplicateName(
                                f"procedure {name!r} already present in the program "
                                f"(original Schooner model permits one instance)"
                            )
        for p in executable.procedures:
            record = new_instance_record(p, proc, machine, path)
            line.bind(p, record)
            records.append(record)
        if self.supervisor is not None:
            self.supervisor.watch(line.line_id, records)
        return tuple(records)

    def start_shared(self, machine: Machine, path: str) -> Tuple[InstanceRecord, ...]:
        """Start a shared executable: its procedures are "not part of the
        line from which the startup request originated, but available for
        use by any line" (§4.2)."""
        self.require_running()
        if self.mode is not ManagerMode.LINES:
            raise ManagerError("shared procedures require the lines model")
        server = self.server_for(machine)
        proc = server.start_process(path, requester=self.host)
        executable: Executable = proc.payload
        records = []
        for p in executable.procedures:
            record = new_instance_record(p, proc, machine, path)
            self._shared.bind(p, record)
            records.append(record)
        if self.supervisor is not None:
            self.supervisor.watch(SHARED, records)
        return tuple(records)

    # -- lookup and type checking ----------------------------------------------
    def lookup(self, line: Line, name: str, import_sig: Optional[Signature] = None) -> InstanceRecord:
        """Resolve ``name`` for ``line``: the line's own database first,
        then the shared database; type-check the import against the
        export when a signature is supplied."""
        self.require_running()
        try:
            record = line.lookup(name)
        except NameNotFound:
            shared = self._shared.lookup(name)
            if shared is None:
                raise
            record = shared
        if import_sig is not None:
            check_import_once(self.env.park, import_sig, record.procedure.signature)
        return record

    # -- shutdown ---------------------------------------------------------------
    def quit_line(self, line: Line) -> None:
        """``sch_i_quit``, and an error in any procedure of the line
        (same scope): terminate one line's remote procedures.

        Under the lines model "the Manager terminates only the remote
        procedures within the affected line."  Under the original model
        this terminates the entire program."""
        self.require_running()
        if line.state is LineState.TERMINATED:
            return
        if self.mode is ManagerMode.SINGLE_PROGRAM:
            self.shutdown_all()
            return
        self._terminate_line(line)
        self.runs_handled += 1

    def _terminate_line(self, line: Line) -> None:
        for proc in line.processes:
            # do not kill processes that also host shared procedures
            if any(r.process is proc for r in self._shared.records):
                continue
            server = self.server_for(proc.machine)
            server.stop_process(proc, requester=self.host, timeline=line.timeline)
        line.state = LineState.TERMINATED

    def stop_shared(self, record: InstanceRecord) -> None:
        self._shared.unbind(record)
        if record.process.alive:
            self.server_for(record.machine).stop_process(record.process, requester=self.host)

    def shutdown_all(self) -> None:
        """Terminate every line and every shared procedure.  In the lines
        model the Manager is persistent, so this is an explicit user
        action; in the original model it is what any quit/error does."""
        for line in list(self._lines.values()):
            if line.state is LineState.ACTIVE:
                self._terminate_line(line)
        for record in self._shared.records:
            self.stop_shared(record)
        if self.mode is ManagerMode.SINGLE_PROGRAM:
            # the original Manager dies with its program
            self.running = False

    def terminate(self) -> None:
        """Explicitly terminate the persistent Manager (lines model)."""
        self.shutdown_all()
        self.running = False

    # -- migration (§4.2) and restart --------------------------------------------
    def move(
        self,
        line: Line,
        name: str,
        target_machine: Machine,
        target_path: Optional[str] = None,
    ) -> InstanceRecord:
        """Move a remote procedure to another machine during execution.

        "This results in the Manager first sending a shutdown message to
        the original procedure, and then starting a new copy on the
        specified machine.  The Manager then updates the procedure name
        mapping information for the line."

        Stateless procedures move as-is.  Stateful procedures require a
        ``state_spec`` (the planned UTS extension); their listed state
        variables are UTS-encoded and shipped to the new process.

        Moving a procedure relocates its hosting *process*, so every
        record that process hosts (an executable's set/compute pair
        shares one process) moves with it — the line's and the shared
        registry's — and keeps sharing state at the destination.
        """
        self.require_running()
        line.require_active()
        old = self.lookup(line, name)
        if not old.process.alive:
            raise InstanceGone(
                f"cannot move {name!r}: its hosting process on "
                f"{old.machine.hostname} is no longer running"
            )
        hosted = self._hosted(line, old)
        for rec, _ in hosted:
            if not rec.procedure.stateless and rec.procedure.state_spec is None:
                raise MigrationError(
                    f"{rec.procedure.name!r} is stateful and has no state-transfer "
                    f"specification; it cannot be moved"
                )
        state = declared_state([rec for rec, _ in hosted])
        self.server_for(old.machine).stop_process(
            old.process, requester=self.host, timeline=line.timeline
        )
        try:
            new_records = self.restart(
                line, old, target_machine, target_path or old.path, state,
                source=old.machine, kind=f"state:{name}", timeline=line.timeline,
            )
        except ManagerError as exc:
            raise MigrationError(f"cannot start {name!r} on {target_machine.hostname}: {exc}") from exc
        return new_records[[rec.instance_id for rec, _ in hosted].index(old.instance_id)]

    def _hosted(self, line: Line, old: InstanceRecord):
        """Every record ``old``'s process hosts, each with the database
        that binds it (``line`` or the shared registry), by procedure
        name."""
        hosted = [(r, line) for r in line.records if r.process is old.process]
        hosted += [(r, self._shared) for r in self._shared.records if r.process is old.process]
        return sorted(hosted or [(old, line)], key=lambda h: h[0].procedure.name)

    def restart(self, line: Line, old: InstanceRecord, target: Machine, path: str,
                state: Tuple[Tuple[str, UTSType, Any], ...], source: Machine, kind: str,
                timeline: Timeline) -> Tuple[InstanceRecord, ...]:
        """The one way an instance comes back on a new process, for a
        move (``state`` is the live process's) and a failover (the
        latest checkpoint's).

        Starts ``path`` on ``target``, rebuilds every record the old
        process hosted at generation + 1, ships ``state`` — ``(var, UTS
        type, conformed value)`` triples, UTS-encoded here — from
        ``source`` in one ``kind`` message, installs the decoded values,
        checkpoints them, and rebinds each record in the database that
        held it.  Returns the new records by procedure name."""
        hosted = self._hosted(line, old)
        proc = self.server_for(target).start_process(
            path, requester=self.host, timeline=timeline
        )
        new_records = []
        for rec, _ in hosted:
            try:
                new_def = proc.payload.procedure_named(rec.procedure.name)
            except SchoonerError as exc:
                raise MigrationError(str(exc)) from exc
            new_records.append(new_instance_record(
                new_def, proc, target, path, generation=rec.generation + 1
            ))
        if self.supervisor is not None:
            # watched before the state goes in: installing it is a write;
            # a process's records live in one database, its line's or
            # the shared registry
            self.supervisor.watch(hosted[0][1].line_id, new_records)
        if state:
            # encoded when shipped: the message carries the wire size
            blobs = [(var, codec_for(t).encode(value)) for var, t, value in state]
            try:
                self.env.transport.send(
                    source, target, kind, None, sum(len(b) for _, b in blobs),
                    timeline=timeline,
                )
            except NetworkError:
                # the state never arrived: reap the process it was for
                if proc.alive:
                    target.kill(proc.pid)
                raise
            # arriving state installs the conformed wire value, with no
            # native round trip on ``target`` as an RPC argument gets
            # (ROADMAP item 4(e); tests/faults/test_checkpoint.py pins it)
            types = {var: t for var, t, _ in proc.payload.state_plan}
            storage = new_records[0].state_storage()
            for var, blob in blobs:
                if var in types:
                    storage[var] = codec_for(types[var]).decode(blob)[0]
            storage.checkpoint()
        # stale client caches self-correct on their next (failing) call
        # to the old location
        for (_, names), new in zip(hosted, new_records):
            names.rebind(new)
        return tuple(new_records)
