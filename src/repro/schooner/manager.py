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
from typing import Dict, Optional, Tuple

from ..machines.host import Machine
from ..uts.compiled import codec_for
from ..uts.types import Signature
from ..uts.values import conform
from .errors import (
    DuplicateName,
    InstanceGone,
    ManagerError,
    MigrationError,
    NameNotFound,
)
from .lines import InstanceRecord, Line, LineState, new_instance_record
from .procedure import Executable, Procedure
from .runtime import SchoonerEnvironment, check_import, execute_call
from .server import SchoonerServer

__all__ = ["Manager", "ManagerMode", "SharedRegistry"]


class ManagerMode(Enum):
    SINGLE_PROGRAM = "single-program"  # the original model (pre-§4.2)
    LINES = "lines"  # the extended model


@dataclass
class SharedRegistry:
    """The Manager's separate database for shared procedures (§4.2):
    procedures "available for use by any line"."""

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
        from .errors import StaleRebind

        synonyms = record.procedure.synonyms()
        for name in synonyms:
            cur = self._names.get(name)
            if cur is not None and cur.generation > record.generation:
                raise StaleRebind(
                    f"shared rebind of {name!r} at generation "
                    f"{record.generation} would clobber generation "
                    f"{cur.generation}"
                )
        for name in synonyms:
            self._names[name] = record

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
    # resolves to a dead instance.  None = no automatic recovery.
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

    @property
    def servers(self) -> Tuple[SchoonerServer, ...]:
        return tuple(self._servers.values())

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

    def line(self, line_id: str) -> Line:
        try:
            return self._lines[line_id]
        except KeyError:
            raise ManagerError(f"unknown line {line_id!r}") from None

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
            check_import(import_sig, record.procedure.signature)
        return record

    # -- calls (Manager-mediated convenience; stubs use runtime directly) ------
    def call(
        self,
        line: Line,
        caller_machine: Machine,
        name: str,
        import_sig: Signature,
        args: Dict,
    ) -> Dict:
        record = self.lookup(line, name, import_sig)
        return execute_call(self.env, caller_machine, line.timeline, record, import_sig, args)

    # -- shutdown ---------------------------------------------------------------
    def quit_line(self, line: Line) -> None:
        """``sch_i_quit``: terminate one line's remote procedures.

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

    def line_error(self, line: Line) -> None:
        """An error in any procedure of a line: same scope as quit."""
        self.quit_line(line)

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

    # -- migration (§4.2) ---------------------------------------------------------
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

        Moving a procedure relocates its hosting *process*, so any
        co-resident procedures of the same line (an executable's
        set/compute pair shares one process) move with it and keep
        sharing state at the destination.
        """
        self.require_running()
        line.require_active()
        old = self.lookup(line, name)
        if not old.process.alive:
            raise InstanceGone(
                f"cannot move {name!r}: its hosting process on "
                f"{old.machine.hostname} is no longer running"
            )
        proc_def = old.procedure
        path = target_path or old.path

        # every record of this line hosted by the same process moves too
        comoving = [r for r in line.records if r.process is old.process]
        if not comoving:
            comoving = [old]

        state_payload: Dict = {}
        state_bytes = 0
        for rec in comoving:
            rdef = rec.procedure
            if rdef.stateless:
                continue
            if rdef.state_spec is None:
                raise MigrationError(
                    f"{rdef.name!r} is stateful and has no state-transfer "
                    f"specification; it cannot be moved"
                )
            storage = rec.state_storage()
            for var, var_type in rdef.state_spec.items():
                if var in storage:
                    value = conform(var_type, storage[var])
                    state_payload[var] = value
                    state_bytes += len(codec_for(var_type).encode(value))

        # shutdown message to the original process
        old_server = self.server_for(old.machine)
        shared_rec = self._shared.lookup(name)
        shared = shared_rec is not None and shared_rec.instance_id == old.instance_id
        if old.process.alive:
            old_server.stop_process(old.process, requester=self.host, timeline=line.timeline)

        # start the new copy
        new_server = self.server_for(target_machine)
        try:
            new_proc = new_server.start_process(path, requester=self.host, timeline=line.timeline)
        except ManagerError as exc:
            raise MigrationError(f"cannot start {name!r} on {target_machine.hostname}: {exc}") from exc
        new_exec: Executable = new_proc.payload

        result: InstanceRecord = None  # type: ignore[assignment]
        new_records = []
        for rec in comoving:
            try:
                new_def = new_exec.procedure_named(rec.procedure.name)
            except Exception as exc:
                raise MigrationError(str(exc)) from exc
            new_rec = new_instance_record(
                new_def, new_proc, target_machine, path, generation=rec.generation + 1
            )
            new_records.append(new_rec)
            if rec.instance_id == old.instance_id:
                result = new_rec

        # ship the state variables (one transfer message for the process)
        if state_payload:
            self.env.transport.send(
                old.machine,
                target_machine,
                f"state:{name}",
                None,
                state_bytes,
                timeline=line.timeline,
            )
            new_records[0].state_storage().update(state_payload)

        # update the mapping tables; stale client caches self-correct on
        # their next (failing) call to the old location
        for new_rec in new_records:
            if shared:
                self._shared.rebind(new_rec)
            else:
                line.rebind(new_rec)
        return result
