"""The Schooner library functions, as seen by an application module.

The paper's adapted AVS modules use exactly three pieces of glue:

* ``sch_contact_schx(machine, path)`` at the start of the compute
  function — register with the Manager and ask it to start the remote
  process (the new startup protocol of §4.1);
* ordinary calls through imported stubs during computation;
* ``sch_i_quit()`` in the destroy function — notify the Manager, which
  shuts down the remote procedures of this module's line.

:class:`ModuleContext` packages that API for one module (= one line).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from ..machines.host import Machine
from ..uts.spec import SpecFile
from ..uts.types import Signature
from .errors import SchoonerError
from .lines import InstanceRecord, Line, LineState
from .manager import Manager
from .runtime import CallerContext
from .stubs import ClientStub

__all__ = ["ModuleContext"]


@dataclass
class ModuleContext:
    """One application module's connection to Schooner.

    Created lazily by :meth:`connect`; a module typically keeps one
    context for its whole life (AVS spec -> compute* -> destroy).
    """

    manager: Manager
    module_name: str
    machine: Machine  # where the module itself runs (the AVS host)
    # caller-side serialization/overlap state, usually shared by every
    # module of one calling program (see SchoonerHost); None keeps the
    # historical free-running per-line accounting
    caller: Optional[CallerContext] = None
    _line: Optional[Line] = None
    # placement per executable path alias: (machine, path, records)
    _placements: Dict[str, Tuple[Machine, str, Tuple[InstanceRecord, ...]]] = field(
        default_factory=dict
    )
    _stubs: Dict[str, ClientStub] = field(default_factory=dict)

    # -- line management -----------------------------------------------------
    @property
    def line(self) -> Line:
        if self._line is None or self._line.state is not LineState.ACTIVE:
            self._line = self.manager.contact(self.module_name, self.machine)
            self._placements.clear()
            self._stubs.clear()
        return self._line

    @property
    def connected(self) -> bool:
        return self._line is not None and self._line.state is LineState.ACTIVE

    def placed_alive(self, machine: Machine, path: str) -> bool:
        """:meth:`sch_contact_schx`'s idempotence test: the line is
        active, ``path`` is placed on ``machine`` and every process
        started for it is still running — exactly when a repeated
        ``sch_contact_schx(machine, path)`` has nothing to do."""
        line, current = self._line, self._placements.get(path)
        if (
            current is None
            or current[0] is not machine
            or line is None
            or line.state is not LineState.ACTIVE
        ):
            return False
        for record in current[2]:
            if not record.process.alive:
                return False
        return True

    # -- the paper's API -------------------------------------------------------
    def sch_contact_schx(self, machine: Union[Machine, str], path: str) -> Tuple[InstanceRecord, ...]:
        """Register with the Manager and start the remote process.

        Called at the beginning of the AVS compute function with the
        values of the machine-selection and pathname widgets.  The call
        is idempotent for an unchanged placement; when the user picks a
        different machine or path, the old remote process is shut down
        and a fresh one is started there.
        """
        if isinstance(machine, str):
            machine = self.manager.env.park[machine]
        if self.placed_alive(machine, path):
            return self._placements[path][2]
        line = self.line
        current = self._placements.get(path)
        if current is not None:
            cur_machine, cur_path, records = current
            supervisor = getattr(self.manager, "supervisor", None)
            if (
                cur_machine is machine
                and supervisor is not None
                and any(not r.alive for r in records)
            ):
                # unchanged placement but the process died: this is a
                # failover, not a re-placement — let the supervisor
                # restart it (possibly elsewhere) with checkpointed
                # state rather than cold-starting on the dead machine.
                # A stub's retry path may have recovered the instance
                # already, so consult the line's current bindings first.
                try:
                    refreshed = tuple(
                        line.lookup(r.procedure.name) for r in records
                    )
                except SchoonerError:
                    refreshed = records
                if all(r.alive for r in refreshed):
                    new_records = refreshed
                else:
                    new_records = supervisor.recover(
                        line, refreshed[0], timeline=line.timeline
                    )
                    # annotate each stub's next call as failed over: the
                    # trace log keeps its witness of the re-routing even
                    # though no call had to fail first
                    for stub in self._stubs.values():
                        stub.note_failover()
                if new_records:
                    for stub in self._stubs.values():
                        stub.invalidate()
                    # keep the *requested* machine as the placement key:
                    # idempotence still compares against the widget value,
                    # while the line database knows where the instance
                    # actually runs now
                    self._placements[path] = (machine, path, tuple(new_records))
                    return self._placements[path][2]
            if cur_machine is machine and any(not r.alive for r in records):
                # same placement but the process is dead and no
                # supervisor recovered it: the restart below is an
                # *unplanned* one — record the witness, since no call
                # failed and no trace will carry the disturbance
                self.manager.env.unplanned_restarts += 1
            # placement changed (or process died): stop the old instance
            for r in records:
                if r.process.alive:
                    self.manager.server_for(r.machine).stop_process(
                        r.process, requester=self.manager.host, timeline=line.timeline
                    )
            # old bindings become stale; stubs will re-resolve
            for stub in self._stubs.values():
                stub.invalidate()
            # remove stale names from the line database so start_remote
            # can rebind them
            for r in records:
                for name in r.procedure.synonyms():
                    line._names.pop(name, None)
        records = self.manager.start_remote(line, machine, path)
        self._placements[path] = (machine, path, records)
        return records

    def import_proc(self, spec: Union[Signature, SpecFile, str], name: Optional[str] = None) -> ClientStub:
        """Build a client stub from an import specification.

        ``spec`` may be a :class:`Signature`, a parsed :class:`SpecFile`
        (with ``name`` selecting the import), or spec-language source
        text containing the import declaration.
        """
        sig = spec
        if not isinstance(spec, Signature):
            if isinstance(spec, str):
                spec = SpecFile.parse(spec)
            if name is None:
                imports = spec.imports
                if len(imports) != 1:
                    raise SchoonerError(
                        f"spec file has {len(imports)} imports; pass name="
                    )
                (sig,) = imports.values()
            else:
                sig = spec.import_named(name)
        if sig.name not in self._stubs:
            self._stubs[sig.name] = ClientStub(
                manager=self.manager,
                line=self.line,
                caller_machine=self.machine,
                import_sig=sig,
                caller=self.caller,
            )
        return self._stubs[sig.name]

    def sch_i_quit(self) -> None:
        """Notify the Manager that this module is being destroyed; the
        Manager shuts down the remote procedures in this module's line."""
        if self._line is not None and self._line.state is LineState.ACTIVE:
            self.manager.quit_line(self._line)
        self._placements.clear()
        self._stubs.clear()

    # -- migration -------------------------------------------------------------
    def sch_move(self, name: str, target: Union[Machine, str], path: Optional[str] = None) -> InstanceRecord:
        """Move a remote procedure to another machine (§4.2)."""
        if isinstance(target, str):
            target = self.manager.env.park[target]
        return self.manager.move(self.line, name, target, path)
