"""Failure detection and checkpointed failover.

The :class:`FailoverSupervisor` is the Manager's recovery sidecar; the
executive creates one with its Manager, so every run is supervised.

* **detection** — a dead host or process is detected by the call that
  meets it: when a client stub's call fails on a dead binding and its
  re-lookup (``ClientStub._resolve``, the one caller of
  :meth:`~FailoverSupervisor.recover`) resolves the dead instance, the
  supervisor logs the death (``host-dead`` or ``process-dead``, "failed
  call") at that call's instant — for a host a fault plan crashed, no
  earlier than the crash.  Nothing polls, and re-contacting a placement
  (``sch_contact_schx``) starts nothing: a crash no call meets is never
  logged, and changes nothing;
* **checkpoints** — the call that writes a watched process's declared
  state (:meth:`~FailoverSupervisor.watch`) copies its conformed values
  (:mod:`repro.faults.checkpoint`) when its procedure returns or raises,
  stamped with that call's instant, and a restart does once it has
  installed state: no clock event, and no encode until a restore.

:meth:`~FailoverSupervisor.recover` then restarts the executable on a
surviving machine — deterministically chosen: a same-site host if one
survives, otherwise the first surviving host in hostname order —
through :meth:`Manager.restart`, the one restart path §4.2 migration
uses too: the latest checkpoint's state is shipped and installed, and
every record the dead process hosted is rebound, at a bumped
generation, in the database that held it (the line's or the shared
registry).

Everything the supervisor records (``events``) names hosts, paths, and
virtual times only — never process-global counters like instance ids —
so two replays of the same seeded run serialize identically.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import List, Sequence, Set

from ..machines.process import ProcessState
from ..network.clock import Timeline
from ..schooner.errors import HostDown
from ..schooner.lines import InstanceRecord, Line
from ..schooner.manager import Manager
from .checkpoint import SHARED, CheckpointStore

__all__ = ["FailoverSupervisor", "RecoveryEvent"]


@dataclass(frozen=True)
class RecoveryEvent:
    """One detection or recovery action, for the run's failure log."""

    at_s: float
    kind: str  # "host-dead" | "process-dead" | "failover"
    subject: str  # hostname, or the executable path that died / failed over
    detail: str

    def describe(self) -> str:
        return f"t={self.at_s:8.3f}s  {self.kind:<12} {self.subject}: {self.detail}"


@dataclass
class FailoverSupervisor:
    """Manager-driven failure detection, checkpointing, and failover."""

    manager: Manager
    store: CheckpointStore = field(default_factory=CheckpointStore)
    events: List[RecoveryEvent] = field(default_factory=list)
    dead_hosts: Set[str] = field(default_factory=set)
    recoveries: int = 0

    def __post_init__(self) -> None:
        # The Manager holds its supervisor, and a watched record or state
        # holds the supervisor's hook; every reference back is weak, so a
        # finished run's Manager is freed by its last user letting go,
        # not left to the cycle collector with everything it reaches.
        self.manager = weakref.proxy(self.manager)

    # -- lifecycle -----------------------------------------------------------
    def attach(self) -> None:
        """Install as the Manager's supervisor, before it starts anything:
        it watches each process the Manager starts from then on.  Without
        a supervisor, a call that meets a dead binding fails
        (``StaleBinding``) and ends its line."""
        self.manager.supervisor = self

    # -- checkpoints -----------------------------------------------------------
    def watch(self, database: str, records: Sequence[InstanceRecord]) -> None:
        """Hook the declared state of the process hosting ``records`` —
        every record it hosts in ``database`` (a line's id, or
        :data:`SHARED`) — so the call that writes it checkpoints it
        under that database.  Called by the Manager for every process it
        starts or restarts, before any state is installed.  Builds no
        state: each record hands the hook to the state it makes, which
        the first call that needs it does."""
        for record in records:
            if record.procedure.state_spec:
                break
        else:
            return
        hook = partial(self._take, database, weakref.ref(records[0]))
        for record in records:
            record.state_hook = hook

    def _take(self, database: str, ref: weakref.ref) -> None:
        """Checkpoint the live process a call just wrote, stamped with
        the instant of that call."""
        record = ref()
        if record is not None and record.process.state is ProcessState.RUNNING:
            self.store.take(database, (record,), self.manager.env.clock._now)

    # -- failover ---------------------------------------------------------------
    def _pick_target(self, record: InstanceRecord):
        """Deterministic restart placement: surviving machines with the
        executable installed, same-site hosts first, hostname order."""
        park = self.manager.env.park
        candidates = [
            m
            for m in park
            if m.up
            and m.hostname != record.machine.hostname
            and m.has_executable(record.path)
        ]
        if not candidates:
            raise HostDown(
                f"no surviving machine has {record.path!r} installed"
            )
        same_site = sorted(
            (m for m in candidates if m.site == record.machine.site),
            key=lambda m: m.hostname,
        )
        if same_site:
            return same_site[0]
        return min(candidates, key=lambda m: m.hostname)

    def recover(self, line: Line, record: InstanceRecord, timeline: Timeline):
        """Restart a dead instance's executable on a surviving machine
        through :meth:`Manager.restart`, with its latest checkpoint as
        the state (none: the restart comes back empty, and the first
        read of a declared variable raises ``StateLost``), charging the
        timeline of the call that met the death.  Returns the new
        records, one per procedure the dead process hosted."""
        dead = record.machine
        if dead.down_at is not None:
            # a line still behind the crash meets it at the crash
            timeline.sync_to(dead.down_at)

        if dead.up:
            # the process died on a live host: the failed call is the
            # detection, and the host stays in service
            self.events.append(RecoveryEvent(
                at_s=timeline.now, kind="process-dead", subject=record.path,
                detail=f"failed call on {dead.hostname}",
            ))
        elif dead.hostname not in self.dead_hosts:
            self.dead_hosts.add(dead.hostname)
            self.events.append(RecoveryEvent(
                at_s=timeline.now, kind="host-dead", subject=dead.hostname,
                detail="failed call",
            ))

        line_id = line.line_id if line.has_name(record.procedure.name) else SHARED
        checkpoint = self.store.latest(line_id, record.path)
        target = self._pick_target(record)
        state = checkpoint.state if checkpoint is not None else ()
        new_records = self.manager.restart(
            line, record, target, record.path, state,
            source=self.manager.host, kind=f"restore:{record.path}", timeline=timeline,
        )
        detail = f"{dead.hostname} -> {target.hostname}"
        if state:
            detail += (
                f", {len(state)} state vars from checkpoint"
                f" @ {checkpoint.taken_at:g}s"
            )
        else:
            detail += ", no checkpoint available"
        self.recoveries += 1
        self.events.append(
            RecoveryEvent(
                at_s=timeline.now, kind="failover", subject=record.path, detail=detail
            )
        )
        return new_records
