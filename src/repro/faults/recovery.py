"""Failure detection and checkpointed failover.

The :class:`FailoverSupervisor` is the Manager's recovery sidecar.  Its
periodic work runs as events on the simulation's virtual clock, ordered
with the fault injector's by instant (ties in scheduling order):

* **heartbeats** — at each :data:`HEARTBEAT_INTERVAL_S` grid point a
  sweep, queued behind every event already due at that instant,
  checks every machine hosting an instance, marks hosts that stopped
  answering as dead (Schooner's Manager-driven detection), and
  schedules the next grid point;
* **checkpoints** — the first write to a watched process's declared
  state (:meth:`~FailoverSupervisor.watch`) schedules one checkpoint
  event at the current instant; it fires at the next advance, ahead of
  any fault that came due in it, and snapshots every written, live
  process in UTS wire form (see :mod:`repro.faults.checkpoint`),
  stamped with the instant of the write.

When a client stub or ``sch_contact_schx`` resolves a binding to a dead
instance, the supervisor's :meth:`~FailoverSupervisor.recover` restarts
the executable on a surviving machine — deterministically chosen: a
same-site host if one survives, otherwise the first surviving host in
hostname order — through :meth:`Manager.restart`, the one restart path
§4.2 migration uses too: the latest checkpoint's state is shipped and
installed, and every record the dead process hosted is rebound, at a
bumped generation, in the database that held it (the line's or the
shared registry).

Everything the supervisor records (``events``) names hosts, paths, and
virtual times only — never process-global counters like instance ids —
so two replays of the same seeded run serialize identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..network.clock import ScheduledEvent, Timeline
from ..schooner.errors import HostDown
from ..schooner.lines import InstanceRecord, Line, _ProcessState
from ..schooner.manager import Manager
from .checkpoint import SHARED, CheckpointStore

__all__ = ["FailoverSupervisor", "RecoveryEvent"]

#: virtual seconds between two heartbeat sweeps
HEARTBEAT_INTERVAL_S = 0.5


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
    # hooked declared states, and those written since the last
    # checkpoint, each by id
    _watched: Dict[int, _ProcessState] = field(default_factory=dict)
    _written: Dict[int, _ProcessState] = field(default_factory=dict)
    # the pending clock events: the next sweep, the next checkpoint
    _heartbeat: Optional[ScheduledEvent] = None
    _checkpoint: Optional[ScheduledEvent] = None

    # -- lifecycle -----------------------------------------------------------
    def attach(self) -> None:
        """Install as the Manager's supervisor, watch every stateful
        record, and schedule the first heartbeat sweep.  Recovery is
        strictly opt-in: without an attached supervisor, dead bindings
        surface as call failures exactly as before."""
        if self._heartbeat is not None:
            return
        self.manager.supervisor = self
        for _, records in self._databases():
            self.watch(records)
        self._heartbeat = self.manager.env.clock.schedule(
            HEARTBEAT_INTERVAL_S, self._heartbeat_due
        )

    def detach(self) -> None:
        if self._heartbeat is None:
            return
        if self.manager.supervisor is self:
            self.manager.supervisor = None
        for state in self._watched.values():
            state.hook = None
        self._watched.clear()
        self._written.clear()
        for event in (self._heartbeat, self._checkpoint):
            if event is not None:
                self.manager.env.clock.cancel(event)
        self._heartbeat = self._checkpoint = None

    # -- checkpoints -----------------------------------------------------------
    def watch(self, records: Sequence[InstanceRecord]) -> None:
        """Hook the declared state of each stateful record's process, so
        its next write schedules a checkpoint; a state already written
        counts as written.  Called at attach for every record, and by
        the Manager for every record it starts or restarts."""
        for record in records:
            if record.procedure.state_spec:
                state = record.state_storage()
                state.hook = self._state_written
                self._watched[id(state)] = state
                if state:
                    self._state_written(state)

    def _state_written(self, state: _ProcessState) -> None:
        self._written[id(state)] = state
        if self._checkpoint is None:
            clock = self.manager.env.clock
            self._checkpoint = clock.schedule(clock.now, self._take_checkpoints)

    def _take_checkpoints(self) -> None:
        """Snapshot each written, live process, once per database that
        binds it.  A checkpoint is stamped with the instant of the write
        that scheduled it, not with the advance it fires in: the state
        it holds is the state as of that write."""
        at = self._checkpoint.at_s
        self._checkpoint = None
        written, self._written = self._written, {}
        for line_id, records in self._databases():
            taken = set()
            for record in records:
                if not record.procedure.state_spec:
                    continue
                key = id(record.state_storage())
                if key in written and key not in taken and record.process.alive:
                    taken.add(key)
                    hosted = [r for r in records if r.process is record.process]
                    self.store.take(line_id, hosted, at)

    def _databases(self):
        """``(line_id, records)`` of each active line, then the shared
        registry's as :data:`SHARED`: the set ``Manager._hosted`` reads."""
        for line in self.manager.active_lines:
            yield line.line_id, line.records
        yield SHARED, self.manager._shared.records

    # -- heartbeats --------------------------------------------------------------
    def _heartbeat_due(self) -> None:
        """A grid instant came due: its sweep goes back on the clock at
        the same instant, behind every event already queued for it.  A
        fault the plan put there after this event was scheduled (an
        injector attached after the supervisor) is thus applied before
        the sweep looks, so a crash on a grid instant is detected at
        that instant, whichever was attached first."""
        self._heartbeat = self.manager.env.clock.schedule(
            self._heartbeat.at_s, self._heartbeat_sweep
        )

    def _heartbeat_sweep(self) -> None:
        """The Manager pings every host an instance runs on; a host that
        cannot answer is marked dead.  (Heartbeat traffic is
        control-plane and is not charged to any line's timeline —
        detection *latency* is still modelled, as a host's death is only
        observed at the next sweep.)  Sweeps sit on a fixed grid, so
        their instants do not depend on how the clock happened to
        advance."""
        at = self._heartbeat.at_s
        machines = {r.machine.hostname: r.machine
                    for _, records in self._databases() for r in records}
        for hostname in sorted(machines.keys() - self.dead_hosts):
            if not machines[hostname].up:
                self._mark_dead(hostname, at, "missed heartbeat")
        self._heartbeat = self.manager.env.clock.schedule(
            at + HEARTBEAT_INTERVAL_S, self._heartbeat_due
        )

    def _mark_dead(self, hostname: str, at: float, how: str) -> None:
        self.dead_hosts.add(hostname)
        self.events.append(
            RecoveryEvent(at_s=at, kind="host-dead", subject=hostname, detail=how)
        )

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

    def recover(
        self,
        line: Line,
        record: InstanceRecord,
        timeline: Optional[Timeline] = None,
    ):
        """Restart a dead instance's executable on a surviving machine
        through :meth:`Manager.restart`, with its latest checkpoint as
        the state (none: the restart comes back empty, and the first
        read of a declared variable raises ``StateLost``).  Returns the
        new records, one per procedure the dead process hosted."""
        env = self.manager.env
        tl = timeline if timeline is not None else env.clock.timeline("supervisor")
        dead = record.machine

        if dead.up:
            # the process died on a live host: the failed call is the
            # detection, and the host stays in service
            self.events.append(RecoveryEvent(
                at_s=tl.now, kind="process-dead", subject=record.path,
                detail=f"failed call on {dead.hostname}",
            ))
        elif dead.hostname not in self.dead_hosts:
            # detection by failed call, ahead of the next heartbeat sweep
            self._mark_dead(dead.hostname, tl.now, "failed call")

        line_id = line.line_id if line.has_name(record.procedure.name) else SHARED
        checkpoint = self.store.latest(line_id, record.path)
        target = self._pick_target(record)
        state = checkpoint.blobs if checkpoint is not None else ()
        new_records = self.manager.restart(
            line, record, target, record.path, state,
            source=self.manager.host, kind=f"restore:{record.path}", timeline=tl,
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
                at_s=tl.now, kind="failover", subject=record.path, detail=detail
            )
        )
        return new_records
