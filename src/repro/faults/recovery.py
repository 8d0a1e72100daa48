"""Failure detection and checkpointed failover.

The :class:`FailoverSupervisor` is the Manager's recovery sidecar.  It
watches the simulation's virtual clock and, on each tick,

* **heartbeats** every machine hosting an instance, at fixed
  :data:`HEARTBEAT_INTERVAL_S` grid points, marking hosts that stopped
  answering as dead (Schooner's Manager-driven detection);
* **checkpoints** every live process whose declared state changed since
  its last checkpoint, in UTS wire form (see
  :mod:`repro.faults.checkpoint`).  A process's state counts its
  writes, and a tick after which no state was written walks nothing.

Both walk every active line's records and the shared registry's.

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
from typing import Dict, List, Optional, Set, Tuple

from ..network.clock import Timeline
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
    _last_heartbeat_at: float = 0.0
    # checkpoint key -> (state dict, its writes) at its last checkpoint
    _saved: Dict[Tuple[str, str], tuple] = field(default_factory=dict)
    _walked_at_writes: int = -1  # _ProcessState.all_writes at the last walk
    _attached: bool = False

    # -- lifecycle -----------------------------------------------------------
    def attach(self) -> None:
        """Install as the Manager's supervisor and start watching the
        clock.  Recovery is strictly opt-in: without an attached
        supervisor, dead bindings surface as call failures exactly as
        before."""
        if self._attached:
            return
        self.manager.supervisor = self
        self.manager.env.clock.subscribe(self._on_tick)
        self._attached = True

    def detach(self) -> None:
        if not self._attached:
            return
        if self.manager.supervisor is self:
            self.manager.supervisor = None
        self.manager.env.clock.unsubscribe(self._on_tick)
        self._attached = False

    # -- periodic sweeps -------------------------------------------------------
    def _on_tick(self, now: float) -> None:
        # heartbeats at fixed grid points, so sweep times are independent
        # of how the clock happened to advance (and therefore
        # replay-identical)
        while self._last_heartbeat_at + HEARTBEAT_INTERVAL_S <= now:
            self._last_heartbeat_at += HEARTBEAT_INTERVAL_S
            self._heartbeat_sweep(self._last_heartbeat_at)
        # a process is checkpointed at the first tick after its declared
        # state changed, and at no other time; with no write anywhere
        # since the last walk, nothing changed
        if _ProcessState.all_writes == self._walked_at_writes:
            return
        self._walked_at_writes = _ProcessState.all_writes
        for line_id, records in self._databases():
            for record in records:
                if not record.procedure.state_spec:
                    continue
                state = record.state_storage()
                key = (line_id, record.path)
                saved = self._saved.get(key, (state, 0))
                if saved[0] is state and saved[1] == state.writes:
                    continue
                if record.process.alive:
                    self._saved[key] = (state, state.writes)
                    hosted = [r for r in records if r.process is record.process]
                    self.store.take(line_id, hosted, now)

    def _databases(self):
        """``(line_id, records)`` of each active line, then the shared
        registry's as :data:`SHARED`: the set ``Manager._hosted`` reads."""
        for line in self.manager.active_lines:
            yield line.line_id, line.records
        yield SHARED, self.manager._shared.records

    def _heartbeat_sweep(self, at: float) -> None:
        """The Manager pings every host an instance runs on; a host that
        cannot answer is marked dead.  (Heartbeat traffic is
        control-plane and is not charged to any line's timeline —
        detection *latency* is still modelled, as a host's death is only
        observed at the next sweep.)"""
        machines = {r.machine.hostname: r.machine
                    for _, records in self._databases() for r in records}
        for hostname in sorted(machines.keys() - self.dead_hosts):
            if not machines[hostname].up:
                self._mark_dead(hostname, at, "missed heartbeat")

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
