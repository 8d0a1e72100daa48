"""Failure detection and checkpointed failover.

The :class:`FailoverSupervisor` is the Manager's recovery sidecar.  It
watches the simulation's virtual clock and, at fixed intervals,

* **heartbeats** every machine hosting a live instance, marking hosts
  that stopped answering as dead (Schooner's Manager-driven detection);
* **checkpoints** every stateful executable instance's state variables
  in UTS wire form (see :mod:`repro.faults.checkpoint`).

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
from typing import List, Optional, Set

from ..network.clock import Timeline
from ..schooner.errors import HostDown
from ..schooner.lines import InstanceRecord, Line
from ..schooner.manager import Manager
from .checkpoint import CheckpointStore

__all__ = ["FailoverSupervisor", "RecoveryEvent"]


@dataclass(frozen=True)
class RecoveryEvent:
    """One detection or recovery action, for the run's failure log."""

    at_s: float
    kind: str  # "host-dead" | "failover"
    subject: str  # hostname, or the executable path that failed over
    detail: str

    def describe(self) -> str:
        return f"t={self.at_s:8.3f}s  {self.kind:<10} {self.subject}: {self.detail}"


@dataclass
class FailoverSupervisor:
    """Manager-driven failure detection, checkpointing, and failover."""

    manager: Manager
    heartbeat_interval_s: float = 0.5
    checkpoint_interval_s: float = 1.0
    store: CheckpointStore = field(default_factory=CheckpointStore)
    events: List[RecoveryEvent] = field(default_factory=list)
    dead_hosts: Set[str] = field(default_factory=set)
    recoveries: int = 0
    heartbeats: int = 0
    _last_heartbeat_at: float = 0.0
    _last_checkpoint_at: float = 0.0
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
        # fixed grid points, so sweep times are independent of how the
        # clock happened to advance (and therefore replay-identical)
        while self._last_heartbeat_at + self.heartbeat_interval_s <= now:
            self._last_heartbeat_at += self.heartbeat_interval_s
            self._heartbeat_sweep(self._last_heartbeat_at)
        while self._last_checkpoint_at + self.checkpoint_interval_s <= now:
            self._last_checkpoint_at += self.checkpoint_interval_s
            self._checkpoint_sweep(self._last_checkpoint_at)
        # baseline checkpoints: a stateful instance is snapshotted as
        # soon as its set* initialization has produced state, not only
        # at the first grid point — a fast run can crash before the
        # first grid sweep, and restarting without the initialization
        # state would fail
        for line in sorted(self.manager.active_lines, key=lambda l: l.line_id):
            if any(
                r.procedure.state_spec
                and self.store.latest(line.line_id, r.path) is None
                for r in line.records
            ):
                self.store.take(line, now=now)

    def _monitored_machines(self):
        seen = {}
        for line in self.manager.active_lines:
            for record in line.records:
                seen[record.machine.hostname] = record.machine
        return [seen[h] for h in sorted(seen)]

    def _heartbeat_sweep(self, at: float) -> None:
        """The Manager pings every Server host; a host that cannot
        answer is marked dead.  (Heartbeat traffic is control-plane and
        is not charged to any line's timeline — detection *latency* is
        still modelled, as a host's death is only observed at the next
        sweep.)"""
        self.heartbeats += 1
        for machine in self._monitored_machines():
            if machine.hostname in self.dead_hosts:
                continue
            if not machine.up:
                self.dead_hosts.add(machine.hostname)
                self.events.append(
                    RecoveryEvent(
                        at_s=at,
                        kind="host-dead",
                        subject=machine.hostname,
                        detail="missed heartbeat",
                    )
                )

    def _checkpoint_sweep(self, at: float) -> None:
        for line in sorted(self.manager.active_lines, key=lambda l: l.line_id):
            self.store.take(line, now=at)

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

        if dead.hostname not in self.dead_hosts and not dead.up:
            # detection by failed call, ahead of the next heartbeat sweep
            self.dead_hosts.add(dead.hostname)
            self.events.append(
                RecoveryEvent(
                    at_s=tl.now,
                    kind="host-dead",
                    subject=dead.hostname,
                    detail="failed call",
                )
            )

        checkpoint = self.store.latest(line.line_id, record.path)
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
