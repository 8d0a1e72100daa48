"""Schooner Servers.

"The Servers are used by Manager processes to start processes on remote
machines.  There is one Server per machine involved in a given
computation." (paper, section 3.1)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..machines.host import Machine, MachineError
from ..machines.process import VirtualProcess
from ..network.clock import Timeline
from ..network.topology import NetworkError
from .errors import ManagerError
from .procedure import Executable
from .runtime import SchoonerEnvironment

__all__ = ["SchoonerServer"]


@dataclass
class SchoonerServer:
    """The per-machine daemon that spawns remote-procedure processes."""

    env: SchoonerEnvironment
    machine: Machine

    def start_process(
        self, path: str, requester: Machine, timeline: Optional[Timeline] = None
    ) -> VirtualProcess:
        """One attempt at the startup protocol: the control message from
        the requesting Manager, the fork/exec here, the ack back.  The
        Manager retries it under the control ladder; a start lost past
        the retry ladder is :class:`HostDown`.  A lost ``start-ack``
        reaps the process it named, so a retry leaves no second one."""
        costs = self.env.costs
        send = self.env.transport.send
        send(requester, self.machine, "start-request", path, costs.control_message_bytes, timeline)
        try:
            proc = self.machine.spawn(path)
        except MachineError as exc:
            raise ManagerError(f"server on {self.machine.hostname}: {exc}") from exc
        if not isinstance(proc.payload, Executable):
            self.machine.kill(proc.pid)
            raise ManagerError(f"{path!r} on {self.machine.hostname} is not a Schooner executable")
        (self.env.clock if timeline is None else timeline).advance(costs.spawn_seconds)
        try:
            send(self.machine, requester, "start-ack", proc.address,
                 costs.control_message_bytes, timeline)
        except NetworkError:
            # the Manager never learns the address; reap the orphan
            if proc.alive:
                self.machine.kill(proc.pid)
            raise
        return proc

    def stop_process(
        self, proc: VirtualProcess, requester: Machine, timeline: Optional[Timeline] = None
    ) -> None:
        """Deliver a shutdown message to a process (idempotent): one send,
        not the control ladder, since nothing waits for its ack.

        An unreachable host is tolerated, whether the message is lost or
        a partition leaves no route: a process that cannot hear the
        shutdown is either already gone with its machine or will be
        reaped when the machine is, so losing the message changes
        nothing the Manager cares about, and it charges no wait."""
        try:
            self.env.transport.send(
                requester, self.machine, "shutdown", proc.address,
                self.env.costs.control_message_bytes, timeline,
            )
        except NetworkError:
            pass
        if proc.alive and self.machine.up:
            self.machine.kill(proc.pid)
