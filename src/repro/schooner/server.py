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
from ..network.transport import MessageDropped
from .errors import HostDown, ManagerError
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
        """Spawn the executable at ``path``; charge the startup protocol.

        The cost is one control message from the requesting Manager, the
        fork/exec time on this machine, and the acknowledgement back.
        """
        costs = self.env.costs
        try:
            self.env.transport.send(
                requester,
                self.machine,
                "start-request",
                path,
                costs.control_message_bytes,
                timeline=timeline,
            )
        except MessageDropped as exc:
            raise HostDown(
                f"server on {self.machine.hostname} unreachable: {exc}"
            ) from exc
        try:
            proc = self.machine.spawn(path)
        except MachineError as exc:
            raise ManagerError(f"server on {self.machine.hostname}: {exc}") from exc
        payload = proc.payload
        if not isinstance(payload, Executable):
            raise ManagerError(
                f"{path!r} on {self.machine.hostname} is not a Schooner executable"
            )
        if timeline is None:
            self.env.clock.advance(costs.spawn_seconds)
        else:
            timeline.advance(costs.spawn_seconds)
        try:
            self.env.transport.send(
                self.machine,
                requester,
                "start-ack",
                proc.address,
                costs.control_message_bytes,
                timeline=timeline,
            )
        except MessageDropped as exc:
            # the Manager never learns the address; reap the orphan
            self.machine.kill(proc.pid)
            raise HostDown(
                f"start-ack from {self.machine.hostname} lost: {exc}"
            ) from exc
        return proc

    def stop_process(
        self, proc: VirtualProcess, requester: Machine, timeline: Optional[Timeline] = None
    ) -> None:
        """Deliver a shutdown message to a process (idempotent).

        An unreachable host is tolerated, whether the message is lost or
        a partition leaves no route: a process that cannot hear the
        shutdown is either already gone with its machine or will be
        reaped when the machine is, so losing the message changes
        nothing the Manager cares about."""
        try:
            self.env.transport.send(
                requester,
                self.machine,
                "shutdown",
                proc.address,
                self.env.costs.control_message_bytes,
                timeline=timeline,
            )
        except NetworkError:
            pass
        if proc.alive and self.machine.up:
            self.machine.kill(proc.pid)
