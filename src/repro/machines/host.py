"""Virtual machines: the hosts that Schooner places computations on.

A :class:`Machine` is a named host with an architecture, a network
location (site + subnet, consumed by :mod:`repro.network.topology`), a
background load, and an installed-executables table — the simulated
equivalent of the filesystem path the user types into the AVS pathname
widget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from .arch import Architecture
from .process import VirtualProcess

__all__ = ["Machine", "MachineError"]


class MachineError(Exception):
    """A host-level failure: unknown executable, dead process, etc."""


@dataclass
class Machine:
    """One simulated host.

    ``site`` models geography ("arizona", "lerc"); ``subnet`` models the
    building wiring — two machines on the same subnet talk over one
    Ethernet, same site but different subnets go through gateways, and
    different sites go over the Internet.  This is exactly the
    three-tier structure of the paper's Table 1.
    """

    hostname: str
    architecture: Architecture
    site: str
    subnet: str
    load: float = 0.0

    _executables: Dict[str, Any] = field(default_factory=dict, repr=False)
    _processes: Dict[int, VirtualProcess] = field(default_factory=dict, repr=False)
    _next_pid: int = field(default=1, repr=False)
    up: bool = True
    #: the instant a fault plan crashed it; no call meets the death earlier
    down_at: Optional[float] = None

    # -- executables -------------------------------------------------------
    def install(self, path: str, executable: Any) -> None:
        """Install an executable at ``path`` (what a build would produce
        on the real machine)."""
        self._executables[path] = executable

    def has_executable(self, path: str) -> bool:
        return path in self._executables

    def executable_at(self, path: str) -> Any:
        try:
            return self._executables[path]
        except KeyError:
            raise MachineError(
                f"{self.hostname}: no executable installed at {path!r}"
            ) from None

    # -- processes ---------------------------------------------------------
    def spawn(self, path: str) -> VirtualProcess:
        """Start a process from the executable at ``path``."""
        if not self.up:
            raise MachineError(f"{self.hostname} is down")
        executable = self.executable_at(path)
        pid = self._next_pid
        self._next_pid += 1
        proc = VirtualProcess(
            pid=pid, machine=self, executable_path=path, payload=executable
        )
        proc.mark_running()
        self._processes[pid] = proc
        return proc

    def process(self, pid: int) -> VirtualProcess:
        try:
            return self._processes[pid]
        except KeyError:
            raise MachineError(f"{self.hostname}: no process {pid}") from None

    def kill(self, pid: int) -> None:
        proc = self.process(pid)
        proc.terminate()
        del self._processes[pid]

    def crash_process(self, pid: int) -> None:
        """One process dies abnormally (segfault, OOM kill) while the
        machine stays up — the per-process failure mode fault plans use."""
        proc = self.process(pid)
        proc.crash()
        del self._processes[pid]

    @property
    def running_processes(self) -> tuple:
        return tuple(self._processes.values())

    # -- timing ------------------------------------------------------------
    def compute_seconds(self, flops: float) -> float:
        """Virtual seconds this machine needs for ``flops`` operations,
        accounting for its current load."""
        return self.architecture.compute_seconds(flops, self.load)

    # -- failure injection ---------------------------------------------------
    def shutdown(self) -> None:
        """Take the machine down (scheduled downtime).  All its processes
        die — the scenario that motivates procedure migration."""
        self.up = False
        for proc in list(self._processes.values()):
            proc.crash()
        self._processes.clear()

    def crash(self) -> None:
        """The machine dies without warning (power loss, kernel panic):
        identical effect to :meth:`shutdown` at this layer, named
        separately so fault plans read correctly."""
        self.shutdown()

    def boot(self) -> None:
        self.up = True
        self.down_at = None

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"{self.hostname} ({self.architecture.name} @ {self.site}/{self.subnet})"
