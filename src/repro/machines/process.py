"""Virtual processes.

"At runtime, the procedures are instantiated as processes, with calls
implemented using a message passing library." (paper, section 3.1)

A :class:`VirtualProcess` is the simulated OS process.  The payload it
runs (a Schooner executable, a PVM worker, ...) is opaque at this layer;
lifecycle and identity are what matter here, because Schooner's startup,
shutdown, migration, and failover protocols are all about process
lifecycle.

Lifecycle is a strict state machine::

    STARTING --mark_running()--> RUNNING --terminate()--> STOPPED
        |                           |
        +--------terminate()--------+----crash()--------> FAILED

``STOPPED`` and ``FAILED`` are *terminal and absorbing*: terminating or
crashing an already-terminal process is an idempotent no-op that keeps
the original terminal state (a crash report racing a clean shutdown must
not rewrite history), while restarting one is an error — a new process
must be spawned instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Dict, FrozenSet

if TYPE_CHECKING:  # pragma: no cover
    from .host import Machine

__all__ = [
    "ProcessState",
    "VirtualProcess",
    "ProcessDead",
    "ProcessLifecycleError",
    "TERMINAL_STATES",
]


class ProcessState(Enum):
    STARTING = "starting"
    RUNNING = "running"
    STOPPED = "stopped"  # clean shutdown
    FAILED = "failed"  # machine death or error


#: states from which no further transition is possible
TERMINAL_STATES: FrozenSet[ProcessState] = frozenset(
    {ProcessState.STOPPED, ProcessState.FAILED}
)


#: how many processes of this interpreter have stopped or failed so far:
#: while it reads what it read before, every process that was alive then
#: is alive still (a placement's per-call liveness check is this one
#: comparison).  A module global, not a class attribute: each write to a
#: class attribute would invalidate the interpreter's attribute caches
#: for every VirtualProcess.
exits = 0


class ProcessDead(Exception):
    """An operation was attempted on a process that is not running."""


class ProcessLifecycleError(Exception):
    """An illegal lifecycle transition (e.g. restarting a dead process)."""


@dataclass
class VirtualProcess:
    """One simulated process on a virtual machine."""

    pid: int
    machine: "Machine"
    executable_path: str
    payload: Any
    state: ProcessState = ProcessState.STARTING
    # Mutable per-process memory: stateful Schooner procedures keep their
    # state variables here, which is what makes migration of *stateful*
    # procedures require the UTS state-transfer extension.
    memory: Dict[str, Any] = field(default_factory=dict)

    @property
    def alive(self) -> bool:
        return self.state is ProcessState.RUNNING

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def address(self) -> str:
        """A stable identity string, hostname:pid."""
        return f"{self.machine.hostname}:{self.pid}"

    # -- lifecycle transitions ----------------------------------------------
    def mark_running(self) -> None:
        """STARTING -> RUNNING.  Idempotent for an already-running
        process; raises for a terminal one (dead processes do not rise)."""
        if self.state is ProcessState.RUNNING:
            return
        if self.state is ProcessState.STARTING:
            self.state = ProcessState.RUNNING
            return
        raise ProcessLifecycleError(
            f"process {self.address} is {self.state.value}; "
            f"a terminated process cannot be restarted"
        )

    def terminate(self) -> None:
        """Clean shutdown.  Idempotent: double-terminate is a no-op, and
        terminating an already-FAILED process preserves FAILED."""
        global exits
        if self.terminal:
            return
        self.state = ProcessState.STOPPED
        exits += 1

    def crash(self) -> None:
        """Abnormal death.  Crash-after-terminate is a no-op that keeps
        the earlier terminal state (no state corruption)."""
        global exits
        if self.terminal:
            return
        self.state = ProcessState.FAILED
        exits += 1

    def require_alive(self) -> None:
        if not self.alive:
            raise ProcessDead(f"process {self.address} is {self.state.value}")

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"[{self.address} {self.executable_path} {self.state.value}]"
