"""A PVM-style message-passing cluster simulation.

Figure 1 of the paper shows a Schooner program whose sequential control
flow passes through a procedure that *encapsulates a parallel
algorithm*: "to use such an algorithm, it is only necessary to
encapsulate it within a procedure.  This allows the use of, for
example, a particular hardware platform's native parallel library, or
the incorporation of a computation in which a system such as PVM
[Sunderam90] is used to achieve parallel execution on a cluster of
workstations."

This module provides that substrate: a master/worker virtual machine
(in the PVM sense) over the simulated network.  Work is scattered to
worker tasks, each worker computes on its host (charging virtual time),
and results are gathered.  Because the workers run concurrently, the
encapsulating procedure's elapsed virtual time is the *slowest worker's*
time plus communication — which is what makes the speedup measurable in
the Figure-1 benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from ..machines.host import Machine
from ..network.clock import Timeline, VirtualClock
from ..network.transport import Transport

__all__ = ["PVMError", "WorkerTask", "PVMachine", "ScatterGatherResult"]


class PVMError(Exception):
    """Cluster-level failure: no workers, dead host, bad work split."""


@dataclass
class WorkerTask:
    """One PVM task (a process enrolled in the virtual machine)."""

    task_id: int
    machine: Machine
    timeline: Timeline
    messages_received: int = 0

    @property
    def alive(self) -> bool:
        return self.machine.up


@dataclass
class ScatterGatherResult:
    """Outcome of one scatter/compute/gather round."""

    results: List[Any]
    elapsed_seconds: float  # master's virtual time for the whole round
    worker_seconds: List[float]  # per-worker compute+comm time
    messages: int


@dataclass
class PVMachine:
    """A parallel virtual machine: one master host + worker hosts.

    ``spawn`` enrolls worker tasks; :meth:`scatter_gather` runs one
    bulk-synchronous round of a data-parallel computation.
    """

    master: Machine
    transport: Transport
    clock: VirtualClock
    name: str = "pvm"
    _tasks: List[WorkerTask] = field(default_factory=list)
    _next_id: int = 1

    def spawn(self, hosts: Sequence[Machine]) -> List[WorkerTask]:
        """Enroll one worker task per host (pvm_spawn)."""
        tasks = []
        for host in hosts:
            if not host.up:
                raise PVMError(f"cannot spawn on {host.hostname}: machine is down")
            task = WorkerTask(
                task_id=self._next_id,
                machine=host,
                timeline=self.clock.timeline(f"{self.name}-task-{self._next_id}"),
            )
            self._next_id += 1
            self._tasks.append(task)
            tasks.append(task)
        return tasks

    def scatter_gather(
        self,
        work_items: Sequence[Any],
        compute: Callable[[Any], Any],
        flops_per_item: float,
        bytes_per_item: int = 1024,
        master_timeline: Optional[Timeline] = None,
    ) -> ScatterGatherResult:
        """One bulk-synchronous round.

        ``work_items`` are dealt round-robin to the workers; each worker
        computes its share (charging ``flops_per_item`` per item on its
        host) and sends results back.  The master's timeline advances to
        the latest gather arrival — the barrier.
        """
        if not self._tasks:
            raise PVMError("no worker tasks enrolled; call spawn() first")
        timeline = master_timeline or self.clock.timeline(f"{self.name}-master")
        t_start = timeline.now
        msg_count = 0

        # deal the work round-robin
        shares: List[List[Any]] = [[] for _ in self._tasks]
        for i, item in enumerate(work_items):
            shares[i % len(self._tasks)].append(item)

        results_by_task: List[List[Any]] = []
        worker_seconds: List[float] = []
        finish_times: List[float] = []
        for task, share in zip(self._tasks, shares):
            if not task.alive:
                raise PVMError(f"worker task {task.task_id} host is down")
            # scatter: master -> worker
            task.timeline.sync_to(t_start)
            w_start = task.timeline.now
            if share:
                msg = self.transport.send(
                    self.master, task.machine, "pvm-scatter",
                    None, bytes_per_item * len(share), timeline=task.timeline,
                )
                msg_count += 1
                task.messages_received += 1
            # compute
            out = []
            for item in share:
                out.append(compute(item))
            task.timeline.advance(
                task.machine.compute_seconds(flops_per_item * len(share))
            )
            # gather: worker -> master
            if share:
                self.transport.send(
                    task.machine, self.master, "pvm-gather",
                    None, bytes_per_item * len(share), timeline=task.timeline,
                )
                msg_count += 1
            results_by_task.append(out)
            worker_seconds.append(task.timeline.now - w_start)
            finish_times.append(task.timeline.now)

        # the barrier: the master resumes when the last gather lands
        timeline.sync_to(max(finish_times))

        # interleave the results back into input order
        results: List[Any] = [None] * len(work_items)
        for t_idx, out in enumerate(results_by_task):
            for j, value in enumerate(out):
                results[t_idx + j * len(self._tasks)] = value
        return ScatterGatherResult(
            results=results,
            elapsed_seconds=timeline.now - t_start,
            worker_seconds=worker_seconds,
            messages=msg_count,
        )
