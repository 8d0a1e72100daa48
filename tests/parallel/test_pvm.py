"""Tests for the PVM-like cluster simulation."""

import pytest

from repro.machines import standard_park
from repro.network import Topology, Transport, VirtualClock
from repro.parallel import PVMachine, PVMError


@pytest.fixture
def cluster():
    park = standard_park()
    clock = VirtualClock()
    transport = Transport(topology=Topology(), clock=clock)
    master = park["lerc-sparc10"]
    pvm = PVMachine(master=master, transport=transport, clock=clock)
    workers = [park["lerc-sgi480"], park["lerc-sgi420"], park["lerc-rs6000"]]
    return park, pvm, workers


class TestSpawn:
    def test_spawn_enrolls_tasks(self, cluster):
        _, pvm, workers = cluster
        tasks = pvm.spawn(workers)
        assert len(tasks) == 3
        assert len({t.task_id for t in tasks}) == 3

    def test_spawn_on_dead_host_rejected(self, cluster):
        _, pvm, workers = cluster
        workers[0].shutdown()
        with pytest.raises(PVMError, match="down"):
            pvm.spawn(workers)


class TestScatterGather:
    def test_results_in_input_order(self, cluster):
        _, pvm, workers = cluster
        pvm.spawn(workers)
        items = list(range(10))
        res = pvm.scatter_gather(items, lambda x: x * x, flops_per_item=1e5)
        assert res.results == [x * x for x in items]

    def test_no_workers_rejected(self, cluster):
        _, pvm, _ = cluster
        with pytest.raises(PVMError, match="spawn"):
            pvm.scatter_gather([1], lambda x: x, 1e5)

    def test_barrier_waits_for_slowest(self, cluster):
        _, pvm, workers = cluster
        pvm.spawn(workers)
        res = pvm.scatter_gather(list(range(9)), lambda x: x, flops_per_item=1e7)
        assert res.elapsed_seconds >= max(res.worker_seconds)

    def test_parallel_speedup(self, cluster):
        """N workers finish a CPU-bound job roughly N times faster than
        one worker (communication is cheap on the local Ethernet)."""
        park, pvm, workers = cluster
        items = list(range(30))
        flops = 1e8

        single = PVMachine(master=pvm.master, transport=pvm.transport, clock=pvm.clock,
                           name="pvm-1")
        single.spawn([workers[0]])
        t1 = single.scatter_gather(items, lambda x: x, flops).elapsed_seconds

        pvm.spawn(workers)  # three workers
        t3 = pvm.scatter_gather(items, lambda x: x, flops).elapsed_seconds
        assert t3 < t1
        # SGI 480 alone vs {2 SGIs + RS6000}: expect ~2.5-3x
        assert t1 / t3 > 2.0

    def test_message_accounting(self, cluster):
        _, pvm, workers = cluster
        pvm.spawn(workers)
        res = pvm.scatter_gather(list(range(3)), lambda x: x, 1e5)
        assert res.messages == 6  # scatter + gather per worker

    def test_uneven_work_division(self, cluster):
        _, pvm, workers = cluster
        pvm.spawn(workers)
        res = pvm.scatter_gather(list(range(7)), lambda x: -x, 1e5)
        assert res.results == [-x for x in range(7)]

    def test_empty_work(self, cluster):
        _, pvm, workers = cluster
        pvm.spawn(workers)
        res = pvm.scatter_gather([], lambda x: x, 1e5)
        assert res.results == []
        assert res.messages == 0

    def test_dead_worker_detected(self, cluster):
        _, pvm, workers = cluster
        pvm.spawn(workers)
        workers[1].shutdown()
        with pytest.raises(PVMError, match="down"):
            pvm.scatter_gather([1, 2, 3], lambda x: x, 1e5)

    def test_heterogeneous_workers_finish_at_different_times(self, cluster):
        park, pvm, _ = cluster
        pvm.spawn([park["lerc-cray"], park["lerc-sparc10"]])
        res = pvm.scatter_gather(list(range(8)), lambda x: x, flops_per_item=1e8)
        # the Cray worker is ~30x faster than the Sparc on equal shares
        assert min(res.worker_seconds) < max(res.worker_seconds) / 5
