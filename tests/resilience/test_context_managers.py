"""Context-managed lifecycles: NPSSExecutive is a context manager that
shuts its remote computations down on clean exit and on exception, and
a session blown up mid-serve is contained without leaving anything
running — remote process or thread."""

import threading

import pytest

from repro.core import NPSSExecutive
from repro.serve import SessionSpec, serve_sessions


def _thread_names():
    return {t.name for t in threading.enumerate()}


class TestNPSSExecutive:
    def test_mid_run_exception_leaks_no_line_threads(self):
        """A run that dies mid-flight (here, after a distributed
        execute) must leave neither a remote computation nor a thread
        behind once the ``with`` block unwinds."""
        before = _thread_names()
        with pytest.raises(RuntimeError):
            with NPSSExecutive() as ex:
                modules = ex.build_f100_network()
                modules["combustor"].set_param(
                    "remote machine", "sgi4d340.cs.arizona.edu"
                )
                modules["nozzle"].set_param(
                    "remote machine", "sgi4d420.lerc.nasa.gov"
                )
                ex.execute()
                assert ex.env.park["ua-sgi340"].running_processes
                raise RuntimeError("mid-run failure")
        assert not ex.env.park["ua-sgi340"].running_processes
        assert not ex.env.park["lerc-sgi420"].running_processes
        assert _thread_names() == before

    def test_clean_exit_also_shuts_down_remotes(self):
        with NPSSExecutive() as ex:
            modules = ex.build_f100_network()
            modules["combustor"].set_param(
                "remote machine", "sgi4d340.cs.arizona.edu"
            )
            ex.execute()
            assert ex.env.park["ua-sgi340"].running_processes
        assert not ex.env.park["ua-sgi340"].running_processes


class TestServeContainment:
    def test_session_blown_up_by_chaos_leaks_no_threads(self):
        """A session whose executive dies mid-serve (a partition that
        never heals cuts it off from its LeRC hosts: its retries run
        out) is contained as degraded and leaves no workers behind."""
        from repro.faults.plan import FaultPlan, PartitionLink
        from repro.machines.registry import SITE_ARIZONA, SITE_LERC

        before = _thread_names()
        plan = FaultPlan(
            seed=5, events=(PartitionLink(at_s=0.5, site_a=SITE_LERC, site_b=SITE_ARIZONA),)
        )
        doomed = SessionSpec(name="doomed", points=(1.30, 1.34), fault_plan=plan)
        # all-local: the innocent session never crosses the partition
        innocent = SessionSpec(name="innocent", points=(1.46, 1.50), placement={})
        report = serve_sessions([doomed, innocent], dedup=False)
        assert report.by_name("doomed").status == "degraded"
        assert report.by_name("doomed").error.startswith("CallTimeout: ")
        assert report.by_name("innocent").status == "completed"
        assert _thread_names() == before
