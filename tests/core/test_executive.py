"""Integration tests for the NPSS prototype executive: AVS + Schooner +
TESS working together (the paper's sections 3.2-3.4)."""

import numpy as np
import pytest

from repro.core import LOCAL_CHOICE, NPSSExecutive
from repro.schooner import LineState


@pytest.fixture
def executive():
    ex = NPSSExecutive()
    ex.modules = ex.build_f100_network()
    return ex


def place(executive, **module_machines):
    for key, machine in module_machines.items():
        executive.modules[key].set_param("remote machine", machine)


class TestF100Network:
    def test_figure2_module_population(self, executive):
        """Figure 2: 'multiple instances each of the bleed, compressor,
        duct, mixing volume, shaft, and turbine modules' (we model one
        bleed and one mixing volume; compressors, ducts, shafts, and
        turbines are multiply instantiated)."""
        mods = executive.editor.modules
        by_type = {}
        for m in mods.values():
            by_type.setdefault(m.module_name, []).append(m)
        assert len(by_type["compressor"]) == 2
        assert len(by_type["duct"]) == 3
        assert len(by_type["shaft"]) == 2
        assert len(by_type["turbine"]) == 2
        assert "system" in by_type and "nozzle" in by_type

    def test_all_local_execution(self, executive):
        report = executive.execute()
        assert executive.solution is not None
        assert executive.solution.converged
        assert 50e3 < executive.solution.thrust_N < 90e3
        assert report.executed[0] == "system"  # solver runs first

    def test_dataflow_publishes_stations(self, executive):
        executive.execute()
        sched = executive.scheduler
        fan_out = sched.output_of("fan", "out")
        comb_out = sched.output_of("combustor", "out")
        assert comb_out.Tt > fan_out.Tt
        assert sched.output_of("nozzle", "thrust") == pytest.approx(
            executive.solution.thrust_N
        )

    def test_low_shaft_control_panel_renders(self, executive):
        """The Figure 2 control panel: moment inertia, spool speed,
        spool speed-op, plus the remote-machine widgets."""
        text = executive.panel("low speed shaft").render()
        assert "moment inertia" in text
        assert "spool speed" in text
        assert "remote machine" in text
        assert "pathname" in text

    def test_transient_runs_after_balance(self, executive):
        executive.modules["combustor"].set_param("fuel flow", 1.3)
        executive.modules["combustor"].set_param("fuel flow-op", 1.5)
        executive.modules["system"].set_param("transient seconds", 0.5)
        executive.execute()
        tr = executive.transient_result
        assert tr is not None
        assert tr.n1[-1] > tr.n1[0]

    def test_save_load_roundtrip(self, executive):
        from repro.avs import NetworkEditor
        from repro.core import TESS_PALETTE

        saved = executive.editor.save()
        rebuilt = NetworkEditor.load(saved, TESS_PALETTE)
        assert set(rebuilt.modules) == set(executive.editor.modules)


class TestRemotePlacement:
    def test_remote_shaft_matches_local(self, executive):
        """The paper's validation: 'the results were compared with the
        same computation using the original local-compute-only
        versions.'"""
        executive.modules["system"].set_param("transient seconds", 0.0)
        executive.execute()
        local = executive.solution.thrust_N
        place(executive, **{"shaft-low": "rs6000.lerc.nasa.gov"})
        executive.execute()
        assert executive.host.calls.get("shaft:low", 0) == 0  # steady only
        executive.modules["system"].set_param("transient seconds", 0.1)
        executive.execute()
        assert executive.host.calls.get("shaft:low", 0) > 0
        assert executive.solution.thrust_N == pytest.approx(local, rel=1e-9)

    def test_table2_configuration(self, executive):
        """Table 2: six remote module instances on four machines at two
        sites, steady state + transient, results equal to local."""
        executive.execute()
        local = executive.solution.thrust_N
        place(
            executive,
            **{
                "combustor": "sgi4d340.cs.arizona.edu",
                "duct-bypass": "cray-ymp.lerc.nasa.gov",
                "duct-core": "cray-ymp.lerc.nasa.gov",
                "nozzle": "sgi4d420.lerc.nasa.gov",
                "shaft-low": "rs6000.lerc.nasa.gov",
                "shaft-high": "rs6000.lerc.nasa.gov",
            },
        )
        executive.modules["system"].set_param("transient seconds", 0.2)
        executive.execute()
        assert executive.solution.thrust_N == pytest.approx(local, rel=1e-9)
        assert executive.host.remote_call_count > 50
        assert executive.env.clock.now > 0  # virtual time was charged
        # six lines are active (one per remote module instance)
        assert len(executive.manager.active_lines) == 6

    def test_cray_placement_introduces_48bit_truncation(self, executive):
        """A duct on the Cray stores doubles in the 48-bit-mantissa
        native format: results agree closely but not to the last bit."""
        executive.execute()
        local = executive.solution.thrust_N
        place(executive, **{"duct-core": "cray-ymp.lerc.nasa.gov"})
        executive._engine = None  # force rebuild so the balance re-runs
        executive.execute()
        assert executive.solution.thrust_N == pytest.approx(local, rel=1e-9)

    def test_widget_change_moves_computation(self, executive):
        place(executive, **{"nozzle": "rs6000.lerc.nasa.gov"})
        executive.execute()
        rs6000_procs = len(executive.env.park["lerc-rs6000"].running_processes)
        assert rs6000_procs == 1
        place(executive, **{"nozzle": "cray-ymp.lerc.nasa.gov"})
        executive.execute()
        assert len(executive.env.park["lerc-rs6000"].running_processes) == 0
        assert len(executive.env.park["lerc-cray"].running_processes) == 1

    def test_back_to_local_releases_remote(self, executive):
        place(executive, **{"nozzle": "rs6000.lerc.nasa.gov"})
        executive.execute()
        place(executive, **{"nozzle": LOCAL_CHOICE})
        executive.execute()
        assert len(executive.env.park["lerc-rs6000"].running_processes) == 0


class TestModuleRemoval:
    def test_removing_module_quits_its_line(self, executive):
        """'deleting an individual module in AVS should ... result only
        in the termination of those remote computations associated with
        the module.'"""
        place(
            executive,
            **{
                "nozzle": "rs6000.lerc.nasa.gov",
                "combustor": "cray-ymp.lerc.nasa.gov",
            },
        )
        executive.execute()
        assert len(executive.manager.active_lines) == 2
        executive.editor.remove_module("nozzle")
        assert len(executive.manager.active_lines) == 1
        assert len(executive.env.park["lerc-rs6000"].running_processes) == 0
        # the combustor's line survives
        assert len(executive.env.park["lerc-cray"].running_processes) == 1

    def test_clear_network_keeps_manager(self, executive):
        """'re-loading the same or a different engine model into AVS' —
        the persistent Manager outlives the network."""
        place(executive, **{"nozzle": "rs6000.lerc.nasa.gov"})
        executive.execute()
        executive.clear_network()
        assert executive.manager.running
        assert len(executive.env.park["lerc-rs6000"].running_processes) == 0
        # a new network can be built and run against the same Manager
        executive.modules = executive.build_f100_network()
        executive.execute()
        assert executive.solution is not None


class TestHostMigration:
    def test_move_instance_mid_simulation(self, executive):
        """Relocate a remote procedure between runs: the machine widget
        is the executive's one re-placement path."""
        place(executive, **{"nozzle": "rs6000.lerc.nasa.gov"})
        executive.modules["system"].set_param("transient seconds", 0.0)
        executive.execute()
        before = executive.solution.thrust_N
        executive.modules["nozzle"].set_param("remote machine", "cray-ymp.lerc.nasa.gov")
        executive.modules["inlet"].set_param("mach", 0.01)  # force re-solve
        executive._engine = None
        executive.execute()
        assert len(executive.env.park["lerc-cray"].running_processes) == 1
        assert executive.solution.thrust_N == pytest.approx(before, rel=0.05)
