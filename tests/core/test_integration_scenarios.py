"""Cross-package integration scenarios and engine-level property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NPSSExecutive
from repro.schooner import StaleBinding
from repro.tess import FlightCondition, build_f100

SLS = FlightCondition(0.0, 0.0)


class TestFullLifecycle:
    def test_the_whole_story(self):
        """One session in the executive: local run, remote placement,
        migration, module removal, network clear, rebuild — the
        persistent Manager carries through all of it."""
        ex = NPSSExecutive()
        ex.modules = ex.build_f100_network()
        ex.modules["system"].set_param("transient seconds", 0.0)

        # 1. all-local
        ex.execute()
        reference = ex.solution.thrust_N

        # 2. place the nozzle at LeRC and re-run
        ex.modules["nozzle"].set_param("remote machine", "sgi4d420.lerc.nasa.gov")
        ex.execute()
        assert ex.solution.thrust_N == pytest.approx(reference, rel=1e-9)

        # 3. the SGI is about to go down: migrate to the RS6000
        ex.modules["nozzle"].set_param("remote machine", "rs6000.lerc.nasa.gov")
        ex._engine = None
        ex.execute()
        assert ex.solution.thrust_N == pytest.approx(reference, rel=1e-9)
        assert len(ex.env.park["lerc-sgi420"].running_processes) == 0

        # 4. remove the combustor module: only the nozzle's line remains
        ex.modules["combustor"].set_param("remote machine", "cray-ymp.lerc.nasa.gov")
        ex.execute()
        assert len(ex.manager.active_lines) == 2
        ex.editor.remove_module("combustor")
        assert len(ex.manager.active_lines) == 1

        # 5. clear everything; the Manager survives for the next model
        ex.clear_network()
        assert ex.manager.running
        assert ex.manager.active_lines == ()

        # 6. rebuild and run again
        ex.modules = ex.build_f100_network()
        ex.modules["system"].set_param("transient seconds", 0.0)
        ex.execute()
        assert ex.solution.thrust_N == pytest.approx(reference, rel=1e-9)

    def test_machine_death_surfaces_and_recovers(self):
        """A remote machine dies mid-session: the next run fails with a
        stale binding; re-placing on a healthy machine recovers."""
        ex = NPSSExecutive()
        ex.modules = ex.build_f100_network()
        ex.modules["system"].set_param("transient seconds", 0.0)
        ex.modules["nozzle"].set_param("remote machine", "sgi4d420.lerc.nasa.gov")
        ex.execute()
        good = ex.solution.thrust_N

        ex.env.park["lerc-sgi420"].shutdown()
        with pytest.raises(Exception):  # surfaces as a call failure
            ex.execute()

        # the user flips the widget to a healthy machine
        ex.modules["nozzle"].set_param("remote machine", "rs6000.lerc.nasa.gov")
        ex.execute()
        assert ex.solution.thrust_N == pytest.approx(good, rel=1e-9)

    def test_saved_network_reloads_with_placements(self):
        """Save/load round-trips widget state including the remote
        placement selections."""
        from repro.avs import NetworkEditor
        from repro.core import TESS_PALETTE

        ex = NPSSExecutive()
        ex.modules = ex.build_f100_network()
        ex.modules["shaft-low"].set_param("remote machine", "rs6000.lerc.nasa.gov")
        saved = ex.editor.save()

        rebuilt = NetworkEditor.load(saved, TESS_PALETTE)
        shaft = rebuilt.module("low speed shaft")
        assert shaft.param("remote machine") == "rs6000.lerc.nasa.gov"
        assert shaft.param("pathname") == "/npss/bin/npss-shaft"


class TestEngineProperties:
    @pytest.fixture(scope="class")
    def engine(self):
        return build_f100()

    @given(wf=st.floats(min_value=1.25, max_value=1.55))
    @settings(max_examples=12, deadline=None)
    def test_balance_converges_across_throttle_range(self, engine, wf):
        op = engine.balance(SLS, wf)
        assert op.converged
        assert np.all(np.abs(op.residuals) < 1e-7)
        assert op.thrust_N > 0
        assert 0.8 < op.n1 < 1.1
        assert 0.8 < op.n2 < 1.1

    def test_thrust_monotone_in_fuel(self, engine):
        ops = [engine.balance(SLS, wf) for wf in (1.25, 1.35, 1.45, 1.55)]
        thrusts = [op.thrust_N for op in ops]
        assert all(b > a for a, b in zip(thrusts, thrusts[1:]))

    def test_t4_monotone_in_fuel(self, engine):
        ops = [engine.balance(SLS, wf) for wf in (1.3, 1.45, 1.55)]
        t4s = [op.t4 for op in ops]
        assert all(b > a for a, b in zip(t4s, t4s[1:]))

    def test_mass_conserved_through_gas_path(self, engine):
        op = engine.balance(SLS, 1.4)
        s = op.stations
        # core + bypass = fan flow
        assert s["16"].W + s["13"].W / (1 + op.bypass_ratio) == pytest.approx(
            s["13"].W, rel=1e-9
        )
        # burner adds exactly the fuel flow
        assert s["4"].W == pytest.approx(s["3"].W + op.wf, rel=1e-9)
        # turbines conserve mass
        assert s["45"].W == pytest.approx(s["4"].W)
        assert s["5"].W == pytest.approx(s["45"].W)
        # mixer merges core and bypass
        assert s["7"].W == pytest.approx(s["6"].W + s["16"].W, rel=1e-9)

    def test_energy_bookkeeping_at_shafts(self, engine):
        op = engine.balance(SLS, 1.4)
        mech = engine.spec.mech_efficiency
        assert op.powers["lpt"] * mech == pytest.approx(op.powers["fan"], rel=1e-7)
        assert op.powers["hpt"] * mech == pytest.approx(op.powers["hpc"], rel=1e-7)

    @given(
        alt=st.floats(min_value=0.0, max_value=3000.0),
        mach=st.floats(min_value=0.0, max_value=0.6),
    )
    @settings(max_examples=8, deadline=None)
    def test_balance_converges_across_envelope_corner(self, engine, alt, mach):
        op = engine.balance(FlightCondition(alt, mach), 1.4)
        assert op.converged
        assert op.thrust_N > 0
