"""System-level property tests.

The paper's central correctness claim is *placement transparency*:
where a computation runs must never change what it computes.  These
properties fuzz placements, migrations, and editor operations.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LOCAL_CHOICE, NPSSExecutive

MACHINES = (
    LOCAL_CHOICE,
    "sparc10.lerc.nasa.gov",
    "sgi4d480.lerc.nasa.gov",
    "sgi4d420.lerc.nasa.gov",
    "rs6000.lerc.nasa.gov",
    "cray-ymp.lerc.nasa.gov",
    "convex-c220.lerc.nasa.gov",
    "sgi4d340.cs.arizona.edu",
)

REMOTE_MODULES = (
    "combustor", "nozzle", "duct-bypass", "duct-core", "duct-mixer",
    "shaft-low", "shaft-high",
)


@pytest.fixture(scope="module")
def reference():
    ex = NPSSExecutive()
    ex.modules = ex.build_f100_network()
    ex.modules["system"].set_param("transient seconds", 0.1)
    ex.execute()
    return {
        "thrust": ex.solution.thrust_N,
        "n1_end": float(ex.transient_result.n1[-1]),
    }


placements = st.lists(
    st.sampled_from(MACHINES), min_size=len(REMOTE_MODULES),
    max_size=len(REMOTE_MODULES),
)


class TestPlacementTransparency:
    @given(machines=placements)
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_placement_same_answer(self, reference, machines):
        """Scatter the seven adapted-module instances across arbitrary
        machines: thrust and the transient endpoint never change."""
        ex = NPSSExecutive()
        ex.modules = ex.build_f100_network()
        ex.modules["system"].set_param("transient seconds", 0.1)
        for mod, machine in zip(REMOTE_MODULES, machines):
            ex.modules[mod].set_param("remote machine", machine)
        ex.execute()
        assert ex.solution.thrust_N == pytest.approx(
            reference["thrust"], rel=1e-9
        )
        assert float(ex.transient_result.n1[-1]) == pytest.approx(
            reference["n1_end"], abs=1e-9
        )

    @given(
        moves=st.lists(
            st.tuples(
                st.sampled_from(("nozzle", "combustor")),
                st.sampled_from(MACHINES[1:]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_migration_sequence_same_answer(self, reference, moves):
        """Apply an arbitrary sequence of re-placements between runs,
        each through the machine widget: the simulation result is
        placement-history-independent."""
        ex = NPSSExecutive()
        ex.modules = ex.build_f100_network()
        ex.modules["system"].set_param("transient seconds", 0.0)
        ex.modules["nozzle"].set_param("remote machine", MACHINES[1])
        ex.modules["combustor"].set_param("remote machine", MACHINES[2])
        ex.execute()
        for key, target in moves:
            if ex.host.placements.get(key) == target:
                continue
            ex.modules[key].set_param("remote machine", target)
        ex.execute()
        assert ex.solution.thrust_N == pytest.approx(
            reference["thrust"], rel=1e-9
        )


class TestEditorFuzz:
    @given(
        ops=st.lists(st.integers(min_value=0, max_value=2), max_size=12),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_edits_preserve_invariants(self, ops, seed):
        """Random add/connect/remove sequences never corrupt the editor:
        the graph stays a DAG, names stay unique, and every connection
        references live modules."""
        import networkx as nx

        from repro.avs import AVSModule, NetworkEditor
        from repro.avs.errors import AVSError, NetworkEditError, PortError

        from ..avs.nxview import digraph

        class Node(AVSModule):
            module_name = "node"

            def spec(self):
                self.add_input_port("in", "x", required=False)
                self.add_output_port("out", "x")

            def compute(self, **inputs):
                return {"out": 1}

        rng = np.random.default_rng(seed)
        editor = NetworkEditor()
        for op in ops:
            names = list(editor.modules)
            try:
                if op == 0 or len(names) < 2:
                    editor.add_module(Node())
                elif op == 1:
                    a, b = rng.choice(names, size=2, replace=False)
                    editor.connect(str(a), "out", str(b), "in")
                else:
                    editor.remove_module(str(rng.choice(names)))
            except (AVSError, NetworkEditError, PortError):
                pass  # rejected edits must leave the network intact
            # invariants after every operation
            graph = digraph(editor)
            assert nx.is_directed_acyclic_graph(graph)
            assert set(graph.nodes) == set(editor.modules)
            # the execution order is networkx's, through every edit
            assert editor.generations() == [list(g) for g in nx.topological_generations(graph)]
            for conn in editor.connections:
                assert conn.src in editor.modules
                assert conn.dst in editor.modules
