"""A refused ``connect`` leaves the Network Editor exactly as it was.

Acyclicity is decided before the wire goes in (a reachability walk from
the destination back to the source), so there is no insert-then-remove
rollback to get wrong; these tests pin that from outside, and hold the
walk's verdicts to ``networkx``'s whole-graph check on random wirings.
"""

import random

import networkx as nx
import pytest

from repro.avs import AVSModule, NetworkEditError, NetworkEditor
from repro.avs.editor import Connection

from .nxview import digraph


class Hub(AVSModule):
    """Four inputs, one output, all the same type: any wiring shape."""

    module_name = "hub"
    INPUTS = ("a", "b", "c", "d")

    def spec(self):
        for name in self.INPUTS:
            self.add_input_port(name, "number", required=False, default=0.0)
        self.add_output_port("out", "number")

    def compute(self, **inputs):
        return {"out": sum(inputs.values())}


def chain(n):
    """hub.1 -> hub.2 -> ... -> hub.n, each on port ``a``."""
    editor = NetworkEditor()
    hubs = [editor.add_module(Hub()) for _ in range(n)]
    for up, down in zip(hubs, hubs[1:]):
        editor.connect(up, "out", down, "a")
    return editor, hubs


def snapshot(editor):
    return editor.connections, sorted(digraph(editor).edges), sorted(digraph(editor).nodes)


def refused(editor, src, dst, in_port):
    before = snapshot(editor)
    with pytest.raises(NetworkEditError, match="would create a cycle"):
        editor.connect(src, "out", dst, in_port)
    assert snapshot(editor) == before


class TestRefusedConnectLeavesNoResidue:
    def test_self_wire(self):
        editor, (hub,) = chain(1)
        refused(editor, hub, hub, "a")
        assert editor.connections == () and not digraph(editor).edges

    def test_back_edge_through_three_modules(self):
        editor, hubs = chain(4)
        refused(editor, hubs[3], hubs[0], "a")
        refused(editor, hubs[2], hubs[0], "b")
        # the forward direction of the same pair is still legal
        editor.connect(hubs[0], "out", hubs[3], "b")

    def test_second_wire_on_an_edge_then_a_refusal(self):
        editor, (up, down) = chain(2)
        second = editor.connect(up, "out", down, "b")
        assert len(digraph(editor).edges) == 1 and len(editor.connections) == 2
        refused(editor, down, up, "a")
        assert digraph(editor)[up.instance_name][down.instance_name]["connections"] == [
            Connection("hub.1", "out", "hub.2", "a"),
            second,
        ]

    def test_disconnect_after_a_refusal(self):
        editor, (up, down) = chain(2)
        first = editor.connections[0]
        second = editor.connect(up, "out", down, "b")
        refused(editor, down, up, "a")
        # the refused wire was never in the network
        before = snapshot(editor)
        with pytest.raises(NetworkEditError, match="not in the network"):
            editor.disconnect(Connection("hub.2", "out", "hub.1", "a"))
        assert snapshot(editor) == before
        # and the real ones come out one at a time, the edge with the last
        editor.disconnect(first)
        assert editor.connections == (second,) and len(digraph(editor).edges) == 1
        editor.disconnect(second)
        assert editor.connections == () and not digraph(editor).edges
        # with the forward wires gone the former back-edge is legal
        editor.connect(down, "out", up, "a")

    def test_load_of_a_saved_cycle_is_refused(self):
        editor, _ = chain(3)
        saved = editor.save()
        saved["connections"].append(
            {"src": "hub.3", "out_port": "out", "dst": "hub.1", "in_port": "a"}
        )
        with pytest.raises(NetworkEditError, match="would create a cycle"):
            NetworkEditor.load(saved, {"Hub": Hub})


def random_wiring(seed):
    """Seven hubs and sixty seeded wiring attempts; ``networkx``'s
    whole-graph check decides each, and the editor must agree — a legal
    wire goes in, an illegal one is refused without residue.  Returns
    the network and how many attempts were refused."""
    rng = random.Random(seed)
    editor = NetworkEditor()
    hubs = [editor.add_module(Hub()) for _ in range(7)]
    free = {h.instance_name: list(Hub.INPUTS) for h in hubs}
    refusals = 0
    for _ in range(60):
        src, dst = rng.choice(hubs), rng.choice(hubs)
        if not free[dst.instance_name]:
            continue
        port = free[dst.instance_name][-1]
        trial = digraph(editor)
        trial.add_edge(src.instance_name, dst.instance_name)
        if nx.is_directed_acyclic_graph(trial):
            editor.connect(src, "out", dst, port)
            free[dst.instance_name].pop()
        else:
            refused(editor, src, dst, port)
            refusals += 1
        assert nx.is_directed_acyclic_graph(digraph(editor))
    return editor, refusals


class TestAgainstTheWholeGraphCheck:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_wirings_agree_with_networkx(self, seed):
        editor, refusals = random_wiring(seed)
        assert refusals and editor.connections
