"""The editor's own walks are networkx's, order included.

Module execution order is trace order, so the scheduler's order is part
of the contract: ``NetworkEditor.generations`` must be
``nx.topological_generations`` over the same graph (nodes in editor
order, edges in the order the wires went in), its flattening
``nx.topological_sort``, and ``downstream`` ``nx.descendants``.
``networkx`` is a test-only dependency, held here as the reference.
"""

import networkx as nx
import pytest

from repro.avs import DataflowScheduler, NetworkEditor, render_network
from repro.core import NPSSExecutive
from repro.schooner.runtime import SchoonerEnvironment

from .nxview import digraph
from .test_network import diamond
from .test_wiring_refusal import Hub, random_wiring

#: ``render_network`` of Figure 2, as printed before the editor walked
#: its own dicts (the layers come from ``nx.topological_generations``)
FIGURE_2 = """\
[system]
  |
  [inlet]
    |
    [fan]
      |
      [splitter]
        |
        [bypass duct]   [core duct]
          |
          [bleed]
            |
            [high pressure compressor]
              |
            [combustor]
              |
            [high pressure turbine]
              |
            [high speed shaft]   [low pressure turbine]
              |
            [low speed shaft]   [mixer duct]
              |
            [mixing volume]
              |
            [nozzle]

wires:
  bleed.out -> high pressure compressor.in
  bypass duct.out -> mixing volume.bypass
  combustor.out -> high pressure turbine.in
  core duct.out -> bleed.in
  fan.energy -> low speed shaft.compressor energy
  fan.out -> splitter.in
  high pressure compressor.energy -> high speed shaft.compressor energy
  high pressure compressor.out -> combustor.in
  high pressure turbine.energy -> high speed shaft.turbine energy
  high pressure turbine.out -> low pressure turbine.in
  inlet.out -> fan.in
  low pressure turbine.energy -> low speed shaft.turbine energy
  low pressure turbine.out -> mixer duct.in
  mixer duct.out -> mixing volume.core
  mixing volume.out -> nozzle.in
  splitter.bypass -> bypass duct.in
  splitter.core -> core duct.in
  system.control -> inlet.control"""


def figure_2():
    """Figure 2 as built (the park's saved network, dragged and wired
    by ``add_module``/``connect``) and as pasted (an executive's copy)."""
    ex = NPSSExecutive(env=SchoonerEnvironment.standard())
    ex.build_f100_network()
    return {"built": ex.env.park.saved_networks["f100"][0], "pasted": ex.editor}


def assert_walks_agree(editor):
    graph = digraph(editor)
    assert editor.generations() == [list(g) for g in nx.topological_generations(graph)]
    order = [name for layer in editor.generations() for name in layer]
    assert order == list(nx.topological_sort(graph))
    assert DataflowScheduler(editor)._order() == order
    for name in editor.modules:
        assert editor.downstream(name) == nx.descendants(graph, name)


class TestAgainstNetworkx:
    @pytest.mark.parametrize("which", ["built", "pasted"])
    def test_figure_2(self, which):
        editor = figure_2()[which]
        assert_walks_agree(editor)
        assert len(editor.generations()) == 13

    @pytest.mark.parametrize("seed", range(8))
    def test_random_wirings(self, seed):
        editor, _ = random_wiring(seed)
        assert_walks_agree(editor)

    def test_edits_out_of_insertion_order(self):
        """Removed and re-added modules go to the back of the editor's
        order, and a wire added late to the front of a module's
        successors: the walks follow both, as networkx does."""
        editor = NetworkEditor()
        hubs = [editor.add_module(Hub()) for _ in range(5)]
        editor.connect(hubs[3], "out", hubs[1], "a")
        editor.connect(hubs[0], "out", hubs[4], "a")
        editor.connect(hubs[0], "out", hubs[1], "b")
        editor.remove_module(hubs[2])
        late = editor.add_module(Hub())
        editor.connect(late, "out", hubs[0], "a")
        assert_walks_agree(editor)
        assert editor.generations() == [["hub.4", "hub.6"], ["hub.1"], ["hub.5", "hub.2"]]

    def test_empty_and_isolated(self):
        editor = NetworkEditor()
        assert editor.generations() == []
        editor.add_module(Hub())
        assert_walks_agree(editor)
        assert editor.downstream("hub.1") == set()

    def test_the_diamond(self):
        editor, *_ = diamond()
        assert_walks_agree(editor)


class TestRenderIsUnchanged:
    @pytest.mark.parametrize("which", ["built", "pasted"])
    def test_figure_2_is_the_pinned_text(self, which):
        assert render_network(figure_2()[which]) == FIGURE_2
