"""The copy is the network, and only its own.

Figure 2 is dragged and wired once per machine park and every executive
there opens an independent copy (``NetworkEditor.paste``).  These tests
hold the copy to the hand-built original — the pinned description was
recorded on the commit that still built every network by hand — and
hold that nothing a user does to one copy reaches the saved network or
another copy.
"""

import hashlib
import json
import random

import networkx as nx
import pytest

from repro.avs import AVSModule, NetworkEditError, NetworkEditor, PortError
from repro.avs.editor import Connection
from repro.core import NPSSExecutive
from repro.core.tess_modules import TESS_PALETTE, DuctModule
from repro.schooner.runtime import SchoonerEnvironment

from .nxview import digraph
from .test_wiring_refusal import Hub, refused

#: sha256 of ``describe`` over a Figure 2 built by sixteen ``add_module``
#: and eighteen ``connect`` calls in the executive's own editor
HAND_BUILT = "8f674dd4adaeafbc78084995cebab63ed57d93c90f9bfc96eaf98788435abf0d"


def wire(c):
    return [c.src, c.out_port, c.dst, c.in_port]


def describe(editor, keys, executive):
    """Everything a user can see of a network, in the editor's order."""
    modules = editor.modules
    return {
        "save": editor.save(),
        "keys": {k: v.instance_name for k, v in keys.items()},
        "modules": [
            [
                name, type(mod).__name__, mod.role, getattr(mod, "placement_key", None),
                [[w.name, type(w).__name__, w.value, w.dirty] for w in mod.widgets.values()],
                [[p.name, p.port_type, p.required, p.default, p.has_default]
                 for p in mod.input_ports.values()],
                [[p.name, p.port_type, p.value, p.has_value] for p in mod.output_ports.values()],
                mod.compute_count, mod.destroyed, mod.executive is executive,
            ]
            for name, mod in modules.items()
        ],
        "connections": [wire(c) for c in editor.connections],
        "incoming": {name: [wire(c) for c in editor.incoming(name)] for name in modules},
    }


def digest(description):
    return hashlib.sha256(json.dumps(description, sort_keys=True).encode()).hexdigest()


@pytest.fixture
def env():
    return SchoonerEnvironment.standard()


def opened(env):
    ex = NPSSExecutive(env=env)
    return ex, ex.build_f100_network()


def saved_figure(env):
    return env.park.saved_networks["f100"][0]


class TestACopyIsTheHandBuiltNetwork:
    def test_first_and_later_copies_match_the_pinned_description(self, env):
        for _ in range(3):
            ex, keys = opened(env)
            assert digest(describe(ex.editor, keys, ex)) == HAND_BUILT

    def test_the_figure_is_wired_once_per_park(self, env, monkeypatch):
        adds, connects = [], []
        real_add, real_connect = NetworkEditor.add_module, NetworkEditor.connect
        monkeypatch.setattr(NetworkEditor, "add_module",
                            lambda self, *a, **kw: adds.append(a) or real_add(self, *a, **kw))
        monkeypatch.setattr(NetworkEditor, "connect",
                            lambda self, *a: connects.append(a) or real_connect(self, *a))
        for _ in range(3):
            opened(env)
        assert (len(adds), len(connects)) == (16, 18)
        opened(SchoonerEnvironment.standard())  # another park drags its own
        assert (len(adds), len(connects)) == (32, 36)

    def test_the_saved_network_belongs_to_no_executive(self, env):
        ex, keys = opened(env)
        figure = saved_figure(env)
        assert all(mod.executive is None for mod in figure.modules.values())
        assert all(mod.executive is ex for mod in ex.editor.modules.values())
        assert not set(map(id, figure.modules.values())) & set(map(id, keys.values()))

    def test_base_spec_inertias_are_the_copy_s_not_the_park_s(self, env):
        from dataclasses import replace

        from repro.tess.f100 import F100_SPEC

        heavy = NPSSExecutive(env=env, base_spec=replace(F100_SPEC, low_inertia=3.5))
        heavy_keys = heavy.build_f100_network()
        _, keys = opened(env)
        assert heavy_keys["shaft-low"].param("moment inertia") == 3.5
        assert keys["shaft-low"].param("moment inertia") == F100_SPEC.low_inertia

    def test_opening_twice_in_one_editor_is_refused_untouched(self, env):
        ex, keys = opened(env)
        before = describe(ex.editor, keys, ex)
        with pytest.raises(NetworkEditError, match="'system' already in the network"):
            ex.build_f100_network()
        assert describe(ex.editor, keys, ex) == before

    def test_a_copy_runs_like_a_hand_built_network(self, env):
        ex, keys = opened(env)
        op = ex.run_simulation()
        report = ex.execute()
        assert op.converged and len(report.executed) == 16
        assert report.executed[0] == "system"
        assert keys["nozzle"].output_ports["thrust"].value == ex.solution.thrust_N

    def test_load_of_a_saved_copy_behaves_as_before(self, env):
        ex, _ = opened(env)
        rebuilt = NetworkEditor.load(ex.editor.save(), TESS_PALETTE)
        assert rebuilt.save() == ex.editor.save()
        assert list(rebuilt.modules) == list(ex.editor.modules)


class TestCopiesAreIndependent:
    def snapshots(self, env, *executives):
        figure = saved_figure(env)
        views = [describe(figure, {}, None)]
        views += [describe(ex.editor, {}, ex) for ex in executives]
        return views

    def test_edits_to_one_copy_reach_neither_the_figure_nor_a_sibling(self, env):
        (a, keys), (b, _) = opened(env), opened(env)
        untouched = self.snapshots(env, b)
        edits = a.editor
        keys["combustor"].set_param("fuel flow", 1.42)
        keys["inlet"].widget("mach").value = 0.8
        # free the mixing volume's bypass input, then put a second wire
        # on the existing mixer duct -> mixing volume edge
        edits.disconnect(edits.incoming("mixing volume")[1])
        edits.connect("mixer duct", "out", "mixing volume", "bypass")
        assert len(digraph(edits)["mixer duct"]["mixing volume"]["connections"]) == 2
        edits.connect("bleed", "bleed", edits.add_module(DuctModule(role="duct:extra")), "in")
        edits.remove_module("nozzle")
        keys["fan"].output_ports["out"].put(123.0)
        assert self.snapshots(env, b) == untouched

    def test_a_second_wire_on_an_edge_stays_on_its_own_copy(self):
        """The shared-``connections``-list trap: an edge's wire list
        must be the copy's own, or this append shows in the original."""
        original = NetworkEditor()
        up, down = original.add_module(Hub()), original.add_module(Hub())
        original.connect(up, "out", down, "a")
        one, two = NetworkEditor(), NetworkEditor()
        one.paste(original)
        two.paste(original)
        second = one.connect("hub.1", "out", "hub.2", "b")
        assert original.connections == two.connections == (Connection("hub.1", "out", "hub.2", "a"),)
        assert one.connections == (Connection("hub.1", "out", "hub.2", "a"), second)
        assert one.incoming("hub.2") == one.connections
        one.disconnect(one.connections[0])
        assert len(original.connections) == len(two.connections) == 1
        assert digraph(original)["hub.1"]["hub.2"]["connections"] == list(original.connections)

    def test_widgets_and_output_ports_are_the_copy_s_own(self, env):
        (a, _), (b, _) = opened(env), opened(env)
        for name, mod in saved_figure(env).modules.items():
            for other in (a.editor.module(name), b.editor.module(name)):
                assert type(other) is type(mod) and other is not mod
                for kind in ("widgets", "output_ports"):
                    mine, theirs = getattr(mod, kind), getattr(other, kind)
                    assert list(mine) == list(theirs)
                    assert not set(map(id, mine.values())) & set(map(id, theirs.values()))

    def test_clearing_one_copy_destroys_only_its_modules(self, env):
        (a, _), (b, _) = opened(env), opened(env)
        a.clear_network()
        assert not any(m.destroyed for m in b.editor.modules.values())
        assert not any(m.destroyed for m in saved_figure(env).modules.values())


class TestRefusalsOnACopy:
    def test_wrong_port_type(self, env):
        ex, keys = opened(env)
        before = describe(ex.editor, keys, ex)
        with pytest.raises(PortError, match=r"cannot connect output 'energy' \(power\) to "
                                            r"input 'in' \(engine-station\)"):
            ex.editor.connect("fan", "energy", "nozzle", "in")
        assert describe(ex.editor, keys, ex) == before

    def test_second_wire_into_an_input(self, env):
        ex, keys = opened(env)
        before = describe(ex.editor, keys, ex)
        with pytest.raises(PortError, match=r"nozzle.in is already connected "
                                            r"\(from mixing volume.out\)"):
            ex.editor.connect("bleed", "bleed", "nozzle", "in")
        assert describe(ex.editor, keys, ex) == before

    def test_a_cycle(self, env):
        ex, keys = opened(env)
        ex.editor.disconnect(ex.editor.incoming("fan")[0])
        before = describe(ex.editor, keys, ex)
        with pytest.raises(NetworkEditError, match="would create a cycle"):
            ex.editor.connect("mixer duct", "out", "fan", "in")
        assert describe(ex.editor, keys, ex) == before

    @pytest.mark.parametrize("seed", range(8))
    def test_random_wirings_on_copies_agree_with_networkx(self, seed):
        """``test_wiring_refusal``'s sweep, each step on a fresh copy of
        the network so far: a copy refuses what the original would."""
        rng = random.Random(seed)
        editor = NetworkEditor()
        names = [editor.add_module(Hub()).instance_name for _ in range(7)]
        free = {name: list(Hub.INPUTS) for name in names}
        refusals = 0
        for _ in range(60):
            src, dst = rng.choice(names), rng.choice(names)
            if not free[dst]:
                continue
            port = free[dst][-1]
            copy = NetworkEditor()
            copy.paste(editor)
            trial = digraph(copy)
            trial.add_edge(src, dst)
            if nx.is_directed_acyclic_graph(trial):
                copy.connect(src, "out", dst, port)
                free[dst].pop()
            else:
                refused(copy, copy.module(src), copy.module(dst), port)
                refusals += 1
            assert nx.is_directed_acyclic_graph(digraph(copy))
            editor = copy
        assert refusals and editor.connections


class Recorder(AVSModule):
    module_name = "recorder"
    log: list = []

    def destroy(self):
        self.log.append(("destroy", self.instance_name))
        super().destroy()


class Bomb(Recorder):
    def destroy(self):
        super().destroy()
        raise RuntimeError(f"{self.instance_name} would not die")


class TestBulkClear:
    def test_on_remove_then_destroy_per_module_in_insertion_order(self):
        Recorder.log = log = []
        editor = NetworkEditor()
        mods = [editor.add_module(Recorder()) for _ in range(4)]
        editor.on_remove.append(lambda m: log.append(("on_remove", m.instance_name, len(editor.modules))))
        editor.clear()
        assert log == [
            step for m in mods
            for step in (("on_remove", m.instance_name, 0), ("destroy", m.instance_name))
        ]
        assert all(m.destroyed for m in mods)
        assert editor.modules == {} and editor.connections == () and not digraph(editor).nodes

    def test_a_raising_destroy_does_not_spare_the_rest(self):
        Recorder.log = log = []
        editor = NetworkEditor()
        mods = [editor.add_module(cls()) for cls in (Recorder, Bomb, Recorder, Bomb, Recorder)]
        with pytest.raises(RuntimeError, match="recorder.2 would not die"):
            editor.clear()
        assert [name for _, name in log] == [m.instance_name for m in mods]
        assert all(m.destroyed for m in mods) and editor.modules == {}

    def test_a_cleared_executive_can_open_the_figure_again(self, env):
        ex, keys = opened(env)
        ex.run_simulation()
        first = list(keys.values())
        ex.clear_network()
        assert all(m.destroyed for m in first) and ex.editor.modules == {}
        assert sum(len(m.running_processes) for m in env.park) == 0
        again = ex.build_f100_network()
        assert digest(describe(ex.editor, again, ex)) == HAND_BUILT
        assert ex.run_simulation().converged


class TestAutoNames:
    def test_a_loaded_network_takes_another_module_of_a_held_type(self):
        editor = NetworkEditor()
        editor.add_module(Hub())
        editor.add_module(Hub())
        loaded = NetworkEditor.load(editor.save(), {"Hub": Hub})
        assert loaded.add_module(Hub()).instance_name == "hub.3"

    def test_a_pasted_network_takes_another_module_of_a_held_type(self):
        editor = NetworkEditor()
        editor.add_module(Hub())
        editor.add_module(Hub())
        editor.remove_module("hub.1")
        copy = NetworkEditor()
        copy.paste(editor)
        # the counters came along: names go on where the original's would
        assert copy.add_module(Hub()).instance_name == "hub.3"
        assert editor.add_module(Hub()).instance_name == "hub.3"

    def test_explicit_dotted_names_are_stepped_over(self):
        editor = NetworkEditor()
        editor.add_module(Hub(), name="hub.1")
        editor.add_module(Hub(), name="hub.2")
        editor.add_module(Hub(), name="hub.4")
        assert [editor.add_module(Hub()).instance_name for _ in range(3)] == [
            "hub.3", "hub.5", "hub.6"]

    def test_names_of_an_untouched_hand_built_network_are_what_they_were(self):
        editor = NetworkEditor()
        names = [editor.add_module(Hub()).instance_name for _ in range(3)]
        editor.remove_module("hub.2")
        names.append(editor.add_module(Hub()).instance_name)
        assert names == ["hub.1", "hub.2", "hub.3", "hub.4"]
        with pytest.raises(NetworkEditError, match="'hub.1' already in the network"):
            editor.add_module(Hub(), name="hub.1")
