"""Tests for AVS modules, the Network Editor, and the dataflow scheduler."""

import pytest

from repro.avs import (
    AVSModule,
    ComputeError,
    ControlPanel,
    DataflowScheduler,
    Dial,
    NetworkEditError,
    NetworkEditor,
    PortError,
)


class Source(AVSModule):
    module_name = "source"

    def spec(self):
        self.add_output_port("out", "number")
        self.add_widget(Dial(name="level", value=1.0, minimum=0.0, maximum=100.0))

    def compute(self, **inputs):
        return {"out": self.param("level")}


class Doubler(AVSModule):
    module_name = "doubler"

    def spec(self):
        self.add_input_port("in", "number")
        self.add_output_port("out", "number")

    def compute(self, **inputs):
        return {"out": 2 * inputs["in"]}


class Adder(AVSModule):
    module_name = "adder"

    def spec(self):
        self.add_input_port("a", "number")
        self.add_input_port("b", "number")
        self.add_output_port("sum", "number")

    def compute(self, **inputs):
        return {"sum": inputs["a"] + inputs["b"]}


class TextSink(AVSModule):
    module_name = "sink"

    def spec(self):
        self.add_input_port("in", "text")

    def compute(self, **inputs):
        return {}


def diamond():
    """source -> (doubler, doubler) -> adder."""
    editor = NetworkEditor()
    src = editor.add_module(Source())
    d1 = editor.add_module(Doubler())
    d2 = editor.add_module(Doubler())
    add = editor.add_module(Adder())
    editor.connect(src, "out", d1, "in")
    editor.connect(src, "out", d2, "in")
    editor.connect(d1, "out", add, "a")
    editor.connect(d2, "out", add, "b")
    return editor, src, d1, d2, add


class TestEditor:
    def test_instance_names_are_unique(self):
        editor = NetworkEditor()
        a = editor.add_module(Doubler())
        b = editor.add_module(Doubler())
        assert a.instance_name == "doubler.1"
        assert b.instance_name == "doubler.2"

    def test_explicit_name(self):
        editor = NetworkEditor()
        m = editor.add_module(Source(), name="low speed shaft")
        assert editor.module("low speed shaft") is m

    def test_duplicate_name_rejected(self):
        editor = NetworkEditor()
        editor.add_module(Source(), name="x")
        with pytest.raises(NetworkEditError):
            editor.add_module(Source(), name="x")

    def test_connect_type_mismatch_rejected(self):
        editor = NetworkEditor()
        src = editor.add_module(Source())
        sink = editor.add_module(TextSink())
        with pytest.raises(PortError):
            editor.connect(src, "out", sink, "in")

    def test_unknown_ports_rejected(self):
        editor = NetworkEditor()
        src = editor.add_module(Source())
        dbl = editor.add_module(Doubler())
        with pytest.raises(PortError):
            editor.connect(src, "bogus", dbl, "in")
        with pytest.raises(PortError):
            editor.connect(src, "out", dbl, "bogus")

    def test_input_port_single_wire(self):
        editor = NetworkEditor()
        s1 = editor.add_module(Source())
        s2 = editor.add_module(Source())
        dbl = editor.add_module(Doubler())
        editor.connect(s1, "out", dbl, "in")
        with pytest.raises(PortError):
            editor.connect(s2, "out", dbl, "in")

    def test_cycles_rejected(self):
        editor = NetworkEditor()
        d1 = editor.add_module(Doubler())
        d2 = editor.add_module(Doubler())
        editor.connect(d1, "out", d2, "in")
        with pytest.raises(NetworkEditError, match="cycle"):
            editor.connect(d2, "out", d1, "in")
        # the failed edit left no residue
        assert len(editor.connections) == 1

    def test_remove_module_runs_destroy(self):
        editor, src, d1, d2, add = diamond()
        editor.remove_module(d1)
        assert d1.destroyed
        assert "doubler.1" not in editor.modules
        assert all(c.src != "doubler.1" and c.dst != "doubler.1" for c in editor.connections)

    def test_clear_destroys_everything(self):
        editor, src, d1, d2, add = diamond()
        editor.clear()
        assert all(m.destroyed for m in (src, d1, d2, add))
        assert editor.modules == {}

    def test_on_remove_observer(self):
        editor, src, d1, d2, add = diamond()
        removed = []
        editor.on_remove.append(removed.append)
        editor.remove_module(d2)
        assert removed == [d2]

    def test_disconnect(self):
        editor, src, d1, d2, add = diamond()
        conn = [c for c in editor.connections if c.dst == "adder.1" and c.in_port == "a"][0]
        editor.disconnect(conn)
        assert conn not in editor.connections


class TestScheduler:
    def test_execute_all_topological(self):
        editor, src, d1, d2, add = diamond()
        sched = DataflowScheduler(editor)
        report = sched.execute_all()
        assert report.executed[0] == "source.1"
        assert report.executed[-1] == "adder.1"
        assert sched.output_of(add, "sum") == 4.0  # 1 -> 2+2

    def test_widget_change_affects_downstream(self):
        editor, src, d1, d2, add = diamond()
        sched = DataflowScheduler(editor)
        sched.execute_all()
        src.set_param("level", 5.0)
        sched.execute_dirty()
        assert sched.output_of(add, "sum") == 20.0

    def test_execute_dirty_skips_clean_upstream(self):
        """Only the changed module and its downstream cone re-execute."""
        editor = NetworkEditor()
        a = editor.add_module(Source())
        mid = editor.add_module(Doubler())
        b = editor.add_module(Source())  # independent branch
        editor.connect(a, "out", mid, "in")
        sched = DataflowScheduler(editor)
        sched.execute_all()
        a.set_param("level", 3.0)
        report = sched.execute_dirty()
        assert set(report.executed) == {"source.1", "doubler.1"}
        assert report.skipped == ["source.2"]

    def test_execute_dirty_noop_when_clean(self):
        editor, *_ = diamond()
        sched = DataflowScheduler(editor)
        sched.execute_all()
        report = sched.execute_dirty()
        assert report.executed == []

    def test_execute_dirty_reruns_a_module_whose_compute_raised(self):
        """A widget-less module whose only compute raised has never run:
        the next dirty pass owes it (and its consumer) a compute, instead
        of feeding the consumer an output that was never stored."""

        class Flaky(Doubler):
            module_name = "flaky"
            failures = 1

            def compute(self, **inputs):
                if self.failures:
                    self.failures -= 1
                    raise RuntimeError("transient failure")
                return super().compute(**inputs)

        class Sink(AVSModule):
            module_name = "sink"

            def spec(self):
                self.add_input_port("in", "number")

            def compute(self, **inputs):
                return {}

        editor = NetworkEditor()
        src, flaky, sink = (editor.add_module(m) for m in (Source(), Flaky(), Sink()))
        editor.connect(src, "out", flaky, "in")
        editor.connect(flaky, "out", sink, "in")
        sched = DataflowScheduler(editor)
        with pytest.raises(RuntimeError, match="transient failure"):
            sched.execute_all()
        report = sched.execute_dirty()
        assert report.executed == ["flaky.1", "sink.1"] and report.skipped == ["source.1"]
        assert sched.output_of(flaky, "out") == 2.0
        assert (src.compute_count, flaky.compute_count, sink.compute_count) == (1, 1, 1)

    def test_execute_from_forces_cone(self):
        editor, src, d1, d2, add = diamond()
        sched = DataflowScheduler(editor)
        sched.execute_all()
        report = sched.execute_from(d1)
        assert set(report.executed) == {"doubler.1", "adder.1"}

    def test_missing_required_input(self):
        editor = NetworkEditor()
        editor.add_module(Doubler())
        sched = DataflowScheduler(editor)
        with pytest.raises(ComputeError, match="not connected"):
            sched.execute_all()

    def test_optional_input_uses_default(self):
        class Offset(AVSModule):
            module_name = "offset"

            def spec(self):
                self.add_input_port("in", "number", required=False, default=10.0)
                self.add_output_port("out", "number")

            def compute(self, **inputs):
                return {"out": inputs["in"] + 1}

        editor = NetworkEditor()
        off = editor.add_module(Offset())
        sched = DataflowScheduler(editor)
        sched.execute_all()
        assert sched.output_of(off, "out") == 11.0

    def test_destroyed_module_cannot_compute(self):
        editor, src, *_ = diamond()
        sched = DataflowScheduler(editor)
        src.destroy()
        with pytest.raises(ComputeError, match="destroyed"):
            sched.execute_all()

    def test_compute_output_validation(self):
        class Bad(AVSModule):
            module_name = "bad"

            def spec(self):
                self.add_output_port("out")

            def compute(self, **inputs):
                return {"nonexistent": 1}

        editor = NetworkEditor()
        editor.add_module(Bad())
        with pytest.raises(ComputeError, match="unknown output"):
            DataflowScheduler(editor).execute_all()


class TestSaveLoad:
    PALETTE = {"Source": Source, "Doubler": Doubler, "Adder": Adder}

    def test_roundtrip_preserves_structure_and_params(self):
        editor, src, d1, d2, add = diamond()
        src.set_param("level", 7.0)
        saved = editor.save()
        rebuilt = NetworkEditor.load(saved, self.PALETTE)
        sched = DataflowScheduler(rebuilt)
        sched.execute_all()
        assert sched.output_of("adder.1", "sum") == 28.0

    def test_load_missing_palette_entry(self):
        editor, *_ = diamond()
        saved = editor.save()
        with pytest.raises(NetworkEditError, match="palette"):
            NetworkEditor.load(saved, {})


class TestControlPanel:
    def test_render_lists_widgets(self):
        src = Source()
        src.instance_name = "low speed shaft"
        panel = ControlPanel(src)
        text = panel.render()
        assert "low speed shaft" in text
        assert "level" in text

    def test_panel_set(self):
        src = Source()
        ControlPanel(src).set("level", 9.0)
        assert src.param("level") == 9.0
