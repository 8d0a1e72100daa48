"""Traffic classes and mixes (PR 7 tentpole, part b)."""

from __future__ import annotations

import random

import pytest

from repro.serve import SessionSpec
from repro.traffic import STOCK_MIXES, TrafficClass, TrafficMix


class TestSpecSampling:
    def test_specs_are_reproducible(self):
        (cls,) = [
            c for c in STOCK_MIXES["interactive-batch"].classes
            if c.name == "interactive"
        ]
        a = cls.make_spec(random.Random(9), name="s")
        b = cls.make_spec(random.Random(9), name="s")
        assert a == b

    def test_spec_fields_come_from_class_distributions(self):
        cls = TrafficClass(
            name="t",
            point_counts=(2,),
            wf_min=1.30,
            wf_max=1.40,
            deadline_range=(10.0, 20.0),
            priority=2,
        )
        rng = random.Random(1)
        for i in range(50):
            s = cls.make_spec(rng, name=f"t-{i}")
            assert len(s.points) == 2
            assert 1.30 <= s.points[0] <= 1.40
            assert s.points[1] == pytest.approx(s.points[0] + cls.wf_step)
            assert 10.0 <= s.deadline_s <= 20.0
            assert s.priority == 2
            assert s.traffic_class == "t"

    def test_fuel_flows_snap_to_quantum(self):
        cls = TrafficClass(name="t", point_counts=(1,), wf_quantum=0.005)
        rng = random.Random(4)
        for i in range(50):
            base = cls.make_spec(rng, name=f"t-{i}").points[0]
            assert round(base / 0.005) * 0.005 == pytest.approx(base, abs=1e-9)

    def test_transient_fraction_zero_and_one(self):
        rng = random.Random(0)
        never = TrafficClass(name="n", transient_fraction=0.0)
        always = TrafficClass(name="a", transient_fraction=1.0, transient_s=0.3)
        assert all(
            never.make_spec(rng, name=f"n-{i}").transient_s == 0.0 for i in range(20)
        )
        assert all(
            always.make_spec(rng, name=f"a-{i}").transient_s == 0.3 for i in range(20)
        )


class TestTrafficClassLabel:
    def test_label_excluded_from_workload_key(self):
        """The class label must never split the dedup cache: two specs
        differing only in traffic_class share a workload key."""
        a = SessionSpec(name="x", points=(1.30,), traffic_class="interactive")
        b = SessionSpec(name="y", points=(1.30,), traffic_class="batch")
        assert a.workload_key() == b.workload_key()


class TestMix:
    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            TrafficMix(name="m", classes=())

    def test_duplicate_class_names_rejected(self):
        c = TrafficClass(name="dup")
        with pytest.raises(ValueError):
            TrafficMix(name="m", classes=(c, c))

    def test_pick_respects_weights(self):
        mix = TrafficMix(
            name="m",
            classes=(
                TrafficClass(name="heavy", weight=9.0),
                TrafficClass(name="light", weight=1.0),
            ),
        )
        rng = random.Random(2)
        picks = [mix.pick(rng).name for _ in range(500)]
        assert picks.count("heavy") > 350

    def test_stock_mixes_well_formed(self):
        for name, mix in STOCK_MIXES.items():
            assert mix.name == name
            assert mix.classes
