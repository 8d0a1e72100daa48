"""Stable operating-point keying (repro.tess.opkey).

The op-point cache's correctness leans on these keys being *stable*
(same inputs → byte-identical digests across processes) and *sensitive*
(any bit of the deck, flight condition, or context splits the family).
"""

from __future__ import annotations

import pytest

from repro.tess import (
    F100_SPEC,
    combine_keys,
    context_key,
    deck_key,
    flight_key,
    wf_key,
)
from repro.tess.atmosphere import FlightCondition
from repro.tess.opkey import stable_value


class TestStableValue:
    def test_floats_key_by_bit_pattern(self):
        assert stable_value(1.3) == (1.3).hex()
        assert stable_value(1.3) != stable_value(1.3 + 1e-15)
        assert stable_value(float("1.30")) == stable_value(1.3)

    def test_dicts_are_order_insensitive(self):
        assert stable_value({"a": 1, "b": 2.0}) == stable_value({"b": 2.0, "a": 1})

    def test_dataclasses_recurse(self):
        fc = FlightCondition(altitude_m=10000.0, mach=0.8)
        sv = stable_value(fc)
        assert sv["altitude_m"] == (10000.0).hex()
        assert sv["mach"] == (0.8).hex()

    def test_unknown_types_fail_loud(self):
        with pytest.raises(TypeError):
            stable_value(object())

    def test_bool_is_not_a_float(self):
        assert stable_value(True) is True
        assert stable_value(1) == 1


class TestKeys:
    def test_deck_key_is_stable_and_sensitive(self):
        import dataclasses

        assert deck_key(F100_SPEC) == deck_key(F100_SPEC)
        other = dataclasses.replace(
            F100_SPEC,
            bypass_ratio_design=F100_SPEC.bypass_ratio_design + 1e-12,
        )
        assert deck_key(other) != deck_key(F100_SPEC)

    def test_flight_key_sensitive_to_condition(self):
        a = flight_key(FlightCondition(altitude_m=0.0, mach=0.0))
        b = flight_key(FlightCondition(altitude_m=0.0, mach=0.01))
        assert a != b

    def test_context_key_covers_placement_and_dispatch(self):
        base = context_key(placement={}, dispatch="eager")
        assert context_key(placement={}, dispatch="eager") == base
        assert context_key(placement={"inlet": "h"}, dispatch="eager") != base
        assert context_key(placement={}, dispatch="lazy") != base

    def test_wf_key_is_the_bit_pattern(self):
        import math

        assert wf_key(1.3) == (1.3).hex()
        assert wf_key(1.3) != wf_key(math.nextafter(1.3, 2.0))

    def test_combine_keys_is_order_sensitive(self):
        assert combine_keys("a", "b") != combine_keys("b", "a")
        assert combine_keys("a", "b") == combine_keys("a", "b")
        # not vulnerable to concatenation ambiguity
        assert combine_keys("ab", "c") != combine_keys("a", "bc")


class TestFlightConditionAtmosphere:
    """A condition evaluates the ISA atmosphere once, on first use, and
    keeps it beside its fields: keys, equality and ``replace`` see the
    fields only, and every reader gets the same bits."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        from repro.tess import atmosphere

        calls = []
        real = atmosphere.standard_atmosphere
        monkeypatch.setattr(atmosphere, "standard_atmosphere",
                            lambda *a: (calls.append(a), real(*a))[1])
        return calls

    def test_one_evaluation_serves_every_reader(self, evaluations):
        from repro.tess.atmosphere import standard_atmosphere

        fc = FlightCondition(altitude_m=9000.0, mach=0.7, humidity=0.01)
        amb, (tt, pt), v = fc.ambient(), fc.ram_conditions(), fc.flight_speed
        assert (fc.ambient(), fc.ram_conditions(), fc.flight_speed) == (amb, (tt, pt), v)
        assert evaluations == [(9000.0, 0.01)]
        fresh = standard_atmosphere(9000.0, 0.01)
        assert (amb.Ts, amb.Ps) == (fresh.Ts, fresh.Ps)
        assert v == 0.7 * fresh.speed_of_sound

    def test_keys_equality_and_replace_see_the_fields_only(self):
        import dataclasses

        used, unused = FlightCondition(3000.0, 0.5), FlightCondition(3000.0, 0.5)
        key = flight_key(used)
        used.ram_conditions()
        assert used == unused and hash(used) == hash(unused)
        assert flight_key(used) == flight_key(unused) == key
        assert stable_value(used) == stable_value(unused)
        higher = dataclasses.replace(used, altitude_m=6000.0)
        assert higher.ambient().Ts < used.ambient().Ts
        assert flight_key(higher) != key

    def test_an_out_of_range_condition_raises_on_every_use(self, evaluations):
        fc = FlightCondition(altitude_m=25000.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="outside model range"):
                fc.ambient()
        assert len(evaluations) == 2
