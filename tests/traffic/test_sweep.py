"""Sweep runner (PR 7 tentpole part e, + satellite 3): deterministic
CSV, identical streams across admission arms, and knee extraction."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.records import render
from repro.traffic import STOCK_SWEEPS, SweepSpec, run_sweep
from repro.traffic.sweep import _cell_seed

TINY = SweepSpec(
    name="tiny",
    rates=(0.08, 0.8),
    mixes=("interactive",),
    admissions=(("live2/park8", 2, 8), ("live1/park2", 1, 2)),
    sessions=4,
    seed=0,
)


class TestDeterminism:
    def test_same_seed_byte_identical_csv(self):
        """Satellite 3's acceptance: two runs of the same sweep spec
        produce byte-identical CSV."""
        assert run_sweep(TINY).csv() == run_sweep(TINY).csv()

    def test_different_seed_different_rows(self):
        assert run_sweep(TINY).csv() != run_sweep(replace(TINY, seed=1)).csv()

    def test_csv_carries_no_wall_clock_columns(self):
        header = run_sweep(TINY).csv().splitlines()[0].split(",")
        assert "wall_s" not in header
        assert all("wall" not in c for c in header)

    def test_admission_arms_see_identical_streams(self):
        """The cell seed is a function of (seed, mix, rate) only, so
        every admission arm is judged on the same offered traffic."""
        assert _cell_seed(0, "interactive", 0.8) == _cell_seed(
            0, "interactive", 0.8
        )
        result = run_sweep(TINY)
        offered_by_arm = {}
        for row in result.rows:
            if row["class"] == "total":
                offered_by_arm.setdefault(
                    (row["rate_per_s"], row["admission"]), row["offered"]
                )
        rates = {rate for rate, _ in offered_by_arm}
        for rate in rates:
            counts = {v for (r, _), v in offered_by_arm.items() if r == rate}
            assert len(counts) == 1


class TestKnee:
    def test_knee_found_on_smoke_spec(self):
        knee = run_sweep(STOCK_SWEEPS["smoke"]).knee_summary()
        arms = knee["arms"]
        assert arms  # at least one deadline-carrying arm
        for info in arms.values():
            assert info["monotone_past_knee"]
            assert set(info["met_by_rate"]) == {
                f"{r:.6f}" for r in STOCK_SWEEPS["smoke"].rates
            }

    def test_knee_is_highest_rate_meeting_target(self):
        spec = replace(TINY, met_target=0.95)
        result = run_sweep(spec)
        for info in result.knee_summary()["arms"].values():
            if info["knee_rate"] is None:
                assert all(
                    m is None or m < 0.95 for m in info["met_by_rate"].values()
                )
            else:
                assert info["met_by_rate"][f"{info['knee_rate']:.6f}"] >= 0.95

    def test_unknown_mix_rejected(self):
        with pytest.raises(KeyError):
            run_sweep(replace(TINY, mixes=("nope",)))

    def test_render_lists_every_arm(self):
        result = run_sweep(TINY)
        knees = [r for r in result.records() if r["record"] == "knee"]
        assert [
            f"{k['mix']}|{k['admission']}|{k['class']}" for k in knees
        ] == list(result.knee_summary()["arms"])
        text = render(result.records())
        for k in knees:
            assert k["admission"] in text


class TestRows:
    def test_row_per_class_per_cell(self):
        result = run_sweep(TINY)
        # interactive mix: one class + total = 2 rows per cell, 4 cells
        assert len(result.rows) == 2 * len(result.reports)
        assert len(result.reports) == 4

    def test_summary_shape(self):
        result = run_sweep(TINY)
        records = result.records()
        assert records[: len(result.rows)] == result.rows
        assert {r["record"] for r in result.rows} == {"sweep_row"}
        assert all(r["spec"] == "tiny" for r in records)
        knees = records[len(result.rows):]
        assert [r["record"] for r in knees] == ["knee"] * len(
            result.knee_summary()["arms"]
        )
