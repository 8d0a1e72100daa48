"""Warmup-trimming stationarity windows (PR 8, satellite 4).

The open-loop driver starts every cell on an empty installation, so the
first arrivals are judged against transient queue state.  ``trimmed``
re-settles the ledgers over arrivals at or after ``warmup_s`` only —
whole tasks, retries included — and ``SweepSpec.warmup_s`` applies the
window per cell with knee summaries recomputed from the trimmed rows.
"""

from __future__ import annotations

import pytest

from repro.serve import AdmissionPolicy
from repro.traffic import (
    SweepSpec,
    TraceArrivals,
    TrafficClass,
    TrafficMix,
    build_stream,
    run_sweep,
    run_traffic,
)
from repro.traffic.driver import settle_ledgers


def _moments(led):
    """Each latency ledger's sample count, mean, min and max — what a
    ``class`` record's percentiles leave out."""
    return [
        (p.count, p.mean, p.min, p.max) for p in (led.queue_wait, led.end_to_end)
    ]


def _mix(**overrides):
    cls = TrafficClass(
        name="t",
        point_counts=(1,),
        deadline_range=(16.0, 28.0),
        **overrides,
    )
    return TrafficMix(name="m", classes=(cls,))


#: a ramped trace: a dense opening burst (arrivals every 2 s) that piles
#: queue wait onto a 1-live-slot installation, then a sparse steady tail
#: (every 40 s) that the queue fully drains between
RAMP = TraceArrivals(
    instants=(0.0, 2.0, 4.0, 6.0, 8.0, 120.0, 160.0, 200.0, 240.0, 280.0)
)


def _ramped_report(**kw):
    stream = build_stream(_mix(), RAMP, 10, seed=3)
    return run_traffic(
        stream,
        admission=AdmissionPolicy(max_live=1, max_parked=8),
        dedup=False,
        **kw,
    )


class TestTrimmedDiverges:
    def test_trimmed_and_untrimmed_percentiles_diverge_on_ramp(self):
        """The satellite's acceptance: on a ramped arrival trace the
        burst's queue waits dominate the untrimmed percentiles; trimming
        the warm-up window away moves p95 down, visibly."""
        full = _ramped_report()
        trimmed = full.trimmed(warmup_s=10.0)
        w_full = full.ledgers["t"].queue_wait
        w_trim = trimmed.ledgers["t"].queue_wait
        assert w_trim.count < w_full.count
        assert w_full.quantile(0.95) > 0.0
        assert w_trim.quantile(0.95) < w_full.quantile(0.95)
        # the steady tail arrives onto a drained queue: near-zero waits
        assert w_trim.max < w_full.max

    def test_trim_keeps_run_and_digest_untouched(self):
        full = _ramped_report()
        trimmed = full.trimmed(warmup_s=10.0)
        assert trimmed.digest == full.digest
        assert trimmed.report is full.report
        assert trimmed.stream is full.stream
        assert trimmed.warmup_s == 10.0
        assert full.warmup_s == 0.0
        assert trimmed.records()[0]["warmup_virtual_s"] == 10.0

    def test_zero_warmup_is_identity(self):
        full = _ramped_report()
        again = settle_ledgers(full.stream, full.report.results, warmup_s=0.0)
        assert set(again) == set(full.ledgers)
        for name in full.ledgers:
            assert again[name].record() == full.ledgers[name].record()
            assert _moments(again[name]) == _moments(full.ledgers[name])

    def test_trim_drops_whole_tasks_not_individual_attempts(self):
        """A task whose original arrival sits in the warm-up window is
        gone entirely — its ``#rN`` retries must not leak in even though
        they re-arrive after the window."""
        mix = _mix(retry_on_shed=2, retry_backoff_s=100.0)
        stream = build_stream(
            mix, TraceArrivals(instants=(0.0, 0.5, 1.0, 1.5)), 4, seed=1
        )
        full = run_traffic(
            stream,
            admission=AdmissionPolicy(max_live=1, max_parked=0),
            dedup=False,
        )
        led = full.ledgers["t"]
        assert led.retries > 0  # the overload actually triggered retries
        trimmed = full.trimmed(warmup_s=1000.0)  # window swallows every arrival
        assert trimmed.ledgers["total"].offered == 0
        assert trimmed.ledgers["total"].retries == 0
        assert trimmed.ledgers["total"].tasks == 0

    def test_window_boundary_is_inclusive_at_warmup_s(self):
        """An arrival exactly at ``warmup_s`` survives the trim (the
        window is the half-open [0, warmup_s))."""
        full = _ramped_report()
        trimmed = full.trimmed(warmup_s=8.0)
        kept = trimmed.ledgers["total"].tasks
        assert kept == 6  # t=8 survives; 0,2,4,6 are trimmed


class TestSweepWarmup:
    def _spec(self, warmup_s):
        return SweepSpec(
            name="warmup-probe",
            rates=(0.5,),
            mixes=("interactive",),
            admissions=(("live1/park8", 1, 8),),
            sessions=6,
            seed=0,
            warmup_s=warmup_s,
        )

    def test_sweep_applies_the_window_per_cell(self):
        full = run_sweep(self._spec(0.0))
        trimmed = run_sweep(self._spec(6.0))
        totals_full = [r for r in full.rows if r["class"] == "total"]
        totals_trim = [r for r in trimmed.rows if r["class"] == "total"]
        assert totals_trim[0]["tasks"] < totals_full[0]["tasks"]
        # same run underneath: the determinism digest is unchanged
        assert totals_trim[0]["digest"] == totals_full[0]["digest"]
        assert trimmed.reports[0].warmup_s == 6.0

    def test_default_warmup_leaves_stock_sweeps_byte_identical(self):
        """warmup_s defaults to 0.0 and every stock sweep keeps it — the
        CI-gated CSV bytes must not move."""
        from repro.traffic.sweep import STOCK_SWEEPS

        assert all(s.warmup_s == 0.0 for s in STOCK_SWEEPS.values())
        assert run_sweep(self._spec(0.0)).csv() == run_sweep(self._spec(0.0)).csv()

    def test_knee_recomputed_from_trimmed_rows(self):
        trimmed = run_sweep(self._spec(6.0))
        knee = trimmed.knee_summary()
        # the knee summary reads the (trimmed) rows; shape holds
        assert knee["spec"] == "warmup-probe"
        for info in knee["arms"].values():
            assert set(info) >= {"knee_rate", "met_by_rate", "monotone_past_knee"}
