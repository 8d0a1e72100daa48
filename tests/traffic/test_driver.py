"""Traffic driver (PR 7 tentpole, parts c-d): open-loop invariants,
retry feedback, task-level accounting, and the determinism digest."""

from __future__ import annotations

import pytest

from repro.serve import AdmissionPolicy, SharedInstallation
from repro.traffic import (
    STOCK_MIXES,
    PoissonArrivals,
    TrafficClass,
    TrafficMix,
    build_stream,
    run_traffic,
)
from repro.traffic.driver import task_name


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


class TestStream:
    def test_stream_is_pure_function_of_seed(self):
        mix = STOCK_MIXES["interactive-batch"]
        p = PoissonArrivals(rate_per_s=0.2, seed=0)
        a = build_stream(mix, p, 12, seed=5)
        b = build_stream(mix, p, 12, seed=5)
        assert a.arrivals == b.arrivals
        c = build_stream(mix, p, 12, seed=6)
        assert a.arrivals != c.arrivals

    def test_specs_carry_class_labels_and_unique_names(self):
        mix = STOCK_MIXES["interactive-batch"]
        stream = build_stream(mix, PoissonArrivals(0.2, seed=1), 20, seed=0)
        names = [a.spec.name for a in stream.arrivals]
        assert len(set(names)) == 20
        assert {a.spec.traffic_class for a in stream.arrivals} <= {
            "interactive",
            "batch",
        }


class TestDeterminism:
    def test_rerun_and_thread_mode_share_digest(self):
        """The acceptance invariant: a fixed-seed stream run twice
        produces identical digests and identical per-class percentile
        rows."""
        stream = build_stream(
            STOCK_MIXES["interactive-batch"],
            PoissonArrivals(rate_per_s=0.3, seed=2),
            10,
            seed=3,
        )
        kw = dict(admission=AdmissionPolicy(max_live=2, max_parked=4), dedup=False)
        runs = [
            run_traffic(stream, installation=SharedInstallation.standard(), **kw),
            run_traffic(stream, installation=SharedInstallation.standard(), **kw),
        ]
        assert runs[0].digest == runs[1].digest
        base = runs[0].ledgers
        for other in runs[1:]:
            assert set(other.ledgers) == set(base)
            for name in base:
                assert other.ledgers[name].record() == base[name].record()
                assert _moments(other.ledgers[name]) == _moments(base[name])


class TestRetryFeedback:
    def _overloaded(self, retry_on_shed, sessions=6):
        mix = _mix(retry_on_shed=retry_on_shed, retry_backoff_s=100.0)
        stream = build_stream(
            mix, PoissonArrivals(rate_per_s=5.0, seed=1), sessions, seed=1
        )
        return run_traffic(
            stream,
            admission=AdmissionPolicy(max_live=1, max_parked=0),
            dedup=False,
        )

    def test_shed_sessions_retry_and_eventually_serve(self):
        report = self._overloaded(retry_on_shed=2)
        led = report.ledgers["t"]
        assert led.shed > 0
        assert led.retries > 0
        # the 100 s backoff lands retries on an idle installation
        retry_results = [
            r for r in report.report.results if "#" in r.name
        ]
        assert retry_results
        assert any(r.status != "shed" for r in retry_results)
        # attempts exceed tasks exactly by the retry count
        assert led.offered == led.tasks + led.retries

    def test_no_retry_budget_means_tasks_lost(self):
        report = self._overloaded(retry_on_shed=0)
        led = report.ledgers["t"]
        assert led.retries == 0
        assert led.tasks_lost > 0
        assert led.offered == led.tasks

    def test_retry_budget_is_bounded(self):
        """With backoff 0 every retry re-arrives into the same full
        queue, so the budget must cap the storm."""
        mix = _mix(retry_on_shed=2, retry_backoff_s=0.0)
        stream = build_stream(
            mix, PoissonArrivals(rate_per_s=50.0, seed=4), 4, seed=4
        )
        report = run_traffic(
            stream,
            admission=AdmissionPolicy(max_live=1, max_parked=0),
            dedup=False,
        )
        led = report.ledgers["t"]
        assert led.tasks == 4
        for base in {task_name(r.name) for r in report.report.results}:
            attempts = [
                r for r in report.report.results if task_name(r.name) == base
            ]
            assert len(attempts) <= 3  # original + 2 retries


class TestTaskAccounting:
    def test_task_met_rate_judges_final_attempt(self):
        report = run_traffic(
            build_stream(_mix(), PoissonArrivals(0.05, seed=7), 5, seed=7),
            dedup=False,
        )
        led = report.ledgers["t"]
        # uncontended: everything met, rate exactly 1.0
        assert led.tasks == 5
        assert led.tasks_with_deadline == 5
        assert led.deadline_met_rate == 1.0
        assert led.tasks_met + led.tasks_missed == led.tasks_with_deadline

    def test_deadline_free_class_has_no_met_rate(self):
        mix = TrafficMix(
            name="m", classes=(TrafficClass(name="free", point_counts=(1,)),)
        )
        report = run_traffic(
            build_stream(mix, PoissonArrivals(0.05, seed=7), 3, seed=7),
            dedup=False,
        )
        assert report.ledgers["free"].deadline_met_rate is None

    def test_total_rolls_up_all_classes(self):
        report = run_traffic(
            build_stream(
                STOCK_MIXES["interactive-batch"],
                PoissonArrivals(0.2, seed=2),
                8,
                seed=2,
            ),
            dedup=False,
        )
        per_class = [
            led for name, led in report.ledgers.items() if name != "total"
        ]
        total = report.total
        assert total.offered == sum(l.offered for l in per_class)
        assert total.tasks == sum(l.tasks for l in per_class)
        assert total.queue_wait.count == sum(
            l.queue_wait.count for l in per_class
        )
