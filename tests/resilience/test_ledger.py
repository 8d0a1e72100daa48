"""PercentileLedger (PR 7, satellite 3): exact quantiles, cross-checked
against the stdlib, plus merge/empty/streaming behaviour."""

from __future__ import annotations

import math
import random
import statistics

import pytest

from repro.resilience import ClassLedger, PercentileLedger


class TestQuantileExactness:
    def test_matches_statistics_quantiles_inclusive(self):
        """The ledger's quantile must agree with
        statistics.quantiles(method='inclusive') at every percentile —
        the same linear-interpolation definition, independently
        implemented."""
        rng = random.Random(20260808)
        samples = [rng.lognormvariate(1.0, 1.2) for _ in range(473)]
        led = PercentileLedger()
        led.extend(samples)
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        for k in range(1, 100):
            assert led.quantile(k / 100) == pytest.approx(cuts[k - 1], abs=1e-12)

    def test_edge_quantiles_are_min_and_max(self):
        led = PercentileLedger()
        led.extend([5.0, 1.0, 3.0])
        assert led.quantile(0.0) == 1.0
        assert led.quantile(1.0) == 5.0
        assert led.min == 1.0
        assert led.max == 5.0

    def test_single_sample_every_quantile(self):
        led = PercentileLedger()
        led.add(7.25)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert led.quantile(q) == 7.25

    def test_interpolates_between_order_statistics(self):
        led = PercentileLedger()
        led.extend([0.0, 10.0])
        assert led.quantile(0.25) == 2.5
        assert led.quantile(0.5) == 5.0


class TestEmptyAndErrors:
    def test_empty_ledger_quantile_is_nan(self):
        import math

        led = PercentileLedger()
        assert math.isnan(led.quantile(0.5))
        assert led.count == 0

    def test_out_of_range_quantile_raises(self):
        led = PercentileLedger()
        led.add(1.0)
        with pytest.raises(ValueError):
            led.quantile(1.5)
        with pytest.raises(ValueError):
            led.quantile(-0.1)


class TestMergeAndStreaming:
    def test_merge_equals_union(self):
        rng = random.Random(7)
        xs = [rng.random() for _ in range(40)]
        ys = [rng.random() for _ in range(17)]
        a, b, u = PercentileLedger(), PercentileLedger(), PercentileLedger()
        a.extend(xs)
        b.extend(ys)
        u.extend(xs + ys)
        a.merge(b)
        assert a.count == u.count
        for q in (0.5, 0.95, 0.99):
            assert a.quantile(q) == u.quantile(q)

    def test_streaming_adds_after_query(self):
        """Querying must not freeze the ledger — later adds count."""
        led = PercentileLedger()
        led.extend([1.0, 2.0, 3.0])
        assert led.quantile(0.5) == 2.0
        led.add(100.0)
        assert led.count == 4
        assert led.quantile(1.0) == 100.0
        assert led.mean == pytest.approx(26.5)

    def test_insertion_order_is_irrelevant(self):
        rng = random.Random(11)
        xs = [rng.gauss(0, 1) for _ in range(101)]
        a, b = PercentileLedger(), PercentileLedger()
        a.extend(xs)
        b.extend(sorted(xs, reverse=True))
        for q in (0.25, 0.5, 0.95, 0.99):
            assert a.quantile(q) == b.quantile(q)

    def test_percentiles_summary_shape(self):
        led = PercentileLedger()
        led.extend(float(i) for i in range(100))
        pcts = led.percentiles()
        assert set(pcts) == {"p50", "p95", "p99"}
        assert pcts["p50"] == 49.5
        assert led.mean == pytest.approx(49.5)


class TestMergedClassmethod:
    """PR 8 satellite 3: the fold per-shard ledgers roll up through."""

    def test_merged_equals_concatenation_regardless_of_sharding(self):
        rng = random.Random(42)
        xs = [rng.expovariate(0.5) for _ in range(120)]
        whole = PercentileLedger(xs)
        for cut1, cut2 in ((0, 0), (1, 60), (40, 80), (120, 120)):
            shards = [
                PercentileLedger(xs[:cut1]),
                PercentileLedger(xs[cut1:cut2]),
                PercentileLedger(xs[cut2:]),
            ]
            folded = PercentileLedger.merged(shards)
            assert folded.count == whole.count
            assert folded.total == pytest.approx(whole.total)
            for q in (0.0, 0.25, 0.5, 0.95, 0.99, 1.0):
                assert folded.quantile(q) == whole.quantile(q)

    def test_merged_is_order_independent(self):
        a = PercentileLedger([3.0, 1.0])
        b = PercentileLedger([2.0])
        fwd = PercentileLedger.merged([a, b])
        rev = PercentileLedger.merged([b, a])
        assert fwd.percentiles() == rev.percentiles()
        assert (fwd.count, fwd.mean, fwd.min, fwd.max) == (
            rev.count, rev.mean, rev.min, rev.max
        )

    def test_merged_of_nothing_is_empty(self):
        led = PercentileLedger.merged([])
        assert led.count == 0
        assert math.isnan(led.quantile(0.99))

    def test_merged_leaves_inputs_untouched(self):
        a = PercentileLedger([1.0, 2.0])
        b = PercentileLedger([3.0])
        PercentileLedger.merged([a, b]).add(99.0)
        assert a.count == 2 and b.count == 1
        assert a.max == 2.0 and b.max == 3.0


class TestClassRecord:
    def test_empty_class_percentiles_are_none_not_nan(self):
        rec = ClassLedger(name="idle").record()
        assert rec["record"] == "class" and rec["class"] == "idle"
        assert rec["offered"] == rec["tasks"] == 0
        assert rec["deadline_met_rate"] is None
        pcts = {k: v for k, v in rec.items() if k.endswith("_virtual_s")}
        assert sorted(pcts) == sorted(
            f"{label}_p{p}_virtual_s" for label in ("wait", "e2e") for p in (50, 95, 99)
        )
        assert set(pcts.values()) == {None}

    def test_record_quantiles_are_the_ledgers(self):
        led = ClassLedger(name="c")
        led.queue_wait.extend([0.0, 1.0, 4.0])
        led.end_to_end.extend([2.0, 3.0, 9.0])
        rec = led.record()
        assert rec["wait_p50_virtual_s"] == led.queue_wait.quantile(0.5) == 1.0
        assert rec["e2e_p95_virtual_s"] == led.end_to_end.quantile(0.95)
