"""Arrival processes (PR 7 tentpole, part a): seeded, pure, and
rate-faithful."""

from __future__ import annotations

import pytest

from repro.traffic import ParetoArrivals, PoissonArrivals, make_process

ANALYTIC = [PoissonArrivals, ParetoArrivals]


class TestSeededDeterminism:
    @pytest.mark.parametrize("cls", ANALYTIC)
    def test_same_seed_same_times(self, cls):
        assert cls(rate_per_s=0.5, seed=3).times(50) == cls(
            rate_per_s=0.5, seed=3
        ).times(50)

    @pytest.mark.parametrize("cls", ANALYTIC)
    def test_different_seed_different_times(self, cls):
        assert cls(rate_per_s=0.5, seed=3).times(50) != cls(
            rate_per_s=0.5, seed=4
        ).times(50)

    @pytest.mark.parametrize("cls", ANALYTIC)
    def test_times_are_nonnegative_and_sorted(self, cls):
        ts = cls(rate_per_s=2.0, seed=0).times(200)
        assert all(t >= 0 for t in ts)
        assert ts == sorted(ts)


class TestRateFidelity:
    @pytest.mark.parametrize("cls", ANALYTIC)
    def test_empirical_rate_near_nominal(self, cls):
        """Over many arrivals the mean interarrival must track 1/rate.
        Pareto's alpha=1.6 tail converges slowly — wide tolerance."""
        rate = 0.25
        n = 4000
        ts = cls(rate_per_s=rate, seed=12).times(n)
        empirical = n / ts[-1]
        assert empirical == pytest.approx(rate, rel=0.35)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate_per_s=0.0).times(1)

    def test_pareto_alpha_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            ParetoArrivals(rate_per_s=1.0, alpha=1.0).times(1)


class TestFactory:
    @pytest.mark.parametrize("kind", ["poisson", "pareto"])
    def test_makes_each_kind(self, kind):
        p = make_process(kind, 0.5, seed=2)
        assert p.kind == kind
        assert p.rate_per_s == 0.5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_process("uniform", 1.0)
