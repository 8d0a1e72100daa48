"""Property-based tests for virtual time and link models."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.network import (
    CAMPUS_GATEWAYS,
    ETHERNET,
    INTERNET_1993,
    LinkModel,
    VirtualClock,
)

LINKS = [ETHERNET, CAMPUS_GATEWAYS, INTERNET_1993]

deltas = st.lists(st.floats(min_value=0.0, max_value=1e3), max_size=20)


class TestClockProperties:
    @given(deltas)
    def test_advance_sums(self, dts):
        c = VirtualClock()
        total = 0.0
        for dt in dts:
            total += dt
            assert c.advance(dt) == pytest.approx(total)

    @given(deltas, deltas)
    def test_global_now_is_envelope_of_timelines(self, da, db):
        c = VirtualClock()
        a, b = c.timeline("a"), c.timeline("b")
        for dt in da:
            a.advance(dt)
        for dt in db:
            b.advance(dt)
        assert c.now == pytest.approx(max(a.now, b.now, 0.0))

    @given(st.floats(min_value=0.0, max_value=1e6))
    def test_sync_to_is_monotone(self, t):
        c = VirtualClock()
        tl = c.timeline("t")
        tl.sync_to(t)
        before = tl.now
        tl.sync_to(t / 2)  # syncing backwards is a no-op
        assert tl.now == before


class TestLinkProperties:
    @given(
        nbytes=st.integers(min_value=0, max_value=10_000_000),
        extra=st.integers(min_value=0, max_value=10_000),
    )
    def test_transfer_monotone_in_size(self, nbytes, extra):
        for link in LINKS:
            assert link.transfer_seconds(nbytes + extra) >= link.transfer_seconds(nbytes)

    @given(nbytes=st.integers(min_value=0, max_value=1_000_000))
    def test_tier_ordering_holds_for_all_sizes(self, nbytes):
        assert (
            ETHERNET.transfer_seconds(nbytes)
            < CAMPUS_GATEWAYS.transfer_seconds(nbytes)
            < INTERNET_1993.transfer_seconds(nbytes)
        )

    @given(
        latency=st.floats(min_value=1e-6, max_value=1.0),
        bandwidth=st.floats(min_value=1e3, max_value=1e9),
        hops=st.integers(min_value=1, max_value=10),
        nbytes=st.integers(min_value=0, max_value=100_000),
    )
    def test_hops_multiply_cost(self, latency, bandwidth, hops, nbytes):
        one = LinkModel(name="x", latency_s=latency, bandwidth_Bps=bandwidth, hops=1)
        many = LinkModel(name="y", latency_s=latency, bandwidth_Bps=bandwidth, hops=hops)
        assert many.transfer_seconds(nbytes) == pytest.approx(
            hops * one.transfer_seconds(nbytes)
        )
