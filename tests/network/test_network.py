"""Tests for the simulated network: clock, links, topology, transport."""

import pytest

from repro.faults import FaultInjector, FaultPlan, HealLink, PartitionLink
from repro.machines import standard_park
from repro.network import (
    CAMPUS_GATEWAYS,
    ETHERNET,
    INTERNET_1993,
    LOOPBACK,
    NetworkError,
    Topology,
    Transport,
    VirtualClock,
)
from repro.network.transport import Hop
from repro.schooner import SchoonerEnvironment


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance(self):
        c = VirtualClock()
        assert c.advance(1.5) == 1.5
        assert c.now == 1.5

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), -1e-300, float("-inf")])
    def test_a_refused_advance_leaves_time_untouched(self, bad):
        """A NaN passes ``dt < 0``; once a timeline or the global now is
        NaN every later comparison is false, so time never moves again
        and no deadline or event ever fires (ROADMAP 4(c): a diverged
        solver reaches this through ``cost_flops`` ->
        ``compute_seconds(nan)``)."""
        c = VirtualClock()
        t = c.timeline("t")
        t.advance(2.0)
        fired = []
        c.schedule(3.0, lambda: fired.append(c.now))
        with pytest.raises(ValueError, match="cannot advance time"):
            t.advance(bad)
        with pytest.raises(ValueError, match="cannot advance time"):
            c.advance(bad)
        assert (t.now, c.now, fired) == (2.0, 2.0, [])
        t.sync_to(5.0)  # still a working timeline
        assert (t.now, c.now, fired) == (5.0, 5.0, [5.0])

    def test_sync_to_refuses_nan(self):
        c = VirtualClock()
        t = c.timeline("t")
        t.advance(1.0)
        with pytest.raises(ValueError, match="cannot move time"):
            t.sync_to(float("nan"))
        assert (t.now, c.now) == (1.0, 1.0)

    def test_zero_steps_are_allowed(self):
        c = VirtualClock()
        t = c.timeline("t")
        t.advance(1.0)
        assert t.advance(-0.0) == 1.0 and t.advance(0.0) == 1.0
        assert c.advance(-0.0) == 1.0
        t.sync_to(float("-inf"))  # an instant already past: a no-op
        assert (t.now, c.now) == (1.0, 1.0)

    def test_timelines_advance_independently(self):
        c = VirtualClock()
        a, b = c.timeline("a"), c.timeline("b")
        a.advance(2.0)
        b.advance(5.0)
        assert a.now == 2.0
        assert b.now == 5.0

    def test_global_now_is_envelope(self):
        c = VirtualClock()
        c.timeline("a").advance(2.0)
        c.timeline("b").advance(5.0)
        assert c.now == 5.0

    def test_sync_to_only_moves_forward(self):
        c = VirtualClock()
        t = c.timeline("t")
        t.advance(3.0)
        t.sync_to(1.0)  # no-op: already past
        assert t.now == 3.0
        t.sync_to(4.0)
        assert t.now == 4.0

    def test_timeline_is_memoized(self):
        c = VirtualClock()
        assert c.timeline("x") is c.timeline("x")


class TestLinkModels:
    def test_latency_ordering(self):
        """The Table 1 tiers: Ethernet < campus < Internet for any
        message size."""
        for nbytes in (0, 100, 10_000):
            t_eth = ETHERNET.transfer_seconds(nbytes)
            t_campus = CAMPUS_GATEWAYS.transfer_seconds(nbytes)
            t_wan = INTERNET_1993.transfer_seconds(nbytes)
            assert t_eth < t_campus < t_wan

    def test_loopback_is_cheapest(self):
        assert LOOPBACK.transfer_seconds(100) < ETHERNET.transfer_seconds(100)

    def test_small_messages_latency_dominated(self):
        """Doubling a tiny payload barely changes WAN cost."""
        t1 = INTERNET_1993.transfer_seconds(64)
        t2 = INTERNET_1993.transfer_seconds(128)
        assert (t2 - t1) / t1 < 0.05

    def test_large_messages_bandwidth_dominated(self):
        t1 = ETHERNET.transfer_seconds(1_000_000)
        t2 = ETHERNET.transfer_seconds(2_000_000)
        assert t2 / t1 == pytest.approx(2.0, rel=0.01)

    def test_store_and_forward_multiplies_hops(self):
        one_hop = CAMPUS_GATEWAYS.latency_s + 1000 / CAMPUS_GATEWAYS.bandwidth_Bps
        expected = CAMPUS_GATEWAYS.per_message_s + CAMPUS_GATEWAYS.hops * one_hop
        assert CAMPUS_GATEWAYS.transfer_seconds(1000) == pytest.approx(expected)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ETHERNET.transfer_seconds(-1)


class TestTopology:
    @pytest.fixture
    def park(self):
        return standard_park()

    @pytest.fixture
    def topo(self):
        return Topology()

    def test_loopback_same_machine(self, topo, park):
        m = park["lerc-cray"]
        assert topo.classify(m, m) is LOOPBACK

    def test_table1_row1_ethernet(self, topo, park):
        """Sparc 10 -> SGI 4D/480, 'local Ethernet'."""
        link = topo.classify(park["lerc-sparc10"], park["lerc-sgi480"])
        assert link is ETHERNET

    def test_table1_row2_campus(self, topo, park):
        """Sparc 10 -> Convex C220, 'same building, multiple gateways'."""
        link = topo.classify(park["lerc-sparc10"], park["lerc-convex"])
        assert link is CAMPUS_GATEWAYS

    def test_table1_row3_campus(self, topo, park):
        """SGI 4D/480 -> Cray YMP, 'same building, multiple gateways'."""
        link = topo.classify(park["lerc-sgi480"], park["lerc-cray"])
        assert link is CAMPUS_GATEWAYS

    def test_table1_rows45_internet(self, topo, park):
        """Cross-site pairs go via Internet."""
        assert topo.classify(park["lerc-sgi480"], park["ua-sparc10"]) is INTERNET_1993
        assert topo.classify(park["ua-sparc10"], park["lerc-rs6000"]) is INTERNET_1993

    def test_classification_symmetric(self, topo, park):
        pairs = [
            ("lerc-sparc10", "lerc-sgi480"),
            ("lerc-sparc10", "lerc-convex"),
            ("ua-sparc10", "lerc-rs6000"),
        ]
        for a, b in pairs:
            assert topo.classify(park[a], park[b]) is topo.classify(park[b], park[a])

    def test_partition_blocks_cross_site(self):
        """A partition is the injector's: sends across it raise while the
        link of the pair stays what Table 1 says."""
        env = SchoonerEnvironment.standard()
        park, tx = env.park, env.transport
        plan = FaultPlan(seed=1, events=(
            PartitionLink(at_s=0.0, site_a="lerc", site_b="arizona"),
            HealLink(at_s=1.0, site_a="lerc", site_b="arizona"),
        ))
        with FaultInjector(env=env, plan=plan):
            with pytest.raises(NetworkError):
                tx.send(park["ua-sparc10"], park["lerc-cray"], "call", None, 100)
            assert env.topology.classify(park["ua-sparc10"], park["lerc-cray"]) is INTERNET_1993
            # intra-site traffic unaffected
            tx.send(park["lerc-sparc10"], park["lerc-cray"], "call", None, 100)
            env.clock.advance(1.0)
            tx.send(park["ua-sparc10"], park["lerc-cray"], "call", None, 100)

    def test_partition_made_after_warm_hops_blocks_both_orders(self):
        """Without a partition the check costs nothing per send; one made
        after every hop and route record is warm is still seen, whichever
        site sends, and healing it lets both directions through."""
        env = SchoonerEnvironment.standard()
        park, topo, tx = env.park, env.topology, env.transport
        ua, cray = park["ua-sparc10"], park["lerc-cray"]
        hops = [(ua, cray, Hop(topo, ua, cray, "call")), (cray, ua, Hop(topo, cray, ua, "call"))]
        for src, dst, hop in hops:
            for _ in range(3):
                tx.send(src, dst, "call", None, 100)
                tx.send(src, dst, "call", None, 100, hop=hop)
        now = env.clock.now
        plan = FaultPlan(seed=1, events=(
            PartitionLink(at_s=now, site_a="arizona", site_b="lerc"),
            HealLink(at_s=now + 1.0, site_a="lerc", site_b="arizona"),
        ))
        with FaultInjector(env=env, plan=plan):
            for src, dst, hop in hops:
                with pytest.raises(NetworkError, match="network partition"):
                    tx.send(src, dst, "call", None, 100)
                with pytest.raises(NetworkError, match="network partition"):
                    tx.send(src, dst, "call", None, 100, hop=hop)
            env.clock.advance(1.0)
            for src, dst, hop in hops:
                assert topo.classify(src, dst) is INTERNET_1993
                tx.send(src, dst, "call", None, 100)
                tx.send(src, dst, "call", None, 100, hop=hop)


class TestTransport:
    @pytest.fixture
    def env(self):
        park = standard_park()
        topo = Topology()
        clock = VirtualClock()
        return park, Transport(topology=topo, clock=clock), clock

    def test_send_advances_clock(self, env):
        park, tx, clock = env
        msg = tx.send(park["lerc-sparc10"], park["lerc-sgi480"], "call", None, 100)
        assert clock.now == msg.delivered_at > 0

    def test_wan_slower_than_lan(self, env):
        park, tx, clock = env
        lan = tx.send(park["lerc-sparc10"], park["lerc-sgi480"], "call", None, 100)
        wan = tx.send(park["ua-sparc10"], park["lerc-rs6000"], "call", None, 100)
        assert wan.transfer_seconds > 10 * lan.transfer_seconds

    def test_stats_accumulate(self, env):
        park, tx, _ = env
        tx.send(park["lerc-sparc10"], park["lerc-sgi480"], "call", None, 100)
        tx.send(park["lerc-sparc10"], park["lerc-sgi480"], "reply", None, 50)
        assert tx.stats.messages == 2
        assert tx.stats.bytes == 100 + 50  # payloads only
        assert tx.stats.header_bytes == 2 * 64
        assert tx.stats.total_bytes == 100 + 50 + 2 * 64
        assert tx.stats.by_kind == {"call": 1, "reply": 1}

    def test_timeline_charging(self, env):
        park, tx, clock = env
        t = clock.timeline("line-1")
        tx.send(park["lerc-sparc10"], park["lerc-cray"], "call", None, 100, timeline=t)
        assert t.now > 0
        assert clock.now == t.now

    def test_round_trip_cost(self, env):
        park, tx, _ = env
        total = tx.round_trip(
            park["lerc-sparc10"], park["lerc-cray"], "call", None, 100, None, 50
        )
        assert total > 0

    def test_message_is_a_value(self, env):
        from repro.network import Message
        from repro.network.transport import HEADER_STRUCT

        park, tx, clock = env
        src, dst = park["lerc-sparc10"], park["lerc-cray"]
        t = clock.timeline("line-1")
        t.advance(1.0)
        msg = tx.send(src, dst, "call:f", b"payload", 7, t, 32, 9.5)
        assert msg == Message(
            msg.msg_id, src.hostname, dst.hostname, "call:f", b"payload", 7, 32,
            1.0, t.now, msg.header, 9.5,
        )
        assert msg != tx.send(src, dst, "call:f", b"payload", 7, t, 32, 9.5)
        assert msg.total_nbytes == 7 + 32
        assert msg.transfer_seconds == msg.delivered_at - msg.sent_at
        assert msg.transfer_seconds == pytest.approx(
            tx.topology.classify(src, dst).transfer_seconds(39)
        )
        assert tx.stats.virtual_seconds == pytest.approx(2 * msg.transfer_seconds)
        # the route's header tags are those of the two hostnames
        from zlib import crc32

        _id, _kind, nbytes, src_tag, dst_tag, deadline = HEADER_STRUCT.unpack(msg.header)
        assert (nbytes, deadline) == (7, 9.5)
        assert src_tag == crc32(src.hostname.encode())
        assert dst_tag == crc32(dst.hostname.encode())
        # nothing can assign to a delivered message, or add to it
        with pytest.raises(AttributeError):
            msg.body = b""
        with pytest.raises(AttributeError):
            msg.note = "a message has no room for more"
        assert msg in {msg}

    def test_contention_queues_on_the_routes_trunk(self, env):
        """The trunk key lives in the route record: both directions of a
        site pair, and every machine pair at those sites, share it."""
        park, tx, clock = env
        tx.contention = True
        a, b, c = park["ua-sparc10"], park["lerc-cray"], park["lerc-rs6000"]
        first = tx.send(a, b, "bulk", None, 100_000, clock.timeline("one"))
        second = tx.send(c, a, "bulk", None, 100_000, clock.timeline("two"))
        assert second.transfer_seconds > first.transfer_seconds
        assert second.delivered_at == pytest.approx(
            100_064 / INTERNET_1993.bandwidth_Bps + first.transfer_seconds
        )

    def test_a_route_record_is_kept_under_what_it_is_computed_from(self, env):
        from repro.machines.host import Machine

        park, tx, _ = env
        topo = tx.topology
        a, b = park["ua-sparc10"], park["lerc-cray"]
        wan = topo.route_record(a, b)
        assert topo.route_record(a, b) is wan
        assert topo.route_record(b, a)[2] == wan[2] == frozenset((a.site, b.site))
        # the same hostname turning up on the Cray's own Ethernet
        moved = Machine(a.hostname, a.architecture, b.site, b.subnet)
        lan = topo.route_record(moved, b)
        assert lan[:2] == wan[:2]
        assert lan[2] == (b.site, frozenset((b.subnet,)))
        assert topo.route_record(a, b) is wan
