"""Unit tests for fault plans and the clock-driven injector."""

import pytest

from repro.faults import (
    CrashMachine,
    CrashProcess,
    DerateHost,
    FaultInjector,
    FaultPlan,
    GatewayOutage,
    GatewayRestore,
    HealLink,
    LatencySpike,
    PacketLoss,
    PartitionLink,
    RestoreMachine,
)
from repro.network import NetworkError
from repro.network.transport import MessageDropped
from repro.schooner import SchoonerEnvironment


@pytest.fixture
def env():
    return SchoonerEnvironment.standard()


def hosts(env):
    # two same-subnet lerc machines: cheap, contention-free link
    return env.park["sparc10.lerc.nasa.gov"], env.park["rs6000.lerc.nasa.gov"]


class TestFaultPlan:
    def test_scheduled_sorted_by_time_then_plan_order(self):
        plan = FaultPlan(
            seed=7,
            events=(
                CrashMachine(at_s=5.0, hostname="b"),
                DerateHost(at_s=1.0, hostname="a", load=0.5),
                RestoreMachine(at_s=5.0, hostname="b"),
            ),
        )
        assert [(at, i) for at, i, _ in plan.scheduled()] == [
            (1.0, 1), (5.0, 0), (5.0, 2)
        ]

    def test_describe_mentions_seed_and_events(self):
        plan = FaultPlan(seed=42, events=(PartitionLink(at_s=2.0, site_a="lerc", site_b="arizona"),))
        text = plan.describe()
        assert "seed=42" in text
        assert "partition" in text

    def test_plans_are_immutable(self):
        plan = FaultPlan(seed=0, events=())
        with pytest.raises(Exception):
            plan.seed = 1


class TestInjectorEvents:
    def test_event_fires_when_clock_reaches_instant(self, env):
        plan = FaultPlan(events=(CrashMachine(at_s=1.0, hostname="sparc10.lerc.nasa.gov"),))
        inj = FaultInjector(env, plan)
        with inj:
            assert env.park["sparc10.lerc.nasa.gov"].up
            env.clock.timeline("t").advance(2.0)
            assert not env.park["sparc10.lerc.nasa.gov"].up
        assert inj.log == [(1.0, "crash machine sparc10.lerc.nasa.gov")]

    def test_event_at_zero_fires_on_attach(self, env):
        plan = FaultPlan(events=(DerateHost(at_s=0.0, hostname="rs6000.lerc.nasa.gov", load=0.9),))
        with FaultInjector(env, plan):
            assert env.park["rs6000.lerc.nasa.gov"].load == 0.9

    def test_restore_machine_reboots(self, env):
        plan = FaultPlan(events=(
            CrashMachine(at_s=1.0, hostname="rs6000.lerc.nasa.gov"),
            RestoreMachine(at_s=2.0, hostname="rs6000.lerc.nasa.gov"),
        ))
        with FaultInjector(env, plan):
            env.clock.timeline("t").advance(1.5)
            assert not env.park["rs6000.lerc.nasa.gov"].up
            env.clock.timeline("t").advance(1.0)
            assert env.park["rs6000.lerc.nasa.gov"].up

    def test_partition_blocks_cross_site_traffic(self, env):
        plan = FaultPlan(events=(PartitionLink(at_s=0.0, site_a="lerc", site_b="arizona"),))
        src = env.park["sparc10.lerc.nasa.gov"]
        dst = env.park["sparc10.cs.arizona.edu"]
        with FaultInjector(env, plan):
            with pytest.raises(NetworkError):
                env.transport.send(src, dst, "call", None, 64)

    def test_gateway_outage_blocks_cross_subnet_only(self, env):
        plan = FaultPlan(events=(GatewayOutage(at_s=0.0, site="lerc"),))
        a, b = hosts(env)  # same subnet
        cray = env.park["cray-ymp.lerc.nasa.gov"]  # other lerc subnet
        with FaultInjector(env, plan):
            env.transport.send(a, b, "call", None, 64)  # still fine
            with pytest.raises(NetworkError):
                env.transport.send(a, cray, "call", None, 64)

    def test_detach_removes_hook_and_subscription(self, env):
        inj = FaultInjector(env, FaultPlan(events=()))
        inj.attach()
        inj.detach()
        assert env.transport.fault_filter is None

    def test_second_filter_rejected(self, env):
        first = FaultInjector(env, FaultPlan(events=()))
        first.attach()
        second = FaultInjector(env, FaultPlan(events=()))
        with pytest.raises(RuntimeError):
            second.attach()
        first.detach()


def host_states(env):
    return {m.hostname: (m.up, m.load, m.down_at) for m in env.park}


#: (src, dst) pairs a cut can sever: cross-site, and cross-subnet at LeRC
ROUTES = (("sparc10.cs.arizona.edu", "cray-ymp.lerc.nasa.gov"),
          ("sparc10.lerc.nasa.gov", "cray-ymp.lerc.nasa.gov"))


def routes_carry(env):
    """Whether a message goes through on every route of ``ROUTES``."""
    carried = []
    for src, dst in ROUTES:
        try:
            env.transport.send(env.park[src], env.park[dst], "probe", None, 64)
            carried.append(True)
        except NetworkError:
            carried.append(False)
    return carried


CRAY = "cray-ymp.lerc.nasa.gov"


class TestDetachRestores:
    """A plan's effects end when its injector detaches: every host it
    touched is back as it was, and every route it cut carries traffic."""

    EVENTS = {
        "crash-machine": (CrashMachine(at_s=0.0, hostname=CRAY),),
        "crash-process": (CrashProcess(at_s=0.0, hostname=CRAY),),
        "derate": (DerateHost(at_s=0.0, hostname=CRAY, load=0.7),),
        "crash-restore-derate": (
            CrashMachine(at_s=0.0, hostname=CRAY),
            RestoreMachine(at_s=0.0, hostname=CRAY),
            DerateHost(at_s=0.0, hostname=CRAY, load=0.4),
        ),
        "partition": (PartitionLink(at_s=0.0, site_a="lerc", site_b="arizona"),),
        "gateway-outage": (GatewayOutage(at_s=0.0, site="lerc"),),
        "loss": (PacketLoss(at_s=0.0, until_s=100.0, rate=1.0),),
        "latency": (LatencySpike(at_s=0.0, until_s=100.0, extra_s=0.5),),
    }

    @pytest.mark.parametrize("kind", sorted(EVENTS))
    def test_each_event_kind_ends_with_the_plan(self, env, kind):
        cray = env.park[CRAY]
        cray.install("/bin/sleeper", object())
        proc = cray.spawn("/bin/sleeper")
        before = host_states(env)
        assert routes_carry(env) == [True, True]
        inj = FaultInjector(env, FaultPlan(seed=3, events=self.EVENTS[kind]))
        with inj:
            assert inj.log, "the plan fired"
            assert (host_states(env) != before or not proc.alive
                    or routes_carry(env) != [True, True] or inj.perturbed), "and took effect"
        assert env.transport.fault_filter is None
        assert host_states(env) == before
        assert routes_carry(env) == [True, True]

    def test_a_restore_of_a_host_already_down_is_undone(self, env):
        cray = env.park[CRAY]
        cray.crash()
        with FaultInjector(env, FaultPlan(events=(RestoreMachine(at_s=0.0, hostname=CRAY),))):
            assert cray.up
        assert not cray.up

    def test_heal_and_restore_events_end_cuts_while_attached(self, env):
        plan = FaultPlan(events=(
            PartitionLink(at_s=0.0, site_a="lerc", site_b="arizona"),
            GatewayOutage(at_s=0.0, site="lerc"),
            HealLink(at_s=1.0, site_a="arizona", site_b="lerc"),
            GatewayRestore(at_s=1.0, site="lerc"),
        ))
        with FaultInjector(env, plan):
            assert routes_carry(env) == [False, False]
            env.clock.advance(1.0)
            assert routes_carry(env) == [True, True]

    def test_a_detached_plans_later_events_never_fire(self, env):
        inj = FaultInjector(env, FaultPlan(events=(CrashMachine(at_s=5.0, hostname=CRAY),)))
        with inj:
            env.clock.advance(1.0)
        env.clock.advance(10.0)
        assert env.park[CRAY].up and inj.log == []


class TestSendOrder:
    """A cut route raises first, then a down destination, then latency
    and loss."""

    def test_a_down_host_across_a_cut_is_a_routing_failure(self, env):
        src, dst = env.park["sparc10.cs.arizona.edu"], env.park[CRAY]
        plan = FaultPlan(events=(
            PartitionLink(at_s=0.0, site_a="lerc", site_b="arizona"),
            CrashMachine(at_s=0.0, hostname=CRAY),
        ))
        with FaultInjector(env, plan):
            with pytest.raises(NetworkError, match="network partition") as info:
                env.transport.send(src, dst, "call", None, 64)
        assert not isinstance(info.value, MessageDropped)
        assert env.transport.dropped == 0

    def test_a_message_to_a_down_host_draws_nothing_from_the_loss_prng(self):
        """Messages to a down host in the loss window leave the drops of
        every other message where they were."""

        def drops(with_down_host):
            e = SchoonerEnvironment.standard()
            src, dst = hosts(e)
            down = e.park[CRAY]
            events = (PacketLoss(at_s=0.0, until_s=100.0, rate=0.5),
                      CrashMachine(at_s=0.0, hostname=CRAY))
            pattern = []
            with FaultInjector(e, FaultPlan(seed=5, events=events)) as inj:
                for _ in range(24):
                    if with_down_host:
                        with pytest.raises(MessageDropped, match="is down"):
                            e.transport.send(src, down, "call", None, 64)
                    try:
                        e.transport.send(src, dst, "call", None, 64)
                        pattern.append(False)
                    except MessageDropped:
                        pattern.append(True)
            return pattern, inj.messages_dropped

        plain, plain_dropped = drops(False)
        assert True in plain and False in plain
        assert drops(True) == (plain, plain_dropped)


class TestLossAndLatency:
    def test_certain_loss_drops_messages_in_window(self, env):
        plan = FaultPlan(events=(PacketLoss(at_s=0.0, until_s=10.0, rate=1.0),))
        src, dst = hosts(env)
        inj = FaultInjector(env, plan)
        with inj:
            with pytest.raises(MessageDropped):
                env.transport.send(src, dst, "call", None, 64, timeline=env.clock.timeline("t"))
        assert inj.messages_dropped == 1
        assert env.transport.dropped == 1

    def test_loss_window_closes(self, env):
        plan = FaultPlan(events=(PacketLoss(at_s=0.0, until_s=1.0, rate=1.0),))
        src, dst = hosts(env)
        tl = env.clock.timeline("t")
        with FaultInjector(env, plan):
            tl.advance(2.0)  # past the window
            env.transport.send(src, dst, "call", None, 64, timeline=tl)

    def test_loss_respects_endpoints(self, env):
        src, dst = hosts(env)
        plan = FaultPlan(events=(
            PacketLoss(at_s=0.0, until_s=10.0, rate=1.0, src_host="nomatch.example"),
        ))
        with FaultInjector(env, plan):
            env.transport.send(src, dst, "call", None, 64)  # rule does not match

    def test_latency_spike_adds_exactly_extra(self, env):
        src, dst = hosts(env)
        tl = env.clock.timeline("t")
        t0 = tl.now
        env.transport.send(src, dst, "call", None, 64, timeline=tl)
        base = tl.now - t0

        env2 = SchoonerEnvironment.standard()
        src2, dst2 = hosts(env2)
        plan = FaultPlan(events=(LatencySpike(at_s=0.0, until_s=10.0, extra_s=0.25),))
        tl2 = env2.clock.timeline("t")
        with FaultInjector(env2, plan):
            t0 = tl2.now
            env2.transport.send(src2, dst2, "call", None, 64, timeline=tl2)
            assert tl2.now - t0 == pytest.approx(base + 0.25)

    def test_loss_draws_replay_identically(self, env):
        def drop_pattern(seed):
            e = SchoonerEnvironment.standard()
            src, dst = hosts(e)
            plan = FaultPlan(
                seed=seed,
                events=(PacketLoss(at_s=0.0, until_s=100.0, rate=0.5),),
            )
            pattern = []
            with FaultInjector(e, plan):
                for _ in range(32):
                    try:
                        e.transport.send(src, dst, "call", None, 64)
                        pattern.append(False)
                    except MessageDropped:
                        pattern.append(True)
            return pattern

        assert drop_pattern(3) == drop_pattern(3)
        assert any(drop_pattern(3)) and not all(drop_pattern(3))
