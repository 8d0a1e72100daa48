"""The fault injector: applies a :class:`~repro.faults.plan.FaultPlan`
to a running :class:`~repro.schooner.runtime.SchoonerEnvironment`.

The injector is clock-driven: each plan event goes onto the
:class:`~repro.network.clock.VirtualClock`'s heap-scheduled event queue
and fires the first time global virtual time reaches the event's
instant.  Packet-loss and latency-spike windows are enforced by a
:attr:`~repro.network.transport.Transport.fault_filter` hook consulted on
every message send.

Determinism: events are scheduled in the plan's ``(at_s, plan index)``
order and the clock's monotonic tiebreak counter fires same-instant
events in scheduling order — identical firing order to the sorted-list
queue this replaced (property-tested in tests/network/).  The loss PRNG
is seeded from the plan and consumed once per message matched by an
active loss window, in send order.  Nothing reads the wall clock.

A plan's effects end when its injector detaches: the routes it cuts are
its filter's, and each host it touches is saved first and put back.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, FrozenSet, List, Set, Tuple

from ..machines.host import Machine
from ..network.topology import NetworkError
from ..schooner.runtime import SchoonerEnvironment
from .plan import (
    CrashMachine,
    CrashProcess,
    DerateHost,
    FaultEvent,
    FaultPlan,
    GatewayOutage,
    GatewayRestore,
    HealLink,
    LatencySpike,
    PacketLoss,
    PartitionLink,
    RestoreMachine,
)

__all__ = ["FaultInjector"]


def _endpoint_match(rule_host, machine: Machine) -> bool:
    return rule_host is None or rule_host == machine.hostname


@dataclass
class FaultInjector:
    """Applies a plan's events to the environment as virtual time passes."""

    env: SchoonerEnvironment
    plan: FaultPlan
    # (virtual time applied, description) — the injection log tests
    # compare across replays
    log: List[Tuple[float, str]] = field(default_factory=list)
    messages_dropped: int = 0
    #: count of material interferences with the simulation: messages
    #: dropped or delayed, and machine-state mutations (crash/derate)
    #: applied.  Zero means the plan ran but never actually touched
    #: anything — the serving layer uses this to decide whether a
    #: finished session may claim to equal its fault-free solo run.
    perturbed: int = 0
    _handles: List[object] = field(default_factory=list)
    _loss: List[PacketLoss] = field(default_factory=list)
    _latency: List[LatencySpike] = field(default_factory=list)
    # cut site pairs; sites whose campus gateways (not Ethernets) are down
    _cuts: Set[FrozenSet[str]] = field(default_factory=set)
    _dead_gateways: Set[str] = field(default_factory=set)
    # each touched host's (up, load, down_at) before this plan touched it
    _saved: Dict[str, Tuple[Machine, tuple]] = field(default_factory=dict)
    _rng: random.Random = field(default=None)  # type: ignore[assignment]
    _attached: bool = False

    def __post_init__(self):
        self._rng = random.Random(self.plan.seed)

    # -- lifecycle -----------------------------------------------------------
    def attach(self) -> None:
        """Start injecting: install the transport hook and put every
        plan event on the clock's heap-scheduled event queue.  Events at
        or before the current instant fire immediately.

        The plan's ``(at_s, plan index)`` order is preserved: events are
        scheduled in that order, and the clock's monotonic tiebreak
        counter fires same-instant events in scheduling order."""
        if self._attached:
            return
        if self.env.transport.fault_filter is not None:
            raise RuntimeError("another fault filter is already installed")
        self.env.transport.fault_filter = self._filter
        clock = self.env.clock
        for at_s, _, ev in self.plan.scheduled():
            self._handles.append(clock.schedule(at_s, partial(self._apply, ev)))
        self._attached = True
        clock.fire_due()

    def detach(self) -> None:
        """Stop injecting, for good: events not yet due never fire, the
        routes the plan cut carry traffic again, and every host it
        touched is put back as it found it."""
        if not self._attached:
            return
        # == not `is`: each `self._filter` access builds a new bound method
        if self.env.transport.fault_filter == self._filter:
            self.env.transport.fault_filter = None
        for handle in self._handles:
            self.env.clock.cancel(handle)
        self._handles.clear()
        for machine, (up, load, down_at) in self._saved.values():
            machine.up, machine.load, machine.down_at = up, load, down_at
        self._saved.clear()
        self._attached = False

    def __enter__(self) -> "FaultInjector":
        self.attach()
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    # -- event application ----------------------------------------------------
    def _host(self, hostname: str) -> Machine:
        """The park's ``hostname``, its state saved on first touch."""
        machine = self.env.park[hostname]
        self._saved.setdefault(hostname, (machine, (machine.up, machine.load, machine.down_at)))
        return machine

    def _apply(self, ev: FaultEvent) -> None:
        if isinstance(ev, PartitionLink):
            self._cuts.add(frozenset((ev.site_a, ev.site_b)))
        elif isinstance(ev, HealLink):
            self._cuts.discard(frozenset((ev.site_a, ev.site_b)))
        elif isinstance(ev, GatewayOutage):
            self._dead_gateways.add(ev.site)
        elif isinstance(ev, GatewayRestore):
            self._dead_gateways.discard(ev.site)
        elif isinstance(ev, PacketLoss):
            self._loss.append(ev)
        elif isinstance(ev, LatencySpike):
            self._latency.append(ev)
        elif isinstance(ev, CrashProcess):
            machine = self._host(ev.hostname)
            for proc in machine.running_processes:
                if ev.path is None or proc.executable_path == ev.path:
                    machine.crash_process(proc.pid)
                    self.perturbed += 1
        elif isinstance(ev, CrashMachine):
            machine = self._host(ev.hostname)
            machine.crash()
            machine.down_at = ev.at_s
            self.perturbed += 1
        elif isinstance(ev, RestoreMachine):
            self._host(ev.hostname).boot()
        elif isinstance(ev, DerateHost):
            self._host(ev.hostname).load = ev.load
            self.perturbed += 1
        else:  # pragma: no cover - future event kinds
            raise TypeError(f"unknown fault event {type(ev).__name__}")
        self.log.append((ev.at_s, ev.describe()))

    # -- the transport hook ----------------------------------------------------
    def _filter(
        self, src: Machine, dst: Machine, kind: str, nbytes: int, now: float
    ) -> Tuple[bool, float]:
        if src.site != dst.site:
            if self._cuts and frozenset((src.site, dst.site)) in self._cuts:
                raise NetworkError(
                    f"network partition between {src.site} and {dst.site}"
                )
        elif src.subnet != dst.subnet and src.site in self._dead_gateways:
            raise NetworkError(
                f"gateway outage at {src.site}: "
                f"{src.subnet} cannot reach {dst.subnet}"
            )
        if not dst.up:
            # the transport loses it; no window draws for it
            return False, 0.0
        extra = 0.0
        for rule in self._latency:
            if (
                rule.at_s <= now < rule.until_s
                and _endpoint_match(rule.src_host, src)
                and _endpoint_match(rule.dst_host, dst)
            ):
                extra += rule.extra_s
        for rule in self._loss:
            if (
                rule.at_s <= now < rule.until_s
                and _endpoint_match(rule.src_host, src)
                and _endpoint_match(rule.dst_host, dst)
            ):
                # one PRNG draw per matched message, in send order
                if self._rng.random() < rule.rate:
                    self.messages_dropped += 1
                    self.perturbed += 1
                    return True, 0.0
        if extra > 0.0:
            self.perturbed += 1
        return False, extra
