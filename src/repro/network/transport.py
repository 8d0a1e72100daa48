"""Message transport over the simulated network.

"The communication library is linked with every procedure to handle the
sending and receiving of messages implicit in RPC." (paper, section 3.1)

The transport is synchronous-simulation style: sending computes the
message's virtual delivery time from the topology, advances the sender's
timeline past the send, and synchronizes the receiver's timeline to the
delivery instant.  Counters record traffic for the benchmark reports.

One thread runs the simulation, so nothing here is synchronised.  What
is a pure function of a (source, destination) machine pair comes from
the topology's route record — or, for a call plan's messages, from the
plan's :class:`Hop`, which also keeps the message kind's header tag and
the transfer time of the last link at the last size; what a fault can
change — the link class, the destination's liveness, the fault filter,
trunk occupancy — is read on every send.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple
from zlib import crc32

from ..machines.host import Machine
from .clock import Timeline, VirtualClock
from .topology import NetworkError, Topology

__all__ = ["Message", "Transport", "TrafficStats", "MessageDropped", "FaultFilter", "Hop"]

# The Schooner message header, packed exactly once per message: call id,
# kind tag, payload size, source/destination host tags, and the caller's
# virtual-time deadline (+inf when none) — the deadline-propagation
# field servers use to refuse already-late work.  The struct is
# precompiled at module load; per-message work is one pack() call.
# (The modelled header charge stays ``header_bytes`` — 1993 Schooner
# headers carried procedure names and type tags this compact header
# elides.)
HEADER_STRUCT = struct.Struct(">IIQIId")

#: wire encoding of "no deadline" in the header's deadline field
NO_DEADLINE = float("inf")


# The header's kind tag is the crc32 of a short string drawn from a small
# fixed vocabulary (procedure names): computed once per string, not once
# per message.  The host tags come from ``Topology.route_record``.
@lru_cache(maxsize=4096)
def _kind_tag(kind: str) -> int:
    return crc32(kind.encode("ascii", "replace"))


class Hop:
    """One direction of a call plan's messages, as :meth:`Transport.send`
    can keep it between sends: the (``src``, ``dst``) route record, the
    header tag of ``kind``, and the transfer time of the last link
    ``classify`` returned at the last message size — recomputed when
    either is another one (another topology's link model, a message of
    another size).  Nothing a fault can change is kept: the link itself
    (a partition or a gateway outage still raises from ``classify``),
    the destination's liveness, the fault filter and the trunk's
    occupancy are still read on every send."""

    __slots__ = ("src_tag", "dst_tag", "trunk", "kind_tag", "link", "total", "dt")

    def __init__(self, topology: Topology, src: Machine, dst: Machine, kind: str) -> None:
        self.src_tag, self.dst_tag, self.trunk = topology.route_record(src, dst)
        self.kind_tag = _kind_tag(kind)
        self.link = None
        self.total = -1
        self.dt = 0.0


_new_tuple = tuple.__new__


class MessageDropped(NetworkError):
    """A message was lost in transit: destination host down, or a fault
    plan's packet-loss rule fired.  The sender only learns of the loss
    by timing out."""


#: hook signature: (src, dst, kind, total_bytes, now) -> (drop, extra_latency_s)
FaultFilter = Callable[[Machine, Machine, str, int, float], Tuple[bool, float]]


class Message(NamedTuple):
    """One delivered message: an immutable value, built once by
    :meth:`Transport.send`.

    ``nbytes`` is the *payload* size (the UTS-encoded arguments);
    ``header_nbytes`` is the fixed Schooner message header charged on top
    of it.  The wire occupancy is :attr:`total_nbytes`.

    ``body`` carries the payload.  From the RPC runtime it is a
    read-only ``memoryview`` over the sender's fresh encode buffer,
    delivered through every store-and-forward hop as the *same* view
    object: no hop copies the payload.  ``header`` is the packed
    wire header, built once per message with :data:`HEADER_STRUCT`.
    ``deadline_s`` is the caller's propagated virtual-time deadline
    (``None`` = no deadline; packed as +inf in the header) — the
    receiving side checks it against its own clock before doing work.
    """

    msg_id: int
    src: str
    dst: str
    kind: str
    body: Any
    nbytes: int
    header_nbytes: int
    sent_at: float
    delivered_at: float
    header: bytes = b""
    deadline_s: Optional[float] = None

    @property
    def total_nbytes(self) -> int:
        """Bytes actually put on the wire: payload plus header."""
        return self.nbytes + self.header_nbytes

    @property
    def transfer_seconds(self) -> float:
        return self.delivered_at - self.sent_at


@dataclass
class TrafficStats:
    """Aggregate counters, reported by the benchmark harness.

    ``bytes`` counts payload only; ``header_bytes`` counts the framing
    overhead, so reports can show both and :attr:`total_bytes` matches
    what the topology charged transfer time for.
    """

    messages: int = 0
    bytes: int = 0
    header_bytes: int = 0
    virtual_seconds: float = 0.0
    by_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return self.bytes + self.header_bytes


@dataclass
class Transport:
    """The message-passing layer shared by all Schooner processes.

    With ``contention`` enabled, concurrent senders share each route's
    serialization capacity: a message finds its trunk busy until the
    previous message's bits have drained, so overlapping lines queue
    behind each other — the behaviour a shared 1993 WAN trunk actually
    had.  Off by default (the paper's experiments were run one at a
    time); the contention ablation turns it on.
    """

    topology: Topology
    clock: VirtualClock
    stats: TrafficStats = field(default_factory=TrafficStats)
    contention: bool = False
    # fault-injection hook (see repro.faults): consulted per message for
    # seeded packet loss and latency spikes.  None = perfect network.
    fault_filter: Optional[FaultFilter] = None
    dropped: int = 0
    _next_id: int = 0
    # per-trunk busy-until times; a trunk is the (site, site) pair so all
    # machines at two sites share the same WAN capacity
    _trunk_free: Dict[Any, float] = field(default_factory=dict)

    def __reduce__(self):
        # pickling a live transport (per-trunk busy times, shared
        # counters) would ship interpreter state across a process
        # boundary; fail with the typed shard error, not a pickle trace
        from ..serve.shards import NotShardSafe

        raise NotShardSafe(
            "live Transport (trunk-occupancy state, traffic "
            "counters) cannot cross a process boundary; shard workers "
            "build their own installation replica — ship SessionSpec "
            "wire frames instead (see repro.serve.shards)"
        )

    def send(
        self,
        src: Machine,
        dst: Machine,
        kind: str,
        body: Any,
        nbytes: int,
        timeline: Optional[Timeline] = None,
        header_bytes: int = 64,
        deadline_s: Optional[float] = None,
        hop: Optional[Hop] = None,
    ) -> Message:
        """Deliver a message, charging virtual time to ``timeline``.

        ``nbytes`` is the payload size (UTS-encoded arguments); a fixed
        ``header_bytes`` models the Schooner message header (procedure
        name, call id, type tags).  ``deadline_s`` rides in the packed
        header so the receiver can refuse already-late work.  ``hop`` is
        the call plan's record of this (``src``, ``dst``, ``kind``)
        direction; without one the route record and kind tag are looked
        up.
        """
        total = nbytes + header_bytes
        link = self.topology.classify(src, dst)
        if hop is None:
            dt = link.transfer_seconds(total)
        elif link is hop.link and total == hop.total:
            dt = hop.dt
        else:
            dt = hop.dt = link.transfer_seconds(total)
            hop.link, hop.total = link, total
        now = timeline._elapsed if timeline is not None else self.clock.now
        src_host, dst_host = src.hostname, dst.hostname
        if not dst.up:
            self.dropped += 1
            raise MessageDropped(f"{kind}: host {dst_host} is down; message lost")
        if self.fault_filter is not None:
            drop, extra_s = self.fault_filter(src, dst, kind, total, now)
            if drop:
                self.dropped += 1
                raise MessageDropped(
                    f"{kind}: message {src_host} -> {dst_host} lost in transit"
                )
            dt += extra_s
        if hop is None:
            src_tag, dst_tag, trunk = self.topology.route_record(src, dst)
            kind_tag = _kind_tag(kind)
        else:
            src_tag, dst_tag, trunk, kind_tag = hop.src_tag, hop.dst_tag, hop.trunk, hop.kind_tag
        if self.contention:
            serialization = total / link.bandwidth_Bps
            free_at = self._trunk_free.get(trunk, 0.0)
            queue_wait = max(0.0, free_at - now)
            self._trunk_free[trunk] = now + queue_wait + serialization
            dt = queue_wait + dt
        if timeline is None:
            delivered_at = self.clock.advance(dt)
        else:
            # Timeline.advance inline: the same addition, refusal and
            # envelope check, inside which due clock events fire
            if not dt >= 0.0:
                raise ValueError(f"cannot advance time by {dt}")
            t = timeline._elapsed = timeline._elapsed + dt
            clock = timeline.clock
            if t > clock._now:
                clock._now = t
                if clock._events and clock._events[0][0] <= t:
                    clock._notify()
            delivered_at = timeline._elapsed
        msg_id = self._next_id
        self._next_id = msg_id + 1
        header = HEADER_STRUCT.pack(
            msg_id & 0xFFFFFFFF,
            kind_tag,
            nbytes,
            src_tag,
            dst_tag,
            NO_DEADLINE if deadline_s is None else deadline_s,
        )
        stats = self.stats
        stats.messages += 1
        stats.bytes += nbytes
        stats.header_bytes += header_bytes
        stats.virtual_seconds += delivered_at - now
        try:
            stats.by_kind[kind] += 1
        except KeyError:
            stats.by_kind[kind] = 1
        # the tuple is built directly: the NamedTuple's generated __new__
        # would be one more Python call per message for the same value
        return _new_tuple(Message, (
            msg_id, src_host, dst_host, kind, body, nbytes, header_bytes,
            now, delivered_at, header, deadline_s,
        ))

    def round_trip(
        self,
        src: Machine,
        dst: Machine,
        kind: str,
        request_body: Any,
        request_bytes: int,
        reply_body: Any,
        reply_bytes: int,
        timeline: Optional[Timeline] = None,
    ) -> float:
        """A request/reply exchange; returns the total virtual seconds."""
        req = self.send(src, dst, kind, request_body, request_bytes, timeline)
        rep = self.send(dst, src, kind + "-reply", reply_body, reply_bytes, timeline)
        return req.transfer_seconds + rep.transfer_seconds
