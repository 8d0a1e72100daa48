"""Network link models.

Table 1 of the paper distinguishes three connectivity classes:

* "local Ethernet" — one 10 Mbit/s segment,
* "same building, multiple gateways" — a campus path through
  store-and-forward routers,
* "via Internet" — the 1993 NSFNET path between Cleveland and Tucson.

Each class is a :class:`LinkModel` with latency, bandwidth, and hop
count; :meth:`transfer_seconds` gives the virtual time to move a payload.
The parameters are era-appropriate: what matters for reproducing the
paper's shape is the *ordering* (Ethernet ≪ campus ≪ WAN) and the
latency-dominated cost of small RPC messages.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "LinkModel",
    "ETHERNET",
    "CAMPUS_GATEWAYS",
    "INTERNET_1993",
    "LOOPBACK",
]


@dataclass(frozen=True)
class LinkModel:
    """A point-to-point network path model.

    ``latency_s``    one-way propagation + protocol latency per hop,
    ``bandwidth_Bps``bottleneck bandwidth in bytes/second,
    ``hops``         store-and-forward hops (gateways + 1),
    ``per_message_s``fixed software overhead per message (system calls,
                     protocol processing) charged once per message.
    """

    name: str
    latency_s: float
    bandwidth_Bps: float
    hops: int = 1
    per_message_s: float = 0.0

    def transfer_seconds(self, nbytes: int) -> float:
        """One-way virtual time to deliver a message of ``nbytes``.

        Store-and-forward: each hop pays latency, and the serialization
        time of the full message is paid on every hop (1993 routers did
        not cut through).
        """
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        serialization = nbytes / self.bandwidth_Bps
        return self.per_message_s + self.hops * (self.latency_s + serialization)


# One 10BASE; ~1.25 MB/s raw, ~1 MB/s effective; sub-millisecond latency.
ETHERNET = LinkModel(
    name="local Ethernet",
    latency_s=0.0008,
    bandwidth_Bps=1.0e6,
    hops=1,
    per_message_s=0.0015,  # mostly kernel + protocol stack time in 1993
)

# Same building through several routers/gateways: each hop adds queueing
# and forwarding delay, and the path crosses slower backbone segments.
CAMPUS_GATEWAYS = LinkModel(
    name="same building, multiple gateways",
    latency_s=0.003,
    bandwidth_Bps=4.0e5,
    hops=3,
    per_message_s=0.0015,
)

# LeRC (Cleveland) <-> U. of Arizona (Tucson) over 1993 NSFNET: ~40 ms
# propagation each way plus congested T1 segments.
INTERNET_1993 = LinkModel(
    name="via Internet",
    latency_s=0.040,
    bandwidth_Bps=5.0e4,
    hops=2,
    per_message_s=0.0020,
)

# Same machine: no wire, just IPC overhead.
LOOPBACK = LinkModel(
    name="loopback",
    latency_s=0.0,
    bandwidth_Bps=2.0e7,
    hops=1,
    per_message_s=0.0003,
)
