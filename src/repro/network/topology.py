"""Network topology: which link model connects two machines.

The three-tier rule reproduces Table 1's connectivity classes:

* same machine                      -> loopback
* same site, same subnet            -> local Ethernet
* same site, different subnets      -> campus path through gateways
* different sites                   -> the Internet

:meth:`Topology.classify` is the one routing model, a pure function of
a machine pair.  A fault that cuts a route (a partition, a gateway
outage) is state of the :class:`~repro.faults.FaultInjector` that
applied it, and ends when that injector detaches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple
from zlib import crc32

from ..machines.host import Machine
from .link import CAMPUS_GATEWAYS, ETHERNET, INTERNET_1993, LOOPBACK, LinkModel

__all__ = ["Topology", "NetworkError"]


class NetworkError(Exception):
    """A routing failure: unreachable host, partitioned network."""


@dataclass
class Topology:
    """Maps machine pairs to link models."""

    # route records (see route_record), shared by every transport that
    # sends over this topology
    _routes: Dict[tuple, tuple] = field(default_factory=dict, repr=False, compare=False)

    def classify(self, src: Machine, dst: Machine) -> LinkModel:
        """The link model connecting ``src`` to ``dst``."""
        if src.hostname == dst.hostname:
            return LOOPBACK
        if src.site == dst.site:
            return ETHERNET if src.subnet == dst.subnet else CAMPUS_GATEWAYS
        return INTERNET_1993

    def route_record(self, src: Machine, dst: Machine) -> Tuple[int, int, object]:
        """What is a pure function of a (src, dst) machine pair besides
        its link: the two header host tags and the contention trunk key
        — all machines at two sites share one WAN trunk, LAN/campus
        segments are per subnet pair.  Computed once and kept under
        everything it is computed from, so a hostname that turns up
        again at another site or subnet gets a record of its own."""
        key = (src.hostname, dst.hostname, src.site, dst.site, src.subnet, dst.subnet)
        record = self._routes.get(key)
        if record is None:
            if src.site == dst.site:
                trunk = (src.site, frozenset((src.subnet, dst.subnet)))
            else:
                trunk = frozenset((src.site, dst.site))
            record = self._routes[key] = (
                crc32(src.hostname.encode()), crc32(dst.hostname.encode()), trunk
            )
        return record
