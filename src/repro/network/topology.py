"""Network topology: which link model connects two machines.

The three-tier rule reproduces Table 1's connectivity classes:

* same machine                      -> loopback
* same site, same subnet            -> local Ethernet
* same site, different subnets      -> campus path through gateways
* different sites                   -> the Internet

:meth:`Topology.classify` is the one routing model: the transport asks
it on every send, and the faults (:meth:`~Topology.partition`,
:meth:`~Topology.gateway_down`) act through it.
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

    ethernet: LinkModel = ETHERNET
    campus: LinkModel = CAMPUS_GATEWAYS
    internet: LinkModel = INTERNET_1993
    loopback: LinkModel = LOOPBACK
    _partitioned: set = field(default_factory=set)
    # sites whose campus gateways are down: same-site cross-subnet
    # traffic fails while the site's Ethernets keep working
    _dead_gateways: set = field(default_factory=set)
    # route records (see route_record), shared by every transport that
    # sends over this topology
    _routes: Dict[tuple, tuple] = field(default_factory=dict, repr=False, compare=False)

    def partition(self, site_a: str, site_b: str) -> None:
        """Cut connectivity between two sites (failure injection)."""
        self._partitioned.add(frozenset((site_a, site_b)))

    def heal(self, site_a: str, site_b: str) -> None:
        self._partitioned.discard(frozenset((site_a, site_b)))

    def gateway_down(self, site: str) -> None:
        """Take a site's campus gateways out: machines on different
        subnets of ``site`` can no longer reach each other (failure
        injection for the Table-1 'multiple gateways' tier)."""
        self._dead_gateways.add(site)

    def gateway_restore(self, site: str) -> None:
        self._dead_gateways.discard(site)

    def classify(self, src: Machine, dst: Machine) -> LinkModel:
        """The link model connecting ``src`` to ``dst``."""
        if (self._partitioned and src.site != dst.site
                and frozenset((src.site, dst.site)) in self._partitioned):
            raise NetworkError(
                f"network partition between {src.site} and {dst.site}"
            )
        if src.hostname == dst.hostname:
            return self.loopback
        if src.site == dst.site:
            if src.subnet == dst.subnet:
                return self.ethernet
            if src.site in self._dead_gateways:
                raise NetworkError(
                    f"gateway outage at {src.site}: "
                    f"{src.subnet} cannot reach {dst.subnet}"
                )
            return self.campus
        return self.internet

    def route_record(self, src: Machine, dst: Machine) -> Tuple[int, int, object]:
        """What is a pure function of a (src, dst) machine pair: the two
        header host tags and the contention trunk key — all machines at
        two sites share one WAN trunk, LAN/campus segments are per
        subnet pair.  Computed once and kept under everything it is
        computed from, so a hostname that turns up again at another site
        or subnet gets a record of its own.  Nothing a fault can change
        is here: that is :meth:`classify`, asked on every send."""
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
