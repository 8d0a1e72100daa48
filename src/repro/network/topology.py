"""Network topology: which link model connects two machines.

The three-tier rule reproduces Table 1's connectivity classes:

* same machine                      -> loopback
* same site, same subnet            -> local Ethernet
* same site, different subnets      -> campus path through gateways
* different sites                   -> the Internet

A :class:`Topology` also carries an explicit graph of hosts, subnets and
sites (an adjacency dict, one :class:`LinkModel` per edge, grown only by
:meth:`Topology.add_link`), so richer routing (extra gateways, cut
links) can be modelled; :meth:`classify` is the fast path used by the
transport.
"""

from __future__ import annotations

import random
from collections.abc import Hashable
from dataclasses import dataclass, field
from typing import Dict, List, Tuple
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
    # explicit overrides for specific (src_host, dst_host) pairs
    _overrides: Dict[Tuple[str, str], LinkModel] = field(default_factory=dict)
    # the explicit graph: node -> neighbour -> the link between them
    _links: Dict[Hashable, Dict[Hashable, LinkModel]] = field(default_factory=dict)
    _partitioned: set = field(default_factory=set)
    # sites whose campus gateways are down: same-site cross-subnet
    # traffic fails while the site's Ethernets keep working
    _dead_gateways: set = field(default_factory=set)
    # route records (see route_record), shared by every transport that
    # sends over this topology
    _routes: Dict[tuple, tuple] = field(default_factory=dict, repr=False, compare=False)

    def register(self, machine: Machine) -> None:
        """Add a machine to the explicit graph (optional but lets tests
        reason about the network as a graph)."""
        subnet_node = ("subnet", machine.site, machine.subnet)
        site_node = ("site", machine.site)
        self.add_link(("host", machine.hostname), subnet_node, self.ethernet)
        self.add_link(subnet_node, site_node, self.campus)
        self.add_link(site_node, ("backbone",), self.internet)

    def add_link(self, a: Hashable, b: Hashable, link: LinkModel) -> None:
        """Join two graph nodes both ways by ``link`` (replacing the link
        of an existing edge).  Hosts are ``("host", hostname)``, subnets
        ``("subnet", site, subnet)``, sites ``("site", site)``, the WAN
        ``("backbone",)``; any other hashable adds a node of its own,
        e.g. a second campus gateway."""
        self._links.setdefault(a, {})[b] = link
        self._links.setdefault(b, {})[a] = link

    def set_override(self, src: Machine, dst: Machine, link: LinkModel) -> None:
        """Force a specific link model for a machine pair (both ways)."""
        self._overrides[(src.hostname, dst.hostname)] = link
        self._overrides[(dst.hostname, src.hostname)] = link

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
        override = self._overrides.get((src.hostname, dst.hostname))
        if override is not None:
            return override
        if src.site != dst.site and frozenset((src.site, dst.site)) in self._partitioned:
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

    def transfer_seconds(self, src: Machine, dst: Machine, nbytes: int) -> float:
        """One-way delivery time for ``nbytes`` from ``src`` to ``dst``."""
        return self.classify(src, dst).transfer_seconds(nbytes)

    def route(self, src: Machine, dst: Machine, seed: int = 0) -> Tuple[LinkModel, ...]:
        """The sequence of link models a message traverses between two
        registered hosts, following the explicit graph.

        When several shortest paths exist (multi-gateway campuses), the
        choice among them is made by a PRNG seeded with ``seed`` over the
        *sorted* candidate list, so a fixed seed always yields the same
        route — routing decisions never consult wall-clock randomness.
        """
        if src.hostname == dst.hostname:
            return (self.loopback,)
        paths = sorted(self._shortest_paths(src, dst), key=lambda p: [str(n) for n in p])
        path = paths[random.Random(seed).randrange(len(paths))]
        return tuple(self._links[u][v] for u, v in zip(path, path[1:]))

    def route_transfer_seconds(
        self, src: Machine, dst: Machine, nbytes: int, seed: int = 0
    ) -> float:
        """Store-and-forward delivery over an explicit route: each hop is
        charged its full :meth:`LinkModel.transfer_seconds`, so the total
        is *additive* over the hops of the route."""
        return sum(link.transfer_seconds(nbytes) for link in self.route(src, dst, seed))

    def graph_path_hops(self, src: Machine, dst: Machine) -> int:
        """Number of graph edges between two registered hosts (sanity
        checks in tests: Ethernet=2 via the shared subnet node, etc.)."""
        return len(self._shortest_paths(src, dst)[0]) - 1

    def _shortest_paths(self, src: Machine, dst: Machine) -> List[Tuple[Hashable, ...]]:
        """Every shortest path between two registered hosts over the
        explicit graph: one breadth-first walk, a layer at a time, that
        extends every shortest path to a node of one layer to the nodes
        first reached from it."""
        a, b = ("host", src.hostname), ("host", dst.hostname)
        links = self._links
        for node in (a, b):
            if node not in links:
                raise NetworkError(f"host {node[1]!r} is not in the topology")
        paths: Dict[Hashable, List[Tuple[Hashable, ...]]] = {a: [(a,)]}
        layer = [a]
        while layer and b not in paths:
            reached: Dict[Hashable, List[Tuple[Hashable, ...]]] = {}
            for node in layer:
                for nxt in links[node]:
                    if nxt not in paths:
                        reached.setdefault(nxt, []).extend(p + (nxt,) for p in paths[node])
            paths.update(reached)
            layer = list(reached)
        if b not in paths:
            raise NetworkError(f"no path from {src.hostname!r} to {dst.hostname!r}")
        return paths[b]
