"""Property tests for explicit-graph routing (Table 1 connectivity).

Two properties the fault injector and the cost model lean on:

* routing is deterministic — for a fixed seed, :meth:`Topology.route`
  always returns the same hop sequence, even when several shortest
  paths exist (multi-gateway campuses);
* store-and-forward costs are additive — the delivery time over a
  route is exactly the sum of the per-hop link costs.

The topology walks its own adjacency dict; ``networkx`` (a test-only
dependency) is held to it as the reference, on the same links.
"""

import random
from dataclasses import replace

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines import standard_park
from repro.network import CAMPUS_GATEWAYS, NetworkError, Topology

PARK = standard_park()
HOSTS = sorted(m.hostname for m in PARK)

#: the parallel gateway, told apart from the site's own by its name
SECOND_GATEWAY = replace(CAMPUS_GATEWAYS, name="second campus gateway")


def make_topology():
    topo = Topology()
    for m in PARK:
        topo.register(m)
    return topo


def add_second_gateway(topo, site="lerc"):
    """Wire a parallel campus gateway between the two lerc subnets, so
    cross-subnet pairs have two equal-length shortest paths."""
    gw = ("site", site, "gw2")
    topo.add_link(("subnet", site, "accl"), gw, SECOND_GATEWAY)
    topo.add_link(gw, ("subnet", site, "csd"), SECOND_GATEWAY)
    return topo


TOPO = make_topology()
MULTI = add_second_gateway(make_topology())

pairs = st.tuples(st.sampled_from(HOSTS), st.sampled_from(HOSTS))
seeds = st.integers(min_value=0, max_value=2**31 - 1)
sizes = st.integers(min_value=0, max_value=1_000_000)


def reference_graph(second_gateway=False):
    """The same links as a ``networkx`` graph, added in the same order."""
    graph = nx.Graph()
    for m in PARK:
        subnet, site = ("subnet", m.site, m.subnet), ("site", m.site)
        graph.add_edge(("host", m.hostname), subnet, link=TOPO.ethernet)
        graph.add_edge(subnet, site, link=TOPO.campus)
        graph.add_edge(site, ("backbone",), link=TOPO.internet)
    if second_gateway:
        gw = ("site", "lerc", "gw2")
        graph.add_edge(("subnet", "lerc", "accl"), gw, link=SECOND_GATEWAY)
        graph.add_edge(gw, ("subnet", "lerc", "csd"), link=SECOND_GATEWAY)
    return graph


def reference_route(graph, src, dst, seed):
    a, b = ("host", src.hostname), ("host", dst.hostname)
    if a == b:
        return (TOPO.loopback,)
    paths = sorted(nx.all_shortest_paths(graph, a, b), key=lambda p: [str(n) for n in p])
    path = paths[random.Random(seed).randrange(len(paths))]
    return tuple(graph.edges[u, v]["link"] for u, v in zip(path, path[1:]))


class TestAgainstNetworkx:
    @pytest.mark.parametrize("topo,second_gateway", [(TOPO, False), (MULTI, True)],
                             ids=["standard", "multi-gateway"])
    def test_every_pair_every_seed(self, topo, second_gateway):
        graph = reference_graph(second_gateway)
        for src in PARK:
            for dst in PARK:
                a, b = ("host", src.hostname), ("host", dst.hostname)
                assert topo.graph_path_hops(src, dst) == nx.shortest_path_length(graph, a, b)
                for seed in range(16):
                    assert topo.route(src, dst, seed) == reference_route(graph, src, dst, seed)

    def test_unknown_host_raises_network_error(self):
        stranger = replace(PARK["sparc10.lerc.nasa.gov"], hostname="nowhere.example")
        known = PARK["cray-ymp.lerc.nasa.gov"]
        for src, dst in ((stranger, known), (known, stranger)):
            with pytest.raises(NetworkError, match="nowhere.example"):
                TOPO.route(src, dst)
            with pytest.raises(NetworkError, match="nowhere.example"):
                TOPO.graph_path_hops(src, dst)

    def test_no_path_raises_network_error(self):
        topo = make_topology()
        island = ("host", "island.example")
        topo.add_link(island, ("subnet", "atoll", "lagoon"), topo.ethernet)
        stranger = replace(PARK["sparc10.lerc.nasa.gov"], hostname="island.example")
        with pytest.raises(NetworkError, match="no path"):
            topo.route(PARK["sparc10.lerc.nasa.gov"], stranger)
        with pytest.raises(NetworkError, match="no path"):
            topo.graph_path_hops(stranger, PARK["sparc10.lerc.nasa.gov"])


class TestRouteDeterminism:
    @given(pair=pairs, seed=seeds)
    def test_fixed_seed_fixed_route(self, pair, seed):
        src, dst = PARK[pair[0]], PARK[pair[1]]
        assert TOPO.route(src, dst, seed) == TOPO.route(src, dst, seed)

    @given(pair=pairs, seed=seeds)
    def test_route_independent_of_topology_instance(self, pair, seed):
        # no hidden global state: two independently built topologies
        # route identically for the same seed
        src, dst = PARK[pair[0]], PARK[pair[1]]
        assert TOPO.route(src, dst, seed) == make_topology().route(src, dst, seed)

    @settings(max_examples=30)
    @given(seed=seeds)
    def test_multi_gateway_choice_is_seeded(self, seed):
        # with two equal-cost gateways the chosen route depends only on
        # the seed, never on wall-clock randomness
        src, dst = PARK["sparc10.lerc.nasa.gov"], PARK["cray-ymp.lerc.nasa.gov"]
        first = MULTI.route(src, dst, seed)
        assert all(MULTI.route(src, dst, seed) == first for _ in range(3))

    def test_multiple_gateways_actually_explored(self):
        # across seeds, both parallel campus paths get used
        src, dst = PARK["sparc10.lerc.nasa.gov"], PARK["cray-ymp.lerc.nasa.gov"]
        routes = {MULTI.route(src, dst, seed) for seed in range(16)}
        eth = MULTI.ethernet
        assert routes == {
            (eth, CAMPUS_GATEWAYS, CAMPUS_GATEWAYS, eth),
            (eth, SECOND_GATEWAY, SECOND_GATEWAY, eth),
        }


class TestStoreAndForwardAdditivity:
    @given(pair=pairs, seed=seeds, nbytes=sizes)
    def test_cost_is_sum_of_hops(self, pair, seed, nbytes):
        src, dst = PARK[pair[0]], PARK[pair[1]]
        route = TOPO.route(src, dst, seed)
        total = TOPO.route_transfer_seconds(src, dst, nbytes, seed)
        assert total == sum(link.transfer_seconds(nbytes) for link in route)

    @given(seed=seeds, nbytes=sizes)
    def test_multi_gateway_cost_additive(self, seed, nbytes):
        src, dst = PARK["sparc10.lerc.nasa.gov"], PARK["cray-ymp.lerc.nasa.gov"]
        route = MULTI.route(src, dst, seed)
        total = MULTI.route_transfer_seconds(src, dst, nbytes, seed)
        assert total == sum(link.transfer_seconds(nbytes) for link in route)
        # each hop is charged in full: the total dominates any single hop
        assert all(total >= link.transfer_seconds(nbytes) for link in route)

    @given(nbytes=sizes)
    def test_route_cost_dominates_single_link(self, nbytes):
        # a campus route (host->subnet->site->subnet->host) costs at
        # least the flat same-subnet path for the same payload
        src, dst = PARK["sparc10.lerc.nasa.gov"], PARK["sgi4d480.lerc.nasa.gov"]
        far = PARK["cray-ymp.lerc.nasa.gov"]
        same_subnet = TOPO.route_transfer_seconds(src, dst, nbytes)
        cross_subnet = TOPO.route_transfer_seconds(src, far, nbytes)
        assert cross_subnet >= same_subnet
