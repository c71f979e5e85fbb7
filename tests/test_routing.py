"""Tests for shortest-latency routing and the route cache.

The contracted-graph routes are checked link for link against an oracle:
one Dijkstra over the whole router graph per source router, the
implementation the contraction replaced.
"""

import random
from heapq import heappop, heappush

import pytest

from repro.net.mercator import MercatorConfig, build_mercator_topology
from repro.net.routing import RouteTable
from repro.net.topology import LinkKind, Topology


class Oracle:
    """Shortest paths from a full-graph single-source Dijkstra per source
    router, trees cached per source."""

    def __init__(self, topo):
        self._topo = topo
        self._trees = {}

    def _tree(self, source):
        tree = self._trees.get(source)
        if tree is None:
            topo = self._topo
            dist = {source: 0.0}
            tree = {source: None}  # router -> (parent, link to parent)
            heap = [(0.0, source)]
            while heap:
                d, router = heappop(heap)
                if d > dist[router]:
                    continue
                for neighbor, link in topo.neighbors(router).items():
                    nd = d + link.latency_ms
                    if nd < dist.get(neighbor, float("inf")):
                        dist[neighbor] = nd
                        tree[neighbor] = (router, link)
                        heappush(heap, (nd, neighbor))
            self._trees[source] = tree
        return tree

    def core_links(self, src, dst):
        tree = self._tree(src)
        if dst not in tree:
            raise ValueError(f"router {dst} unreachable from {src}")
        links = []
        while dst != src:
            dst, link = tree[dst]
            links.append(link)
        return tuple(reversed(links))


def assert_matches_oracle(topo, pairs):
    """Every pair routes link for link as the oracle does, and a pair the
    oracle cannot connect raises ValueError."""
    table = RouteTable(topo)
    oracle = Oracle(topo)
    for src, dst in pairs:
        try:
            expected = oracle.core_links(src, dst)
        except ValueError:
            with pytest.raises(ValueError):
                table._core_links(src, dst)
            continue
        got = table._core_links(src, dst)
        assert len(got) == len(expected) and all(
            a is b for a, b in zip(got, expected)
        ), (src, dst)
    return table


def all_pairs(routers):
    return [(a, b) for a in routers for b in routers]


def _linked(edges, routers=None):
    """A topology from (a, b, latency) triples."""
    topo = Topology()
    count = routers if routers is not None else 1 + max(max(a, b) for a, b, _ in edges)
    for _ in range(count):
        topo.add_router()
    for a, b, latency in edges:
        topo.add_link(a, b, latency, LinkKind.OC3)
    return topo


@pytest.fixture
def diamond():
    """Two host attachment points with a fast and a slow path between."""
    topo = Topology()
    a, b, c, d = (topo.add_router() for _ in range(4))
    topo.add_link(a, b, 10.0, LinkKind.OC3)   # fast upper path a-b-d: 20
    topo.add_link(b, d, 10.0, LinkKind.OC3)
    topo.add_link(a, c, 50.0, LinkKind.OC3)   # slow lower path a-c-d: 100
    topo.add_link(c, d, 50.0, LinkKind.OC3)
    topo.attach_host(0, a, access_latency_ms=1.0)
    topo.attach_host(1, d, access_latency_ms=1.0)
    return topo


class TestRouteTable:
    def test_prefers_lower_latency(self, diamond):
        table = RouteTable(diamond)
        route = table.route(0, 1)
        assert route.latency_ms == pytest.approx(22.0)
        assert route.hop_count == 4  # access, a-b, b-d, access

    def test_route_to_self_rejected(self, diamond):
        table = RouteTable(diamond)
        with pytest.raises(ValueError):
            table.route(0, 0)

    def test_latency_to_self_zero(self, diamond):
        assert RouteTable(diamond).latency(0, 0) == 0.0

    def test_rtt_is_double(self, diamond):
        table = RouteTable(diamond)
        assert table.rtt(0, 1) == pytest.approx(44.0)

    def test_symmetric_routes(self, diamond):
        table = RouteTable(diamond)
        fwd = table.route(0, 1)
        rev = table.route(1, 0)
        assert fwd.latency_ms == rev.latency_ms
        assert [l.endpoints() for l in fwd.links] == [
            l.endpoints() for l in reversed(rev.links)
        ]

    def test_cache_returns_same_object(self, diamond):
        table = RouteTable(diamond)
        assert table.route(0, 1) is table.route(0, 1)

    def test_invalidate_clears_cache(self, diamond):
        table = RouteTable(diamond)
        first = table.route(0, 1)
        table.invalidate()
        assert table.route(0, 1) is not first

    def test_unreachable_raises(self):
        topo = Topology()
        a = topo.add_router()
        b = topo.add_router()  # not linked to a
        topo.attach_host(0, a)
        topo.attach_host(1, b)
        with pytest.raises(ValueError):
            RouteTable(topo).route(0, 1)

    def test_current_loss_sees_late_loss_changes(self, diamond):
        """Experiments flip loss on after routes are cached (Fig 11/12)."""
        table = RouteTable(diamond)
        route = table.route(0, 1)
        assert route.current_loss() == 0.0
        diamond.set_uniform_loss(0.01)
        assert route.current_loss() > 0.0
        assert route.loss_static == 0.0  # snapshot untouched

    def test_router_path_endpoints(self, diamond):
        table = RouteTable(diamond)
        path = table.router_path(0, 3)
        assert path[0] == 0
        assert path[-1] == 3


class TestKernelAgainstOracle:
    @pytest.mark.parametrize("n_hosts, seed", [(100, s) for s in range(5)] + [(400, s) for s in range(3)])
    def test_every_host_router_pair(self, n_hosts, seed):
        topo, hosts = build_mercator_topology(
            MercatorConfig.scaled_for_hosts(n_hosts), random.Random(seed)
        )
        routers = sorted({topo.host_router(h) for h in hosts})
        table = assert_matches_oracle(topo, all_pairs(routers))
        assert 0 < table.cached_tree_count < topo.router_count

    def test_sampled_pairs_at_4000_hosts(self):
        """50k pairs: 200 source routers, 250 destinations each."""
        topo, hosts = build_mercator_topology(
            MercatorConfig.scaled_for_hosts(4000), random.Random(7)
        )
        routers = sorted({topo.host_router(h) for h in hosts})
        rng = random.Random(3)
        pairs = [
            (src, dst) for src in rng.sample(routers, 200) for dst in rng.sample(routers, 250)
        ]
        assert len(pairs) == 50_000
        assert_matches_oracle(topo, pairs)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_small_graphs(self, seed):
        """Pendant trees, chains, pure cycles and several components at
        once; unreachable pairs included."""
        rng = random.Random(seed)
        n = rng.randrange(2, 40)
        edges = {}
        for router in range(1, n):
            if rng.random() < 0.9:  # else: the root of another component
                edges[(rng.randrange(router), router)] = None
        for _ in range(rng.randrange(0, n // 2 + 1)):
            a, b = rng.sample(range(n), 2)
            edges[(min(a, b), max(a, b))] = None
        topo = _linked([(a, b, rng.uniform(1.0, 50.0)) for a, b in edges], routers=n)
        assert_matches_oracle(topo, all_pairs(range(n)))


class TestKernelShapes:
    def test_pure_cycle_keeps_one_kernel_router(self):
        # The diamond's shape with untied weights (the fixture ties b-c).
        topo = _linked([(0, 1, 10.0), (1, 3, 11.0), (0, 2, 52.0), (2, 3, 50.0)])
        table = assert_matches_oracle(topo, all_pairs(range(4)))
        assert table.cached_tree_count == 1
        assert table.router_path(1, 2) == [1, 3, 2]

    def test_no_cycle(self):
        """A tree contracts to nothing: every route meets at the lowest
        common ancestor."""
        topo = _linked(
            [(0, 1, 3.0), (0, 2, 4.0), (1, 3, 5.0), (1, 4, 6.0), (2, 5, 7.0), (5, 6, 8.0)]
        )
        table = assert_matches_oracle(topo, all_pairs(range(7)))
        assert table.cached_tree_count == 0
        assert table.router_path(3, 6) == [3, 1, 0, 2, 5, 6]

    def test_parallel_chains_keep_the_lightest(self):
        # Kernel routers 0 and 1 joined three ways: 0-2-3-1 (3 ms),
        # 0-4-1 (4 ms) and a direct 10 ms link.
        topo = _linked(
            [(0, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0), (0, 4, 2.0), (4, 1, 2.0), (0, 1, 10.0)]
        )
        table = assert_matches_oracle(topo, all_pairs(range(5)))
        assert table.router_path(0, 1) == [0, 2, 3, 1]
        assert table.router_path(4, 3) == [4, 1, 3]

    def test_chain_looping_back_to_its_kernel_router(self):
        # 0 carries the loop 0-1-2-3-0 and the cycle 0-4-5-6-0; 6 has a
        # pendant router 7.
        topo = _linked(
            [
                (0, 1, 2.0), (1, 2, 3.0), (2, 3, 4.0), (3, 0, 5.5),
                (0, 4, 1.5), (4, 5, 2.5), (5, 6, 3.5), (6, 0, 4.7), (6, 7, 1.0),
            ]
        )
        assert_matches_oracle(topo, all_pairs(range(8)))

    def test_two_hosts_on_one_router(self, diamond):
        diamond.attach_host(2, 0, access_latency_ms=1.5)
        route = RouteTable(diamond).route(0, 2)
        assert route.core == ()
        assert route.latency_ms == pytest.approx(2.5)
        assert route.hop_count == 2

    @pytest.mark.parametrize(
        "edges",
        [
            # two cyclic components
            [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (3, 4, 1.0), (4, 5, 1.0), (5, 3, 1.0)],
            # a tree component beside a cyclic one
            [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (5, 3, 1.0)],
        ],
    )
    def test_unreachable_pair_raises(self, edges):
        topo = _linked(edges)
        topo.attach_host(0, 0)
        topo.attach_host(1, 4)
        table = RouteTable(topo)
        with pytest.raises(ValueError):
            table.route(0, 1)
        with pytest.raises(ValueError):
            table.router_path(4, 1)
        assert_matches_oracle(topo, all_pairs(range(6)))
