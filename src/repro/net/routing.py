"""Shortest-latency routing over the router graph.

Routes are shortest paths on link latency.  The implementation is built
for paper-scale worlds (400-16,000 hosts over thousands of routers):

* **One contracted graph, built once.**  Most of a Mercator-like router
  graph is not needed to *choose* a route, only to spell it out:
  routers hanging off the graph by a single link (pendant trees) have
  exactly one way out, and a router with two links lies on a chain
  whose only choice is which end to leave by.  The first route builds
  the *kernel*: pendant trees are pruned (each pruned router keeps the
  links up to where its tree attaches), every chain of degree-2 routers
  becomes one weighted edge between the two kernel routers at its ends
  (the lightest chain wins where several join one pair), and a
  component that is a pure cycle keeps one of its routers as its kernel
  router.  The 4,096-router graph of a 4,000-host world contracts to
  about 800 kernel routers.
* **All kernel distances in one batch.**  One Dijkstra run over the
  kernel from every kernel router (scipy's C implementation when
  available, one call for all sources) fills compact ``array('d')``
  distance and ``array('i')`` predecessor rows.  Without scipy a
  pure-Python Dijkstra fills each kernel router's row the first time a
  route needs it.
* **A route composes the pieces.**  It climbs from the source router to
  where its pendant tree attaches, leaves its chain by the best of at
  most 2 x 2 exits (``offset + D[a][b] + offset``, or the direct
  in-chain path when both ends sit on one chain), expands the kernel
  path from the predecessor rows back into chains, and descends to the
  destination.  Two routers under one attachment meet at their lowest
  common ancestor.  Shortest paths on the generated topologies are
  unique (link latencies are continuous random draws), so the result is
  link for link the path a Dijkstra over the whole graph picks;
  ``tests/test_routing.py`` holds that per-source Dijkstra as the
  oracle.
* **Interned router-level paths.**  The link tuple between a pair of
  edge routers is materialized once (the reverse pair reverses it) and
  shared by every host pair attached to those routers (16,000 hosts
  share ~4,000 routers, so most host routes are an access-link sandwich
  around an already-built core).
* **Lazy, lean ``Route`` objects.**  A route stores the shared core
  tuple plus its two access links; the flat ``links`` tuple is only
  materialized when someone asks for it (experiments reporting Fig 11
  hop counts — never the send hot path).

``Route.current_loss``/``current_latency`` serve cached values validated
against the topology's generation counter instead of re-walking the link
list on every transmission; see :class:`Route`.
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.net.address import NodeId
from repro.net.topology import Link, Topology

try:  # Gated accelerator: one C call computes every kernel row, and its
    # predecessors equal the pure-Python implementation's whenever
    # shortest paths are unique (always, for the generated topologies —
    # link latencies are continuous random draws).  Environments without
    # scipy (e.g. the minimal CI image) fall back transparently.
    import numpy as _np
    from scipy.sparse import csr_matrix as _csr_matrix
    from scipy.sparse.csgraph import dijkstra as _sp_dijkstra
except ImportError:  # pragma: no cover - depends on the environment
    _np = None
    _csr_matrix = None
    _sp_dijkstra = None

_INF = float("inf")
_NONE = -1  # no parent / no predecessor / not a kernel router / no chain


class Route:
    """A resolved host-to-host route.

    State is three pieces: the source host's access link, the shared
    (interned) router-level core path, and the destination host's access
    link.  ``current_loss``/``current_latency`` serve cached values
    validated against the topology's generation counter; the cache
    refreshes the first time it is read after any link mutation (e.g.
    ``set_uniform_loss``), so experiments can still flip loss on after
    routes are cached.
    """

    __slots__ = (
        "src",
        "dst",
        "core",
        "access_src",
        "access_dst",
        "latency_ms",
        "loss_static",
        "_topology",
        "_cache_generation",
        "_cached_latency",
        "_cached_loss",
        "_cached_burst",
    )

    def __init__(
        self,
        src: NodeId,
        dst: NodeId,
        core: Tuple[Link, ...],
        access_src: Link,
        access_dst: Link,
        topology: Optional[Topology] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.core = core
        self.access_src = access_src
        self.access_dst = access_dst
        # Loss captured at build time, for experiments reporting the
        # route's nominal compound loss (Fig 11's derived column).
        latency, loss, burst = self._scan()
        self.latency_ms = latency
        self.loss_static = loss
        self._topology = topology
        self._cache_generation = topology.generation if topology is not None else -1
        self._cached_latency = latency
        self._cached_loss = loss
        self._cached_burst = burst

    @property
    def links(self) -> Tuple[Link, ...]:
        """The full link sequence (access, core..., access).

        Materialized on demand: reporting paths iterate it, the send hot
        path never does.
        """
        return (self.access_src,) + self.core + (self.access_dst,)

    @property
    def hop_count(self) -> int:
        """Number of links traversed (the paper's 'route hops')."""
        return len(self.core) + 2

    def _scan(self) -> Tuple[float, float, Tuple]:
        """(latency, loss, burst-loss models) over the link chain, one pass.

        Accumulation order matches the pre-rewrite flat-list walk exactly
        (access, core..., access), keeping float results bit-identical.
        The burst models come in traversal order: an empty tuple — one
        falsy attribute check on the send hot path — on the overwhelmingly
        common burst-free route.
        """
        access_src = self.access_src
        access_dst = self.access_dst
        total = access_src.latency_ms
        survive = 1.0 - access_src.loss
        models = [] if access_src.burst is None else [access_src.burst]
        for link in self.core:
            total += link.latency_ms
            survive *= 1.0 - link.loss
            if link.burst is not None:
                models.append(link.burst)
        total += access_dst.latency_ms
        survive *= 1.0 - access_dst.loss
        if access_dst.burst is not None:
            models.append(access_dst.burst)
        return total, 1.0 - survive, tuple(models)

    def _refresh_cache(self, generation: int) -> None:
        self._cached_latency, self._cached_loss, self._cached_burst = self._scan()
        self._cache_generation = generation

    def current_loss(self) -> float:
        topology = self._topology
        if topology is None:
            return self._scan()[1]
        generation = topology.generation
        if generation != self._cache_generation:
            self._refresh_cache(generation)
        return self._cached_loss

    def current_latency(self) -> float:
        topology = self._topology
        if topology is None:
            return self._scan()[0]
        generation = topology.generation
        if generation != self._cache_generation:
            self._refresh_cache(generation)
        return self._cached_latency

    def current_burst(self) -> Tuple:
        """Burst models on this route right now (generation-validated)."""
        topology = self._topology
        if topology is None:
            return self._scan()[2]
        generation = topology.generation
        if generation != self._cache_generation:
            self._refresh_cache(generation)
        return self._cached_burst

    def __repr__(self) -> str:
        return (
            f"Route({self.src}->{self.dst}, hops={self.hop_count}, "
            f"latency={self.latency_ms:.1f}ms)"
        )


class _Kernel:
    """The router graph contracted to its kernel (see the module notes).

    Per router: ``attach`` is the router its pendant tree hangs from and
    ``rise`` the links climbing to it (a router left in the graph is its
    own attachment; so is the root of a tree that attaches nowhere).
    ``exits`` lists, for each router left in the graph, its ways onto the
    kernel as ``(kernel index, latency, links out to that kernel router,
    links back in from it)``: one for a kernel router, one per chain end
    for a chain's interior router, which also has ``chain_of``/``pos``
    to find the direct in-chain path.  ``edges[k]`` maps a neighbouring
    kernel index to ``(latency, links from k to it)`` along the lightest
    chain between the two.
    """

    def __init__(self, topo: Topology) -> None:
        n = topo.router_count
        links = [topo.neighbors(r) for r in range(n)]
        self.links = links

        # 1. Pendant trees: prune routers of degree <= 1 until none is left.
        degree = [len(nbrs) for nbrs in links]
        pruned = bytearray(n)
        parent = array("i", [_NONE]) * n
        up: List[Optional[Link]] = [None] * n
        order: List[int] = []
        stack = [r for r in range(n) if degree[r] <= 1]
        while stack:
            router = stack.pop()
            pruned[router] = 1
            order.append(router)
            for neighbor, link in links[router].items():
                if not pruned[neighbor]:
                    parent[router] = neighbor
                    up[router] = link
                    degree[neighbor] -= 1
                    if degree[neighbor] == 1:
                        stack.append(neighbor)
                    break
        attach = array("i", range(n))
        rise: List[Tuple[Link, ...]] = [()] * n
        for router in reversed(order):  # a parent is pruned after its child
            above = parent[router]
            if above != _NONE:
                attach[router] = attach[above]
                rise[router] = (up[router],) + rise[above]
        self.pruned = pruned
        self.attach = attach
        self.rise = rise

        # 2. Chains between the kernel routers (degree != 2 once pruned).
        kernel_of = array("i", [_NONE]) * n
        routers: List[int] = []
        for router in range(n):
            if not pruned[router] and degree[router] != 2:
                kernel_of[router] = len(routers)
                routers.append(router)
        self.kernel_of = kernel_of
        self.routers = routers
        self.exits: List[Tuple] = [()] * n
        self.chain_of = array("i", [_NONE]) * n
        self.pos = array("i", bytes(4 * n))
        self.chains: List[Tuple[Link, ...]] = []
        self.edges: List[Dict[int, Tuple[float, Tuple[Link, ...]]]] = [{} for _ in routers]
        for router in list(routers):
            for neighbor in links[router]:
                if pruned[neighbor] or self.chain_of[neighbor] != _NONE:
                    continue  # a pendant tree, or a chain walked from its far end
                if kernel_of[neighbor] != _NONE and neighbor < router:
                    continue  # a kernel-kernel link, registered from its lower end
                self._walk(router, neighbor)
        # Whatever core router no chain reached lies on a pure cycle; the
        # lowest router of each cycle becomes its kernel router.
        for router in range(n):
            if not pruned[router] and kernel_of[router] == _NONE and self.chain_of[router] == _NONE:
                kernel_of[router] = len(routers)
                routers.append(router)
                self.edges.append({})
                self._walk(router, next(r for r in links[router] if not pruned[r]))
        for k, router in enumerate(routers):
            self.exits[router] = ((k, 0.0, (), ()),)

        size = len(routers)
        self.dist: List[Optional[array]] = [None] * size
        self.pred: List[Optional[array]] = [None] * size
        self.rows = 0

    def _walk(self, start: int, first: int) -> None:
        """Record the chain leaving kernel router ``start`` via ``first``."""
        links, pruned, kernel_of = self.links, self.pruned, self.kernel_of
        interior: List[int] = []
        hops = [links[start][first]]
        previous, current = start, first
        while kernel_of[current] == _NONE:
            interior.append(current)
            step = next(r for r in links[current] if r != previous and not pruned[r])
            hops.append(links[current][step])
            previous, current = current, step
        chain = tuple(hops)
        index = len(self.chains)
        self.chains.append(chain)
        a, b = kernel_of[start], kernel_of[current]
        to_a = 0.0
        for i, router in enumerate(interior, 1):
            to_a += chain[i - 1].latency_ms
            to_b = 0.0
            for link in chain[i:]:
                to_b += link.latency_ms
            self.chain_of[router] = index
            self.pos[router] = i
            self.exits[router] = (
                (a, to_a, chain[i - 1 :: -1], chain[:i]),
                (b, to_b, chain[i:], chain[: i - 1 : -1]),
            )
        if a != b:
            total = 0.0
            for link in chain:
                total += link.latency_ms
            held = self.edges[a].get(b)
            if held is None or total < held[0]:
                self.edges[a][b] = (total, chain)
                self.edges[b][a] = (total, chain[::-1])

    # ------------------------------------------------------------------
    # Kernel distance rows
    # ------------------------------------------------------------------
    def _fill_rows(self, source: int) -> None:
        """Compute ``source``'s row: with scipy, every row in one call."""
        if _sp_dijkstra is None:
            self._fill_row(source)
            return
        size = len(self.routers)
        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        for a, nbrs in enumerate(self.edges):
            for b, (weight, _links) in nbrs.items():
                rows.append(a)
                cols.append(b)
                data.append(weight)
        graph = _csr_matrix((data, (rows, cols)), shape=(size, size))
        dist, pred = _sp_dijkstra(graph, directed=True, return_predecessors=True)
        pred = pred.astype(_np.int32, copy=False)
        for k in range(size):
            row = array("d")
            row.frombytes(dist[k].tobytes())
            self.dist[k] = row
            row = array("i")
            row.frombytes(pred[k].tobytes())
            self.pred[k] = row
        self.rows = size

    def _fill_row(self, source: int) -> None:
        edges = self.edges
        size = len(edges)
        dist = array("d", [_INF]) * size
        pred = array("i", [_NONE]) * size
        dist[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        push, pop = heappush, heappop
        while heap:
            d, node = pop(heap)
            if d > dist[node]:
                continue  # stale entry; the node was finalized cheaper
            for neighbor, (weight, _links) in edges[node].items():
                nd = d + weight
                if nd < dist[neighbor]:
                    dist[neighbor] = nd
                    pred[neighbor] = node
                    push(heap, (nd, neighbor))
        self.dist[source] = dist
        self.pred[source] = pred
        self.rows += 1

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def path(self, src: int, dst: int) -> List[Link]:
        """Links from router src to router dst; raises if unreachable."""
        attach, rise = self.attach, self.rise
        top = attach[src]
        if top == attach[dst]:
            # One pendant tree: meet at the lowest common ancestor, where
            # the two climbs to the attachment start to share links.
            up, down = rise[src], rise[dst]
            i, j = len(up), len(down)
            while i and j and up[i - 1] is down[j - 1]:
                i -= 1
                j -= 1
            path = list(up[:i])
            path.extend(down[j - 1 :: -1] if j else ())
            return path
        path = list(rise[src])
        if not self._core_path(top, attach[dst], path):
            raise ValueError(f"router {dst} unreachable from {src}")
        path.extend(rise[dst][::-1])
        return path

    def _core_path(self, src: int, dst: int, path: List[Link]) -> bool:
        """Append the shortest path between two attachments to ``path``;
        False if there is none."""
        if self.pruned[src] or self.pruned[dst]:
            return False  # the root of a tree that attaches nowhere
        chain_of = self.chain_of
        src_exits, dst_exits = self.exits[src], self.exits[dst]
        best = _INF
        choice = None
        chain = chain_of[src]
        if chain != _NONE and chain == chain_of[dst]:
            best = abs(src_exits[0][1] - dst_exits[0][1])
        dist = self.dist
        for exit_src in src_exits:
            k = exit_src[0]
            row = dist[k]
            if row is None:
                self._fill_rows(k)
                row = dist[k]
            off = exit_src[1]
            for exit_dst in dst_exits:
                d = off + row[exit_dst[0]] + exit_dst[1]
                if d < best:
                    best = d
                    choice = (exit_src, exit_dst)
        if best == _INF:
            return False
        if choice is None:  # the direct in-chain path
            links, i, j = self.chains[chain], self.pos[src], self.pos[dst]
            path.extend(links[i:j] if i < j else links[i - 1 : j - 1 : -1])
            return True
        exit_src, exit_dst = choice
        path.extend(exit_src[2])
        k, end = exit_src[0], exit_dst[0]
        if k != end:
            # Shortest paths are symmetric, so the destination's
            # predecessor row walks the kernel path forwards.
            toward = self.pred[end]
            if toward is None:
                self._fill_rows(end)
                toward = self.pred[end]
            edges = self.edges
            while k != end:
                step = toward[k]
                path.extend(edges[k][step][1])
                k = step
        path.extend(exit_dst[3])
        return True


class RouteTable:
    """Routes over the contracted router graph (built on first use),
    with interned router paths per router pair and host-to-host routes
    per communicating pair."""

    def __init__(self, topology: Topology) -> None:
        self._topo = topology
        self._kernel: Optional[_Kernel] = None
        # (src_router, dst_router) -> interned core link tuple.
        self._core_paths: Dict[Tuple[int, int], Tuple[Link, ...]] = {}
        self._routes: Dict[Tuple[NodeId, NodeId], Route] = {}

    def invalidate(self) -> None:
        """Drop all cached state; call after mutating the topology's
        structure (adding routers/links — loss changes don't need it)."""
        self._kernel = None
        self._core_paths.clear()
        self._routes.clear()

    # ------------------------------------------------------------------
    # Introspection (tests and the scale benchmark)
    # ------------------------------------------------------------------
    @property
    def cached_route_count(self) -> int:
        """Host-pair routes materialized so far (lazy: only pairs that
        actually communicated)."""
        return len(self._routes)

    @property
    def cached_tree_count(self) -> int:
        """Kernel routers whose distance row is computed (all of them
        after the first route when scipy is present; otherwise one per
        kernel router a route has needed)."""
        return 0 if self._kernel is None else self._kernel.rows

    # ------------------------------------------------------------------
    # Router-level paths
    # ------------------------------------------------------------------
    def router_path(self, src_router: int, dst_router: int) -> List[int]:
        """Router sequence from src to dst, inclusive; raises if unreachable."""
        path = [src_router]
        for link in self._core_links(src_router, dst_router):
            path.append(link.b if link.a == path[-1] else link.a)
        return path

    def _core_links(self, src_router: int, dst_router: int) -> Tuple[Link, ...]:
        """Interned link tuple along the shortest path between two routers."""
        if src_router == dst_router:
            return ()
        key = (src_router, dst_router)
        cached = self._core_paths.get(key)
        if cached is not None:
            return cached
        reverse = self._core_paths.get((dst_router, src_router))
        if reverse is not None:
            core = reverse[::-1]
        else:
            kernel = self._kernel
            if kernel is None:
                kernel = self._kernel = _Kernel(self._topo)
            core = tuple(kernel.path(src_router, dst_router))
        self._core_paths[key] = core
        return core

    # ------------------------------------------------------------------
    # Host-to-host routes
    # ------------------------------------------------------------------
    def route(self, src: NodeId, dst: NodeId) -> Route:
        """Host-to-host route (symmetric caching: a->b reverses b->a)."""
        if src == dst:
            raise ValueError("route from a host to itself")
        cached = self._routes.get((src, dst))
        if cached is not None:
            return cached
        topo = self._topo
        reverse = self._routes.get((dst, src))
        if reverse is not None:
            route = Route(
                src,
                dst,
                reverse.core[::-1],
                reverse.access_dst,
                reverse.access_src,
                topo,
            )
        else:
            core = self._core_links(topo.host_router(src), topo.host_router(dst))
            route = Route(
                src, dst, core, topo.access_link(src), topo.access_link(dst), topo
            )
        self._routes[(src, dst)] = route
        return route

    def latency(self, src: NodeId, dst: NodeId) -> float:
        if src == dst:
            return 0.0
        return self.route(src, dst).latency_ms

    def rtt(self, src: NodeId, dst: NodeId) -> float:
        """Round-trip latency (routes are symmetric by construction)."""
        return 2.0 * self.latency(src, dst)
