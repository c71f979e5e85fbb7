"""Router-level topology with per-link latency and loss.

A topology is an undirected graph whose vertices are *routers* plus a set
of *hosts*, each attached to one router by an access link.  Links carry a
one-way latency (ms), a nominal bandwidth tag (OC3/T3/access/intra-AS —
kept for reporting; the simulator, like the paper's, does not model
bandwidth contention), and a loss probability applied independently per
traversal.

End-to-end properties of a route are derived here:

* latency = sum of link latencies along the route;
* loss    = 1 - prod(1 - link_loss) — this is exactly the model behind
  the paper's Fig 11 (0.4 %/0.8 %/1.6 % per-link loss compounding over a
  median 15-hop route into 5.8 %/11.4 %/21.5 % route loss).

On top of the memoryless per-link ``loss``, a link may carry a stateful
:class:`GilbertElliott` burst model (``link.burst``), giving *correlated*
loss runs: a route drops packets back to back while any of its links sits
in the bad state.  Bursts are the adversarial counterpart to Fig 12's
false-positive analysis — the same average loss rate, concentrated,
defeats retransmission far more often than independent drops do.
Bandwidth-contention and latency-inflation windows are node-scoped and
live in :mod:`repro.net.faults`, not on links.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.net.address import NodeId


def _validate_probability(value: float, what: str, inclusive: bool = False) -> float:
    """Reject NaN and out-of-range probabilities with a clear error."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise TypeError(f"{what} must be a number, got {value!r}") from None
    if math.isnan(value):
        raise ValueError(f"{what} must not be NaN")
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{what} must be in [0, 1]: {value}")
    elif not 0.0 <= value < 1.0:
        raise ValueError(f"{what} must be in [0, 1): {value}")
    return value


class GilbertElliott:
    """Stateful two-state (good/bad) per-link loss model.

    The classic Gilbert-Elliott channel: the link flips between a *good*
    state (loss ``loss_good``, usually 0) and a *bad* state (loss
    ``loss_bad``) with per-packet transition probabilities ``p_g2b`` and
    ``p_b2g``.  Small ``p_b2g`` values yield long correlated loss bursts —
    the adversarial regime for Fig 12's false-positive bound, because a
    burst outlasting the retransmission budget breaks connections that a
    memoryless loss process of the same average rate would spare.

    ``sample`` consumes exactly **two** RNG draws per traversal regardless
    of state (drop-given-state, then transition), so the draw count — and
    with it the determinism contract of everything downstream — does not
    depend on the chain's trajectory.
    """

    __slots__ = ("p_g2b", "p_b2g", "loss_good", "loss_bad", "bad")

    def __init__(
        self,
        p_g2b: float,
        p_b2g: float,
        loss_good: float = 0.0,
        loss_bad: float = 0.35,
        start_bad: bool = False,
    ) -> None:
        self.p_g2b = _validate_probability(p_g2b, "p_g2b", inclusive=True)
        self.p_b2g = _validate_probability(p_b2g, "p_b2g", inclusive=True)
        self.loss_good = _validate_probability(loss_good, "loss_good")
        self.loss_bad = _validate_probability(loss_bad, "loss_bad")
        self.bad = bool(start_bad)

    def sample(self, rng) -> bool:
        """Advance the chain one packet; return True if the packet drops."""
        if self.bad:
            drop = rng.random() < self.loss_bad
            if rng.random() < self.p_b2g:
                self.bad = False
        else:
            drop = rng.random() < self.loss_good
            if rng.random() < self.p_g2b:
                self.bad = True
        return drop

    def __repr__(self) -> str:
        state = "bad" if self.bad else "good"
        return (
            f"GilbertElliott(p_g2b={self.p_g2b}, p_b2g={self.p_b2g}, "
            f"loss_good={self.loss_good}, loss_bad={self.loss_bad}, state={state})"
        )


class LinkKind(enum.Enum):
    """Nominal link classes from the paper's ModelNet configuration."""

    OC3 = "oc3"          # inter-AS, 10-40 ms, 155 Mbps
    T3 = "t3"            # inter-AS, 300-500 ms, 45 Mbps
    INTRA_AS = "intra"   # router-to-router inside one AS, sub-ms
    ACCESS = "access"    # host to edge router


class Link:
    """One undirected router-level link."""

    __slots__ = ("a", "b", "latency_ms", "kind", "loss", "burst")

    def __init__(self, a: int, b: int, latency_ms: float, kind: LinkKind, loss: float = 0.0) -> None:
        if latency_ms < 0:
            raise ValueError(f"negative link latency: {latency_ms}")
        self.a = a
        self.b = b
        self.latency_ms = latency_ms
        self.kind = kind
        self.loss = _validate_probability(loss, "link loss")
        #: optional stateful burst-loss model (GilbertElliott) layered on
        #: top of the memoryless ``loss``; None on the idle/default path.
        self.burst: Optional[GilbertElliott] = None

    def endpoints(self) -> Tuple[int, int]:
        return (self.a, self.b)

    def __repr__(self) -> str:
        return (
            f"Link({self.a}<->{self.b}, {self.latency_ms:.1f}ms, "
            f"{self.kind.value}, loss={self.loss:.4f})"
        )


def _edge_key(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a <= b else (b, a)


class Topology:
    """Mutable router graph plus host attachments."""

    def __init__(self) -> None:
        self._adjacency: Dict[int, Dict[int, Link]] = {}
        self._links: Dict[Tuple[int, int], Link] = {}
        self._host_router: Dict[NodeId, int] = {}
        self._host_access: Dict[NodeId, Link] = {}
        self._next_router = 0
        self._generation = 0

    @property
    def generation(self) -> int:
        """Counter bumped on every link mutation.

        Cached route properties (:meth:`repro.net.routing.Route.current_loss`
        and friends) compare against this to decide whether their snapshot
        is still valid.  Code that mutates a :class:`Link` directly —
        rather than through :meth:`set_uniform_loss`/:meth:`set_link_loss`
        or the construction API — must call :meth:`touch` afterwards.
        """
        return self._generation

    def touch(self) -> None:
        """Invalidate link-derived caches after a direct Link mutation."""
        self._generation += 1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_router(self) -> int:
        router = self._next_router
        self._next_router += 1
        self._adjacency[router] = {}
        return router

    def add_link(self, a: int, b: int, latency_ms: float, kind: LinkKind, loss: float = 0.0) -> Link:
        if a == b:
            raise ValueError(f"self-loop link on router {a}")
        for router in (a, b):
            if router not in self._adjacency:
                raise KeyError(f"unknown router: {router}")
        key = _edge_key(a, b)
        if key in self._links:
            raise ValueError(f"duplicate link {a}<->{b}")
        link = Link(a, b, latency_ms, kind, loss)
        self._links[key] = link
        self._adjacency[a][b] = link
        self._adjacency[b][a] = link
        self._generation += 1
        return link

    def attach_host(self, host: NodeId, router: int, access_latency_ms: float = 1.0) -> None:
        """Attach ``host`` to ``router`` with a dedicated access link."""
        if router not in self._adjacency:
            raise KeyError(f"unknown router: {router}")
        if host in self._host_router:
            raise ValueError(f"host {host} already attached")
        self._host_router[host] = router
        self._host_access[host] = Link(-1 - host, router, access_latency_ms, LinkKind.ACCESS)
        self._generation += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def router_count(self) -> int:
        return len(self._adjacency)

    @property
    def link_count(self) -> int:
        return len(self._links)

    def routers(self) -> Iterable[int]:
        return self._adjacency.keys()

    def hosts(self) -> Iterable[NodeId]:
        return self._host_router.keys()

    def host_router(self, host: NodeId) -> int:
        return self._host_router[host]

    def access_link(self, host: NodeId) -> Link:
        return self._host_access[host]

    def neighbors(self, router: int) -> Dict[int, Link]:
        return self._adjacency[router]

    def link_between(self, a: int, b: int) -> Optional[Link]:
        return self._links.get(_edge_key(a, b))

    def links(self) -> Iterable[Link]:
        return self._links.values()

    # ------------------------------------------------------------------
    # Loss configuration
    # ------------------------------------------------------------------
    def set_uniform_loss(self, loss: float, kinds: Optional[Sequence[LinkKind]] = None) -> None:
        """Apply ``loss`` to every link (optionally filtered by kind).

        This is how the Fig 11/12 experiments turn on per-link drops after
        the groups are created ("We then enabled losses...").
        """
        loss = _validate_probability(loss, "loss")
        wanted = set(kinds) if kinds is not None else None
        for link in self._links.values():
            if wanted is None or link.kind in wanted:
                link.loss = loss
        for link in self._host_access.values():
            if wanted is None or link.kind in wanted:
                link.loss = loss
        self._generation += 1

    def set_link_loss(self, link: Link, loss: float) -> None:
        """Set one link's loss probability, invalidating route caches."""
        link.loss = _validate_probability(loss, "link loss")
        self._generation += 1

    # ------------------------------------------------------------------
    # Correlated (bursty) loss configuration
    # ------------------------------------------------------------------
    def set_link_burst(self, link: Link, model: Optional[GilbertElliott]) -> None:
        """Install (or with ``None`` remove) a stateful burst-loss model on
        one link, invalidating route caches."""
        if model is not None and not isinstance(model, GilbertElliott):
            raise TypeError(f"burst model must be GilbertElliott or None, got {model!r}")
        link.burst = model
        self._generation += 1

    def set_uniform_burst(
        self,
        p_g2b: float,
        p_b2g: float,
        loss_good: float = 0.0,
        loss_bad: float = 0.35,
        kinds: Optional[Sequence[LinkKind]] = None,
    ) -> int:
        """Install an independent Gilbert-Elliott chain on every link
        (optionally filtered by kind), including host access links.

        Each link gets its *own* chain instance — bursts on different
        links are uncorrelated, as on real paths.  Returns the number of
        links affected.  Validation happens once, in the model constructor.
        """
        wanted = set(kinds) if kinds is not None else None
        count = 0
        for link in self._links.values():
            if wanted is None or link.kind in wanted:
                link.burst = GilbertElliott(p_g2b, p_b2g, loss_good, loss_bad)
                count += 1
        for link in self._host_access.values():
            if wanted is None or link.kind in wanted:
                link.burst = GilbertElliott(p_g2b, p_b2g, loss_good, loss_bad)
                count += 1
        self._generation += 1
        return count

    def clear_burst(self) -> int:
        """Remove every burst-loss model; returns how many were removed."""
        count = 0
        for link in self._links.values():
            if link.burst is not None:
                link.burst = None
                count += 1
        for link in self._host_access.values():
            if link.burst is not None:
                link.burst = None
                count += 1
        self._generation += 1
        return count

    @property
    def burst_link_count(self) -> int:
        burst = sum(1 for link in self._links.values() if link.burst is not None)
        burst += sum(1 for link in self._host_access.values() if link.burst is not None)
        return burst

    def burst_snapshot(self) -> Dict[Tuple[str, object], Tuple[float, float, float, float, bool]]:
        """Detached copy of every link's burst-chain configuration *and*
        chain state (the good/bad bit), router and host-access links both.

        Burst chains live on the topology, not the fault injector, so
        :meth:`repro.net.faults.FaultInjector.snapshot` alone cannot
        round-trip a world that combines (say) gray failure with bursty
        loss — pass the topology to it, or use this pair directly."""
        out: Dict[Tuple[str, object], Tuple[float, float, float, float, bool]] = {}
        for key, link in self._links.items():
            model = link.burst
            if model is not None:
                out[("link", key)] = (
                    model.p_g2b, model.p_b2g, model.loss_good, model.loss_bad, model.bad,
                )
        for host, link in self._host_access.items():
            model = link.burst
            if model is not None:
                out[("access", host)] = (
                    model.p_g2b, model.p_b2g, model.loss_good, model.loss_bad, model.bad,
                )
        return out

    def restore_burst(
        self, snapshot: Dict[Tuple[str, object], Tuple[float, float, float, float, bool]]
    ) -> None:
        """Replace every link's burst model with a prior
        :meth:`burst_snapshot` (links absent from it lose theirs), in one
        generation bump.  Fresh chain instances are built, so restoring
        twice from one snapshot yields independent state."""
        for key, link in self._links.items():
            link.burst = self._burst_from(snapshot.get(("link", key)))
        for host, link in self._host_access.items():
            link.burst = self._burst_from(snapshot.get(("access", host)))
        self._generation += 1

    @staticmethod
    def _burst_from(params) -> Optional[GilbertElliott]:
        if params is None:
            return None
        p_g2b, p_b2g, loss_good, loss_bad, bad = params
        return GilbertElliott(p_g2b, p_b2g, loss_good, loss_bad, start_bad=bad)

    # ------------------------------------------------------------------
    # Route-derived properties
    # ------------------------------------------------------------------
    def route_links(self, host_a: NodeId, host_b: NodeId, router_path: Sequence[int]) -> List[Link]:
        """All links traversed by a host-to-host route over ``router_path``."""
        if host_a == host_b:
            return []
        links: List[Link] = [self._host_access[host_a]]
        for i in range(len(router_path) - 1):
            link = self.link_between(router_path[i], router_path[i + 1])
            if link is None:
                raise ValueError(
                    f"router path broken between {router_path[i]} and {router_path[i + 1]}"
                )
            links.append(link)
        links.append(self._host_access[host_b])
        return links

    @staticmethod
    def path_latency(links: Sequence[Link]) -> float:
        return sum(link.latency_ms for link in links)

    @staticmethod
    def path_loss(links: Sequence[Link]) -> float:
        survive = 1.0
        for link in links:
            survive *= 1.0 - link.loss
        return 1.0 - survive

    def __repr__(self) -> str:
        return (
            f"Topology(routers={self.router_count}, links={self.link_count}, "
            f"hosts={len(self._host_router)})"
        )
