"""Fault injection: crashes, disconnects, partitions, intransitive failures.

FUSE's headline guarantee is delivery of failure notifications under *node
crashes and arbitrary network failures*; this module is where arbitrary
network failures come from.  The fault model matches §3.5 of the paper:

* **crash** — fail-stop process death (the host stops executing);
* **disconnect** — the host keeps running but its network is unreachable
  (how the paper's Fig 9 experiment "disconnected the network on one of
  the 40 physical machines");
* **partition** — the host set is split into groups; traffic crosses
  group boundaries only if explicitly allowed;
* **intransitive connectivity failure** — a specific pair cannot talk
  even though both can reach third parties (§2, §3.4);
* **asymmetric (one-way) failure** — packets from A to B vanish while
  B to A flows normally, the nastiest case of §3.5's "arbitrary network
  failures" (a misconfigured firewall, a half-broken NAT);
* **gray failure** — the node answers liveness pings but silently drops
  inbound application traffic (a wedged application thread behind a
  healthy kernel network stack).  Liveness stays green, so FUSE's ping
  plane never suspects it; detection has to come from the application's
  own request/response timeouts (§3.4's explicit SignalFailure path).
  Consulted by :meth:`repro.net.backends.base.NetworkBackend._gray_drop`
  per message class — liveness messages (``Message.is_liveness``) are exempt;
* **performance faults** — latency-inflation and bandwidth-contention
  windows scoped to a node: all traffic touching it is slowed by a
  multiplicative factor (latency) or its sends serialize more slowly
  (send-overhead factor).  Bad enough factors push round trips past the
  liveness timeout and manufacture Fig 12-style false positives without
  dropping a single packet;
* per-link packet loss lives on the topology itself
  (:meth:`repro.net.topology.Topology.set_uniform_loss`; correlated
  bursts via :meth:`repro.net.topology.Topology.set_uniform_burst`).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.net.address import NodeId


def _validate_factor(factor: float, what: str) -> float:
    try:
        factor = float(factor)
    except (TypeError, ValueError):
        raise TypeError(f"{what} must be a number, got {factor!r}") from None
    if math.isnan(factor) or math.isinf(factor) or factor <= 0.0:
        raise ValueError(f"{what} must be a finite positive number: {factor}")
    return factor


class FaultInjector:
    """Mutable fault state consulted by the network on every delivery."""

    def __init__(self) -> None:
        self._crashed: Set[NodeId] = set()
        self._disconnected: Set[NodeId] = set()
        self._blocked_pairs: Set[FrozenSet[NodeId]] = set()
        self._blocked_one_way: Set[Tuple[NodeId, NodeId]] = set()
        #: one-way cuts as (src side, dst side) set pairs — O(sides) to
        #: install at any world size, unlike enumerating |A|x|B| pairs.
        self._one_way_cuts: List[Tuple[FrozenSet[NodeId], FrozenSet[NodeId]]] = []
        self._partition_of: Dict[NodeId, int] = {}
        #: gray-failed nodes: liveness pings flow, inbound application
        #: traffic is dropped at delivery (never on the reachability path,
        #: so can_communicate is deliberately blind to this set).
        self._gray: Set[NodeId] = set()
        #: node -> multiplicative latency factor (> 1 inflates).
        self._latency_factors: Dict[NodeId, float] = {}
        #: node -> multiplicative send-overhead factor (> 1 contends).
        self._send_factors: Dict[NodeId, float] = {}
        #: bumped by every mutator; caches keyed on fault state (the
        #: liveness lanes' can_communicate fast path) compare this.
        self._mutations = 0
        #: True while a gray failure or performance fault is installed:
        #: a packet that can get through may still be slowed or dropped
        #: at delivery.  A plain attribute, kept current by every
        #: mutator, so the networks' per-packet fast path is one load.
        self.shapes_traffic = False

    def _mutated(self) -> None:
        self._mutations += 1
        self.shapes_traffic = bool(self._gray or self._latency_factors or self._send_factors)

    @property
    def mutation_count(self) -> int:
        """Monotone generation counter: changes whenever fault state may
        have changed.  Cheap to poll; never decreases."""
        return self._mutations

    def any_faults(self) -> bool:
        """True when any *reachability* fault is installed — the
        complement is a fast path where ``can_communicate`` is vacuously
        True.  Gray failures and performance faults do not affect
        reachability and are deliberately excluded; poll
        :meth:`is_gray_failed` / :meth:`has_perf_faults` for those."""
        return bool(
            self._crashed
            or self._disconnected
            or self._blocked_pairs
            or self._blocked_one_way
            or self._one_way_cuts
            or self._partition_of
        )

    # ------------------------------------------------------------------
    # Crashes (fail-stop)
    # ------------------------------------------------------------------
    def crash(self, node: NodeId) -> None:
        self._crashed.add(node)
        self._mutated()

    def recover(self, node: NodeId) -> None:
        """Restart a crashed node (the process reinitializes from scratch,
        per the paper's trivial crash-recovery story in §3.6)."""
        self._crashed.discard(node)
        self._mutated()

    def is_crashed(self, node: NodeId) -> bool:
        return node in self._crashed

    @property
    def crashed_nodes(self) -> Set[NodeId]:
        return set(self._crashed)

    # ------------------------------------------------------------------
    # Network disconnects
    # ------------------------------------------------------------------
    def disconnect(self, node: NodeId) -> None:
        self._disconnected.add(node)
        self._mutated()

    def reconnect(self, node: NodeId) -> None:
        self._disconnected.discard(node)
        self._mutated()

    def is_disconnected(self, node: NodeId) -> bool:
        return node in self._disconnected

    # ------------------------------------------------------------------
    # Pairwise (intransitive) failures
    # ------------------------------------------------------------------
    def block_pair(self, a: NodeId, b: NodeId) -> None:
        """Install an intransitive connectivity failure between a and b."""
        if a == b:
            raise ValueError("cannot block a node from itself")
        self._blocked_pairs.add(frozenset((a, b)))
        self._mutated()

    def unblock_pair(self, a: NodeId, b: NodeId) -> None:
        self._blocked_pairs.discard(frozenset((a, b)))
        self._mutated()

    # ------------------------------------------------------------------
    # Asymmetric (one-way) failures
    # ------------------------------------------------------------------
    def block_one_way(self, src: NodeId, dst: NodeId) -> None:
        """Drop packets from ``src`` to ``dst``; ``dst`` to ``src`` still
        flows.  The asymmetric half of an intransitive failure (§3.5)."""
        if src == dst:
            raise ValueError("cannot block a node from itself")
        self._blocked_one_way.add((src, dst))
        self._mutated()

    def unblock_one_way(self, src: NodeId, dst: NodeId) -> None:
        self._blocked_one_way.discard((src, dst))
        self._mutated()

    def block_one_way_sets(self, srcs: Iterable[NodeId], dsts: Iterable[NodeId]) -> None:
        """Drop every packet from any node in ``srcs`` to any node in
        ``dsts``.  Stored as one (side, side) cut — O(|A|+|B|) memory —
        so a one-way partition scales to paper-size worlds instead of
        enumerating |A|x|B| pairs."""
        cut = (frozenset(srcs), frozenset(dsts))
        if cut[0] & cut[1]:
            raise ValueError("one-way cut sides overlap")
        self._one_way_cuts.append(cut)
        self._mutated()

    def unblock_one_way_sets(self, srcs: Iterable[NodeId], dsts: Iterable[NodeId]) -> None:
        cut = (frozenset(srcs), frozenset(dsts))
        self._one_way_cuts = [c for c in self._one_way_cuts if c != cut]
        self._mutated()

    def is_one_way_blocked(self, src: NodeId, dst: NodeId) -> bool:
        if (src, dst) in self._blocked_one_way:
            return True
        return any(src in srcs and dst in dsts for srcs, dsts in self._one_way_cuts)

    def has_link_faults(self) -> bool:
        """Any path-level fault (pair, one-way, partition, gray) installed?
        Used by the notification ledger: with no path faults and no
        crashed/disconnected member, a detection-driven notification is a
        loss-induced false positive (Fig 12).  Gray failures count here
        because a gray node silently eats application traffic routed *to*
        it — collateral detections it causes are not loss artifacts."""
        return bool(
            self._blocked_pairs
            or self._blocked_one_way
            or self._one_way_cuts
            or self._partition_of
            or self._gray
        )

    # ------------------------------------------------------------------
    # Gray failures (liveness green, application traffic blackholed)
    # ------------------------------------------------------------------
    def gray_fail(self, node: NodeId) -> None:
        """The node keeps acking liveness pings but drops every inbound
        application-class message at delivery.  The network consults this
        per message class (:attr:`repro.net.message.Message.is_liveness`):
        transport believes the packet was delivered — no retransmission,
        no broken socket — so only application-level timeouts can see it."""
        self._gray.add(node)
        self._mutated()

    def gray_recover(self, node: NodeId) -> None:
        self._gray.discard(node)
        self._mutated()

    def is_gray_failed(self, node: NodeId) -> bool:
        return node in self._gray

    @property
    def gray_nodes(self) -> Set[NodeId]:
        return set(self._gray)

    # ------------------------------------------------------------------
    # Performance faults (latency inflation / bandwidth contention)
    # ------------------------------------------------------------------
    def inflate_latency(self, node: NodeId, factor: float) -> None:
        """Multiply the propagation latency of every packet to or from
        ``node`` by ``factor``.  Factors from both endpoints compound."""
        self._latency_factors[node] = _validate_factor(factor, "latency factor")
        self._mutated()

    def restore_latency(self, node: NodeId) -> None:
        self._latency_factors.pop(node, None)
        self._mutated()

    def latency_factor(self, a: NodeId, b: NodeId) -> float:
        """Combined latency multiplier for a packet from ``a`` to ``b``."""
        factors = self._latency_factors
        if not factors:
            return 1.0
        return factors.get(a, 1.0) * factors.get(b, 1.0)

    def contend_bandwidth(self, node: NodeId, factor: float) -> None:
        """Multiply ``node``'s per-message send overhead by ``factor``,
        modeling a congested uplink: its sends serialize more slowly and
        its outbound queue backs up."""
        self._send_factors[node] = _validate_factor(factor, "bandwidth contention factor")
        self._mutated()

    def restore_bandwidth(self, node: NodeId) -> None:
        self._send_factors.pop(node, None)
        self._mutated()

    def send_factor(self, node: NodeId) -> float:
        return self._send_factors.get(node, 1.0)

    def has_perf_faults(self) -> bool:
        """Any latency-inflation or bandwidth-contention window active?
        The lane plane refuses to absorb nodes while this holds — inflated
        timing is heterogeneity the batched micro-engine does not model."""
        return bool(self._latency_factors or self._send_factors)

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def partition(self, groups: Iterable[Iterable[NodeId]]) -> None:
        """Split the listed nodes into isolated groups.

        Nodes not mentioned in any group remain unrestricted (they can
        talk to everyone), which models partial partitions.  Calling
        ``partition`` replaces any previous partition.
        """
        self._partition_of.clear()
        for index, group in enumerate(groups):
            for node in group:
                if node in self._partition_of:
                    raise ValueError(f"node {node} appears in two partition groups")
                self._partition_of[node] = index
        self._mutated()

    def heal_partition(self) -> None:
        self._partition_of.clear()
        self._mutated()

    # ------------------------------------------------------------------
    # The one question the network asks
    # ------------------------------------------------------------------
    def can_communicate(self, a: NodeId, b: NodeId) -> bool:
        """True if a packet from ``a`` can currently reach ``b``."""
        if a in self._crashed or b in self._crashed:
            return False
        if a in self._disconnected or b in self._disconnected:
            return False
        if frozenset((a, b)) in self._blocked_pairs:
            return False
        if (a, b) in self._blocked_one_way:
            return False
        if self._one_way_cuts and any(
            a in srcs and b in dsts for srcs, dsts in self._one_way_cuts
        ):
            return False
        pa = self._partition_of.get(a)
        pb = self._partition_of.get(b)
        if pa is not None and pb is not None and pa != pb:
            return False
        return True

    def clear_all(self) -> None:
        """Reset every fault family — reachability, gray, and performance
        — in a single mutation bump, so a heal between fuzz trials or
        scenario phases can never leave a family (a stale one-way cut, a
        forgotten latency window) behind."""
        self._crashed.clear()
        self._disconnected.clear()
        self._blocked_pairs.clear()
        self._blocked_one_way.clear()
        self._one_way_cuts.clear()
        self._partition_of.clear()
        self._gray.clear()
        self._latency_factors.clear()
        self._send_factors.clear()
        self._mutated()

    # ------------------------------------------------------------------
    # Snapshot / restore (fuzz trials, nested fault windows)
    # ------------------------------------------------------------------
    def snapshot(self, topology=None) -> Dict[str, object]:
        """Deep copy of the complete fault state, restorable later.  The
        returned dict is detached: further mutations do not leak into it.

        Pass the world's :class:`repro.net.topology.Topology` to also
        capture per-link burst-chain state (parameters and the good/bad
        bit) — bursty loss lives on the topology, and without it a
        snapshot of a gray-failed world under burst loss silently drops
        the burst half on restore."""
        snap: Dict[str, object] = {
            "crashed": set(self._crashed),
            "disconnected": set(self._disconnected),
            "blocked_pairs": set(self._blocked_pairs),
            "blocked_one_way": set(self._blocked_one_way),
            "one_way_cuts": list(self._one_way_cuts),
            "partition_of": dict(self._partition_of),
            "gray": set(self._gray),
            "latency_factors": dict(self._latency_factors),
            "send_factors": dict(self._send_factors),
        }
        if topology is not None:
            snap["burst"] = topology.burst_snapshot()
        return snap

    def restore(self, snapshot: Dict[str, object], topology=None) -> None:
        """Replace the complete fault state with a prior :meth:`snapshot`,
        in one mutation bump.  Families absent from the snapshot (one
        taken before they existed) reset to empty rather than surviving.

        Pass the same ``topology`` given to :meth:`snapshot` to also
        restore burst-chain state; a topology with no ``burst`` family in
        the snapshot has its chains cleared (reset-absent semantics,
        matching every other family)."""
        self._crashed = set(snapshot.get("crashed", ()))
        self._disconnected = set(snapshot.get("disconnected", ()))
        self._blocked_pairs = set(snapshot.get("blocked_pairs", ()))
        self._blocked_one_way = set(snapshot.get("blocked_one_way", ()))
        self._one_way_cuts = list(snapshot.get("one_way_cuts", ()))
        self._partition_of = dict(snapshot.get("partition_of", {}))
        self._gray = set(snapshot.get("gray", ()))
        self._latency_factors = dict(snapshot.get("latency_factors", {}))
        self._send_factors = dict(snapshot.get("send_factors", {}))
        if topology is not None:
            topology.restore_burst(snapshot.get("burst", {}))
        self._mutated()

    def __repr__(self) -> str:
        return (
            f"FaultInjector(crashed={sorted(self._crashed)}, "
            f"disconnected={sorted(self._disconnected)}, "
            f"blocked_pairs={len(self._blocked_pairs)}, "
            f"blocked_one_way={len(self._blocked_one_way)}, "
            f"one_way_cuts={len(self._one_way_cuts)}, "
            f"partitioned={len(self._partition_of)}, "
            f"gray={sorted(self._gray)}, "
            f"perf={len(self._latency_factors) + len(self._send_factors)})"
        )
