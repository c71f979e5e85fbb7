"""Deployment coordinator: membership registry and table distribution.

The coordinator plays the role of SkipNet's decentralized neighbor-search
machinery: it knows the current membership, computes each node's R-table
and leaf set from the ring structure, and pushes updated tables to the
nodes a membership change affects.  Everything time- and failure-related —
pings, timeouts, routing, upcalls, repair traffic — happens peer-to-peer
between :class:`repro.overlay.skipnet.node.OverlayNode` instances; the
coordinator performs no message delivery and is consulted only on
membership change (join, leave, detected death).

This is the simulation substitution documented in docs/ARCHITECTURE.md: pointer
*placement* is oracle-computed, pointer *liveness* is protocol-measured.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.address import NodeId
from repro.net.network import Network
from repro.net.node import Host
from repro.overlay.id_space import NameId
from repro.overlay.skipnet.config import OverlayConfig
from repro.overlay.skipnet.node import OverlayNode
from repro.overlay.skipnet.rings import RingStructure
from repro.sim.kernel import Simulator


class SkipNetOverlay:
    """A SkipNet deployment over a simulated network."""

    def __init__(self, sim: Simulator, network: Network, config: Optional[OverlayConfig] = None) -> None:
        self.sim = sim
        self.network = network
        self.config = config or OverlayConfig()
        self.rng = sim.rng.stream("overlay")
        self.rings = RingStructure(
            self.config.base, self.config.numeric_digits, self.config.leaf_set_half
        )
        self._nodes: Dict[NameId, OverlayNode] = {}
        self._id_by_name: Dict[NameId, NodeId] = {}
        self._name_by_id: Dict[NodeId, NameId] = {}
        #: optional liveness-lane plane (repro.sim.lanes.LanePlane); the
        #: world installs it so OverlayNode sweeps can be absorbed.
        self.lane_plane = None
        #: absolute time before which no first sweep may fire; set by
        #: compressed flash-crowd bootstraps (see FuseWorld.bootstrap).
        self.first_sweep_floor_ms = 0.0

    # ------------------------------------------------------------------
    # Node lifecycle
    # ------------------------------------------------------------------
    def create_node(self, host: Host) -> OverlayNode:
        """Instantiate the overlay protocol on ``host`` (does not join)."""
        if host.name in self._nodes:
            raise ValueError(f"overlay node for {host.name} already exists")
        node = OverlayNode(self, host)
        self._nodes[node.name] = node
        self._id_by_name[node.name] = host.node_id
        self._name_by_id[host.node_id] = node.name
        return node

    def register_node(self, node: OverlayNode) -> None:
        """Idempotent pre-join registration (name <-> host id maps)."""
        self._nodes[node.name] = node
        self._id_by_name[node.name] = node.host.node_id
        self._name_by_id[node.host.node_id] = node.name

    def complete_join(self, node: OverlayNode) -> None:
        """Insert the node into the rings and push affected tables.

        If the node is still in the rings (a crashed process restarting
        before any neighbor noticed), re-pushing its table is enough to
        restart its liveness sweeping.
        """
        if node.name in self.rings:
            self._push_table(node.name)
            return
        affected = self.rings.add(node.name)
        self._push_table(node.name)
        for name in sorted(affected):
            self._push_table(name)

    def member_leave(self, node: OverlayNode) -> None:
        self._remove_member(node.name)

    def report_dead(self, name: NameId) -> None:
        """A peer detected ``name`` as unresponsive; drop it from the rings.

        Idempotent — every neighbor of a crashed node will eventually
        report it.
        """
        self._remove_member(name)

    def _remove_member(self, name: NameId) -> None:
        if name not in self.rings:
            return
        affected = self.rings.remove(name)
        node = self._nodes.get(name)
        if node is not None:
            node.on_declared_dead()
        for other in sorted(affected):
            self._push_table(other)

    def _push_table(self, name: NameId) -> None:
        node = self._nodes.get(name)
        if node is None or name not in self.rings:
            return
        host = node.host
        if not host.alive:
            return
        table = self.rings.table_for(name)
        if node.joined:  # a joined node holds a table
            current = node.table
            if (
                current.leaf_set == table.leaf_set
                and current.ring_neighbors == table.ring_neighbors
            ):
                return  # nothing changed: keep the node (and its lane) as it is
        node.set_table(table)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    @property
    def member_count(self) -> int:
        return len(self.rings)

    def members(self) -> List[NameId]:
        return self.rings.members()

    def is_member(self, name: NameId) -> bool:
        return name in self.rings

    def node(self, name: NameId) -> OverlayNode:
        return self._nodes[name]

    def resolve(self, name: NameId) -> Optional[NodeId]:
        """Host id for an overlay name, or None if unknown."""
        return self._id_by_name.get(name)

    def name_of(self, node_id: NodeId) -> Optional[NameId]:
        return self._name_by_id.get(node_id)

    def random_member_id(self) -> Optional[NodeId]:
        members = self.rings.members()
        if not members:
            return None
        return self._id_by_name[self.rng.choice(members)]

    # ------------------------------------------------------------------
    # Global-view helpers (tests and experiment bookkeeping only)
    # ------------------------------------------------------------------
    def overlay_route(self, src_name: NameId, dst_name: NameId) -> List[NameId]:
        """The node sequence a message from src to dst traverses right now.

        Uses each hop's own next_hop_name decision, so it is exactly what
        routing would do; experiments use it to find a group's delegates
        without sending messages.
        """
        path = [src_name]
        current = src_name
        for _ in range(self.config.max_route_hops):
            node = self._nodes.get(current)
            if node is None:
                break
            nxt = node.next_hop_name(dst_name)
            if nxt is None:
                break
            path.append(nxt)
            current = nxt
        return path

    def average_neighbor_count(self) -> float:
        members = self.rings.members()
        if not members:
            return 0.0
        total = sum(len(self._nodes[m].neighbors()) for m in members)
        return total / len(members)

    def __repr__(self) -> str:
        return f"SkipNetOverlay(members={self.member_count})"
