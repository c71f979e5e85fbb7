"""Worlds: one-call assembly of a complete FUSE deployment.

Everything the paper's testbed provides — a network, a SkipNet overlay
with N virtual nodes, and a FUSE service on each — wired together and
bootstrapped.  :class:`World` is what every deployment shares, the
join schedule of ``bootstrap`` included; the two backends differ only in
the kernel and the network:

* :class:`FuseWorld` — the deterministic simulator over a wide-area
  Mercator topology and a TCP-ish messaging layer;
* :class:`repro.net.backends.liveworld.LiveWorld` — an asyncio loop and
  real UDP sockets on localhost.

Tests, examples, and the experiment harness all start from here::

    world = FuseWorld(n_nodes=400, seed=1)
    world.bootstrap()                      # all nodes join the overlay
    fid, status, latency = world.create_group_sync(0, [5, 9, 13])
    world.net.disconnect_host(9)
    world.run_for_minutes(5)
    assert world.ledger.was_notified(fid, 0)
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fuse.api import FuseGroup, GroupLedger, GroupStatus
from repro.fuse.config import FuseConfig
from repro.fuse.ids import FuseId
from repro.fuse.service import FuseService
from repro.net.address import NodeId
from repro.net.mercator import MercatorConfig, build_mercator_topology
from repro.net.network import Network
from repro.net.node import Host
from repro.net.transport import TransportConfig
from repro.overlay.skipnet.config import OverlayConfig
from repro.overlay.skipnet.node import OverlayNode
from repro.overlay.skipnet.overlay import SkipNetOverlay
from repro.sim.kernel import Simulator
from repro.sim.lanes import LanePlane, resolve_lanes_mode

MINUTE_MS = 60_000.0


class BootstrapShortWarning(RuntimeWarning):
    """:meth:`World.bootstrap` ended with nodes outside the overlay."""


class World:
    """A wired FUSE deployment on a given kernel (``sim``) and network.

    Builds the overlay, the world-wide ledger and one
    ``Host``/``OverlayNode``/``FuseService`` per node id, in that order.
    Subclasses construct the kernel and the network first.
    """

    #: Node count up to which the join schedule uses the classic
    #: 200 ms spacing (every committed fixture and test world is below
    #: this, so their event streams are bit-for-bit unchanged).
    CLASSIC_BOOTSTRAP_MAX_NODES = 400
    #: Target virtual length of the auto-scaled join window at scale.
    AUTO_JOIN_WINDOW_MS = 30_000.0
    #: Floor on auto-scaled join spacing (joins stay staggered, never a
    #: same-instant thundering herd).
    AUTO_JOIN_SPACING_MIN_MS = 2.0

    def __init__(
        self,
        sim,
        net,
        node_ids: List[NodeId],
        overlay_config: Optional[OverlayConfig] = None,
        fuse_config: Optional[FuseConfig] = None,
    ) -> None:
        self.sim = sim
        self.net = net
        self.overlay = SkipNetOverlay(sim, net, overlay_config)
        self.fuse_config = fuse_config or FuseConfig()
        # The world-wide notification ledger: every FuseService records
        # group creations and per-member notifications here, making it
        # the single source of truth for agreement / false-positive /
        # latency accounting (see repro.fuse.api and docs/API.md).
        self.ledger = GroupLedger(sim, net.faults)

        self.node_ids = node_ids
        self.hosts: Dict[NodeId, Host] = {}
        self.overlay_nodes: Dict[NodeId, OverlayNode] = {}
        self.fuse_services: Dict[NodeId, FuseService] = {}
        for node_id in node_ids:
            host = Host(net, node_id, name=f"node-{node_id:05d}")
            overlay_node = self.overlay.create_node(host)
            self.hosts[node_id] = host
            self.overlay_nodes[node_id] = overlay_node
            self.fuse_services[node_id] = FuseService(
                overlay_node, self.fuse_config, ledger=self.ledger
            )

    # ------------------------------------------------------------------
    # Bootstrap and clock control
    # ------------------------------------------------------------------
    def join_interval_ms(self) -> float:
        """The virtual time between two joins in :meth:`bootstrap`.

        200 ms per join — the spacing the paper-scale experiments were
        calibrated with — up to :data:`CLASSIC_BOOTSTRAP_MAX_NODES`.
        Beyond that the schedule is compressed so the whole join storm
        fits in :data:`AUTO_JOIN_WINDOW_MS` of virtual time: at 200 ms a
        16,000-node world would spend 53 virtual *minutes* joining, and
        the liveness sweeps of already-joined nodes during that window
        make bootstrap cost O(n²) pings.  Capping the window (at half a
        ping period — joins complete in well under a second of virtual
        time, so the window models a deployment ramp, not idle steady
        state) keeps it O(n).
        """
        n = len(self.node_ids)
        if n <= self.CLASSIC_BOOTSTRAP_MAX_NODES:
            return 200.0
        return max(self.AUTO_JOIN_SPACING_MIN_MS, self.AUTO_JOIN_WINDOW_MS / n)

    def bootstrap(self, settle_ms: float = 5_000.0) -> None:
        """Join every node into the overlay :meth:`join_interval_ms`
        apart, settle, then wait for stragglers.

        A probe routed into rings that are still churning can dead-end
        (hop-count drop), parking its joiner on the 30 s join-retry timer
        past the settle window, so the world runs on in 1 s steps until
        every node has joined, for at most 60 s: one retry cycle plus
        slack.  A world that joined in full runs no further; one still
        short after the wait raises :class:`BootstrapShortWarning` naming
        the unjoined node ids and adds their number to the
        ``overlay.bootstrap_unjoined`` counter (created only then).
        """
        spacing = self.join_interval_ms()
        start = self.sim.now
        if spacing < 200.0:
            # Compressed flash-crowd regime: hold every node's first
            # liveness sweep until the join storm has ended.  A probe
            # fired mid-storm races thousands of queued joins; at 16k
            # nodes that raced a handful of members clean out of the
            # overlay (the 15,996/16,000 gap).  Classic 200 ms schedules
            # keep the floor at zero so historical event streams stay
            # byte-identical.
            self.overlay.first_sweep_floor_ms = start + len(self.node_ids) * spacing
        plane = self.sim.lane_plane
        if plane is not None:
            # Join storms churn routing tables too fast for lanes to pay
            # off (every table push would eject); absorb only afterward.
            plane.suspend()
        try:
            for index, node_id in enumerate(self.node_ids):
                self.sim.call_at(start + index * spacing, self.overlay_nodes[node_id].join)
            self.sim.run_for(len(self.node_ids) * spacing + settle_ms)
        finally:
            if plane is not None:
                plane.resume()
        deadline = self.sim.now + 60_000.0
        while self.overlay.member_count < len(self.node_ids) and self.sim.now < deadline:
            self.sim.run_for(1_000.0)
        if self.overlay.member_count < len(self.node_ids):
            unjoined = [
                node_id
                for node_id in self.node_ids
                if not self.overlay.is_member(self.overlay_nodes[node_id].name)
            ]
            self.sim.metrics.counter("overlay.bootstrap_unjoined").increment(len(unjoined))
            warnings.warn(
                BootstrapShortWarning(
                    f"bootstrap joined {len(self.node_ids) - len(unjoined)} of "
                    f"{len(self.node_ids)} nodes; unjoined node ids: {unjoined}"
                ),
                stacklevel=2,
            )

    def run_for(self, duration_ms: float) -> None:
        self.sim.run_for(duration_ms)

    def run_for_minutes(self, minutes: float) -> None:
        self.sim.run_for(minutes * MINUTE_MS)

    @property
    def now(self) -> float:
        return self.sim.now

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def fuse(self, node_id: NodeId) -> FuseService:
        return self.fuse_services[node_id]

    def host(self, node_id: NodeId) -> Host:
        return self.hosts[node_id]

    def overlay_node(self, node_id: NodeId) -> OverlayNode:
        return self.overlay_nodes[node_id]

    def alive_node_ids(self) -> List[NodeId]:
        return [nid for nid in self.node_ids if self.hosts[nid].alive]

    # ------------------------------------------------------------------
    # Group creation conveniences
    # ------------------------------------------------------------------
    def create_group(self, root: NodeId, members: Sequence[NodeId]) -> FuseGroup:
        """Start creating a group rooted at ``root`` and return its
        handle (asynchronous — drive the kernel to complete it, or use
        :meth:`create_group_sync`)."""
        return self.fuse(root).create_group(members)

    def create_group_sync(
        self,
        root: NodeId,
        members: Sequence[NodeId],
        max_wait_ms: float = 120_000.0,
    ) -> Tuple[Optional[FuseId], str, float]:
        """Create a group and drive the kernel until creation completes.

        Subscribes the handle's lifecycle callbacks and runs
        ``sim.run_until`` until one fires.  Returns (fuse_id or None,
        status string, creation latency in ms).
        """
        outcome: Dict[str, object] = {}
        started = self.sim.now

        def live(group: FuseGroup) -> None:
            outcome["fuse_id"] = group.fuse_id
            outcome["status"] = "ok"
            outcome["latency"] = self.sim.now - started

        def notified(group: FuseGroup, _reason) -> None:
            if group.status is not GroupStatus.FAILED_CREATE or "status" in outcome:
                return
            outcome["fuse_id"] = None
            outcome["status"] = group.create_failure_reason or "create-failed"
            outcome["latency"] = self.sim.now - started

        self.create_group(root, members).on_live(live).on_notified(notified)
        if not self.sim.run_until(lambda: "status" in outcome, timeout_ms=max_wait_ms):
            return None, "no-completion", self.sim.now - started
        return (
            outcome.get("fuse_id"),  # type: ignore[return-value]
            str(outcome["status"]),
            float(outcome["latency"]),  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    # Fault conveniences
    # ------------------------------------------------------------------
    def crash(self, node_id: NodeId) -> None:
        self.net.crash_host(node_id)

    def disconnect(self, node_id: NodeId) -> None:
        self.net.disconnect_host(node_id)

    def restart(self, node_id: NodeId) -> None:
        """Recover a crashed node and rejoin it into the overlay."""
        self.net.recover_host(node_id)
        node = self.overlay_nodes[node_id]
        if not node.joined:
            node.join()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release backend resources (a simulated world holds none)."""

    def __enter__(self) -> "World":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(nodes={len(self.node_ids)}, "
            f"t={self.sim.now / 1000.0:.1f}s, members={self.overlay.member_count})"
        )


class FuseWorld(World):
    """A fully wired simulated FUSE deployment."""

    def __init__(
        self,
        n_nodes: int = 400,
        seed: int = 0,
        mercator: Optional[MercatorConfig] = None,
        overlay_config: Optional[OverlayConfig] = None,
        fuse_config: Optional[FuseConfig] = None,
        transport: Optional[TransportConfig] = None,
        trace: bool = False,
        liveness_lanes: Optional[object] = None,
    ) -> None:
        sim = Simulator(seed=seed, trace=trace)
        self.mercator = mercator or MercatorConfig.scaled_for_hosts(n_nodes)
        if self.mercator.n_hosts < n_nodes:
            raise ValueError("mercator config has fewer hosts than requested nodes")
        topo, host_ids = build_mercator_topology(self.mercator, sim.rng.stream("topology"))
        self.topology = topo
        super().__init__(
            sim, Network(sim, topo, config=transport), host_ids[:n_nodes],
            overlay_config, fuse_config,
        )

        # Liveness lanes: the batched fast path for steady-state ping
        # traffic (repro.sim.lanes).  ``liveness_lanes`` overrides the
        # REPRO_LIVENESS_LANES environment default ("on").
        self.lanes_mode = resolve_lanes_mode(liveness_lanes)
        if self.lanes_mode == "on":
            plane = LanePlane(self.sim, self.net, self.overlay)
            self.sim.lane_plane = plane
            self.overlay.lane_plane = plane
