"""The direct-link monitor: FUSE groups checked by direct pings, no overlay.

One monitor runs all three §5.1 alternatives.  Each is three rules
around an optional *hub*:

* **who pings whom** — a member pings the hub; the hub pings every member
  if its topology says so.  With no hub, every member pings every other.
* **who watches whom** — the hub watches every member, a member watches
  the hub; with no hub, every member watches every other.  Silence past
  ``ping_period_ms + ping_timeout_ms``, or a ping or ack that omits the
  group, is failure — unless the group is younger than
  ``FuseConfig.grace_period_ms`` (the §6.3 install/ping race).
* **who relays** — a member that detects or signals a failure tells the
  hub, and the hub tells every other member.  With no hub the member
  tells everyone itself, and nobody relays.

Every node batches the groups it monitors with one peer into one
:class:`AltPing` per ping period.  Ceasing to list a failed group is the
guaranteed propagation path (§3); the HardNotifications are best effort.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.fuse.api import GroupLedger
from repro.fuse.config import FuseConfig
from repro.fuse.core import FuseCore
from repro.fuse.ids import FuseId
from repro.fuse.messages import GroupCreateReply, HardNotification
from repro.fuse.state import FailureHandler
from repro.net.address import NodeId
from repro.net.message import Message
from repro.net.node import Host
from repro.overlay.skipnet.config import OverlayConfig


class Topology(NamedTuple):
    """Where a group's hub sits in one §5.1 alternative.  With neither
    field set there is no hub: all-to-all."""

    hub_is_root: bool = False
    """Direct trees: each group's root is its hub and pings its members."""

    server: Optional[NodeId] = None
    """Central server: this host is every group's hub and pings no one;
    members' pings are all it hears."""

    def hub(self, root: NodeId) -> Optional[NodeId]:
        return root if self.hub_is_root else self.server

    @property
    def stream(self) -> str:
        """RNG stream prefix that phases each node's ping sweep."""
        return "alt-fuse" if self.server is None else "cs-fuse"


ALL_TO_ALL = Topology()
DIRECT_TREE = Topology(hub_is_root=True)


class AltPing(Message):
    """Group liveness probe.  Carries every group id the sender monitors
    jointly with the destination so one message serves all shared groups
    (the same amortization idea as the overlay hash, without an overlay
    to piggyback on)."""

    size_bytes = 96

    def __init__(self, nonce: int = 0, group_ids: Sequence[FuseId] = ()) -> None:
        self.nonce = nonce
        self.group_ids = tuple(group_ids)


class AltPingAck(AltPing):
    """The subset of a ping's groups the acknowledging node holds live."""


class LinkGroup:
    """One node's state for one group under a direct-link topology, with
    the topology's rules resolved for this node."""

    __slots__ = (
        "fuse_id",
        "member_ids",
        "peers",
        "hub",
        "is_root",
        "is_member",
        "pings",
        "deadlines",
        "created_at",
        "handler",
        "pending_create",
    )

    def __init__(
        self, fuse_id: FuseId, member_ids: Sequence[NodeId], topology: Topology,
        self_id: NodeId, now: float, silence_ms: float,
    ) -> None:
        self.fuse_id = fuse_id
        self.member_ids = tuple(member_ids)  # root first
        self.peers = [m for m in self.member_ids if m != self_id]
        self.hub = hub = topology.hub(self.member_ids[0])
        self.is_root = self.member_ids[0] == self_id
        # A central hub outside the group holds delegate-role state.
        self.is_member = self_id in self.member_ids
        # Who pings whom, who watches whom: watched peer -> virtual-time
        # deadline for hearing from them.
        self.pings = hub != self_id or topology.hub_is_root
        watched = self.peers if hub in (None, self_id) else [hub]
        self.deadlines: Dict[NodeId, float] = dict.fromkeys(watched, now + silence_ms)
        self.created_at = now
        self.handler: Optional[FailureHandler] = None
        self.pending_create = None


class DirectLinkFuse(FuseCore):
    """FUSE over direct host links, monitored by one :class:`Topology`."""

    __slots__ = ("topology", "timing", "_nonce", "_sweeping", "_ids_by_name")

    def __init__(
        self,
        host: Host,
        topology: Topology,
        timing: Optional[OverlayConfig] = None,
        config: Optional[FuseConfig] = None,
        ledger: Optional[GroupLedger] = None,
    ) -> None:
        super().__init__(host, config, ledger)
        self.topology = topology
        # Ping period and timeout, with the overlay's §7.1 defaults.
        self.timing = timing or OverlayConfig()
        self._nonce = itertools.count(1)
        self._sweeping = False
        self._ids_by_name: Optional[Dict[str, NodeId]] = None
        host.on_crash(self._on_crash)
        host.register_handler(AltPing, self._on_ping)
        host.register_handler(AltPingAck, self._on_ping_ack)

    def _install(self, fuse_id: FuseId, member_ids: Sequence[NodeId]) -> LinkGroup:
        self._ensure_sweeping()
        return LinkGroup(
            fuse_id, member_ids, self.topology, self.host.node_id,
            self.sim.now, self.timing.liveness_silence_ms,
        )

    def _spread_failure(self, group: LinkGroup, reason: str, sender: Optional[NodeId]) -> None:
        """Who relays: whoever detects or signals tells the hub (with no
        hub, every peer); the hub tells every member but its source."""
        me = self.host.node_id
        if sender is None:
            targets = group.peers if group.hub in (None, me) else [group.hub]
        elif group.hub == me:
            targets = [m for m in group.peers if m != sender]
        else:
            return
        for node in targets:
            self.host.send(node, HardNotification(group.fuse_id, reason))

    # ------------------------------------------------------------------
    # Creation (the blocking fan-out lives in FuseCore)
    # ------------------------------------------------------------------
    def _new_root_state(
        self, fuse_id: FuseId, member_ids: List[NodeId], member_names: List[str]
    ) -> LinkGroup:
        return self._install(fuse_id, [self.host.node_id] + member_ids)

    def _create_contacts(self, group: LinkGroup) -> List[NodeId]:
        if group.hub is None or group.hub in group.member_ids:
            return group.peers
        return group.peers + [group.hub]

    def _on_create_request(self, message: Message) -> None:
        request = message
        if request.fuse_id not in self.groups:
            ids = self._ids_by_name
            if ids is None:
                hosts = self.host.network.hosts()
                ids = self._ids_by_name = {h.name: n for n, h in hosts.items()}
            members = [ids[name] for name in request.member_names]
            self.groups[request.fuse_id] = self._install(request.fuse_id, members)
        self.host.respond(request, GroupCreateReply(request.fuse_id, ok=True))

    # ------------------------------------------------------------------
    # Monitoring loop
    # ------------------------------------------------------------------
    def _ensure_sweeping(self) -> None:
        if self._sweeping:
            return
        self._sweeping = True
        phase = self.sim.rng.stream(f"{self.topology.stream}:{self.host.name}").uniform(
            0.0, self.timing.ping_period_ms
        )
        self.host.call_after(phase, self._sweep)

    def _sweep(self) -> None:
        if not self.groups:
            self._sweeping = False
            return
        now = self.sim.now
        # Expired deadlines first: silence means failure.
        for group in list(self.groups.values()):
            expired = [peer for peer, dl in group.deadlines.items() if dl <= now]
            if expired:
                self._peer_silent(group, expired)
        # One ping per watched peer, covering all shared groups.
        targets: Dict[NodeId, List[FuseId]] = {}
        for group in self.groups.values():
            if group.pings:
                for peer in group.deadlines:
                    targets.setdefault(peer, []).append(group.fuse_id)
        for peer in sorted(targets):
            self.host.send(
                peer,
                AltPing(next(self._nonce), sorted(targets[peer])),
                on_fail=lambda _d, _m, p=peer: self._on_peer_broken(p),
            )
        self.host.call_after(self.timing.ping_period_ms, self._sweep)

    def _on_ping(self, message: Message) -> None:
        ping = message
        sender = ping.sender
        if sender is None:
            return
        # Only acknowledge the groups we still consider live: ceasing to
        # acknowledge a failed group is the propagation mechanism (§3).
        live = [g for g in ping.group_ids if g in self.groups]
        self.host.send(sender, AltPingAck(ping.nonce, live))
        self._heard_from(sender, live)
        # A hub that pings no one learns from the pings themselves that a
        # member has dropped a group.
        listed = set(ping.group_ids)
        for group in list(self.groups.values()):
            if not group.pings and self._disclaimed(group, sender, listed):
                self._peer_silent(group, [sender])

    def _on_ping_ack(self, message: Message) -> None:
        ack = message
        if ack.sender is None:
            return
        self._heard_from(ack.sender, ack.group_ids)
        # Groups we monitor with this peer that the peer did NOT include
        # have been dropped by the peer: they are failing.
        acked = set(ack.group_ids)
        for group in list(self.groups.values()):
            if group.pings and self._disclaimed(group, ack.sender, acked):
                self._peer_silent(group, [ack.sender])

    def _disclaimed(self, group: LinkGroup, peer: NodeId, listed) -> bool:
        """Did watched ``peer`` leave ``group`` out of its ping or ack?  A
        group younger than the grace period may simply not have reached
        the peer yet (§6.3's install/ping race), so that is no failure."""
        return (
            peer in group.deadlines
            and group.fuse_id not in listed
            and not self._in_grace(group)
        )

    def _heard_from(self, peer: NodeId, group_ids: Sequence[FuseId]) -> None:
        deadline = self.sim.now + self.timing.liveness_silence_ms
        for fuse_id in group_ids:
            group = self.groups.get(fuse_id)
            if group is not None and peer in group.deadlines:
                group.deadlines[peer] = deadline

    def _on_peer_broken(self, peer: NodeId) -> None:
        for group in list(self.groups.values()):
            if peer in group.deadlines:
                self._peer_silent(group, [peer])

    def _peer_silent(self, group: LinkGroup, peers: Sequence[NodeId]) -> None:
        self._hard_fail(group, f"silent:{sorted(peers)}")

    def _on_crash(self) -> None:
        self.groups.clear()
        self._sweeping = False
