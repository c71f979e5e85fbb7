"""Shared machinery for the alternative (overlay-free) FUSE topologies.

Each alternative topology is a self-contained FUSE implementation: it
creates groups over direct host links, monitors liveness with its own
ping traffic, and provides the same API and one-way agreement semantics
as the overlay implementation.  The differences — who pings whom, who
forwards notifications — live in the subclasses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.fuse.api import FuseGroup, GroupLedger, ledger_completion
from repro.fuse.ids import FuseId, make_fuse_id
from repro.net.address import NodeId
from repro.net.message import Message
from repro.net.node import Host, RpcReply, RpcRequest

FailureHandler = Callable[[FuseId], None]


@dataclass
class TopologyConfig:
    """Timing knobs for the alternative topologies."""

    ping_period_ms: float = 60_000.0
    ping_timeout_ms: float = 20_000.0
    create_timeout_ms: float = 10_000.0

    @property
    def silence_ms(self) -> float:
        """Silence tolerated before a monitored peer is declared failed —
        one period plus the ping timeout, as in the overlay topology."""
        return self.ping_period_ms + self.ping_timeout_ms


class AltCreateRequest(RpcRequest):
    size_bytes = 256

    def __init__(self, fuse_id: FuseId = "", root: int = -1, member_ids: Sequence[int] = ()) -> None:
        super().__init__()
        self.fuse_id = fuse_id
        self.root = root
        self.member_ids = tuple(member_ids)


class AltCreateReply(RpcReply):
    size_bytes = 64

    def __init__(self, fuse_id: FuseId = "", ok: bool = True) -> None:
        super().__init__()
        self.fuse_id = fuse_id
        self.ok = ok


class AltPing(Message):
    """Group liveness probe.  Carries every group id the sender monitors
    jointly with the destination so one message serves all shared groups
    (the same amortization idea as the overlay hash, without an overlay
    to piggyback on)."""

    size_bytes = 96

    def __init__(self, nonce: int = 0, group_ids: Sequence[FuseId] = ()) -> None:
        self.nonce = nonce
        self.group_ids = tuple(group_ids)


class AltPingAck(Message):
    size_bytes = 96

    def __init__(self, nonce: int = 0, group_ids: Sequence[FuseId] = ()) -> None:
        self.nonce = nonce
        self.group_ids = tuple(group_ids)


class AltNotify(Message):
    """Group failure notification."""

    size_bytes = 128

    def __init__(self, fuse_id: FuseId = "", reason: str = "") -> None:
        self.fuse_id = fuse_id
        self.reason = reason


class AltGroup:
    """One node's state for one group under an alternative topology."""

    __slots__ = ("fuse_id", "root", "member_ids", "handler", "deadlines", "created_at")

    def __init__(self, fuse_id: FuseId, root: NodeId, member_ids: Sequence[NodeId], created_at: float) -> None:
        self.fuse_id = fuse_id
        self.root = root
        self.member_ids = tuple(member_ids)
        self.handler: Optional[FailureHandler] = None
        # Monitored peer -> virtual-time deadline for hearing from them.
        self.deadlines: Dict[NodeId, float] = {}
        self.created_at = created_at

    def peers(self, self_id: NodeId) -> List[NodeId]:
        return [m for m in self.member_ids if m != self_id]


class AlternativeFuseBase:
    """API surface + creation protocol common to all three topologies."""

    def __init__(
        self,
        host: Host,
        config: Optional[TopologyConfig] = None,
        ledger: Optional[GroupLedger] = None,
    ) -> None:
        self.host = host
        self.sim = host.network.sim
        self.config = config or TopologyConfig()
        self.ledger = ledger if ledger is not None else GroupLedger(
            self.sim, host.network.faults
        )
        self.groups: Dict[FuseId, AltGroup] = {}
        self.notifications: Dict[FuseId, str] = {}
        self._nonce = itertools.count(1)
        self._fuse_id_serial = itertools.count(1)
        self._sweeping = False
        host.on_crash(self._on_crash)
        host.register_handler(AltCreateRequest, self._on_create_request)
        host.register_handler(AltPing, self._on_ping)
        host.register_handler(AltPingAck, self._on_ping_ack)
        host.register_handler(AltNotify, self._on_notify)

    # ------------------------------------------------------------------
    # Public API (same three calls as the overlay implementation)
    # ------------------------------------------------------------------
    def create_group(self, members: Sequence[NodeId]) -> FuseGroup:
        """Same contract as :meth:`repro.fuse.service.FuseService.create_group`:
        returns a :class:`FuseGroup` handle."""
        member_ids = [self.host.node_id] + [
            m for m in dict.fromkeys(members) if m != self.host.node_id
        ]
        fuse_id = make_fuse_id(self.host.name, serial=next(self._fuse_id_serial))
        group = AltGroup(fuse_id, self.host.node_id, member_ids, self.sim.now)
        self.groups[fuse_id] = group
        handle = FuseGroup(self, self.ledger, fuse_id, self.host.node_id, member_ids)
        self.ledger.record_create(fuse_id, self.host.node_id, member_ids)
        self.ledger.attach_handle(handle)
        done = ledger_completion(self.ledger, fuse_id)
        self._group_installed(group)
        others = group.peers(self.host.node_id)
        if not others:
            self.sim.schedule_soon(lambda: done(fuse_id, "ok"))
            return handle
        awaiting = set(others)
        failed = [False]

        def on_reply(member: NodeId):
            def inner(_reply) -> None:
                if failed[0]:
                    return
                awaiting.discard(member)
                if not awaiting:
                    done(fuse_id, "ok")

            return inner

        def on_failure(member: NodeId):
            def inner(why: str) -> None:
                if failed[0]:
                    return
                failed[0] = True
                self._create_failed(group, f"member {member} unreachable ({why})")
                done(None, f"member {member} unreachable")

            return inner

        for member in others:
            self.host.rpc(
                member,
                AltCreateRequest(fuse_id, self.host.node_id, member_ids),
                self.config.create_timeout_ms,
                on_reply(member),
                on_failure(member),
            )
        return handle

    def register_failure_handler(self, fuse_id: FuseId, handler: FailureHandler) -> None:
        group = self.groups.get(fuse_id)
        if group is None:
            self.sim.schedule_soon(lambda: handler(fuse_id))
            return
        group.handler = handler

    def signal_failure(self, fuse_id: FuseId) -> None:
        group = self.groups.get(fuse_id)
        if group is None:
            return
        self._propagate_failure(group, "signaled")
        self._fail_group(group, "signaled")

    def live_group_ids(self) -> List[FuseId]:
        return sorted(self.groups)

    # ------------------------------------------------------------------
    # Creation plumbing
    # ------------------------------------------------------------------
    def _on_create_request(self, message: Message) -> None:
        request = message
        if request.fuse_id not in self.groups:
            group = AltGroup(request.fuse_id, request.root, request.member_ids, self.sim.now)
            self.groups[request.fuse_id] = group
            self._group_installed(group)
        self.host.respond(request, AltCreateReply(request.fuse_id, ok=True))

    def _create_failed(self, group: AltGroup, reason: str) -> None:
        for member in group.peers(self.host.node_id):
            self.host.send(member, AltNotify(group.fuse_id, f"create-failed: {reason}"))
        self._fail_group(group, reason)

    # ------------------------------------------------------------------
    # Monitoring loop
    # ------------------------------------------------------------------
    def _ensure_sweeping(self) -> None:
        if self._sweeping:
            return
        self._sweeping = True
        phase = self.sim.rng.stream(f"alt-fuse:{self.host.name}").uniform(
            0.0, self.config.ping_period_ms
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
                self._on_peer_silent(group, expired)
        # One ping per monitored peer, covering all shared groups.
        targets: Dict[NodeId, List[FuseId]] = {}
        for group in self.groups.values():
            for peer in self._monitored_peers(group):
                targets.setdefault(peer, []).append(group.fuse_id)
        for peer in sorted(targets):
            self.host.send(
                peer,
                AltPing(next(self._nonce), sorted(targets[peer])),
                on_fail=lambda _d, _m, p=peer: self._on_peer_broken(p),
            )
        self.host.call_after(self.config.ping_period_ms, self._sweep)

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

    def _on_ping_ack(self, message: Message) -> None:
        ack = message
        if ack.sender is None:
            return
        self._heard_from(ack.sender, ack.group_ids)
        # Groups we monitor with this peer that the peer did NOT include
        # have been dropped by the peer: they are failing.
        acked = set(ack.group_ids)
        for group in list(self.groups.values()):
            if ack.sender in self._monitored_peers(group) and group.fuse_id not in acked:
                self._on_peer_silent(group, [ack.sender])

    def _heard_from(self, peer: NodeId, group_ids: Sequence[FuseId]) -> None:
        deadline = self.sim.now + self.config.silence_ms
        for fuse_id in group_ids:
            group = self.groups.get(fuse_id)
            if group is not None and peer in group.deadlines:
                group.deadlines[peer] = deadline

    def _on_peer_broken(self, peer: NodeId) -> None:
        for group in list(self.groups.values()):
            if peer in self._monitored_peers(group):
                self._on_peer_silent(group, [peer])

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _on_notify(self, message: Message) -> None:
        notify = message
        group = self.groups.get(notify.fuse_id)
        if group is None:
            return
        self._forward_notification(group, notify)
        self._fail_group(group, notify.reason)

    def _fail_group(self, group: AltGroup, reason: str) -> None:
        if self.groups.pop(group.fuse_id, None) is None:
            return
        self.notifications[group.fuse_id] = reason
        self.sim.metrics.counter("altfuse.hard_notifications").increment()
        if group.handler is not None:
            group.handler(group.fuse_id)
        role = "root" if group.root == self.host.node_id else "member"
        self.ledger.notified(group.fuse_id, self.host.node_id, role, reason)

    def _on_crash(self) -> None:
        self.groups.clear()
        self._sweeping = False

    # ------------------------------------------------------------------
    # Topology-specific hooks
    # ------------------------------------------------------------------
    def _group_installed(self, group: AltGroup) -> None:
        """Set up monitoring deadlines for a freshly installed group."""
        raise NotImplementedError

    def _monitored_peers(self, group: AltGroup) -> Set[NodeId]:
        """Which peers this node actively pings for ``group``."""
        raise NotImplementedError

    def _on_peer_silent(self, group: AltGroup, peers: Sequence[NodeId]) -> None:
        """A monitored peer went silent: declare and propagate failure."""
        self._propagate_failure(group, f"silent:{sorted(peers)}")
        self._fail_group(group, f"silent:{sorted(peers)}")

    def _propagate_failure(self, group: AltGroup, reason: str) -> None:
        """Best-effort immediate fan-out; the guaranteed path is ceasing
        to acknowledge the group's pings."""
        raise NotImplementedError

    def _forward_notification(self, group: AltGroup, notify: AltNotify) -> None:
        """Called when an explicit notification arrives, before failing
        locally; topologies that relay (the star) forward it here."""
        raise NotImplementedError
