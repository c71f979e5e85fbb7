"""Central-server liveness checking (§5.1, third alternative).

One trusted server is the hub for every FUSE group in the deployment
(the paper suggests this fits a data-center deployment).  Each
participating node pings the server once per ping period, listing the
groups it considers live; the server acknowledges with the subset *it*
considers live.  Failure flows in three ways:

* a node falls silent -> the server declares every group it belongs to
  failed and notifies the surviving members;
* a node stops listing a group (it signalled or heard a failure) -> the
  server sees the omission and propagates;
* the server itself falls silent -> each node independently declares all
  of its groups failed (the conservative reading of "the server is the
  single point of trust").

Per-member load is minimal — one ping per period regardless of group
count — but all traffic converges on the server.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence

from repro.fuse.api import FuseGroup, GroupLedger, ledger_completion
from repro.fuse.ids import FuseId, make_fuse_id
from repro.fuse.topologies.base import (
    AltCreateReply,
    AltCreateRequest,
    AltGroup,
    AltNotify,
    TopologyConfig,
)
from repro.net.address import NodeId
from repro.net.message import Message
from repro.net.node import Host

FailureHandler = Callable[[FuseId], None]


class CsRegister(Message):
    """Root -> server: a new group and its membership."""

    size_bytes = 192

    def __init__(self, fuse_id: FuseId = "", member_ids: Sequence[NodeId] = ()) -> None:
        self.fuse_id = fuse_id
        self.member_ids = tuple(member_ids)


class CsPing(Message):
    """Node -> server: I am alive and consider these groups live."""

    size_bytes = 96

    def __init__(self, nonce: int = 0, group_ids: Sequence[FuseId] = ()) -> None:
        self.nonce = nonce
        self.group_ids = tuple(group_ids)


class CsPingAck(Message):
    """Server -> node: the subset of your groups the server holds live."""

    size_bytes = 96

    def __init__(self, nonce: int = 0, group_ids: Sequence[FuseId] = ()) -> None:
        self.nonce = nonce
        self.group_ids = tuple(group_ids)


class CentralServer:
    """The hub process.  Holds the authoritative group membership map and
    the per-node last-heard clock."""

    def __init__(self, host: Host, config: Optional[TopologyConfig] = None) -> None:
        self.host = host
        self.sim = host.network.sim
        self.config = config or TopologyConfig()
        self.group_members: Dict[FuseId, Sequence[NodeId]] = {}
        self._deadline: Dict[NodeId, float] = {}
        self._scanning = False
        host.on_crash(self._on_crash)
        host.register_handler(CsRegister, self._on_register)
        host.register_handler(CsPing, self._on_ping)
        host.register_handler(AltNotify, self._on_notify)

    def _on_register(self, message: Message) -> None:
        reg = message
        self.group_members[reg.fuse_id] = tuple(reg.member_ids)
        deadline = self.sim.now + self.config.silence_ms
        for member in reg.member_ids:
            self._deadline.setdefault(member, deadline)
        self._ensure_scanning()

    def _on_ping(self, message: Message) -> None:
        ping = message
        node = ping.sender
        if node is None:
            return
        self._deadline[node] = self.sim.now + self.config.silence_ms
        live_here = [g for g in ping.group_ids if g in self.group_members]
        self.host.send(node, CsPingAck(ping.nonce, live_here))
        # Groups we hold that the node no longer lists have been dropped
        # on the node's side (explicit signal or heard failure): propagate.
        listed = set(ping.group_ids)
        for fuse_id, members in list(self.group_members.items()):
            if node in members and fuse_id not in listed:
                self._fail_group(fuse_id, f"dropped-by-{node}")

    def _on_notify(self, message: Message) -> None:
        notify = message
        if notify.fuse_id in self.group_members:
            self._fail_group(notify.fuse_id, notify.reason)

    def _ensure_scanning(self) -> None:
        if self._scanning:
            return
        self._scanning = True
        self.host.call_after(self.config.ping_period_ms, self._scan)

    def _scan(self) -> None:
        if not self.group_members:
            self._scanning = False
            return
        now = self.sim.now
        silent = sorted(n for n, dl in self._deadline.items() if dl <= now)
        for node in silent:
            for fuse_id, members in list(self.group_members.items()):
                if node in members:
                    self._fail_group(fuse_id, f"node-{node}-silent")
            del self._deadline[node]
        self.host.call_after(self.config.ping_period_ms, self._scan)

    def _fail_group(self, fuse_id: FuseId, reason: str) -> None:
        members = self.group_members.pop(fuse_id, None)
        if members is None:
            return
        for member in members:
            self.host.send(member, AltNotify(fuse_id, reason))

    def _on_crash(self) -> None:
        self.group_members.clear()
        self._deadline.clear()
        self._scanning = False


class CentralServerFuse:
    """Member-side FUSE API backed by a :class:`CentralServer`."""

    def __init__(
        self,
        host: Host,
        server_id: NodeId,
        config: Optional[TopologyConfig] = None,
        ledger: Optional[GroupLedger] = None,
    ) -> None:
        self.host = host
        self.sim = host.network.sim
        self.server_id = server_id
        self.config = config or TopologyConfig()
        self.ledger = ledger if ledger is not None else GroupLedger(
            self.sim, host.network.faults
        )
        self.groups: Dict[FuseId, AltGroup] = {}
        self.notifications: Dict[FuseId, str] = {}
        self._nonce = itertools.count(1)
        self._fuse_id_serial = itertools.count(1)
        self._pinging = False
        self._server_deadline: Optional[float] = None
        host.on_crash(self._on_crash)
        host.register_handler(AltCreateRequest, self._on_create_request)
        host.register_handler(CsPingAck, self._on_ping_ack)
        host.register_handler(AltNotify, self._on_notify)

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def create_group(self, members: Sequence[NodeId]) -> FuseGroup:
        """Same contract as the overlay implementation: returns a
        :class:`FuseGroup` handle."""
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
        self._ensure_pinging()
        others = [m for m in member_ids if m != self.host.node_id]
        awaiting = set(others)
        failed = [False]

        def finish() -> None:
            self.host.send(self.server_id, CsRegister(fuse_id, member_ids))
            done(fuse_id, "ok")

        if not others:
            self.sim.schedule_soon(finish)
            return handle

        def on_reply(member: NodeId):
            def inner(_reply) -> None:
                if failed[0]:
                    return
                awaiting.discard(member)
                if not awaiting:
                    finish()

            return inner

        def on_failure(member: NodeId):
            def inner(why: str) -> None:
                if failed[0]:
                    return
                failed[0] = True
                for peer in others:
                    self.host.send(peer, AltNotify(fuse_id, "create-failed"))
                self._fail_group(group, f"create-failed: {member} {why}")
                done(None, f"member {member} unreachable ({why})")

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
        self.host.send(self.server_id, AltNotify(fuse_id, "signaled"))
        self._fail_group(group, "signaled")

    def live_group_ids(self) -> List[FuseId]:
        return sorted(self.groups)

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def _on_create_request(self, message: Message) -> None:
        request = message
        if request.fuse_id not in self.groups:
            self.groups[request.fuse_id] = AltGroup(
                request.fuse_id, request.root, request.member_ids, self.sim.now
            )
            self._ensure_pinging()
        self.host.respond(request, AltCreateReply(request.fuse_id, ok=True))

    def _ensure_pinging(self) -> None:
        if self._pinging:
            return
        self._pinging = True
        self._server_deadline = self.sim.now + self.config.silence_ms
        phase = self.sim.rng.stream(f"cs-fuse:{self.host.name}").uniform(
            0.0, self.config.ping_period_ms
        )
        self.host.call_after(phase, self._ping_server)

    def _ping_server(self) -> None:
        if not self.groups:
            self._pinging = False
            self._server_deadline = None
            return
        if self._server_deadline is not None and self._server_deadline <= self.sim.now:
            self._server_silent()
            return
        self.host.send(
            self.server_id,
            CsPing(next(self._nonce), self.live_group_ids()),
            on_fail=lambda *_: self._server_silent(),
        )
        self.host.call_after(self.config.ping_period_ms, self._ping_server)

    def _on_ping_ack(self, message: Message) -> None:
        ack = message
        self._server_deadline = self.sim.now + self.config.silence_ms
        acked = set(ack.group_ids)
        for group in list(self.groups.values()):
            if group.fuse_id not in acked:
                # The server no longer holds this group: it failed.
                self._fail_group(group, "server-disclaimed")

    def _server_silent(self) -> None:
        """The single point of trust is gone: conservatively fail every
        group (we can no longer guarantee notification delivery)."""
        self._pinging = False
        for group in list(self.groups.values()):
            self._fail_group(group, "server-unreachable")

    def _on_notify(self, message: Message) -> None:
        notify = message
        group = self.groups.get(notify.fuse_id)
        if group is not None:
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
        self._pinging = False
        self._server_deadline = None
