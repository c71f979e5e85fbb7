"""Per-node SkipNet protocol logic.

An :class:`OverlayNode` owns one host's view of the overlay: its routing
table, its liveness pinging of each distinct neighbor, greedy name-routing
with client upcalls on every hop, and the piggyback/listener hooks the
FUSE layer plugs into (§6.1 of the paper: per-hop upcalls, visible routing
table, both-sides link monitoring, content piggybacked on pings).

A payload provider or ping listener may be registered with a *watched*
mapping (any container of neighbor ids the client keeps current).  The
provider is then asked only for a watched neighbor, and the listener hears
only a non-empty payload or one from a watched neighbor: a client with
nothing on a link is not called for its pings at all.  The lane plane
(``sim/lanes.py``) applies the same rule.
"""

from __future__ import annotations

import itertools
from typing import Callable, Container, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.net.address import NodeId
from repro.net.message import Message
from repro.net.node import Host
from repro.overlay.id_space import NameId, clockwise_between
from repro.overlay.skipnet.config import OverlayConfig
from repro.overlay.skipnet.messages import (
    JoinProbe,
    JoinReply,
    LeaveNotice,
    NeighborUpdate,
    OverlayPayload,
    OverlayPing,
    OverlayPingAck,
    RepairExchange,
    RouteEnvelope,
)
from repro.overlay.skipnet.rings import NodeTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.overlay.skipnet.overlay import SkipNetOverlay

UpcallListener = Callable[[RouteEnvelope, Optional[NodeId], Optional[NodeId], bool], object]
"""(envelope, prev_hop, next_hop, delivered_locally) on every hop.  A
listener returning a truthy value *consumes* the message: forwarding and
local delivery stop (how SV trees intercept subscriptions mid-route)."""

PingListener = Callable[[NodeId, OverlayPayload, bool], None]
"""(neighbor, piggyback_payload, is_ack) on every ping or ack received
(with a watched mapping: only a non-empty payload or a watched sender)."""

PayloadProvider = Callable[[NodeId], Optional[OverlayPayload]]
"""Returns the piggyback payload to attach to a ping toward ``neighbor``
(with a watched mapping: asked only for a watched neighbor)."""

Watched = Optional[Container[NodeId]]
"""The neighbors a hook cares about; ``None`` watches every neighbor."""

FailureListener = Callable[[NodeId, str], None]
"""(neighbor, reason) when this node stops trusting a neighbor; reason is
"timeout", "broken", or "left"."""

#: Shared payload for pings carrying nothing; never mutated (receivers
#: only read piggyback payloads).
_EMPTY_PAYLOAD: OverlayPayload = {}


class OverlayNode:
    """One host's overlay protocol instance."""

    __slots__ = (
        "overlay",
        "host",
        "name",
        "config",
        "joined",
        "table",
        "_ping_nonce",
        "_outstanding_pings",
        "_sweep_timer",
        "_join_timer",
        "_join_attempts",
        "_neighbor_cache",
        "_upcall_listeners",
        "_ping_listeners",
        "_payload_providers",
        "_failure_listeners",
    )

    def __init__(self, overlay: "SkipNetOverlay", host: Host) -> None:
        self.overlay = overlay
        self.host = host
        self.name: NameId = host.name
        self.config: OverlayConfig = overlay.config
        self.joined = False
        self.table: Optional[NodeTable] = None

        self._ping_nonce = itertools.count(1)
        # neighbor NodeId -> (nonce, timeout timer) for the outstanding ping
        self._outstanding_pings: Dict[NodeId, tuple] = {}
        self._sweep_timer = None
        self._join_timer = None
        self._join_attempts = 0
        # (sorted id tuple, id frozenset) resolved from the current table,
        # rebuilt lazily after each set_table.  Safe to cache because name
        # -> host-id registrations only ever grow and every name in a
        # pushed table is registered before the push.
        self._neighbor_cache: Optional[Tuple[Tuple[NodeId, ...], frozenset]] = None

        self._upcall_listeners: List[UpcallListener] = []
        # (hook, watched) pairs.
        self._ping_listeners: List[Tuple[PingListener, Watched]] = []
        self._payload_providers: List[Tuple[PayloadProvider, Watched]] = []
        self._failure_listeners: List[FailureListener] = []

        host.on_crash(self._teardown)
        host.register_handler(OverlayPing, self._on_ping)
        host.register_handler(OverlayPingAck, self._on_ping_ack)
        host.register_handler(RouteEnvelope, self._on_route_envelope)
        host.register_handler(NeighborUpdate, self._on_neighbor_update)
        host.register_handler(LeaveNotice, self._on_leave_notice)
        host.register_handler(JoinProbe, self._on_join_probe)
        host.register_handler(JoinReply, self._on_join_reply)
        host.register_handler(RepairExchange, self._on_repair_exchange)

    # ------------------------------------------------------------------
    # Client hooks (the §6.1 API surface FUSE consumes)
    # ------------------------------------------------------------------
    def register_upcall(self, listener: UpcallListener) -> None:
        self._upcall_listeners.append(listener)

    def register_ping_listener(self, listener: PingListener, watched: Watched = None) -> None:
        self._ping_listeners.append((listener, watched))

    def register_payload_provider(self, provider: PayloadProvider, watched: Watched = None) -> None:
        plane = self.overlay.lane_plane
        if plane is not None:
            # Lanes snapshot payload collection at absorb time, and any
            # lane may hold this node as a neighbor: flush them all.
            plane.flush()
        self._payload_providers.append((provider, watched))

    def register_failure_listener(self, listener: FailureListener) -> None:
        self._failure_listeners.append(listener)

    def neighbors(self) -> Set[NodeId]:
        """Current distinct neighbor hosts (routing table visibility)."""
        return set(self._neighbor_ids())

    def _neighbor_ids(self) -> Tuple[NodeId, ...]:
        """Sorted resolved neighbor ids, cached per pushed table — the
        per-sweep ``resolve``+``sorted`` over the table was a bootstrap
        hot spot at thousands of nodes."""
        cache = self._neighbor_cache
        if cache is not None:
            return cache[0]
        if self.table is None:
            return ()
        resolve = self.overlay.resolve
        out: Set[NodeId] = set()
        for name in self.table.neighbor_names():
            node_id = resolve(name)
            if node_id is not None:
                out.add(node_id)
        ordered = tuple(sorted(out))
        self._neighbor_cache = (ordered, frozenset(ordered))
        return ordered

    def _neighbor_id_set(self) -> frozenset:
        self._neighbor_ids()
        cache = self._neighbor_cache
        return cache[1] if cache is not None else frozenset()

    # ------------------------------------------------------------------
    # Join / leave
    # ------------------------------------------------------------------
    def join(self, bootstrap: Optional[NodeId] = None) -> None:
        """Join the overlay, locating the insertion point via ``bootstrap``
        (a random existing member when omitted)."""
        if self.joined:
            raise RuntimeError(f"{self.name} is already joined")
        self.overlay.register_node(self)
        if self.overlay.member_count == 0:
            self.overlay.complete_join(self)
            self._announce_to_neighbors()
            return
        target = bootstrap if bootstrap is not None else self.overlay.random_member_id()
        if target is None or target == self.host.node_id:
            self.overlay.complete_join(self)
            self._announce_to_neighbors()
            return
        self._join_attempts += 1
        probe = JoinProbe(self.host.node_id, self.name)
        envelope = RouteEnvelope(self.name, probe, origin=self.host.node_id)
        self.host.send(target, envelope, on_fail=lambda *_: self._retry_join())
        self._join_timer = self.host.call_after(
            30_000.0, self._retry_join, label=f"{self.name}:join-timeout"
        )

    def _retry_join(self) -> None:
        if self.joined:
            return
        if self._join_timer is not None:
            self._join_timer.cancel()
        if self._join_attempts >= 3:
            # Bootstrap path is persistently broken; fall back to direct
            # registration so the deployment can make progress.
            self.overlay.complete_join(self)
            self._announce_to_neighbors()
            return
        self.join()

    def _on_join_probe(self, message: Message) -> None:
        probe = message
        if probe.joiner == self.host.node_id:
            return
        self.host.send(probe.joiner, JoinReply())

    def _on_join_reply(self, _message: Message) -> None:
        if self.joined:
            return
        if self._join_timer is not None:
            self._join_timer.cancel()
        self.overlay.complete_join(self)
        self._announce_to_neighbors()

    def _announce_to_neighbors(self) -> None:
        """Tell every routing-table neighbor we exist (NeighborUpdate)."""
        for node_id in self._neighbor_ids():
            self.host.send(node_id, NeighborUpdate(self.name))

    def leave(self) -> None:
        """Graceful departure: notify neighbors, stop pinging."""
        if not self.joined:
            return
        for node_id in self._neighbor_ids():
            self.host.send(node_id, LeaveNotice(self.name))
        self._teardown()
        self.overlay.member_leave(self)

    def _teardown(self) -> None:
        plane = self.overlay.lane_plane
        if plane is not None:
            # Materialize any laned timers first so the cancellation
            # below sees exactly the handles the scalar path would hold.
            plane.eject_node(self, "teardown")
        self.joined = False
        if self._sweep_timer is not None:
            self._sweep_timer.cancel()
            self._sweep_timer = None
        for _nonce, timer in self._outstanding_pings.values():
            timer.cancel()
        self._outstanding_pings.clear()

    def on_declared_dead(self) -> None:
        """Called by the overlay when some neighbor reported us dead (we
        crashed or were disconnected).  Local state is torn down; a
        recovered process must join() again."""
        self._teardown()

    # ------------------------------------------------------------------
    # Table management (pushed by the overlay coordinator)
    # ------------------------------------------------------------------
    def set_table(self, table: NodeTable) -> None:
        plane = self.overlay.lane_plane
        if plane is not None:
            # A table change is lane-heterogeneous (the neighbor set the
            # lane snapshotted may be stale): back to the scalar path.
            plane.eject_node(self, "table_change")
        self.table = table
        self._neighbor_cache = None
        if not self.joined:
            self.joined = True
            self._schedule_first_sweep()
        # Cancel outstanding pings to nodes that are no longer neighbors.
        # (Outstanding pings are always a subset of the previous table's
        # neighbors, so filtering them against the new set is equivalent
        # to the old-minus-new diff without recomputing the old set.)
        if self._outstanding_pings:
            current = self._neighbor_id_set()
            for node_id in [n for n in self._outstanding_pings if n not in current]:
                self._outstanding_pings.pop(node_id)[1].cancel()

    def _on_neighbor_update(self, _message: Message) -> None:
        # Table contents arrive via the coordinator; the message models
        # the join announcement traffic and needs no further action.
        return

    def _on_leave_notice(self, message: Message) -> None:
        leaver_id = self.overlay.resolve(message.leaver_name)
        if leaver_id is None:
            leaver_id = message.sender
        if leaver_id is not None:
            self._notify_failure(leaver_id, "left")

    def _on_repair_exchange(self, _message: Message) -> None:
        # Repair chatter: the coordinator already recomputed our table;
        # the message exists to model repair traffic volume.
        return

    # ------------------------------------------------------------------
    # Liveness pinging
    # ------------------------------------------------------------------
    def _schedule_first_sweep(self) -> None:
        phase = self.overlay.rng.uniform(0.0, self.config.ping_period_ms)
        # Compressed flash-crowd bootstraps set a floor past the end of
        # the join storm so no node starts probing while most of the
        # crowd is still mid-join (a ping sent at t into a 16k-node storm
        # can time out against a neighbor that simply hasn't joined yet,
        # permanently evicting it).  The floor is expressed as an
        # absolute time; zero (the default) leaves the phase untouched.
        floor_delay = self.overlay.first_sweep_floor_ms - self.overlay.sim.clock.now
        if floor_delay > 0.0:
            phase += floor_delay
        self._sweep_timer = self.host.call_after(phase, self._sweep, label=f"{self.name}:sweep")

    def _sweep(self) -> None:
        if not self.joined:
            return
        plane = self.overlay.lane_plane
        if plane is not None and plane.try_absorb(self):
            # The plane took over this sweep (and every subsequent one
            # until ejection): pings, acks, timeouts, and the reschedule
            # all run as lane micro-events.
            return
        for node_id in self._neighbor_ids():
            self._ping_neighbor(node_id)
        self._sweep_timer = self.host.call_after(
            self.config.ping_period_ms, self._sweep, label=f"{self.name}:sweep"
        )

    def _ping_neighbor(self, node_id: NodeId) -> None:
        if node_id in self._outstanding_pings:
            return  # previous ping still pending; its timer will decide
        nonce = next(self._ping_nonce)
        payload = self._collect_payload(node_id)
        timer = self.host.call_after(
            self.config.ping_timeout_ms,
            lambda: self._on_ping_timeout(node_id, nonce),
            label=f"{self.name}:ping-timeout",
        )
        self._outstanding_pings[node_id] = (nonce, timer)
        self.host.send(
            node_id,
            OverlayPing(nonce, payload),
            on_fail=lambda *_: self._on_ping_broken(node_id, nonce),
        )

    def _collect_payload(self, neighbor: NodeId) -> OverlayPayload:
        # Most pings carry nothing (no shared FUSE groups on the link);
        # those share one empty dict instead of allocating per ping.
        providers = self._payload_providers
        if len(providers) == 1:
            # Standard wiring (just the FUSE provider): no merge needed,
            # so the provider's dict rides as-is.  Payload dicts are
            # read-only downstream.
            provider, watched = providers[0]
            if watched is not None and neighbor not in watched:
                return _EMPTY_PAYLOAD
            contribution = provider(neighbor)
            return contribution if contribution else _EMPTY_PAYLOAD
        payload: Optional[OverlayPayload] = None
        for provider, watched in providers:
            if watched is not None and neighbor not in watched:
                continue
            contribution = provider(neighbor)
            if contribution:
                if payload is None:
                    payload = {}
                payload.update(contribution)
        return payload if payload is not None else _EMPTY_PAYLOAD

    def _on_ping(self, message: Message) -> None:
        ping = message
        sender = ping.sender
        if sender is None:
            return
        ack_payload = self._collect_payload(sender)
        self.host.send(sender, OverlayPingAck(ping.nonce, ack_payload))
        payload = ping.payload
        for listener, watched in self._ping_listeners:
            if payload or watched is None or sender in watched:
                listener(sender, payload, False)

    def _on_ping_ack(self, message: Message) -> None:
        ack = message
        sender = ack.sender
        if sender is None:
            return
        pending = self._outstanding_pings.get(sender)
        if pending is not None and pending[0] == ack.nonce:
            pending[1].cancel()
            del self._outstanding_pings[sender]
        payload = ack.payload
        for listener, watched in self._ping_listeners:
            if payload or watched is None or sender in watched:
                listener(sender, payload, True)

    def _on_ping_timeout(self, node_id: NodeId, nonce: int) -> None:
        pending = self._outstanding_pings.get(node_id)
        if pending is None or pending[0] != nonce:
            return
        del self._outstanding_pings[node_id]
        self._suspect(node_id, "timeout")

    def _on_ping_broken(self, node_id: NodeId, nonce: int) -> None:
        pending = self._outstanding_pings.get(node_id)
        if pending is not None and pending[0] == nonce:
            pending[1].cancel()
            del self._outstanding_pings[node_id]
        self._suspect(node_id, "broken")

    def _suspect(self, node_id: NodeId, reason: str) -> None:
        """A neighbor stopped responding: tell clients, repair the table."""
        if not self.joined:
            return
        name = self.overlay.name_of(node_id)
        self._notify_failure(node_id, reason)
        if name is None:
            return
        # Repair chatter toward a few live neighbors (Fig 10's churn cost).
        others = [n for n in self._neighbor_ids() if n != node_id]
        for peer in others[: self.config.repair_fanout]:
            self.host.send(peer, RepairExchange(name))
        self.overlay.report_dead(name)

    def _notify_failure(self, node_id: NodeId, reason: str) -> None:
        for listener in self._failure_listeners:
            listener(node_id, reason)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, dest_name: NameId, payload: Message) -> None:
        """Route ``payload`` toward ``dest_name`` through the overlay."""
        if not self.joined:
            raise RuntimeError(f"{self.name} cannot route before joining")
        envelope = RouteEnvelope(dest_name, payload, origin=self.host.node_id)
        self._forward(envelope, prev_hop=None)

    def next_hop_name(self, dest_name: NameId) -> Optional[NameId]:
        """The neighbor this node would forward a message for ``dest_name``
        to, or None when this node is the terminal hop.  Exposed because
        the paper requires the routing table to be visible to clients."""
        if self.table is None or dest_name == self.name:
            return None
        best: Optional[NameId] = None
        for candidate in self.table.neighbor_names():
            if not clockwise_between(self.name, candidate, dest_name):
                continue
            if best is None or clockwise_between(best, candidate, dest_name):
                best = candidate
        return best

    def _on_route_envelope(self, message: Message) -> None:
        envelope = message
        self._forward(envelope, prev_hop=envelope.sender)

    def _forward(self, envelope: RouteEnvelope, prev_hop: Optional[NodeId]) -> None:
        if envelope.hop_count >= self.config.max_route_hops:
            self.overlay.sim.metrics.counter("overlay.route_drops").increment()
            return
        next_name = self.next_hop_name(envelope.dest_name) if self.joined else None
        next_id = self.overlay.resolve(next_name) if next_name is not None else None
        delivered = next_id is None
        consumed = False
        for listener in self._upcall_listeners:
            if listener(envelope, prev_hop, next_id, delivered):
                consumed = True
        if consumed:
            return
        if delivered:
            self._deliver_locally(envelope)
            return
        envelope.hop_count += 1
        self.host.send(
            next_id,
            envelope,
            on_fail=lambda *_: self._on_forward_broken(envelope, prev_hop, next_id),
        )

    def _on_forward_broken(self, envelope: RouteEnvelope, prev_hop: Optional[NodeId], next_id: NodeId) -> None:
        """The link to the chosen next hop broke: suspect it and retry once
        with the repaired table."""
        self._suspect(next_id, "broken")
        retry_name = self.next_hop_name(envelope.dest_name) if self.joined else None
        if retry_name is None:
            self._deliver_locally(envelope)
            return
        retry_id = self.overlay.resolve(retry_name)
        if retry_id is None or retry_id == next_id:
            self.overlay.sim.metrics.counter("overlay.route_drops").increment()
            return
        self.host.send(retry_id, envelope)

    def _deliver_locally(self, envelope: RouteEnvelope) -> None:
        """Terminal hop: hand the payload to the local protocol stack.

        The envelope may terminate here even though ``dest_name`` names a
        different (departed) node — the local handler decides what an
        inexact delivery means (for InstallChecking it triggers repair).
        """
        payload = envelope.payload
        payload.sender = envelope.origin
        self.host.deliver(payload)

    def __repr__(self) -> str:
        state = "joined" if self.joined else "detached"
        return f"OverlayNode({self.name}, {state})"
