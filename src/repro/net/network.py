"""The network: delivers messages between hosts over the topology.

This is the single place where topology latency, per-link loss, TCP-style
retransmission and connection caching, fault state, and per-message CPU
overhead combine.  Protocol layers above see only: ``send`` a message, get
it delivered to the destination's handler, or (if the connection breaks)
get a failure callback — exactly the interface the paper's messaging layer
gives FUSE and SkipNet.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, Optional, Set, Tuple, TYPE_CHECKING

from repro.net.address import NodeId
from repro.net.backends.base import NetworkBackend
from repro.net.faults import FaultInjector
from repro.net.message import Message
from repro.net.routing import RouteTable
from repro.net.topology import Topology
from repro.net.transport import TransportConfig
from repro.sim.kernel import Simulator
from repro.sim.metrics import Counter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.net.node import Host

FailureCallback = Callable[[NodeId, Message], None]


class Network(NetworkBackend):
    """Message fabric connecting :class:`repro.net.node.Host` objects.

    The simulated implementation of the network seam
    (:class:`repro.net.backends.base.NetworkBackend`); the asyncio
    backend's :class:`repro.net.backends.livenet.LiveNetwork` is the
    other."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        config: Optional[TransportConfig] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.routes = RouteTable(topology)
        self.config = config or TransportConfig()
        self.faults = faults or FaultInjector()
        self._hosts: Dict[NodeId, "Host"] = {}
        # Connection pairs are normalized (min, max) tuples: cheaper to
        # build and hash than the frozenset keys they replaced.
        self._connections: Set[Tuple[NodeId, NodeId]] = set()
        self._send_busy_until: Dict[NodeId, float] = {}
        self._rng = sim.rng.stream("net.transport")
        # Hot-path caches: counter objects are resolved once here instead
        # of by-name on every send/delivery (reset_counters() mutates the
        # same objects, so the references stay valid across measurement
        # windows), and event labels are only built when a trace consumer
        # exists.  The clock and the queue's push are bound directly: the
        # send path schedules only into the future, so the kernel's
        # not-in-the-past guard is redundant here.
        metrics = sim.metrics
        self._ctr_messages = metrics.counter("net.messages")
        self._ctr_bytes = metrics.counter("net.bytes")
        self._ctr_deliveries = metrics.counter("net.deliveries")
        self._ctr_transmissions = metrics.counter("net.transmissions")
        self._ctr_breaks = metrics.counter("net.connection_breaks")
        self._msg_type_counters: Dict[str, Counter] = {}
        # Created on the first gray-failure drop, never at init: the
        # counter's existence would otherwise show up in metric dumps of
        # worlds that never used gray failure.
        self._ctr_gray_drops: Optional[Counter] = None
        self._tracing = sim.trace is not None
        self._clock = sim.clock
        self._queue_push = sim.queue.push

    # ------------------------------------------------------------------
    # Host registry
    # ------------------------------------------------------------------
    def register_host(self, host: "Host") -> None:
        if host.node_id in self._hosts:
            raise ValueError(f"host {host.node_id} already registered")
        self._hosts[host.node_id] = host

    def host(self, node_id: NodeId) -> "Host":
        return self._hosts[node_id]

    def hosts(self) -> Dict[NodeId, "Host"]:
        return dict(self._hosts)

    # ------------------------------------------------------------------
    # Fault convenience wrappers (keep host flags, fault state, and the
    # connection cache consistent)
    # ------------------------------------------------------------------
    def crash_host(self, node_id: NodeId) -> None:
        """Fail-stop crash: the process dies and its connections drop."""
        self.faults.crash(node_id)
        self._hosts[node_id].mark_crashed()
        self._purge_connections(node_id)
        # The dead process's send queue dies with it: a recovered
        # incarnation must not inherit the old serialization backlog.
        self._send_busy_until.pop(node_id, None)

    def recover_host(self, node_id: NodeId) -> None:
        """Restart a crashed process with empty volatile state."""
        self.faults.recover(node_id)
        self._hosts[node_id].mark_recovered()

    def disconnect_host(self, node_id: NodeId) -> None:
        """Unplug the host's network; the process keeps running."""
        self.faults.disconnect(node_id)
        self._purge_connections(node_id)

    def reconnect_host(self, node_id: NodeId) -> None:
        self.faults.reconnect(node_id)

    def _purge_connections(self, node_id: NodeId) -> None:
        self._connections = {pair for pair in self._connections if node_id not in pair}

    def has_connection(self, a: NodeId, b: NodeId) -> bool:
        return ((a, b) if a <= b else (b, a)) in self._connections

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(
        self,
        src: NodeId,
        dst: NodeId,
        message: Message,
        on_fail: Optional[FailureCallback] = None,
    ) -> None:
        """Send ``message`` from ``src`` to ``dst`` over the reliable channel.

        Delivery invokes the destination host's handler for the message's
        class.  If the connection breaks (retries exhausted under loss,
        partition, crash, or disconnect), ``on_fail(dst, message)`` runs on
        the sender at the time the break is detected.
        """
        if src == dst:
            raise ValueError("host cannot send a network message to itself")
        hosts = self._hosts
        sender = hosts.get(src)
        if sender is None or dst not in hosts:
            raise KeyError(f"unknown endpoint in send {src}->{dst}")
        if not sender.alive:
            return  # a dead process sends nothing

        type_name = type(message).__name__
        self._ctr_messages.value += 1
        type_counter = self._msg_type_counters.get(type_name)
        if type_counter is None:
            type_counter = self.sim.metrics.counter(f"net.msg.{type_name}")
            self._msg_type_counters[type_name] = type_counter
        type_counter.value += 1
        self._ctr_bytes.value += message.size_bytes

        # Per-message CPU/serialization occupancy at the sender: messages
        # queue behind each other (this is what makes large fan-outs at a
        # group root visible in Fig 8).
        now = self._clock._now
        busy = self._send_busy_until.get(src, now)
        overhead = self.config.send_overhead_ms
        send_factors = self.faults._send_factors
        if send_factors:
            factor = send_factors.get(src)
            if factor is not None:
                overhead *= factor
        inject_time = max(now, busy) + overhead
        self._send_busy_until[src] = inject_time

        routes = self.routes
        route = routes._routes.get((src, dst))
        if route is None:
            route = routes.route(src, dst)
        pair = (src, dst) if src <= dst else (dst, src)
        first_contact = pair not in self._connections
        # Messages built fresh for exactly one send opt out of the
        # isolation copy (see Message.copy_on_send); stamping the sender
        # on them directly is then safe.
        payload = copy.copy(message) if message.copy_on_send else message
        payload.sender = src

        state = _SendAttemptState(
            self, src, dst, payload, route, first_contact, on_fail, sender.incarnation
        )
        label = f"tx:{type_name}" if self._tracing else ""
        self._queue_push(inject_time, state.attempt, label)

    # Internal: called by _SendAttemptState on success of the first segment.
    def _mark_connected(self, a: NodeId, b: NodeId) -> None:
        self._connections.add((a, b) if a <= b else (b, a))

    def _break_connection(self, a: NodeId, b: NodeId) -> None:
        self._connections.discard((a, b) if a <= b else (b, a))

    def _deliver(self, src: NodeId, dst: NodeId, message: Message) -> None:
        receiver = self._hosts[dst]
        if not receiver.alive:
            return
        gray = self.faults._gray
        if gray and dst in gray and not message.is_liveness:
            # Gray failure: the destination blackholes application traffic
            # while still answering liveness pings.  Transport has already
            # "delivered" the packet — no retransmission, no broken socket
            # — so the sender learns nothing unless its own application
            # timer (e.g. Host.rpc) expires.  The counter is created
            # lazily so idle worlds report an unchanged metric set.
            ctr = self._ctr_gray_drops
            if ctr is None:
                ctr = self._ctr_gray_drops = self.sim.metrics.counter("net.gray_drops")
            ctr.value += 1
            return
        self._ctr_deliveries.value += 1
        receiver.deliver(message)

    def __repr__(self) -> str:
        return (
            f"Network(hosts={len(self._hosts)}, connections={len(self._connections)}, "
            f"topology={self.topology!r})"
        )


class _SendAttemptState:
    """Retransmission state machine for one message.

    Attempt 0 goes out immediately; each loss schedules the next attempt
    after an exponentially backed-off RTO.  When attempts are exhausted the
    connection breaks and the sender's failure callback runs.
    """

    __slots__ = (
        "network",
        "src",
        "dst",
        "message",
        "route",
        "first_contact",
        "on_fail",
        "src_incarnation",
        "attempt_index",
        "rto_ms",
    )

    def __init__(
        self,
        network: Network,
        src: NodeId,
        dst: NodeId,
        message: Message,
        route,
        first_contact: bool,
        on_fail: Optional[FailureCallback],
        src_incarnation: int,
    ) -> None:
        self.network = network
        self.src = src
        self.dst = dst
        self.message = message
        self.route = route
        self.first_contact = first_contact
        self.on_fail = on_fail
        self.src_incarnation = src_incarnation
        self.attempt_index = 0
        self.rto_ms = network.config.rto_initial_ms

    def attempt(self) -> None:
        net = self.network
        sender = net._hosts[self.src]
        if not sender.alive or sender.incarnation != self.src_incarnation:
            return  # sender died mid-send; nothing to do

        net._ctr_transmissions.value += 1
        route = self.route
        faults = net.faults
        loss = route.current_loss()
        reachable = faults.can_communicate(self.src, self.dst)
        dropped = (not reachable) or (net._rng.random() < loss)
        if not dropped:
            # Correlated burst loss: advance the Gilbert-Elliott chain of
            # each bursty link the packet traverses, in route order, until
            # one eats it.  current_loss() above already refreshed the
            # route's burst cache against the topology generation, so the
            # idle cost here is one falsy attribute check.  Chains past
            # the dropping link do not advance — the packet never reached
            # them — keeping per-link drop statistics physical.
            burst = route._cached_burst
            if burst:
                rng = net._rng
                for model in burst:
                    if model.sample(rng):
                        dropped = True
                        break
        tracing = net._tracing
        config = net.config

        if not dropped:
            latency = route.current_latency()
            if faults._latency_factors:
                latency *= faults.latency_factor(self.src, self.dst)
            jitter = net._rng.uniform(0.0, config.jitter_fraction) * latency
            extra = 0.0
            if self.first_contact:
                # Connection establishment: one extra round trip of SYN
                # handshake before data flows.
                extra = config.connection_setup_rtts * 2.0 * latency
                net._mark_connected(self.src, self.dst)
            arrival = net._clock._now + extra + latency + jitter + config.recv_overhead_ms
            net._queue_push(
                arrival,
                # Bound here, never stored on self: a state holding a bound
                # method of itself is a cycle only the collector can free.
                self._deliver_now,
                f"rx:{type(self.message).__name__}" if tracing else "",
            )
            return

        delay = self._segment_lost()
        if delay is not None:
            net._queue_push(
                net._clock._now + delay,
                self.attempt,
                f"rtx:{type(self.message).__name__}" if tracing else "",
            )

    def _segment_lost(self) -> Optional[float]:
        """Segment lost: back off and return the delay before the next
        attempt, or — retries exhausted — break the connection and return
        None.  The caller schedules the retry: the scalar path as a heap
        event, the lane plane (:mod:`repro.sim.lanes`) as a micro-event."""
        net = self.network
        config = net.config
        if self.attempt_index < config.max_retries:
            self.attempt_index += 1
            delay = self.rto_ms
            self.rto_ms *= config.rto_backoff
            return delay

        # Retries exhausted: the socket breaks.
        net._break_connection(self.src, self.dst)
        net._ctr_breaks.value += 1
        if self.on_fail is not None:
            on_fail = self.on_fail
            net.sim.schedule_after(
                self.rto_ms,
                lambda: self._report_failure(on_fail),
                label=f"brk:{type(self.message).__name__}" if net._tracing else "",
            )
        return None

    def _deliver_now(self) -> None:
        self.network._deliver(self.src, self.dst, self.message)

    def _report_failure(self, on_fail: FailureCallback) -> None:
        sender = self.network.host(self.src)
        if sender.alive and sender.incarnation == self.src_incarnation:
            on_fail(self.dst, self.message)
