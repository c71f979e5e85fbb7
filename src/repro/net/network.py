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
from typing import Callable, Dict, Optional

from repro.net.address import NodeId
from repro.net.backends.base import NetworkBackend, SendAttempt
from repro.net.faults import FaultInjector
from repro.net.message import Message
from repro.net.routing import RouteTable
from repro.net.topology import Topology
from repro.net.transport import TransportConfig
from repro.sim.kernel import Simulator

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
        super().__init__(sim, config or TransportConfig(), faults or FaultInjector())
        self.topology = topology
        self.routes = RouteTable(topology)
        self._send_busy_until: Dict[NodeId, float] = {}
        # The clock and the queue's push are bound directly: the send path
        # schedules only into the future, so the kernel's
        # not-in-the-past guard is redundant here.
        self._clock = sim.clock
        self._queue_push = sim.queue.push

    def _on_host_crash(self, node_id: NodeId) -> None:
        # The dead process's send queue dies with it: a recovered
        # incarnation must not inherit the old serialization backlog.
        self._send_busy_until.pop(node_id, None)

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
            type_counter = self._type_counter(type_name)
        type_counter.value += 1
        self._ctr_bytes.value += message.size_bytes

        # Per-message CPU/serialization occupancy at the sender: messages
        # queue behind each other (this is what makes large fan-outs at a
        # group root visible in Fig 8).
        now = self._clock._now
        busy = self._send_busy_until.get(src, now)
        overhead = self.config.send_overhead_ms
        faults = self.faults
        if faults.shapes_traffic:
            overhead *= faults.send_factor(src)
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

    def _deliver(self, src: NodeId, dst: NodeId, message: Message) -> None:
        receiver = self._hosts[dst]
        if not receiver.alive or (self.faults.shapes_traffic and self._gray_drop(dst, message)):
            return
        self._ctr_deliveries.value += 1
        receiver.deliver(message)

    def __repr__(self) -> str:
        return (
            f"Network(hosts={len(self._hosts)}, connections={len(self._connections)}, "
            f"topology={self.topology!r})"
        )


class _SendAttemptState(SendAttempt):
    """Retransmission state machine for one simulated message.

    Attempt 0 goes out immediately; each loss schedules the next attempt
    after an exponentially backed-off RTO.  When attempts are exhausted the
    connection breaks and the sender's failure callback runs
    (:meth:`~repro.net.backends.base.SendAttempt._segment_lost`).
    """

    __slots__ = ("message", "route", "first_contact")

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
        # The SendAttempt fields are assigned here rather than through
        # super().__init__: one call fewer on every simulated send.
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
            if faults.shapes_traffic:
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

    def _deliver_now(self) -> None:
        self.network._deliver(self.src, self.dst, self.message)
