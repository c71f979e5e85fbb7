"""The backend seam: abstract Clock/Network contracts plus shared knobs.

Everything above the network — :class:`repro.net.node.Host`,
:class:`repro.overlay.skipnet.node.OverlayNode`,
:class:`repro.fuse.service.FuseService`,
:class:`repro.fuse.api.GroupLedger` — talks to exactly two objects: a
*kernel* (``sim``: ``now``, ``metrics``, ``rng``, ``call_*`` /
``schedule_*``) and a *network* (``send``, ``register_host``, ``faults``,
crash/disconnect wrappers).  This module names those contracts so a second
backend can bind the same protocol code to real sockets and a wall clock:

* :class:`ClockBase` — the time seam extracted from
  :mod:`repro.sim.clock`; the simulator's virtual :class:`~repro.sim.clock.Clock`
  and the asyncio backend's :class:`~repro.net.backends.wallclock.WallClock`
  both implement it.  Milliseconds everywhere.
* :class:`NetworkBackend` — the transport skeleton (host registry, fault
  verbs, connection cache, counters, gray drop);
  :class:`repro.net.network.Network` (simulated topology + TCP model) and
  :class:`repro.net.backends.livenet.LiveNetwork` (asyncio UDP datagrams +
  ack/retry reliability) subclass it and add only ``send``;
* :class:`SendAttempt` — the one retry/backoff/break machine both
  transports' per-send state subclasses;
* parameter validation for :class:`repro.net.transport.TransportConfig`
  and :class:`~repro.net.backends.wallclock.WallClock`, matching
  :meth:`repro.net.topology.Topology.add_link`'s contract (reject NaN,
  infinity, and non-positive values with a clear error).

This module must stay import-light (stdlib only): both
:mod:`repro.sim.clock` and :mod:`repro.net.transport` import it.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Optional, Set, Tuple


# ----------------------------------------------------------------------
# Shared parameter validation (the Topology.add_link contract)
# ----------------------------------------------------------------------
def validate_positive(value: float, what: str) -> float:
    """Reject NaN, infinity, and non-positive values with a clear error."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise TypeError(f"{what} must be a number, got {value!r}") from None
    if math.isnan(value):
        raise ValueError(f"{what} must not be NaN")
    if math.isinf(value):
        raise ValueError(f"{what} must be finite: {value}")
    if value <= 0.0:
        raise ValueError(f"{what} must be positive: {value}")
    return value


def validate_non_negative(value: float, what: str) -> float:
    """Reject NaN, infinity, and negative values with a clear error."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise TypeError(f"{what} must be a number, got {value!r}") from None
    if math.isnan(value):
        raise ValueError(f"{what} must not be NaN")
    if math.isinf(value):
        raise ValueError(f"{what} must be finite: {value}")
    if value < 0.0:
        raise ValueError(f"{what} must be non-negative: {value}")
    return value


def validate_fraction(value: float, what: str) -> float:
    """Reject NaN and values outside [0, 1) with a clear error."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise TypeError(f"{what} must be a number, got {value!r}") from None
    if math.isnan(value):
        raise ValueError(f"{what} must not be NaN")
    if not 0.0 <= value < 1.0:
        raise ValueError(f"{what} must be in [0, 1): {value}")
    return value


def validate_retry_count(value: int, what: str) -> int:
    """Reject non-integral or negative retry counts with a clear error."""
    if isinstance(value, bool) or not isinstance(value, int):
        try:
            as_int = int(value)
        except (TypeError, ValueError):
            raise TypeError(f"{what} must be an integer, got {value!r}") from None
        if as_int != value:
            raise TypeError(f"{what} must be an integer, got {value!r}")
        value = as_int
    if value < 0:
        raise ValueError(f"{what} must be non-negative")
    return value


# ----------------------------------------------------------------------
# The Clock seam
# ----------------------------------------------------------------------
class ClockBase:
    """Monotonic clock measured in milliseconds.

    The simulated clock advances only when the kernel dispatches events;
    the wall clock advances with real time (scaled).  Consumers must not
    assume either — they read ``now`` and schedule through the kernel.
    """

    __slots__ = ()

    @property
    def now(self) -> float:
        """Current time in milliseconds."""
        raise NotImplementedError

    def seconds(self) -> float:
        """Current time expressed in seconds."""
        return self.now / 1000.0


# ----------------------------------------------------------------------
# The Network seam
# ----------------------------------------------------------------------
class NetworkBackend:
    """The transport skeleton both backends share.

    Holds the kernel (``sim``: ``now``, ``metrics``, ``rng``, ``call_*``),
    the transport ``config``, the :class:`repro.net.faults.FaultInjector`
    consulted on every delivery, the host registry, the fault verbs, the
    normalised connection cache and the ``net.*`` counters.  Subclasses
    supply ``send`` — how a frame leaves and how loss is decided — and
    override the crash/recover hooks where a backend has side effects.

    Delivery semantics both backends guarantee: a sent message either
    reaches the destination host's handler exactly once, or — when the
    channel breaks (retries exhausted under loss, partition, crash, or
    disconnect) — ``on_fail(dst, message)`` runs on the sender.  Messages
    to a gray-failed destination are acknowledged by transport but never
    dispatched unless the message class is liveness-exempt
    (:attr:`repro.net.message.Message.is_liveness`).
    """

    def __init__(self, sim, config, faults) -> None:
        self.sim = sim
        self.config = config
        self.faults = faults
        self._hosts: Dict[int, Any] = {}
        # Connection pairs are normalized (min, max) tuples: cheaper to
        # build and hash than frozenset keys.
        self._connections: Set[Tuple[int, int]] = set()
        self._rng = sim.rng.stream("net.transport")
        # Counter objects are resolved once here instead of by name on
        # every send/delivery (reset_counters() mutates the same objects,
        # so the references stay valid across measurement windows).
        metrics = sim.metrics
        self._ctr_messages = metrics.counter("net.messages")
        self._ctr_bytes = metrics.counter("net.bytes")
        self._ctr_deliveries = metrics.counter("net.deliveries")
        self._ctr_transmissions = metrics.counter("net.transmissions")
        self._ctr_breaks = metrics.counter("net.connection_breaks")
        self._msg_type_counters: Dict[str, Any] = {}
        # Created on the first gray-failure drop, never at init: the
        # counter's existence would otherwise show up in metric dumps of
        # worlds that never used gray failure.
        self._ctr_gray_drops = None
        # Event labels are only built when a trace consumer exists.
        self._tracing = sim.trace is not None

    # ------------------------------------------------------------------
    # Host registry
    # ------------------------------------------------------------------
    def register_host(self, host) -> None:
        if host.node_id in self._hosts:
            raise ValueError(f"host {host.node_id} already registered")
        self._hosts[host.node_id] = host

    def host(self, node_id):
        return self._hosts[node_id]

    def hosts(self) -> Dict[int, Any]:
        return dict(self._hosts)

    def send(self, src, dst, message, on_fail: Optional[Callable] = None) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Fault verbs (keep host flags, fault state, and the connection
    # cache consistent)
    # ------------------------------------------------------------------
    def crash_host(self, node_id) -> None:
        """Fail-stop crash: the process dies and its connections drop."""
        self.faults.crash(node_id)
        self._hosts[node_id].mark_crashed()
        self._purge_connections(node_id)
        self._on_host_crash(node_id)

    def recover_host(self, node_id) -> None:
        """Restart a crashed process with empty volatile state."""
        self.faults.recover(node_id)
        self._on_host_recover(node_id)
        self._hosts[node_id].mark_recovered()

    def disconnect_host(self, node_id) -> None:
        """Unplug the host's network; the process keeps running."""
        self.faults.disconnect(node_id)
        self._purge_connections(node_id)

    def reconnect_host(self, node_id) -> None:
        self.faults.reconnect(node_id)

    def _on_host_crash(self, node_id) -> None:
        """Backend side effects of a crash (after the host is marked dead)."""

    def _on_host_recover(self, node_id) -> None:
        """Backend side effects of a restart (before the host comes back)."""

    # ------------------------------------------------------------------
    # Connection cache
    # ------------------------------------------------------------------
    def _purge_connections(self, node_id) -> None:
        self._connections = {pair for pair in self._connections if node_id not in pair}

    def has_connection(self, a, b) -> bool:
        return ((a, b) if a <= b else (b, a)) in self._connections

    def _mark_connected(self, a, b) -> None:
        self._connections.add((a, b) if a <= b else (b, a))

    def _break_connection(self, a, b) -> None:
        self._connections.discard((a, b) if a <= b else (b, a))

    # ------------------------------------------------------------------
    # Counters and the delivery-side gray drop
    # ------------------------------------------------------------------
    def _type_counter(self, type_name: str):
        """The lazily created ``net.msg.<type>`` counter."""
        counter = self._msg_type_counters.get(type_name)
        if counter is None:
            counter = self.sim.metrics.counter(f"net.msg.{type_name}")
            self._msg_type_counters[type_name] = counter
        return counter

    def _gray_drop(self, dst, message) -> bool:
        """Gray failure: the destination blackholes application traffic
        while still answering liveness pings.  Transport has already
        "delivered" the packet — no retransmission, no broken socket — so
        the sender learns nothing unless its own application timer (e.g.
        ``Host.rpc``) expires.  True when ``message`` is dropped; the
        counter is created lazily so idle worlds report an unchanged
        metric set."""
        if message.is_liveness or not self.faults.is_gray_failed(dst):
            return False
        ctr = self._ctr_gray_drops
        if ctr is None:
            ctr = self._ctr_gray_drops = self.sim.metrics.counter("net.gray_drops")
        ctr.value += 1
        return True


class SendAttempt:
    """Retry/backoff/break state of one reliable send, on either backend.

    Subclasses decide how a frame leaves and how loss is detected (a loss
    draw on the simulator, a retransmission timeout on the wire); both
    report a lost segment to :meth:`_segment_lost`, and provide a
    ``message`` attribute for the failure callback.
    """

    __slots__ = ("network", "src", "dst", "on_fail", "src_incarnation", "attempt_index", "rto_ms")

    def __init__(self, network: NetworkBackend, src, dst, on_fail, src_incarnation: int) -> None:
        self.network = network
        self.src = src
        self.dst = dst
        self.on_fail = on_fail
        self.src_incarnation = src_incarnation
        self.attempt_index = 0
        self.rto_ms = network.config.rto_initial_ms

    def _segment_lost(self) -> Optional[float]:
        """Segment lost: back off and return the delay before the next
        attempt, or — retries exhausted — break the connection, schedule
        the failure callback one RTO later, and return None.  The caller
        schedules the retry: the scalar path as a heap event, the lane
        plane (:mod:`repro.sim.lanes`) as a micro-event, the wire as a
        retransmission timer."""
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

    def _report_failure(self, on_fail: Callable) -> None:
        sender = self.network._hosts[self.src]
        if sender.alive and sender.incarnation == self.src_incarnation:
            on_fail(self.dst, self.message)
