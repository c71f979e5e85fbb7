"""TCP-flavoured transport model.

The paper routes *all* FUSE and overlay messages over TCP with a cache of
recently used connections (§6.1, §7.3-7.4).  Three consequences show up in
its evaluation, and this model reproduces each:

1. **First-contact penalty** (Fig 6): the first message between a pair of
   hosts pays a connection-establishment round trip; later messages ride
   the cached connection.
2. **Loss masking** (Fig 12, low loss): per-segment drops are repaired by
   retransmission with exponential backoff, so moderate route loss only
   adds delay.
3. **Socket breaks** (Fig 12, high loss): when ``max_retries`` successive
   transmissions of one segment are lost, the connection breaks, the
   sender's failure callback fires, and the endpoints must reconnect —
   FUSE interprets this as "the node at the other end is unavailable"
   (§6.1).

Bandwidth is not modeled as link capacity (matching the paper's
simulator), but two adversarial extensions stress the same retransmission
machinery: per-link :class:`repro.net.topology.GilbertElliott` burst
models make segment drops *correlated* — a bad-state link eats attempt
after attempt of the same segment, breaking sockets at average loss rates
Fig 12's memoryless analysis would mask — and node-scoped
bandwidth-contention windows (:meth:`repro.net.faults.FaultInjector.
contend_bandwidth`) multiply ``send_overhead_ms``, backing up the
sender's serialization queue.  Per-message CPU/serialization overhead
*is* modeled, because the paper measured it (2.8 ms per send plus 1.1 ms
co-location overhead) and attributes the Fig 8 latency rise at group
sizes 16-32 to serial sends at the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.net.backends.base import (
    validate_fraction,
    validate_non_negative,
    validate_positive,
    validate_retry_count,
)


@dataclass
class TransportConfig:
    """Timing and retry knobs for the TCP-like channel.

    Both backends take it: the wire
    (:class:`repro.net.backends.livenet.LiveNetwork`) applies the RTO,
    backoff, retry count and jitter; the send/receive overheads and the
    connection-setup round trips are simulator-only (docs/BACKENDS.md).
    """

    send_overhead_ms: float = 2.8
    """CPU time to serialize and hand one message to the network (paper:
    2.8 ms base overhead including XML serialization)."""

    recv_overhead_ms: float = 1.1
    """Per-message receive-side overhead (paper: ~1.1 ms when running 10
    virtual nodes per machine)."""

    connection_setup_rtts: float = 1.0
    """Extra round trips to establish a TCP connection before the first
    byte of data (SYN / SYN-ACK)."""

    rto_initial_ms: float = 200.0
    """Initial retransmission timeout; doubles on every loss."""

    rto_backoff: float = 2.0

    max_retries: int = 4
    """Retransmission attempts before the connection breaks.  Calibrated
    so that compound route loss ~6 % is fully masked while ~20 % route
    loss breaks sockets at a noticeable rate (the Fig 12 regime)."""

    jitter_fraction: float = 0.02
    """Uniform latency jitter applied to each traversal, as a fraction of
    the route latency (queueing noise)."""

    def __post_init__(self) -> None:
        # The Topology.add_link validation contract
        # (repro.net.backends.base): NaN, infinity, and out-of-range
        # values all fail at construction.
        self.send_overhead_ms = validate_non_negative(self.send_overhead_ms, "send_overhead_ms")
        self.recv_overhead_ms = validate_non_negative(self.recv_overhead_ms, "recv_overhead_ms")
        self.connection_setup_rtts = validate_non_negative(
            self.connection_setup_rtts, "connection_setup_rtts"
        )
        self.max_retries = validate_retry_count(self.max_retries, "max_retries")
        self.rto_initial_ms = validate_positive(self.rto_initial_ms, "rto_initial_ms")
        self.rto_backoff = validate_positive(self.rto_backoff, "rto_backoff")
        if self.rto_backoff < 1.0:
            raise ValueError("rto_backoff must be >= 1")
        self.jitter_fraction = validate_fraction(self.jitter_fraction, "jitter_fraction")

    def retry_schedule_ms(self) -> List[float]:
        """Cumulative delay before each retransmission attempt: attempt k
        (1-based) fires ``rto_initial * (backoff^0 + ... + backoff^(k-1))``
        ms after the original transmission."""
        delays: List[float] = []
        rto = self.rto_initial_ms
        total = 0.0
        for _ in range(self.max_retries):
            total += rto
            delays.append(total)
            rto *= self.rto_backoff
        return delays

    def worst_case_delivery_extra_ms(self) -> float:
        """Upper bound on retransmission-induced extra delay."""
        schedule = self.retry_schedule_ms()
        return schedule[-1] if schedule else 0.0
