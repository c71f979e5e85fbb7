"""Wire transport configuration for the asyncio backend.

Same reliability vocabulary as the simulated
:class:`repro.net.transport.TransportConfig` — initial RTO, exponential
backoff, bounded retries, jitter — plus the knobs that only exist once
there is a real wire: a synthetic one-way path latency (localhost UDP is
effectively instant, so injected latency carries the topology's role).
Time compression belongs to the kernel's
:class:`~repro.net.backends.wallclock.WallClock`, not to the wire.

All parameters are validated with the shared helpers in
:mod:`repro.net.backends.base`, which follow the
:meth:`repro.net.topology.Topology.add_link` contract: NaN, infinity,
and out-of-range values are rejected at construction with a clear error,
never discovered mid-run as a hung retry loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.net.backends.base import (
    retry_schedule_ms,
    validate_fraction,
    validate_non_negative,
    validate_positive,
    validate_retry_count,
)


@dataclass
class LiveTransportConfig:
    """Knobs for the asyncio UDP channel.

    Times are *virtual* milliseconds (converted to wall delays by the
    kernel's clock), so a config tuned against the simulator reads the
    same on the wire.
    """

    # Reliability (mirrors the simulated TransportConfig defaults).
    rto_initial_ms: float = 200.0
    rto_backoff: float = 2.0
    max_retries: int = 4
    jitter_fraction: float = 0.02

    # Wire-only: synthetic one-way latency injected on delivery, standing
    # in for the simulated topology's path latency.
    path_latency_ms: float = 30.0

    def __post_init__(self) -> None:
        self.rto_initial_ms = validate_positive(self.rto_initial_ms, "rto_initial_ms")
        self.rto_backoff = validate_positive(self.rto_backoff, "rto_backoff")
        if self.rto_backoff < 1.0:
            raise ValueError(f"rto_backoff must be >= 1: {self.rto_backoff}")
        self.max_retries = validate_retry_count(self.max_retries, "max_retries")
        self.jitter_fraction = validate_fraction(self.jitter_fraction, "jitter_fraction")
        self.path_latency_ms = validate_non_negative(self.path_latency_ms, "path_latency_ms")

    def retry_schedule_ms(self) -> List[float]:
        """Cumulative virtual-ms delay before each retransmission."""
        return retry_schedule_ms(self.rto_initial_ms, self.rto_backoff, self.max_retries)

    def worst_case_delivery_extra_ms(self) -> float:
        """Upper bound on added delay if every retry is needed."""
        schedule = self.retry_schedule_ms()
        return schedule[-1] if schedule else 0.0
