"""Wall-clock implementation of the Clock seam.

This module is the *only* sanctioned home of wall-clock reads in
``src/repro`` outside this package: everything else measures time through
a :class:`repro.net.backends.base.ClockBase`, which is what keeps the
simulated backend deterministic (``tests/test_time_purity.py`` enforces
this with a grep over the source tree).

Two exports:

* :class:`WallClock` — maps a monotonic wall-time source onto virtual
  milliseconds with a configurable compression factor, so live runs can
  execute a 60 s ping period in, say, 1.2 s of real time while every
  protocol timer still reads the same virtual numbers as the simulator;
  event-loop stalls are charged to it instead of to the protocol.
* :func:`wall_seconds` — the plain "how long did this take" reading used
  by CLI reporting (``scenarios/run.py``, ``experiments/run.py``); going
  through this helper keeps those call sites visible at the seam.
"""

from __future__ import annotations

import math
import time
from typing import Callable

from repro.net.backends.base import ClockBase, validate_positive


def wall_seconds() -> float:
    """Wall time in seconds, for elapsed-time reporting in CLIs."""
    return time.time()


def perf_seconds() -> float:
    """Monotonic high-resolution wall time, for interval timing.

    The engine's per-trial ``wall_seconds`` measurement
    (:func:`repro.engine.trial.run_trial`) goes through here so the only
    ``time.*`` call sites stay inside this package (rule DH002 in
    ``repro.analysis``); intervals from this clock are immune to wall
    clock steps, unlike :func:`wall_seconds`.
    """
    return time.perf_counter()


class WallClock(ClockBase):
    """Wall-anchored clock reporting *virtual* milliseconds.

    ``time_scale`` is wall seconds per virtual second: 1.0 runs in real
    time, 0.02 compresses a virtual minute into 1.2 wall seconds.  While
    the kernel dispatches, ``now`` is frozen at ``_now``, which the
    dispatch loop sets to each event's ``when`` as on the simulator's
    clock; between batches the kernel sets it back to None and the clock
    follows the wall, bounded by ``horizon`` (the earliest undispatched
    event plus a slack).  A read past it charges the excess as a stall by
    moving the origin forward, so virtual time skips the stall.
    ``stall_ms`` totals the charges, ``max_lateness_ms`` is the largest.
    """

    __slots__ = ("_now", "_time_fn", "_scale", "_origin", "horizon", "stall_ms", "max_lateness_ms")

    def __init__(
        self,
        time_scale: float = 1.0,
        time_fn: Callable[[], float] = time.monotonic,
    ) -> None:
        self._scale = validate_positive(time_scale, "time_scale")
        self._time_fn = time_fn
        self._origin = time_fn()
        self._now = None
        self.horizon = math.inf
        self.stall_ms = 0.0
        self.max_lateness_ms = 0.0

    @property
    def time_scale(self) -> float:
        return self._scale

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        frozen = self._now
        if frozen is not None:
            return frozen
        now = (self._time_fn() - self._origin) * 1000.0 / self._scale
        horizon = self.horizon
        if now <= horizon:
            return now
        lateness = now - horizon
        self._origin += lateness / 1000.0 * self._scale
        self.stall_ms += lateness
        if lateness > self.max_lateness_ms:
            self.max_lateness_ms = lateness
        return horizon

    def wall_ms(self) -> float:
        """The wall reading in virtual ms: not frozen, not capped at the
        horizon, and charging no stall (the instant a datagram leaves)."""
        return (self._time_fn() - self._origin) * 1000.0 / self._scale

    def wall_delay_s(self, virtual_ms: float) -> float:
        """Wall seconds corresponding to ``virtual_ms`` of virtual time."""
        return virtual_ms / 1000.0 * self._scale

    def __repr__(self) -> str:
        return f"WallClock(now={self.now:.1f}ms, time_scale={self._scale})"
