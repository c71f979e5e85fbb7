"""Asyncio kernel: the simulator paced by a wall clock.

:class:`AsyncioKernel` is a :class:`repro.sim.kernel.Simulator` on a
:class:`~repro.net.backends.wallclock.WallClock` whose one asyncio wakeup,
armed for the head event, runs ``Simulator.run(until=<wall reading>)``.
docs/BACKENDS.md describes the clock and the kernel's deviations.
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, Callable, Optional

from repro.net.backends.wallclock import WallClock
from repro.sim.events import EventQueue
from repro.sim.kernel import Simulator

#: Virtual ms the clock may run past the earliest undispatched event
#: before the loop's lateness is charged as a stall: a quarter of the
#: 200 ms initial RTO, so a stall cannot expire a retransmission timer.
STALL_SLACK_MS = 50.0

_WALL_PACED = "AsyncioKernel is wall-paced: drive it with run_for or run_until"


class _ArmingQueue(EventQueue):
    """The simulator's queue; a push due before ``armed_at`` (inf when
    nothing is armed) re-arms the wakeup, whoever pushes: a datagram
    callback, a timer reschedule, a test between runs."""

    __slots__ = ("armed_at", "arm")

    def push(self, when: float, callback: Callable[[], Any], label: str = "") -> int:
        seq = EventQueue.push(self, when, callback, label)
        if when < self.armed_at:
            self.arm(when)
        return seq


class AsyncioKernel(Simulator):
    """The simulator on an owned asyncio loop, driven synchronously by
    :meth:`run_for` and :meth:`run_until`; no threads are involved."""

    def __init__(self, seed: int = 0, time_scale: float = 1.0, trace: bool = False) -> None:
        self.loop = asyncio.new_event_loop()
        super().__init__(seed, trace, WallClock(time_scale=time_scale, time_fn=self.loop.time))
        self._wakeup: Optional[asyncio.TimerHandle] = None
        self.queue = _ArmingQueue()
        self.queue.arm = self._arm
        self.queue.armed_at = math.inf

    def _arm(self, when: float) -> None:
        """Point the one asyncio wakeup at virtual time ``when``."""
        if self._wakeup is not None:
            self._wakeup.cancel()
        clock = self.clock
        self.queue.armed_at = when
        clock.horizon = when + STALL_SLACK_MS
        delay_ms = when - clock.now
        self._wakeup = self.loop.call_later(
            clock.wall_delay_s(delay_ms) if delay_ms > 0.0 else 0.0, self._wake
        )

    def _wake(self) -> None:
        """Dispatch every event due at the wall reading, then re-arm.  A
        push inside the batch is due no earlier than the armed time, so it
        arms nothing."""
        self._wakeup = None
        queue, clock = self.queue, self.clock
        limit = clock.now  # charges any lateness past the armed event
        clock._now = limit  # frozen; run() sets it to each event's when
        try:
            Simulator.run(self, until=limit)
        finally:
            clock._now = None
            head = queue.peek_time()
            if head is None:
                queue.armed_at = clock.horizon = math.inf
            else:
                self._arm(head)

    def _before_now(self, when: float) -> float:
        """Clamp a past time to now: on a wall clock, "the past" is any
        instant the caller spent computing.  NaN still raises."""
        if when != when:
            return Simulator._before_now(self, when)
        return self.clock.now

    def step(self) -> bool:
        raise RuntimeError(_WALL_PACED)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        raise RuntimeError(_WALL_PACED)

    def run_for(self, duration_ms: float) -> None:
        """Drive the loop for ``duration_ms`` of virtual time."""
        clock = self.clock
        target_ms = clock.now + duration_ms
        while target_ms > clock.now:
            self.loop.run_until_complete(asyncio.sleep(clock.wall_delay_s(target_ms - clock.now)))

    def run_until(self, predicate: Callable[[], bool], timeout_ms: float) -> bool:
        """``Simulator.run_until`` on the loop, polling every 20 virtual ms."""
        deadline = self.clock.now + timeout_ms
        while not predicate():
            if self.clock.now >= deadline:
                return False
            self.run_for(min(20.0, max(deadline - self.clock.now, 0.1)))
        return True

    def run_coroutine(self, coro) -> Any:
        """Run one coroutine to completion on the owned loop (setup only —
        never call from inside a loop callback)."""
        return self.loop.run_until_complete(coro)

    def close(self) -> None:
        """Cancel the wakeup and every task, then close the loop (idempotent)."""
        if self.loop.is_closed():
            return
        if self._wakeup is not None:
            self._wakeup.cancel()
        try:
            pending = asyncio.all_tasks(self.loop)
            for task in pending:
                task.cancel()
            if pending:
                self.loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
        finally:
            self.loop.close()
