"""Asyncio kernel: the simulator's event queue on a real event loop.

:class:`AsyncioKernel` duck-types the slice of
:class:`repro.sim.kernel.Simulator` that hosts and protocol layers use —
``now``, ``metrics``, ``rng``, ``trace``, ``lane_plane``, ``call_*``
(returning :class:`~repro.sim.events.TimerHandle`) and ``schedule_*`` —
so the entire FUSE stack runs unchanged on wall-clock time.  Events go
on the simulator's own :class:`~repro.sim.events.EventQueue`; one asyncio
wakeup stays armed for the head event and dispatches every due event in
``(when, seq)`` order, as the simulator does.

Times are *virtual milliseconds* on the kernel's
:class:`~repro.net.backends.wallclock.WallClock`.  Two deliberate
deviations from the simulator (documented in docs/BACKENDS.md):
``call_at`` with a time already in the past *clamps to now* instead of
raising (on a wall clock, "the past" is any instant the caller spent
computing), and virtual time runs at most :data:`STALL_SLACK_MS` past
the earliest undispatched event — a loop that falls further behind has
the excess charged to the clock as a stall.
"""

from __future__ import annotations

import asyncio
import math
from heapq import heappop
from typing import Any, Callable, Optional

from repro.net.backends.wallclock import WallClock
from repro.sim.events import EventQueue, TimerHandle
from repro.sim.metrics import MetricsRegistry
from repro.sim.rng import RngStreams

#: Virtual ms the clock may run past the earliest undispatched event
#: before the loop's lateness is charged as a stall: a quarter of the
#: 200 ms initial RTO, so a stall cannot expire a retransmission timer.
STALL_SLACK_MS = 50.0


class AsyncioKernel:
    """Wall-clock kernel driving protocol timers through an asyncio loop.

    The loop is owned, not shared: the kernel creates a fresh event loop
    and drives it synchronously from :meth:`run_for` / :meth:`run_until`,
    mirroring how tests and scenarios drive ``Simulator.run_for``.  No
    threads are involved — every protocol callback executes inside the
    loop between those calls.
    """

    def __init__(self, seed: int = 0, time_scale: float = 1.0) -> None:
        self.loop = asyncio.new_event_loop()
        self.clock = WallClock(time_scale=time_scale, time_fn=self.loop.time)
        self.queue = EventQueue()
        self.rng = RngStreams(seed)
        self.metrics = MetricsRegistry(self.clock)
        self.trace = None
        self.lane_plane = None
        self._dispatched = 0
        self._wakeup: Optional[asyncio.TimerHandle] = None
        #: virtual time the wakeup is armed for; -inf while it dispatches
        #: (the batch re-arms when it ends), inf when none is armed
        self._armed_at = math.inf
        self._closed = False

    # ------------------------------------------------------------------
    # Scheduling (the Simulator surface)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self.clock.now

    def _push(self, when: float, callback: Callable[[], Any], label: str) -> int:
        seq = self.queue.push(when, callback, label)
        if when < self._armed_at:
            self._arm(when)
        return seq

    def _arm(self, when: float) -> None:
        """Point the one asyncio wakeup at virtual time ``when``."""
        if self._wakeup is not None:
            self._wakeup.cancel()
        clock = self.clock
        self._armed_at = when
        clock.horizon = when + STALL_SLACK_MS
        delay_ms = when - clock.now
        self._wakeup = self.loop.call_later(
            clock.wall_delay_s(delay_ms) if delay_ms > 0.0 else 0.0, self._wake
        )

    def _rearm(self) -> None:
        """Arm for the head event unless a wakeup at or before it is."""
        head = self.queue.peek_time()
        if head is None:
            if self._wakeup is None:
                self.clock.horizon = math.inf
        elif head < self._armed_at:
            self._arm(head)

    def _wake(self) -> None:
        """Dispatch every event due when the wakeup fired, then re-arm."""
        self._wakeup = None
        self._armed_at = -math.inf
        queue = self.queue
        heap = queue._heap
        pending = queue._pending
        clock = self.clock
        limit = clock.now  # charges any lateness past the armed event
        try:
            while heap:
                when, seq, callback, _ = heap[0]
                if seq not in pending:
                    heappop(heap)  # cancelled: shed lazily, no dispatch
                    continue
                if when > limit:
                    break
                heappop(heap)
                pending.remove(seq)
                clock.horizon = when + STALL_SLACK_MS
                self._dispatched += 1
                callback()
        finally:
            self._armed_at = math.inf
            self._rearm()

    def call_at(self, when: float, callback: Callable[[], Any], label: str = "") -> TimerHandle:
        now = self.clock.now
        if when < now:
            when = now
        return TimerHandle(
            self.queue, self.clock, self._push(when, callback, label), when, callback, label
        )

    def call_after(self, delay: float, callback: Callable[[], Any], label: str = "") -> TimerHandle:
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.call_at(self.clock.now + delay, callback, label)

    def call_soon(self, callback: Callable[[], Any], label: str = "") -> TimerHandle:
        return self.call_at(self.clock.now, callback, label)

    def schedule_at(self, when: float, callback: Callable[[], Any], label: str = "") -> None:
        now = self.clock.now
        self._push(when if when > now else now, callback, label)

    def schedule_after(self, delay: float, callback: Callable[[], Any], label: str = "") -> None:
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._push(self.clock.now + delay, callback, label)

    def schedule_soon(self, callback: Callable[[], Any], label: str = "") -> None:
        self._push(self.clock.now, callback, label)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_for(self, duration_ms: float) -> None:
        """Drive the loop for ``duration_ms`` of virtual time."""
        target_ms = self.clock.now + duration_ms
        self._rearm()  # a timer rescheduled between runs moved the head
        while target_ms > self.clock.now:
            self.loop.run_until_complete(
                asyncio.sleep(self.clock.wall_delay_s(target_ms - self.clock.now))
            )

    def run_until(self, predicate: Callable[[], bool], timeout_ms: float) -> bool:
        """Drive the loop until ``predicate()`` holds or ``timeout_ms``
        of virtual time elapses, polling every 20 virtual ms.  Returns
        whether the predicate held, as ``Simulator.run_until`` does."""
        self._rearm()
        deadline = self.clock.now + timeout_ms
        while not predicate():
            if self.clock.now >= deadline:
                return False
            step = min(20.0, max(deadline - self.clock.now, 0.1))
            self.loop.run_until_complete(asyncio.sleep(self.clock.wall_delay_s(step)))
        return True

    def run_coroutine(self, coro) -> Any:
        """Run one coroutine to completion on the owned loop (setup only —
        never call from inside a loop callback)."""
        return self.loop.run_until_complete(coro)

    @property
    def events_dispatched(self) -> int:
        return self._dispatched

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._wakeup is not None:
            self._wakeup.cancel()
            self._wakeup = None
        try:
            pending = asyncio.all_tasks(self.loop)
            for task in pending:
                task.cancel()
            if pending:
                self.loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
        finally:
            self.loop.close()

    def __repr__(self) -> str:
        return (
            f"AsyncioKernel(now={self.clock.now:.1f}ms, time_scale={self.clock.time_scale}, "
            f"dispatched={self._dispatched}, stall_ms={self.clock.stall_ms:.1f})"
        )
