"""The simulation kernel: schedules and dispatches events in virtual time.

Typical use::

    sim = Simulator(seed=42)
    sim.call_at(100.0, lambda: print("fires at t=100ms"))
    handle = sim.call_after(60_000.0, on_ping_timeout)
    handle.cancel()
    sim.run()

The kernel is single-threaded and deterministic: given the same seed and
the same sequence of schedule calls, every run dispatches events in the
same order.  Determinism is what makes the protocol tests and the failure
injection experiments reproducible.

Two scheduling surfaces exist:

* ``call_at`` / ``call_after`` / ``call_soon`` return a
  :class:`TimerHandle` for callers that cancel or reschedule timers.
* ``schedule_at`` / ``schedule_after`` / ``schedule_soon`` are the
  fire-and-forget fast path — no handle is materialized, so scheduling
  allocates nothing beyond the heap tuple.  The network transmit/delivery
  path lives here.

``run()`` and ``run_until()`` share one hot loop: it pops and dispatches
straight off the heap (shedding cancelled entries inline) instead of doing
a peek pass plus a pop pass per event.  While any node is laned, the lane
plane's :meth:`~repro.sim.lanes.LanePlane.advance` is that loop: it
dispatches the heap's events between its micro-events and hands back only
once no node is laned.  ``step()`` dispatches one event, with the collector
left alone, for callers and tests that single-step.  The live backend's
kernel, :class:`repro.net.backends.asynckernel.AsyncioKernel`, is a
subclass that runs this same loop, paced by a wall clock.
"""

from __future__ import annotations

import gc
from heapq import heappop
from typing import Any, Callable, Optional

from repro.net.backends.base import ClockBase
from repro.sim.clock import Clock
from repro.sim.events import EventQueue, TimerHandle
from repro.sim.metrics import MetricsRegistry
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceLog

_INF = float("inf")


class Simulator:
    """Discrete-event simulator kernel.

    Args:
        seed: master seed for all derived random streams.
        trace: optionally record every dispatched event in a TraceLog.
        clock: a fresh virtual :class:`Clock` unless the live subclass,
            :class:`repro.net.backends.asynckernel.AsyncioKernel`, passes
            its wall clock; it must read back the dispatch loop's
            ``clock._now = when`` write as ``now`` for the whole dispatch.
    """

    def __init__(
        self, seed: int = 0, trace: bool = False, clock: Optional[ClockBase] = None
    ) -> None:
        self.clock = Clock() if clock is None else clock
        self.queue = EventQueue()
        self.rng = RngStreams(seed)
        self.metrics = MetricsRegistry(self.clock)
        self.trace: Optional[TraceLog] = TraceLog(self.clock) if trace else None
        #: optional liveness-lane plane (repro.sim.lanes.LanePlane); while
        #: it has laned nodes, its advance() is the dispatch loop, merging
        #: its micro-events with the heap in global (when, seq) order.
        self.lane_plane = None
        self._dispatched = 0
        self._running = False
        self._stop_requested = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self.clock.now

    def call_at(self, when: float, callback: Callable[[], Any], label: str = "") -> TimerHandle:
        """Schedule ``callback`` at absolute virtual time ``when`` (ms)."""
        clock = self.clock
        if not when >= clock.now:  # inverted so that NaN fails it too
            when = self._before_now(when)
        queue = self.queue
        return TimerHandle(queue, clock, queue.push(when, callback, label), when, callback, label)

    def call_after(self, delay: float, callback: Callable[[], Any], label: str = "") -> TimerHandle:
        """Schedule ``callback`` after ``delay`` milliseconds of virtual time."""
        if not delay >= 0:
            raise ValueError(f"negative delay: {delay}")
        return self.call_at(self.clock.now + delay, callback, label)

    def call_soon(self, callback: Callable[[], Any], label: str = "") -> TimerHandle:
        """Schedule ``callback`` at the current virtual time (after pending
        same-time events already in the queue)."""
        return self.call_at(self.clock.now, callback, label)

    def schedule_at(self, when: float, callback: Callable[[], Any], label: str = "") -> None:
        """Fire-and-forget ``call_at``: no :class:`TimerHandle` is created,
        so the event cannot be cancelled or rescheduled.  Hot paths that
        never keep the handle (e.g. network transmissions) use this."""
        if not when >= self.clock.now:
            when = self._before_now(when)
        self.queue.push(when, callback, label)

    def schedule_after(self, delay: float, callback: Callable[[], Any], label: str = "") -> None:
        """Fire-and-forget ``call_after``."""
        if not delay >= 0:
            raise ValueError(f"negative delay: {delay}")
        self.queue.push(self.clock.now + delay, callback, label)

    def schedule_soon(self, callback: Callable[[], Any], label: str = "") -> None:
        """Fire-and-forget ``call_soon``."""
        self.queue.push(self.clock.now, callback, label)

    def _before_now(self, when: float) -> float:
        """Reject a ``call_at`` / ``schedule_at`` time that is not at or
        after now (NaN included).  The live subclass overrides this to
        clamp a past time to now instead."""
        raise ValueError(f"cannot schedule in the past: now={self.clock.now} when={when}")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch a single event.  Returns False when the queue is empty."""
        plane = self.lane_plane
        if plane is not None and plane._entries and plane.advance(None, 1):
            self._dispatched += 1
            return True
        entry = self.queue.pop()
        if entry is None:
            return False
        self.clock.advance_to(entry[0])
        if self.trace is not None:
            self.trace.record("dispatch", entry[3])
        entry[2]()
        self._dispatched += 1
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` (ms) is reached, or
        ``max_events`` have been dispatched.  Returns events dispatched.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the queue drained earlier, so wall-clock-style measurements
        (e.g. messages per second over a 10-minute window) are well-defined.
        """
        return self._run(until, max_events, None)

    def _run(self, until: Optional[float], max_events: Optional[int], predicate) -> int:
        """The dispatch loop of :meth:`run` and :meth:`run_until`; with a
        ``predicate`` (and no ``max_events``) it returns as soon as
        ``predicate()`` holds, checked first and after each event."""
        if self._running:
            raise RuntimeError("simulator is already running (reentrant run() call)")
        self._running = True
        self._stop_requested = False
        dispatched = 0
        # Dispatch allocates no reference cycles (the gate is
        # tests/test_acyclic_dispatch.py), so collections here would only
        # re-walk the built world: they wait until the loop returns.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        # The dispatch loop works the heap directly: one pop per event,
        # cancelled entries shed inline, the until/max_events guards and
        # the clock advance inlined.  The queue invariants (pending-set
        # liveness, seq tie-breaking) are shared with EventQueue.pop().
        queue = self.queue
        heap = queue._heap
        pending = queue._pending
        clock = self.clock
        trace = self.trace
        pop = heappop
        plane = self.lane_plane
        # While any node is laned, plane.advance is the dispatch loop (its
        # micro-events and this heap in (when, seq) order) until none is.
        laned = {} if plane is None else plane._entries
        # The dispatch count at which to stop or, with a predicate, to
        # check it next.
        limit = 0 if predicate is not None else (_INF if max_events is None else max_events)
        try:
            while True:
                if dispatched >= limit:
                    if predicate is None or predicate():
                        break
                    limit = dispatched + 1
                if self._stop_requested:
                    break
                if laned:
                    budget = None if max_events is None else max_events - dispatched
                    dispatched += plane.advance(until, budget, predicate)
                    if laned:
                        break  # until, max_events, the predicate or stop()
                    # Nobody is laned any more: this loop takes over, and
                    # its top checks the predicate after advance's last
                    # event, which advance leaves to it.
                    continue
                if not heap:
                    break
                entry = heap[0]
                seq = entry[1]
                if seq not in pending:
                    pop(heap)  # cancelled: shed lazily, no dispatch
                    continue
                when = entry[0]
                if until is not None and when > until:
                    break
                pop(heap)
                pending.remove(seq)
                # Heap order plus the no-past-scheduling guard make this
                # monotonic, so Clock.advance_to is skipped.
                clock._now = when
                if trace is not None:
                    trace.record("dispatch", entry[3])
                entry[2]()
                dispatched += 1
            if until is not None and until > clock._now and not self._stop_requested:
                clock._now = until
        finally:
            self._dispatched += dispatched
            self._running = False
            if gc_was_enabled:
                gc.enable()
        return dispatched

    def run_for(self, duration: float, max_events: Optional[int] = None) -> int:
        """Run for ``duration`` milliseconds of virtual time from now."""
        return self.run(until=self.clock.now + duration, max_events=max_events)

    def run_until(self, predicate: Callable[[], bool], timeout_ms: float) -> bool:
        """Dispatch events until ``predicate()`` holds, the queue drains,
        or ``timeout_ms`` of virtual time has passed.  Returns whether the
        predicate held.

        The predicate is checked first and then after each event; the
        timeout is checked after it, so the event that carries the clock
        past the deadline is still dispatched and checked.  The events run
        in :meth:`run`'s loop: the collector is off, :meth:`stop` ends the
        wait, and the call is not reentrant.  The live subclass,
        :class:`repro.net.backends.asynckernel.AsyncioKernel`, keeps this
        contract but waits on its event loop instead."""
        clock = self.clock
        deadline = clock.now + timeout_ms
        held = False

        def done() -> bool:
            nonlocal held
            held = bool(predicate())
            return held or clock.now >= deadline

        self._run(None, None, done)
        return held

    def stop(self) -> None:
        """Request that the current :meth:`run` return after this event."""
        self._stop_requested = True

    @property
    def events_dispatched(self) -> int:
        return self._dispatched

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(now={self.clock.now:.1f}ms, pending={len(self.queue)}, "
            f"dispatched={self._dispatched})"
        )
