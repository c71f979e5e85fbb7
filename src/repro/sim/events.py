"""Event queue with cancellable timers.

Hot-path design: the heap holds plain tuples ``(when, seq, callback,
label)`` — not per-event objects — so every heap sift comparison runs in
C instead of dispatching to a Python ``__lt__``.  The sequence number
makes dispatch order deterministic for events scheduled at the same
virtual time (ties break by insertion order) and doubles as the event's
identity: liveness is a ``pending`` set of sequence numbers, so
cancellation is one set removal and the stale heap entry is shed lazily
at pop/peek time (the standard approach for heap-backed schedulers; see
the CPython ``sched``/``asyncio`` implementations).

Paper cross-reference: §7.1 — the scheduling core of the simulator half
of the paper's testbed; the timers scheduled here implement the §6.3-§6.5
ping/repair timeout machinery.

Scheduling therefore allocates nothing beyond the heap tuple itself.  A
:class:`TimerHandle` — the cancellable/reschedulable wrapper components
hold on to — is only materialized by the kernel's ``call_*`` API for
callers that keep it; the fire-and-forget ``schedule_*`` fast path never
creates one.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Set, Tuple

from repro.sim.clock import Clock

EventEntry = Tuple[float, int, Callable[[], Any], str]
"""One scheduled event: ``(when_ms, seq, callback, label)``."""


class EventQueue:
    """Deterministic min-heap of ``(when, seq, callback, label)`` tuples.

    ``push`` returns the event's sequence number; ``cancel(seq)`` is
    idempotent and safe after the event fired, was cleared, or was
    already cancelled (it simply returns False then).
    """

    __slots__ = ("_heap", "_pending", "_seq")

    def __init__(self) -> None:
        self._heap: List[EventEntry] = []
        # Seqs scheduled but neither dispatched nor cancelled.  Membership
        # here is the single source of truth for liveness; heap entries
        # whose seq is absent are skipped (and dropped) at pop/peek time.
        self._pending: Set[int] = set()
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._pending)

    def push(self, when: float, callback: Callable[[], Any], label: str = "") -> int:
        """Schedule ``callback`` at ``when``; returns the event's seq."""
        seq = next(self._seq)
        heappush(self._heap, (when, seq, callback, label))
        self._pending.add(seq)
        return seq

    def cancel(self, seq: int) -> bool:
        """Cancel the event; True if it was still pending, else False."""
        pending = self._pending
        if seq in pending:
            pending.remove(seq)
            return True
        return False

    def is_active(self, seq: int) -> bool:
        """True while the event has neither fired nor been cancelled."""
        return seq in self._pending

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next live event, or None if empty."""
        heap = self._heap
        pending = self._pending
        while heap:
            head = heap[0]
            if head[1] in pending:
                return head[0]
            heappop(heap)
        return None

    def pop(self) -> Optional[EventEntry]:
        """Remove and return the next live event entry, or None."""
        heap = self._heap
        pending = self._pending
        while heap:
            entry = heappop(heap)
            if entry[1] in pending:
                pending.remove(entry[1])
                return entry
        return None

    def clear(self) -> None:
        """Drop every scheduled event.

        Emptying ``pending`` marks every outstanding event cancelled, so
        surviving :class:`TimerHandle`s read ``active == False`` and a
        later ``handle.cancel()`` is a no-op rather than corrupting the
        live count.
        """
        self._heap.clear()
        self._pending.clear()

    def snapshot(self) -> Tuple[EventEntry, ...]:
        """Live entries in dispatch order; intended for tests/debugging."""
        pending = self._pending
        return tuple(sorted(e for e in self._heap if e[1] in pending))


class TimerHandle:
    """Cancellable, reschedulable reference to one scheduled callback.

    Returned by the kernel's ``call_at``/``call_after``/``call_soon`` for
    components that keep timers (liveness links, RPC timeouts, sweeps).
    The handle stays valid (but inert) after the timer fires or is
    cancelled.  The fire-and-forget ``schedule_*`` kernel API skips the
    handle entirely — that is the network transmit path.
    """

    __slots__ = ("_queue", "_clock", "_seq", "_callback", "_label", "when")

    def __init__(
        self,
        queue: EventQueue,
        clock: Clock,
        seq: int,
        when: float,
        callback: Callable[[], Any],
        label: str = "",
    ) -> None:
        self._queue = queue
        self._clock = clock
        self._seq = seq
        self._callback = callback
        self._label = label
        self.when = when

    @property
    def active(self) -> bool:
        """True while the timer has neither fired nor been cancelled."""
        return self._seq in self._queue._pending

    def cancel(self) -> None:
        """Cancel the timer; idempotent, and a no-op once fired/cleared."""
        self._queue.cancel(self._seq)

    def reschedule_at(self, when: float) -> bool:
        """Move a still-pending timer to ``when``, reusing its callback.

        Returns False when the timer already fired or was cancelled — the
        caller must create a fresh timer then.  Reuses the originally
        scheduled callback, including any liveness guard closed over it,
        so only reschedule timers owned by state that cannot outlive the
        callback's assumptions (e.g. a host incarnation).
        """
        if not when >= self._clock.now:  # inverted so that NaN fails it too
            raise ValueError(
                f"cannot reschedule into the past: now={self._clock.now} when={when}"
            )
        if not self._queue.cancel(self._seq):
            return False
        self._seq = self._queue.push(when, self._callback, self._label)
        self.when = when
        return True

    def reschedule_after(self, delay: float) -> bool:
        """Move a still-pending timer to ``delay`` ms from now."""
        if not delay >= 0:
            raise ValueError(f"negative delay: {delay}")
        return self.reschedule_at(self._clock.now + delay)

    def __repr__(self) -> str:
        state = "active" if self.active else "inert"
        return f"TimerHandle(when={self.when:.3f}, label={self._label!r}, {state})"
