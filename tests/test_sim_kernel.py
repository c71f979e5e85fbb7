"""Tests for the discrete-event kernel: clock, queue, timers, determinism."""

import pytest

from repro.sim import Clock, EventQueue, Simulator


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0.0

    def test_advance(self):
        clock = Clock()
        clock.advance_to(5.5)
        assert clock.now == 5.5

    def test_cannot_move_backwards(self):
        clock = Clock(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(9.0)

    def test_cannot_start_negative(self):
        with pytest.raises(ValueError):
            Clock(-1.0)

    def test_seconds(self):
        clock = Clock(1500.0)
        assert clock.seconds() == 1.5


class TestEventQueue:
    def test_pop_order_by_time(self):
        q = EventQueue()
        fired = []
        q.push(30.0, lambda: fired.append("c"))
        q.push(10.0, lambda: fired.append("a"))
        q.push(20.0, lambda: fired.append("b"))
        while True:
            entry = q.pop()
            if entry is None:
                break
            entry[2]()
        assert fired == ["a", "b", "c"]

    def test_tie_break_by_insertion_order(self):
        q = EventQueue()
        fired = []
        for tag in "abcde":
            q.push(5.0, lambda t=tag: fired.append(t))
        while (entry := q.pop()) is not None:
            entry[2]()
        assert fired == list("abcde")

    def test_cancelled_events_skipped(self):
        q = EventQueue()
        keep = q.push(1.0, lambda: None, label="keep")
        drop = q.push(0.5, lambda: None, label="drop")
        assert q.cancel(drop)
        popped = q.pop()
        assert popped is not None and popped[1] == keep
        assert q.pop() is None

    def test_len_tracks_live_events(self):
        q = EventQueue()
        e1 = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert len(q) == 2
        q.cancel(e1)
        q.peek_time()  # forces lazy cleanup of the heap entry
        assert len(q) == 1

    def test_len_reflects_cancellation_immediately(self):
        """Regression: cancel() must update len() even though the heap
        entry is only dropped lazily at pop time."""
        q = EventQueue()
        seqs = [q.push(float(i), lambda: None) for i in range(4)]
        assert q.cancel(seqs[2])
        assert len(q) == 3  # no peek/pop in between
        assert not q.cancel(seqs[2])  # idempotent: no double decrement
        assert len(q) == 3
        # Popping the remaining events drains the count to zero.
        while q.pop() is not None:
            pass
        assert len(q) == 0

    def test_len_after_pop_then_cancel(self):
        """Cancelling an already-popped event must not corrupt len()."""
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        popped = q.pop()
        assert popped is not None and popped[1] == first
        assert len(q) == 1
        assert not q.cancel(first)  # already fired: a no-op
        assert len(q) == 1

    def test_clear_detaches_events(self):
        q = EventQueue()
        seq = q.push(1.0, lambda: None)
        q.clear()
        assert len(q) == 0
        assert not q.is_active(seq)
        assert not q.cancel(seq)  # must not drive the live count negative
        assert len(q) == 0

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(7.0, lambda: None)
        assert q.peek_time() == 7.0


class TestSimulator:
    def test_call_at_and_now(self):
        sim = Simulator()
        seen = []
        sim.call_at(100.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [100.0]

    def test_call_after(self):
        sim = Simulator()
        sim.call_at(50.0, lambda: sim.call_after(25.0, lambda: seen.append(sim.now)))
        seen = []
        sim.run()
        assert seen == [75.0]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.call_at(10.0, lambda: None)
        sim.run()
        for when in (5.0, float("nan")):
            with pytest.raises(ValueError):
                sim.call_at(when, lambda: None)
            with pytest.raises(ValueError):
                sim.schedule_at(when, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator(seed=1)
        fired = []
        sim.call_at(5.0, lambda: fired.append(sim.now))
        sim.call_at(10.0, lambda: fired.append(sim.now))
        for delay in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                sim.call_after(delay, lambda: fired.append(sim.now))
            with pytest.raises(ValueError):
                sim.schedule_after(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0, 10.0]

    def test_run_until_advances_clock_even_if_queue_drains(self):
        sim = Simulator()
        sim.call_at(10.0, lambda: None)
        sim.run(until=500.0)
        assert sim.now == 500.0

    def test_run_until_leaves_future_events(self):
        sim = Simulator()
        fired = []
        sim.call_at(100.0, lambda: fired.append(1))
        sim.call_at(900.0, lambda: fired.append(2))
        sim.run(until=500.0)
        assert fired == [1]
        sim.run()
        assert fired == [1, 2]

    def test_timer_cancel(self):
        sim = Simulator()
        fired = []
        handle = sim.call_at(10.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []
        assert not handle.active

    def test_timer_active_until_fired(self):
        sim = Simulator()
        handle = sim.call_at(10.0, lambda: None)
        assert handle.active
        sim.run()
        assert not handle.active

    def test_max_events(self):
        sim = Simulator()
        for i in range(10):
            sim.call_at(float(i), lambda: None)
        dispatched = sim.run(max_events=4)
        assert dispatched == 4
        assert sim.now == 3.0

    def test_stop_requested_mid_run(self):
        sim = Simulator()
        fired = []
        sim.call_at(1.0, lambda: (fired.append(1), sim.stop()))
        sim.call_at(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_determinism_same_seed(self):
        def run(seed: int):
            sim = Simulator(seed=seed)
            rng = sim.rng.stream("x")
            out = []
            for i in range(20):
                sim.call_at(rng.uniform(0, 100), lambda i=i: out.append(i))
            sim.run()
            return out

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_run_is_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except RuntimeError as exc:
                errors.append(str(exc))

        sim.call_at(1.0, reenter)
        sim.run()
        assert errors and "reentrant" in errors[0]

    def test_events_dispatched_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.call_at(float(i), lambda: None)
        sim.run()
        assert sim.events_dispatched == 5

    def test_trace_records_dispatches(self):
        sim = Simulator(trace=True)
        sim.call_at(3.0, lambda: None, label="hello")
        sim.run()
        assert any("hello" in rec.message for rec in sim.trace)


class TestRunUntil:
    def test_predicate_met(self, sim):
        hits = []
        sim.call_at(100.0, lambda: hits.append(1))
        sim.call_at(500.0, lambda: hits.append(2))
        assert sim.run_until(lambda: hits, timeout_ms=1_000.0) is True
        assert sim.now == 100.0  # stops at the event that satisfied it

    def test_deadline(self, sim):
        def tick():
            sim.call_after(30.0, tick)

        sim.call_soon(tick)
        assert sim.run_until(lambda: False, timeout_ms=100.0) is False
        assert sim.now >= 100.0

    def test_empty_queue(self, sim):
        assert sim.run_until(lambda: False, timeout_ms=1_000.0) is False
        assert sim.now == 0.0

    def test_create_dispatches_like_a_step_loop(self, tiny_world):
        from repro import FuseWorld
        from repro.fuse.api import GroupStatus
        from repro.net import MercatorConfig

        twin = FuseWorld(n_nodes=12, seed=11, mercator=MercatorConfig(n_hosts=12, n_as=4))
        twin.bootstrap()
        done = []
        group = twin.create_group(0, [3, 6])
        group.on_live(done.append).on_notified(
            lambda g, _r: done.append(g) if g.status is GroupStatus.FAILED_CREATE else None
        )
        deadline = twin.sim.now + 120_000.0
        while not done and twin.sim.now < deadline:
            if not twin.sim.step():
                break

        fid, status, _ = tiny_world.create_group_sync(0, [3, 6])
        assert status == "ok" and done[0].fuse_id == fid
        assert tiny_world.sim.events_dispatched == twin.sim.events_dispatched
        assert tiny_world.now == twin.now
