"""Determinism proofs for the tuple-heap event core.

Two layers of evidence:

* ``test_golden_dispatch_trace`` replays the canonical workload against
  the committed fixture ``tests/data/golden_dispatch.json``, which was
  generated by the event core *before* the tuple-heap rewrite.  Equality
  proves the rewrite preserved dispatch order, metrics, and FUSE
  notification times byte-for-byte.

* The ``TestKernelApiDeterminism`` cases exercise every scheduling
  surface (call_at/call_after/call_soon, schedule_*, cancel, reschedule,
  ``stop()`` mid-run) twice with the same seed and require identical
  dispatch sequences — and a different sequence for a different seed.
"""

import json
import pathlib

import pytest

from repro.sim import Simulator

from golden_scenario import run_golden_scenario

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_dispatch.json"


def test_golden_dispatch_trace():
    """The rewritten core reproduces the pre-rewrite core exactly."""
    want = json.loads(GOLDEN_PATH.read_text())
    got = run_golden_scenario(seed=want["seed"])
    assert got["trace_records"] == want["trace_records"]
    assert got["trace_sha256"] == want["trace_sha256"]
    assert got["events_dispatched"] == want["events_dispatched"]
    assert got["final_time_ms"] == want["final_time_ms"]
    assert got["counters"] == want["counters"]
    assert got["group_status"] == want["group_status"]
    assert got["notifications"] == want["notifications"]


def _mixed_api_workload(seed: int):
    """Drive every scheduling surface; returns the dispatch record."""
    sim = Simulator(seed=seed)
    rng = sim.rng.stream("workload")
    out = []

    def note(tag):
        out.append((sim.now, tag))

    handles = []
    for i in range(40):
        when = rng.uniform(0.0, 1_000.0)
        handles.append(sim.call_at(when, lambda i=i: note(f"at-{i}")))
    for i in range(20):
        sim.schedule_at(rng.uniform(0.0, 1_000.0), lambda i=i: note(f"sched-{i}"))

    # Cancel a deterministic subset before running.
    for i in range(0, 40, 5):
        handles[i].cancel()

    def midway():
        note("midway")
        # Same-time ordering: call_soon runs after already-queued events.
        sim.call_soon(lambda: note("soon"))
        sim.schedule_soon(lambda: note("sched-soon"))
        sim.call_after(100.0, lambda: note("after"))
        sim.schedule_after(150.0, lambda: note("sched-after"))
        # Reschedule a pending timer to a new deadline.
        for handle in handles:
            if handle.active:
                assert handle.reschedule_after(rng.uniform(0.0, 500.0))
                break

    sim.call_at(500.0, midway)
    sim.call_at(900.0, lambda: (note("stop"), sim.stop()))
    first = sim.run()
    resumed = sim.run()  # continue past the stop() point
    return out, first, resumed, sim.events_dispatched


class TestKernelApiDeterminism:
    def test_same_seed_identical_dispatch(self):
        assert _mixed_api_workload(11) == _mixed_api_workload(11)

    def test_different_seed_diverges(self):
        assert _mixed_api_workload(11)[0] != _mixed_api_workload(12)[0]

    def test_stop_respected_then_resumable(self):
        out, first, resumed, total = _mixed_api_workload(11)
        assert any(tag == "stop" for _t, tag in out)
        assert first + resumed == total
        stop_index = next(i for i, (_t, tag) in enumerate(out) if tag == "stop")
        # Events after the stop tag were dispatched by the second run.
        assert stop_index < len(out) - 1


class TestFuseWorldDeterminism:
    """Identical seed => identical experiment outputs through the full
    stack (overlay + FUSE + faults), exercising the rewritten send path."""

    def _run(self, seed: int):
        from repro.world import FuseWorld

        world = FuseWorld(n_nodes=20, seed=seed)
        world.bootstrap()
        rng = world.sim.rng.stream("determinism")
        groups = []
        observed = set()
        for _ in range(4):
            root, *members = rng.sample(world.node_ids, 4)
            fid, status, latency = world.create_group_sync(root, members)
            groups.append((fid, status, latency))
            if status == "ok":
                observed.update((fid, node) for node in (root, *members))
        world.crash(world.node_ids[5])
        world.run_for_minutes(12.0)
        notified = [
            (rec.when, rec.node, rec.fuse_id, rec.raw)
            for rec in world.ledger.notes
            if (rec.fuse_id, rec.node) in observed
        ]
        counters = {
            name: c.value for name, c in world.sim.metrics.counters().items()
        }
        return groups, sorted(notified), counters, world.sim.events_dispatched

    def test_same_seed_same_world(self):
        assert self._run(99) == self._run(99)


class TestClearRegression:
    """EventQueue.clear() must leave outstanding handles inert (the
    pre-rewrite core left them reading active=True, and cancelling one
    after clear corrupted the live count)."""

    def test_handle_inert_after_clear(self):
        sim = Simulator()
        fired = []
        handle = sim.call_at(10.0, lambda: fired.append(1))
        assert handle.active
        sim.queue.clear()
        assert len(sim.queue) == 0
        assert not handle.active
        handle.cancel()  # must be a no-op, not a live-count corruption
        handle.cancel()
        assert len(sim.queue) == 0
        # The queue keeps working after clear: new events dispatch fine.
        replacement = sim.call_at(5.0, lambda: fired.append(2))
        assert replacement.active
        assert sim.run() == 1
        assert fired == [2]
        assert len(sim.queue) == 0

    def test_cleared_timer_cannot_reschedule(self):
        sim = Simulator()
        handle = sim.call_after(10.0, lambda: None)
        sim.queue.clear()
        assert not handle.reschedule_after(5.0)
        assert len(sim.queue) == 0


class TestReschedule:
    def test_reschedule_moves_deadline(self):
        sim = Simulator()
        fired = []
        handle = sim.call_at(10.0, lambda: fired.append(sim.now))
        assert handle.reschedule_at(25.0)
        assert handle.when == 25.0
        sim.run()
        assert fired == [25.0]

    def test_reschedule_after_fire_returns_false(self):
        sim = Simulator()
        handle = sim.call_at(10.0, lambda: None)
        sim.run()
        assert not handle.active
        assert not handle.reschedule_after(5.0)

    def test_reschedule_into_past_rejected(self):
        sim = Simulator()
        sim.call_at(50.0, lambda: None)
        handle = sim.call_at(100.0, lambda: None)
        sim.run(max_events=1)
        for when in (10.0, float("nan")):
            with pytest.raises(ValueError):
                handle.reschedule_at(when)
        for delay in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                handle.reschedule_after(delay)

    def test_reschedule_preserves_tie_break_order(self):
        """A rescheduled timer consumes a fresh seq, so it runs after
        events already queued at the same time — matching the behavior
        of cancel-plus-new-timer it replaces."""
        sim = Simulator()
        fired = []
        handle = sim.call_at(10.0, lambda: fired.append("rescheduled"))
        sim.call_at(20.0, lambda: fired.append("existing"))
        assert handle.reschedule_at(20.0)
        sim.run()
        assert fired == ["existing", "rescheduled"]
