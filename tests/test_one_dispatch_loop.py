"""One dispatch loop for a laned world, held to the scalar loop.

While any node is laned, ``LanePlane.advance`` dispatches the main
heap's events itself, between micro-events, instead of handing each one
back to the kernel.  Every way a run can end or be disturbed mid-loop is
checked here against a lanes-off twin of the same world: the same
``events_dispatched``, ``sim.now``, trace records, ledger rows and
counters, in both modes.

* ``stop()`` from a heap event ends ``run()`` right after that event;
* ``run(max_events=k)`` ends on a heap event and on a micro-event;
* ``run_until`` ends on a predicate that turns true in a ping listener
  (a micro-event) or in a heap event, at its deadline, and when the queue
  drains after every node was ejected;
* a heap event that installs a partition or crashes a node (a fault
  mutation) or changes link loss (a topology generation, which flushes
  the lanes) is seen by the micro-events that follow it in the same loop;
* ``micro_events_dispatched`` counts micro-events only.
"""

import math

import pytest

from repro.world import FuseWorld

N = 20


def _world(mode):
    """A settled 20-node world with two groups; with lanes on, every node
    is laned when it is returned."""
    world = FuseWorld(n_nodes=N, seed=5, trace=True, liveness_lanes=mode)
    world.bootstrap()
    ids = world.node_ids
    for i in (0, 5):
        _fid, status, _latency = world.create_group_sync(ids[i], [ids[i + 3], ids[i + 7]])
        assert status == "ok"
    world.run_for_minutes(1.5)
    if mode == "on":
        assert world.sim.lane_plane.lane_count == N
    return world


def _observed(world, mark):
    sim = world.sim
    return {
        "events": sim.events_dispatched,
        "now": sim.now,
        "trace": [(rec.time, rec.message) for rec in list(sim.trace)[mark:]],
        "creates": [repr(tuple(row)) for row in world.ledger.creates],
        "notes": [
            (r.when, r.fuse_id, r.node, r.role, r.reason.value, r.raw, r.phase)
            for r in world.ledger.notes
        ],
        "counters": {name: c.value for name, c in sorted(sim.metrics.counters().items())},
    }


def _both(scenario, build=_world):
    """Run ``scenario(world)`` on a lanes-on and a lanes-off twin, require
    the same result and the same observables, and return the lanes-on
    world and result."""
    runs = {}
    for mode in ("on", "off"):
        world = build(mode)
        mark = len(world.sim.trace)
        result = scenario(world)
        runs[mode] = (world, result, _observed(world, mark))
    on, off = runs["on"], runs["off"]
    assert on[1] == off[1]
    for key in on[2]:
        assert on[2][key] == off[2][key], f"{key} differs with lanes on"
    return on[0], on[1]


def _last_label(world):
    return list(world.sim.trace)[-1].message


def _lanes(world):
    plane = world.sim.lane_plane
    return None if plane is None else plane.lane_count


class TestStop:
    def test_stop_in_a_heap_event_ends_run_after_it(self):
        seen = {}

        def scenario(world):
            sim = world.sim
            at = sim.now + 7_321.5

            def stop():
                seen.setdefault(world.lanes_mode, _lanes(world))
                sim.stop()

            sim.call_at(at, stop, label="test:stop")
            return sim.run(), sim.now == at

        world, (dispatched, at_stop) = _both(scenario)
        assert dispatched > 0 and at_stop
        assert _last_label(world) == "test:stop"
        assert seen["on"] == N


def _first_switch(micro):
    """The 1-based index of the lanes-on world's first micro-event (or
    heap event) that follows an event of the other kind, found one
    ``run(max_events=1)`` at a time.  Heap events are rare in a settled
    laned world: the first comes after some 900 micro-events."""
    world = _world("on")
    plane = world.sim.lane_plane
    last = None
    for k in range(1, 5_001):
        before = plane.micro_dispatched
        assert world.sim.run(max_events=1) == 1
        kind = plane.micro_dispatched == before + 1
        if kind is micro and last is not None and last is not micro:
            return k
        last = kind
    raise AssertionError("no switch between heap and micro-events")


class TestMaxEvents:
    @pytest.mark.parametrize("micro", [False, True], ids=["heap", "micro"])
    def test_max_events_lands_on_either_kind(self, micro):
        k = _first_switch(micro)
        world, dispatched = _both(lambda world: world.sim.run(max_events=k))
        assert dispatched == k
        assert world.sim.lane_plane.lane_count == N


class TestRunUntil:
    def test_predicate_turns_true_in_a_ping_listener(self):
        def scenario(world):
            heard = []
            node = world.overlay_node(world.node_ids[2])
            node.register_ping_listener(lambda src, payload, ack: heard.append((world.now, src, ack)))
            held = world.sim.run_until(lambda: len(heard) >= 3, timeout_ms=10 * 60_000.0)
            return held, heard

        world, (held, heard) = _both(scenario)
        assert held and len(heard) == 3
        assert _last_label(world) in ("rx:OverlayPing", "rx:OverlayPingAck")

    def test_predicate_turns_true_in_a_heap_event(self):
        def scenario(world):
            sim = world.sim
            flag = []
            at = sim.now + 5_000.25
            sim.call_at(at, lambda: flag.append(at), label="test:flag")
            return sim.run_until(lambda: bool(flag), timeout_ms=60_000.0), sim.now == at

        world, (held, at_flag) = _both(scenario)
        assert held and at_flag
        assert _last_label(world) == "test:flag"

    def test_deadline(self):
        def scenario(world):
            deadline = world.sim.now + 12_345.5
            return world.sim.run_until(lambda: False, timeout_ms=12_345.5), deadline

        world, (held, deadline) = _both(scenario)
        assert held is False
        # The event that carries the clock to the deadline is the last one.
        times = [rec.time for rec in world.sim.trace]
        assert times[-1] >= deadline > times[-2]
        assert world.sim.lane_plane.lane_count == N

    @pytest.mark.parametrize("wait_for_crash", [True, False], ids=["crash-then-drain", "drain"])
    def test_queue_drains_after_every_node_is_ejected(self, wait_for_crash):
        """The heap event that ejects the last laned node hands the loop
        back to the kernel, whose loop runs the queue dry; a predicate
        that turns true in that very event still ends the wait there."""

        def scenario(world):
            sim = world.sim
            crashed = []

            def crash_all():
                for node_id in world.node_ids:
                    world.crash(node_id)
                for delay in (1_000.0, 2_000.0):
                    sim.call_after(delay, lambda: None, label="test:after")
                crashed.append(sim.now)

            sim.call_at(sim.now + 3_000.5, crash_all, label="test:crash-all")
            first = None
            if wait_for_crash:
                first = sim.run_until(lambda: bool(crashed), timeout_ms=60_000.0), len(sim.queue)
            drained = sim.run_until(lambda: False, timeout_ms=math.inf)
            return first, drained, sim.now - crashed[0], len(sim.queue)

        world, (first, drained, after, left) = _both(scenario)
        assert first == ((True, 2) if wait_for_crash else None)
        assert drained is False and after == 2_000.0 and left == 0
        assert _last_label(world) == "test:after"
        assert world.sim.lane_plane.lane_count == 0

    def test_heap_head_cancelled_by_a_listener_is_not_dispatched(self):
        """A cancel pushes nothing, so the loop's cached heap head goes
        stale without a length change; it must be re-validated."""

        def scenario(world):
            sim = world.sim
            fired = []
            at = sim.now + 30_000.5
            handle = sim.call_at(at, lambda: fired.append(1), label="test:cancelled")

            def cancel_at_head(src, payload, ack):
                # Late enough that, with lanes on, the timer is the heap's
                # head, which the loop has cached.
                if handle.active and sim.now >= at - 5_000.0:
                    handle.cancel()

            world.overlay_node(world.node_ids[2]).register_ping_listener(cancel_at_head)
            sim.run(until=sim.now + 60_000.0)
            return fired, handle.active

        _world_on, (fired, active) = _both(scenario)
        assert fired == [] and not active


class TestHeapEventsMidLoop:
    """A heap event dispatched inside the lane loop changes what the
    following micro-events must read."""

    @staticmethod
    def _window(world, label, change):
        sim = world.sim
        plane = sim.lane_plane
        flushes = plane.flushes if plane is not None else None
        gen = world.topology.generation
        sim.call_at(sim.now + 4_000.5, change, label=label)
        sim.run(until=sim.now + 3 * 60_000.0)
        flushed = plane.flushes - flushes if plane is not None else None
        return world.topology.generation != gen, flushed

    def test_partition_refreshes_faults_clear(self):
        def scenario(world):
            ids = world.node_ids
            return self._window(
                world, "test:partition",
                lambda: world.net.faults.partition([ids[: N // 2], ids[N // 2:]]),
            )[0]

        world, bumped = _both(scenario)
        assert not bumped
        plane = world.sim.lane_plane
        assert plane.flushes == 0 and plane.lane_count > 0

    def test_crash_refreshes_the_connection_set(self):
        def scenario(world):
            return self._window(
                world, "test:crash", lambda: world.crash(world.node_ids[4])
            )[0]

        world, bumped = _both(scenario)
        assert not bumped
        plane = world.sim.lane_plane
        assert plane.flushes == 0 and plane.lane_count > 0

    def test_loss_change_flushes_stale_snapshots(self):
        flushed = {}

        def scenario(world):
            bumped, flushed[world.lanes_mode] = self._window(
                world, "test:loss", lambda: world.topology.set_uniform_loss(0.05)
            )
            return bumped

        world, bumped = _both(scenario)
        assert bumped and flushed["on"] == 1
        assert world.sim.lane_plane.lane_count > 0


    def test_absorb_in_a_heap_event_queues_an_earlier_timeout(self):
        """A node absorbed by its own (heap) sweep queues ping timeouts
        that can come before every laned sweep; when a pinged node
        crashes, its timeout must fire before a heap event that follows
        it."""
        plan = {}

        def build(mode):
            world = FuseWorld(n_nodes=4, seed=7, trace=True, liveness_lanes=mode)
            world.bootstrap()
            world.run_for_minutes(1.5)
            return world

        def scenario(world):
            sim = world.sim
            ocfg = world.overlay.config
            node = world.overlay_node(3)
            plane = sim.lane_plane
            if plane is not None:
                # Sweep the node, scalar, 25 s after the last laned sweep,
                # when every earlier flight is done, and check that no
                # laned sweep comes before its timeouts.
                others = [e.sweep_when for e in plane._entries.values() if e.node is not node]
                plane.eject_node(node, "table_change")
                plan["at"] = at = max(others) + 25_000.0
                assert min(others) + ocfg.ping_period_ms > at + ocfg.ping_timeout_ms + 1.0
            at = plan["at"]
            node._sweep_timer.reschedule_at(at)
            # The sweep pings the lowest neighbour first, one send overhead
            # after the sweep: crash it while that ping is in flight, so
            # the ping is never answered and its timeout fires.
            peer = min(node.neighbors())
            crash_at = at + 1.5 * world.net.config.send_overhead_ms
            sim.call_at(crash_at, lambda: world.crash(peer), label="test:crash")
            after = at + ocfg.ping_timeout_ms + 1.0
            sim.call_at(after, lambda: None, label="test:after-timeout")
            sim.run(until=after + 10_000.0)
            times = [rec.time for rec in sim.trace]
            return times == sorted(times)

        world, ordered = _both(scenario, build)
        assert ordered
        assert world.sim.lane_plane.ejects_by_cause["ping_timeout"] >= 1


class TestMicroEventCount:
    def test_micro_events_dispatched_counts_micro_events_only(self):
        world = _world("on")
        twin = _world("off")
        for w in (world, twin):
            w.run_for_minutes(2.0)
        stats = world.sim.lane_plane.stats()
        # Pinned on the two-loop kernel, where the count could hold
        # nothing but micro-events.
        assert stats["micro_events_dispatched"] == 4_720
        assert world.sim.events_dispatched == twin.sim.events_dispatched
