"""Live backend end-to-end: kernel timer contract, sockets, wire faults.

These run real sockets and a real event loop under heavy time
compression (a virtual minute in well under a second of wall clock), so
they stay tier-1 fast while exercising the genuine wire path.
"""

import time

import pytest

from repro.fuse.messages import HardNotification
from repro.net.backends.asynckernel import STALL_SLACK_MS, AsyncioKernel
from repro.net.backends.livenet import LiveLossModel, LiveNetwork
from repro.net.backends.liveworld import LiveWorld
from repro.net.backends.wallclock import WallClock
from repro.net.node import Host
from repro.net.transport import TransportConfig
from repro.sim.trace import TraceLog

# Aggressive compression for tests: 1 virtual minute ≈ 0.12 wall seconds.
SCALE = 0.002


@pytest.fixture
def kernel():
    k = AsyncioKernel(seed=1, time_scale=SCALE)
    yield k
    k.close()


class TestWallClock:
    def test_monotone_and_scaled(self):
        # First tick is consumed as the origin at construction.
        ticks = iter([10.0, 10.5, 11.0, 12.0])
        clock = WallClock(time_scale=0.5, time_fn=lambda: next(ticks))
        assert clock.now == pytest.approx(1000.0)  # 0.5 wall s = 1 virtual s
        assert clock.now == pytest.approx(2000.0)
        assert clock.seconds() == pytest.approx(4.0)

    def test_wall_delay(self):
        clock = WallClock(time_scale=0.01, time_fn=lambda: 0.0)
        assert clock.wall_delay_s(60_000.0) == pytest.approx(0.6)

    def test_rejects_bad_scale(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                WallClock(time_scale=bad)

    def test_stall_past_the_horizon_is_charged(self):
        wall = [50.0]
        clock = WallClock(time_scale=0.01, time_fn=lambda: wall[0])
        clock.horizon = 1_000.0 + STALL_SLACK_MS  # head event due at 1 virtual s
        wall[0] += 0.005
        assert clock.now == pytest.approx(500.0)  # inside the horizon: runs freely
        wall[0] += 2.0  # a 2 s wall stall is 200 virtual s
        assert clock.now == 1_000.0 + STALL_SLACK_MS
        assert clock.stall_ms == pytest.approx(200_500.0 - 1_000.0 - STALL_SLACK_MS)
        assert clock.max_lateness_ms == clock.stall_ms
        clock.horizon = float("inf")  # the head event was dispatched
        wall[0] += 0.001
        assert clock.now == pytest.approx(1_000.0 + STALL_SLACK_MS + 100.0)


class TestAsyncioKernelContract:
    """The slice of the Simulator surface protocol code relies on.

    Virtual spans are kept large (seconds, not milliseconds): the wall
    clock keeps running between statements, and at SCALE=0.002 one wall
    millisecond of Python overhead is half a virtual second.
    """

    def test_timers_fire_in_order(self, kernel):
        fired = []
        kernel.call_after(60_000.0, lambda: fired.append("b"))
        kernel.call_after(20_000.0, lambda: fired.append("a"))
        kernel.run_for(120_000.0)
        assert fired == ["a", "b"]
        assert kernel.events_dispatched >= 2

    def test_same_instant_timers_fire_in_schedule_order(self, kernel):
        fired = []
        when = kernel.now + 10_000.0
        for index in range(50):
            if index % 2:
                kernel.call_at(when, lambda i=index: fired.append(i))
            else:
                kernel.schedule_at(when, lambda i=index: fired.append(i))
        kernel.run_for(30_000.0)
        assert fired == list(range(50))

    def test_loop_stall_does_not_expire_the_next_timer(self, kernel):
        # A callback that blocks the loop for 50 wall ms (25 virtual s at
        # this scale) is charged to the clock: the timer due 2 virtual s
        # later still fires within the slack of its due time.
        base = kernel.now
        fired_at = []
        kernel.call_at(base + 10_000.0, lambda: time.sleep(0.05))
        kernel.call_at(base + 12_000.0, lambda: fired_at.append(kernel.now))
        kernel.run_for(20_000.0)
        assert len(fired_at) == 1
        assert base + 12_000.0 <= fired_at[0] <= base + 12_000.0 + STALL_SLACK_MS
        assert kernel.clock.stall_ms > 20_000.0
        assert kernel.clock.max_lateness_ms > 20_000.0

    def test_call_at_past_clamps_instead_of_raising(self, kernel):
        # Deliberate deviation from Simulator.call_at (docs/BACKENDS.md):
        # on a wall clock "the past" is any instant spent computing.
        fired = []
        kernel.call_at(kernel.now - 500.0, lambda: fired.append(1))
        kernel.run_for(50.0)
        assert fired == [1]

    def test_negative_delay_still_raises(self, kernel):
        for delay in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                kernel.call_after(delay, lambda: None)
            with pytest.raises(ValueError):
                kernel.schedule_after(delay, lambda: None)
        # A NaN time is not a past instant to clamp: it raises too.
        with pytest.raises(ValueError):
            kernel.call_at(float("nan"), lambda: None)
        with pytest.raises(ValueError):
            kernel.schedule_at(float("nan"), lambda: None)

    def test_cancel_and_active(self, kernel):
        fired = []
        handle = kernel.call_after(30_000.0, lambda: fired.append(1))
        assert handle.active
        handle.cancel()
        assert not handle.active
        kernel.run_for(90_000.0)
        assert fired == []

    def test_reschedule_contract(self, kernel):
        fired = []
        handle = kernel.call_after(5_000.0, lambda: fired.append(1))
        assert handle.reschedule_after(100_000.0) is True
        kernel.run_for(20_000.0)
        assert fired == []  # moved past the window
        kernel.run_for(200_000.0)
        assert fired == [1]
        assert handle.reschedule_after(5_000.0) is False  # already fired

    def test_clock_stands_still_inside_a_dispatch(self, kernel):
        # A callback that blocks the loop for 20 wall ms (10 virtual s)
        # reads its event's time throughout, as on the simulator, and a
        # timer it schedules counts from that time, not from the wall.
        when = kernel.now + 10_000.0
        seen = []

        def callback():
            seen.append(kernel.now)
            time.sleep(0.02)
            seen.append(kernel.now)
            kernel.call_after(5_000.0, lambda: seen.append(kernel.now))

        kernel.call_at(when, callback)
        kernel.run_for(30_000.0)
        assert seen == [when, when, when + 5_000.0]

    def test_trace_records_every_dispatch(self):
        kernel = AsyncioKernel(seed=1, time_scale=SCALE, trace=True)
        try:
            base = kernel.now + 5_000.0
            for index, offset in enumerate((2_000.0, 0.0, 0.0, 1_000.0)):
                kernel.call_at(base + offset, lambda: None, label=f"e{index}")
            kernel.run_for(20_000.0)
            assert isinstance(kernel.trace, TraceLog)
            records = kernel.trace.filter(category="dispatch")
            assert [(r.time, r.message) for r in records] == [
                (base, "e1"), (base, "e2"), (base + 1_000.0, "e3"), (base + 2_000.0, "e0"),
            ]
        finally:
            kernel.close()

    def test_run_until_predicate(self, kernel):
        state = {"hit": False}
        kernel.call_after(10_000.0, lambda: state.update(hit=True))
        assert kernel.run_until(lambda: state["hit"], timeout_ms=100_000.0)
        assert not kernel.run_until(lambda: False, timeout_ms=5_000.0)

    def test_step_is_not_wall_paced_so_it_raises(self, kernel):
        kernel.call_after(1_000.0, lambda: None)
        with pytest.raises(RuntimeError, match="run_for or run_until"):
            kernel.step()

    def test_run_is_not_wall_paced_so_it_raises(self, kernel):
        fired = []
        kernel.call_after(60_000.0, lambda: fired.append(1))
        with pytest.raises(RuntimeError, match="run_for or run_until"):
            kernel.run()
        assert fired == []  # nothing dispatched ahead of the wall
        kernel.run_for(120_000.0)
        assert fired == [1]


class TestLiveWorld:
    """Live-only behaviour; the shared World surface is tested on both
    backends in ``tests/test_world.py``."""

    def test_fuse_ids_match_simulated_backend(self):
        """Deterministic ids are what lets the parity harness join
        ledgers across backends."""
        from repro.world import FuseWorld

        sim_world = FuseWorld(n_nodes=6, seed=11)
        sim_world.bootstrap()
        sim_fid, sim_status, _ = sim_world.create_group_sync(0, [1, 2])
        assert sim_status == "ok"
        with LiveWorld(n_nodes=6, seed=11, time_scale=SCALE) as world:
            world.bootstrap(settle_ms=2_000.0)
            live_fid, live_status, _ = world.create_group_sync(0, [1, 2])
            assert live_status == "ok"
            assert live_fid == sim_fid

    def test_time_scale_reaches_the_kernel_beside_a_transport(self):
        config = TransportConfig(rto_initial_ms=100.0)
        with LiveWorld(n_nodes=2, seed=1, time_scale=0.01, transport=config) as world:
            assert world.sim.clock.time_scale == 0.01
            assert world.net.config is config

    def test_loss_model_rejects_link_kinds(self):
        # The wire has no modeled links, so there are no kinds to filter.
        model = LiveLossModel()
        with pytest.raises(TypeError):
            model.set_uniform_loss(0.1, kinds=["oc3"])
        with pytest.raises(TypeError):
            model.set_uniform_burst(0.1, 0.5, kinds=["oc3"])

    def test_restart_rejoins_with_fresh_socket(self):
        with LiveWorld(n_nodes=6, seed=11, time_scale=SCALE) as world:
            world.bootstrap(settle_ms=2_000.0)
            port_before = world.net._addrs[3][1]
            world.crash(3)
            assert 3 not in world.net._addrs  # socket closed
            world.restart(3)
            # The socket reopens as a loop task; drive the loop until the
            # fresh endpoint is bound, then until membership recovers.
            assert world.sim.run_until(
                lambda: 3 in world.net._addrs, timeout_ms=60_000.0
            )
            world.sim.run_until(
                lambda: world.overlay.member_count == 6, timeout_ms=3 * 60_000.0
            )
            assert world.overlay.member_count == 6
            assert world.net._addrs[3][1] != port_before

    def test_partition_breaks_cross_traffic_only(self):
        with LiveWorld(n_nodes=6, seed=11, time_scale=SCALE) as world:
            world.bootstrap(settle_ms=2_000.0)
            world.net.faults.partition([[0, 1, 2], [3, 4, 5]])
            breaks = world.sim.metrics.counter("net.connection_breaks")
            world.run_for(3 * 60_000.0)
            # Cross-partition liveness traffic must break connections.
            assert breaks.value > 0

    def test_close_leaves_unacked_pairs_unconnected(self, kernel):
        net = LiveNetwork(kernel)
        sender, _ = Host(net, 0), Host(net, 1)
        kernel.run_coroutine(net.open_endpoints())
        net.crash_host(1)  # closes the destination's socket
        sender.send(1, HardNotification("fuse-x", "test"))
        net.close()
        assert not net.has_connection(0, 1)
