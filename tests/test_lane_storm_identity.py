"""Lane identity where loss and faults actually keep nodes laned.

The fault matrix (``tests/test_lane_fault_matrix.py``) runs 12-node
worlds and the golden dispatch scenario has no packet loss, so neither
contains a retransmission dispatched *by a lane* or a fault mutation that
a laned node rides out.  This file covers both: a storm-shaped scenario
at 100 nodes whose full dispatch trace must be equal with lanes on and
off, and unit cases — each against a lanes-off twin world — for the
corners of in-lane retransmission and of refresh-instead-of-flush.  A
500-node world adds the compressed-bootstrap regime (above
``FuseWorld.CLASSIC_BOOTSTRAP_MAX_NODES``) that every other lane identity
test stays below.
"""

import hashlib

import pytest

from repro.net.network import _SendAttemptState
from repro.net.transport import TransportConfig
from repro.scenarios import Phase, Scenario, execute_with_context
from repro.scenarios.tracks import (
    CrashRecoverWave, GroupWorkload, LinkLossRamp, Partition, RollingDisconnect,
)
from repro.world import FuseWorld

from tests.conftest import world_observables

MODES = ("on", "off")


# ----------------------------------------------------------------------
# (a) the storm, traced, in both modes
# ----------------------------------------------------------------------
def _storm(mode):
    scenario = Scenario(
        name="lane-storm-100", n_nodes=100,
        phases=(
            Phase("warmup", 1.0), Phase("storm", 2.5),
            Phase("split", 2.0), Phase("recover", 2.0),
        ),
        tracks=(
            GroupWorkload(30, 4, stream="storm.groups"),
            LinkLossRamp("storm", start_loss=0.004, end_loss=0.004, steps=1),
            RollingDisconnect(
                8, "storm", interval_minutes=0.25, down_minutes=1.5, stream="storm.faults",
            ),
            CrashRecoverWave(
                5, recover_phase="recover", crash_phase="storm", spacing_ms=100.0,
                stream="storm.churn",
            ),
            Partition("split", fractions=(0.6, 0.4), heal_after_minutes=1.0),
        ),
    )
    _, ctx = execute_with_context(
        scenario, 7,
        world_factory=lambda n, seed: FuseWorld(
            n_nodes=n, seed=seed, trace=True, liveness_lanes=mode
        ),
    )
    world = ctx.world
    digest = hashlib.sha256()
    labels = set()
    for rec in world.sim.trace:
        digest.update(f"{rec.time!r}|{rec.category}|{rec.message}\n".encode())
        labels.add(rec.message)
    return world, digest.hexdigest(), labels


def test_storm_dispatch_trace_identical_in_every_mode():
    runs = {mode: _storm(mode) for mode in MODES}
    world, want_sha, labels = runs["off"]
    want = world_observables(world)
    # The scenario does reach the paths under test.
    assert {"rtx:OverlayPing", "rtx:OverlayPingAck", "brk:OverlayPing"} <= labels
    laned, sha, _ = runs["on"]
    assert sha == want_sha, "dispatch trace diverged with lanes on"
    assert world_observables(laned) == want
    stats = laned.sim.lane_plane.stats()
    assert stats["ejects"] == sum(stats["ejects_by_cause"].values())
    # Lanes carried the storm: retransmissions ran (and sometimes ran
    # out) inside them, and the one loss ramp is the only flush.
    assert stats["micro_events_dispatched"] > 0.4 * want["events_dispatched"]
    assert stats["ejects_by_cause"]["retries_exhausted"] > 0
    assert stats["flushes"] == 1


def _compressed_run(lanes):
    """Eight groups spread over the id space and two crashes, on a world
    large enough for the compressed bootstrap schedule."""
    world = FuseWorld(n_nodes=500, seed=23, liveness_lanes=lanes)
    world.bootstrap()
    ids = world.node_ids
    n = len(ids)
    for i in range(8):
        root = ids[(i * n) // 8]
        world.create_group_sync(root, [ids[((i * n) // 8 + k * 7 + 1) % n] for k in range(4)])
    world.run_for(90_000.0)
    world.crash(ids[n // 3])
    world.crash(ids[(2 * n) // 3])
    world.run_for(120_000.0)
    return world


def test_compressed_bootstrap_world_identical_with_lanes_on_and_off():
    laned = _compressed_run("on")
    assert laned.join_interval_ms() < 200.0
    assert laned.sim.lane_plane.stats()["micro_events_dispatched"] > 0
    assert world_observables(laned) == world_observables(_compressed_run("off"))


# ----------------------------------------------------------------------
# (b) corners, each against a lanes-off twin
# ----------------------------------------------------------------------
def _pair(n=16, seed=5, **kwargs):
    """A settled world with every node laned, and its lanes-off twin."""
    worlds = []
    for lanes in (True, False):
        world = FuseWorld(n_nodes=n, seed=seed, liveness_lanes=lanes, **kwargs)
        world.bootstrap()
        world.run_for_minutes(1.5)
        worlds.append(world)
    world, twin = worlds
    assert world.sim.lane_plane.lane_count == n and twin.sim.lane_plane is None
    assert world_observables(world) == world_observables(twin)
    return world, twin, world.sim.lane_plane


def _neighbours(world):
    a = world.node_ids[0]
    return a, min(world.overlay_node(a).neighbors())


def _step_until(world, condition, limit=200_000):
    for _ in range(limit):
        if condition():
            return
        assert world.sim.step(), "queue drained before the condition held"
    raise AssertionError("condition never held")


def _finish(world, twin, until_ms):
    """Run both worlds to ``until_ms`` and require identical observables."""
    for w in (world, twin):
        w.sim.run(until=until_ms)
    assert world_observables(world) == world_observables(twin)


def test_generation_flush_materializes_a_retry_mid_backoff():
    world, twin, plane = _pair()
    start = world.now
    a, b = _neighbours(world)
    for w in (world, twin):
        w.net.faults.block_pair(a, b)
    _step_until(world, lambda: plane._retries)
    assert plane.ejects == 0 and plane.flushes == 0
    state = next(iter(plane._retries.values()))
    assert isinstance(state, _SendAttemptState)
    counters = (state.attempt_index, state.rto_ms)
    assert counters == (1, 2 * world.net.config.rto_initial_ms)
    # Loss changes while the retransmission is pending: the generation
    # bump flushes, and the retry lands on the heap mid-backoff.
    bump_at = world.now + 50.0
    for w in (world, twin):
        w.sim.call_at(bump_at, lambda w=w: w.topology.set_uniform_loss(0.01))
    world.sim.run(until=bump_at + 60.0)
    assert plane.flushes == 1 and not plane._retries
    assert plane.ejects_by_cause["flush"] == 16 == plane.ejects
    pushed = [e for e in world.sim.queue._heap if getattr(e[2], "__self__", None) is state]
    assert len(pushed) == 1 and pushed[0][2] == state.attempt
    assert (state.attempt_index, state.rto_ms) == counters
    _finish(world, twin, start + 180_000.0)
    assert world.sim.metrics.counter("net.connection_breaks").value >= 1


def test_ping_timeout_fires_while_a_retry_is_pending():
    # A first retransmission timeout past the ping timeout: the pending-ack
    # timer fires while the ping is still backing off.
    transport = TransportConfig(rto_initial_ms=45_000.0)
    world, twin, plane = _pair(transport=transport)
    start = world.now
    a, b = _neighbours(world)
    for w in (world, twin):
        w.net.faults.block_pair(a, b)
    _step_until(world, lambda: plane.ejects_by_cause["ping_timeout"])
    # The timeout barrier ejected the pinger; its retry went to the heap
    # with the backoff it had reached.
    assert plane.flushes == 0 and not plane._retries
    states = [
        e[2].__self__ for e in world.sim.queue._heap
        if isinstance(getattr(e[2], "__self__", None), _SendAttemptState)
        and e[2].__self__.attempt_index
    ]
    assert states and all(s.rto_ms == 90_000.0 for s in states)
    _finish(world, twin, start + 300_000.0)


def test_ack_leg_exhausts_its_retries():
    world, twin, plane = _pair()
    start = world.now
    # ``a`` is whichever of the two sweeps first, so its ping is in flight
    # before ``b`` finds out that its own pings to ``a`` vanish too.
    a, b = sorted(
        _neighbours(world),
        key=lambda n: plane._entries[world.overlay_node(n)].sweep_when,
    )
    for w in (world, twin):
        w.net.faults.block_one_way(b, a)  # pings a->b arrive, acks b->a vanish
    # An ack has no failure callback: its break only ejects.
    _step_until(world, lambda: any(s.on_fail is None for s in plane._retries.values()))
    breaks = world.sim.metrics.counter("net.connection_breaks")
    before = breaks.value
    exhausted = plane.ejects_by_cause["retries_exhausted"]
    _step_until(world, lambda: not any(s.on_fail is None for s in plane._retries.values()))
    assert breaks.value == before + 1
    assert plane.ejects_by_cause["retries_exhausted"] == exhausted + 1
    assert not plane.is_laned(world.overlay_node(a))
    _finish(world, twin, start + 180_000.0)


def test_a_fault_far_away_ejects_nobody():
    world, twin, plane = _pair(n=48)
    start = world.now
    a = world.node_ids[0]
    far = next(
        n for n in world.node_ids
        if n != a and n not in world.overlay_node(a).neighbors()
    )
    for w in (world, twin):
        w.disconnect(far)
    # No connection can break in under 3 s of backoff, so nothing has
    # happened yet that concerns anyone: every node is still laned.
    world.run_for(2_500.0)
    twin.run_for(2_500.0)
    assert plane.ejects == 0 and plane.flushes == 0 and plane.lane_count == 48
    _finish(world, twin, start + 240_000.0)
    # ``a`` never pinged the victim: it left its lane only when repair
    # changed its table (if at all), never for a flush or a break.
    assert plane.flushes == 0


def test_crash_and_restart_inside_one_ping_period():
    world, twin, plane = _pair()
    start = world.now
    victim = world.node_ids[3]
    for w in (world, twin):
        w.crash(victim)
    assert plane.ejects_by_cause == {
        "flush": 0, "retries_exhausted": 0, "ping_timeout": 0,
        "table_change": 0, "teardown": 1,
    }
    for w in (world, twin):
        w.run_for(5_000.0)
        w.restart(victim)
    assert plane.flushes == 0
    _finish(world, twin, start + 300_000.0)
    assert world.overlay.member_count == twin.overlay.member_count
