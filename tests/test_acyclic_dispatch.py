"""The dispatch path makes no garbage the cyclic collector must find,
and ``Simulator.run()`` keeps the collector off while it dispatches.

The first half is the gate for the contributor rule in
docs/PERFORMANCE.md ("Memory management"): nothing scheduled, sent or
timed may hold a bound method of itself or a back-reference that outlives
its completion.  A violation shows as unreachable ``repro.*`` objects
after a collector-off run; the failure prints their type histogram.
"""

import collections
import gc

import pytest

from repro import FuseWorld
from repro.fuse.api import GroupStatus
from repro.net.backends.liveworld import LiveWorld
from repro.scenarios.builtin import BUILTIN
from repro.scenarios.timeline import execute_with_context
from repro.sim import Simulator


#: Worlds whose check failed stay referenced for the rest of the session:
#: dropped (pytest frees a failed test's frames late), a whole world is
#: legitimately cyclic and would fail every later check in this file too.
FAILED_WORLDS = []


@pytest.fixture
def assert_no_garbage():
    """Run the test body with automatic collection off and hand it
    ``check(world)``: one ``gc.collect()`` under ``DEBUG_SAVEALL`` that
    must find no unreachable ``repro.*`` object made since the fixture
    started, while ``world`` is still referenced."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()

    def check(world):
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            found = [o for o in gc.garbage if type(o).__module__.startswith("repro.")]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        if found:
            FAILED_WORLDS.append((world, found))
        histogram = collections.Counter(
            f"{type(o).__module__}.{type(o).__qualname__}" for o in found
        )
        assert not found, "unreachable objects left by the dispatch path:\n" + "\n".join(
            f"  {count:>7}  {name}" for name, count in histogram.most_common()
        )

    try:
        yield check
    finally:
        if was_enabled:
            gc.enable()


class TestNoUnreachableObjects:
    def test_bootstrap(self, assert_no_garbage):
        world = FuseWorld(n_nodes=200, seed=7)
        world.bootstrap()
        assert world.overlay.member_count == 200
        assert_no_garbage(world)

    def test_groups_crashes_and_signals(self, assert_no_garbage):
        world = FuseWorld(n_nodes=200, seed=7)
        world.bootstrap()
        rng = world.sim.rng.stream("test.acyclic")
        groups = []
        for _ in range(50):
            root, *members = rng.sample(world.node_ids, 6)
            groups.append(world.create_group(root, members))
        world.run_for_minutes(1)
        assert all(g.status is GroupStatus.LIVE for g in groups)
        for node_id in rng.sample(world.node_ids, 10):
            world.net.crash_host(node_id)
        world.run_for_minutes(3)
        for group in groups:
            group.signal()
        world.run_for_minutes(2)
        assert all(g.status is GroupStatus.NOTIFIED for g in groups)
        assert_no_garbage(world)

    def test_crash_while_groups_are_being_created(self, assert_no_garbage):
        # A crash drops a node's group state without cancelling its
        # bootstrap / install timers, so their callbacks must not hold it.
        world = FuseWorld(n_nodes=60, seed=7)
        world.bootstrap()
        rng = world.sim.rng.stream("test.acyclic")
        for k in range(10):
            root, *members = rng.sample(world.node_ids, 6)
            world.create_group(root, members)
            world.run_for(60.0 * k)
            world.net.crash_host(root)
            world.net.crash_host(members[0])
        world.run_for_minutes(5)
        assert_no_garbage(world)

    def test_live_world(self, assert_no_garbage):
        # The live path: a retransmit state must drop its timer when the
        # timer fires or the send retires, or _LivePending.timer -> handle
        # -> bound _on_timeout -> _LivePending is a cycle.
        with LiveWorld(n_nodes=16, seed=3, time_scale=0.01) as world:
            world.bootstrap()
            rng = world.sim.rng.stream("test.acyclic")
            for _ in range(4):
                root, *members = rng.sample(world.node_ids, 4)
                world.create_group_sync(root, members)
            world.run_for(60_000.0)
            assert world.sim.events_dispatched > 0
            assert_no_garbage(world)

    @pytest.mark.parametrize("name", sorted(BUILTIN))
    def test_quick_builtin_scenario(self, assert_no_garbage, name):
        measurements, ctx = execute_with_context(BUILTIN[name](True))
        assert ctx.world.sim.events_dispatched > 0
        assert_no_garbage(ctx)


def collections_so_far():
    return [generation["collections"] for generation in gc.get_stats()]


class TestKernelOwnsTheCollector:
    @pytest.fixture(autouse=True)
    def restore_collector(self):
        was_enabled = gc.isenabled()
        yield
        (gc.enable if was_enabled else gc.disable)()

    def test_run_pauses_and_restores_enabled(self):
        gc.enable()
        sim = Simulator(seed=1)
        seen = []
        sim.call_after(1.0, lambda: seen.append(gc.isenabled()))
        sim.run()
        assert seen == [False]
        assert gc.isenabled()

    def test_run_leaves_a_disabled_collector_disabled(self):
        gc.disable()
        sim = Simulator(seed=1)
        sim.call_after(1.0, lambda: None)
        sim.run()
        assert not gc.isenabled()

    def test_restored_when_a_callback_raises(self):
        gc.enable()
        sim = Simulator(seed=1)

        def boom():
            raise RuntimeError("boom")

        sim.call_after(1.0, boom)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert gc.isenabled()

    def test_restored_after_stop(self):
        gc.enable()
        sim = Simulator(seed=1)
        sim.call_after(1.0, sim.stop)
        sim.call_after(2.0, lambda: None)
        assert sim.run() == 1
        assert gc.isenabled()

    def test_reentrant_run_error_leaves_the_pause_to_the_outer_run(self):
        gc.enable()
        sim = Simulator(seed=1)
        seen = []

        def reenter():
            with pytest.raises(RuntimeError, match="reentrant"):
                sim.run()
            seen.append(gc.isenabled())

        sim.call_after(1.0, reenter)
        sim.run()
        assert seen == [False]  # the failed inner call did not re-enable it
        assert gc.isenabled()

    def test_no_collection_inside_a_long_run(self):
        gc.enable()
        sim = Simulator(seed=1)
        remaining = [50_000]
        kept = []
        counts = []

        def tick():
            kept.append([])  # net container growth is what triggers a pass
            remaining[0] -= 1
            if remaining[0]:
                sim.schedule_after(1.0, tick)
            else:
                counts.append(collections_so_far())

        sim.schedule_after(1.0, tick)
        before = collections_so_far()
        assert sim.run() == 50_000
        assert counts == [before]

    def test_step_does_not_touch_the_collector(self):
        gc.enable()
        sim = Simulator(seed=1)
        seen = []
        sim.call_after(1.0, lambda: seen.append(gc.isenabled()))
        assert sim.step()
        assert seen == [True]
        assert gc.isenabled()


def test_gc_share_check_passes_on_a_small_world(capsys):
    """CI's ``scripts/gc_share.py --nodes 400 --check``, at a tier-1 size."""
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "gc_share.py"
    spec = importlib.util.spec_from_file_location("gc_share", path)
    gc_share = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gc_share)
    assert gc_share.main(["--nodes", "60", "--window", "churn", "--check"]) == 0
    out = capsys.readouterr().out
    assert "passes started inside Simulator.run(): 0" in out
    assert "collector-off run: 0 unreachable objects" in out
