"""The World surface, written once and run on both backends.

``TestFuseWorld`` drives the simulator; ``TestLiveWorld`` runs the same
tests over real UDP sockets under heavy time compression (a virtual
minute in about 0.12 wall seconds).  Backend-only behaviour stays in its
own class: determinism and the Mercator check here, the socket-level
tests in ``tests/test_live_world.py``.
"""

import contextlib
import warnings

import pytest

from repro import FuseWorld
from repro.net import MercatorConfig
from repro.net.backends.liveworld import LiveWorld
from repro.net.transport import TransportConfig
from repro.world import BootstrapShortWarning

LIVE_SCALE = 0.002


class _WorldSurface:
    """Tests of :class:`repro.world.World`; subclasses supply the
    ``world`` fixture and ``bootstrapped(**kwargs)``, a context manager
    over a fresh bootstrapped world."""

    def test_bootstrap_joins_everyone(self, world):
        assert world.overlay.member_count == len(world.node_ids)

    def test_create_group_sync_reports_latency(self, world):
        fid, status, latency = world.create_group_sync(0, [1])
        assert status == "ok"
        assert latency > 0

    def test_create_group_sync_failure_path(self, world):
        world.disconnect(5)
        fid, status, latency = world.create_group_sync(0, [5])
        assert fid is None
        assert "unreachable" in status
        assert latency > 0

    def test_bootstrap_and_group_lifecycle(self, world):
        fid, status, latency = world.create_group_sync(0, [1, 2])
        assert status == "ok" and fid is not None
        assert fid.startswith("fuse-node-00000-")
        assert latency > 0.0
        assert world.sim.metrics.counter("net.deliveries").value > 0

    def test_crash_delivers_notifications_to_survivors(self, world):
        fid, status, _ = world.create_group_sync(0, [1, 2])
        assert status == "ok"
        world.crash(1)
        world.sim.run_until(
            lambda: len(world.ledger.member_notes(fid)) >= 2,
            timeout_ms=5 * 60_000.0,
        )
        notified = {rec.node for rec in world.ledger.member_notes(fid)}
        # One-way agreement: every surviving member hears about it.
        assert {0, 2} <= notified

    def test_restart_rejoins(self, world):
        world.crash(3)
        world.run_for_minutes(4)
        world.restart(3)
        name = world.overlay_node(3).name
        assert world.sim.run_until(lambda: world.overlay.is_member(name), timeout_ms=3 * 60_000.0)

    def test_alive_node_ids(self, world):
        world.crash(5)
        assert 5 not in world.alive_node_ids()
        assert len(world.alive_node_ids()) == len(world.node_ids) - 1

    def test_close_is_idempotent(self, world):
        with world:
            world.close()
        world.close()

    def test_transport_config_reaches_the_network(self):
        transport = TransportConfig(rto_initial_ms=100.0, max_retries=2)
        with self.bootstrapped(transport=transport) as world:
            assert world.net.config is transport
            fid, status, _ = world.create_group_sync(0, [1, 2])
            assert status == "ok" and fid is not None


class TestFuseWorld(_WorldSurface):
    @pytest.fixture
    def world(self, tiny_world):
        return tiny_world

    @staticmethod
    def bootstrapped(**kwargs):  # a simulated world holds nothing to close
        world = FuseWorld(
            n_nodes=12, seed=11, mercator=MercatorConfig(n_hosts=12, n_as=4), **kwargs
        )
        world.bootstrap()
        return world

    def test_mercator_must_cover_nodes(self):
        with pytest.raises(ValueError):
            FuseWorld(n_nodes=50, mercator=MercatorConfig(n_hosts=10, n_as=4))

    def test_deterministic_given_seed(self):
        def run(seed):
            world = FuseWorld(n_nodes=15, seed=seed, mercator=MercatorConfig(n_hosts=15, n_as=5))
            world.bootstrap()
            fid, status, latency = world.create_group_sync(0, [3, 7])
            return status, latency, world.sim.events_dispatched

        assert run(9) == run(9)

    def test_fig7_world_bootstraps_everyone(self):
        # Fig 7's size-16 trial world: node 91's join misses the classic
        # settle window and only lands after the straggler wait.
        world = FuseWorld(n_nodes=100, seed=7164925153664416764)
        world.bootstrap()
        assert world.overlay.member_count == 100

    def test_run_for_minutes_advances_clock(self, world):
        start = world.now
        world.run_for_minutes(2)
        assert world.now == start + 120_000.0


class TestShortBootstrap:
    """A world still short after the straggler wait says so: a typed
    warning naming the unjoined ids, and the lazily created
    ``overlay.bootstrap_unjoined`` counter."""

    @staticmethod
    def _world():
        return FuseWorld(n_nodes=12, seed=11, mercator=MercatorConfig(n_hosts=12, n_as=4))

    def test_node_crashed_before_bootstrap(self):
        world = self._world()
        world.crash(5)
        with pytest.warns(BootstrapShortWarning, match=r"11 of 12 nodes; unjoined node ids: \[5\]"):
            world.bootstrap()
        assert world.sim.metrics.counter("overlay.bootstrap_unjoined").value == 1

    def test_full_bootstrap_is_silent(self):
        world = self._world()
        with warnings.catch_warnings():
            warnings.simplefilter("error", BootstrapShortWarning)
            world.bootstrap()
        assert "overlay.bootstrap_unjoined" not in world.sim.metrics.counters()


class TestLiveWorld(_WorldSurface):
    @pytest.fixture
    def world(self):
        with self.bootstrapped() as world:
            yield world

    @staticmethod
    @contextlib.contextmanager
    def bootstrapped(**kwargs):
        with LiveWorld(n_nodes=6, seed=11, time_scale=LIVE_SCALE, **kwargs) as world:
            world.bootstrap(settle_ms=2_000.0)
            yield world
