"""The adversarial fault vocabulary: bursts, gray failure, perf windows.

Pins the new primitives end to end:

* ``GilbertElliott`` — validation, the fixed two-draw-per-packet RNG
  contract (draw count must not depend on chain state, or installing a
  burst would perturb unrelated streams), and burst statefulness;
* ``Topology.set_uniform_burst`` / ``set_link_burst`` / ``clear_burst``
  and the per-route burst cache in ``net.routing``;
* gray failure — liveness stays green while application traffic
  blackholes, and detection-driven ledger rows classify as
  ``gray_fail``;
* latency-inflation / bandwidth-contention factors;
* ``FaultInjector.snapshot`` / ``restore`` / ``clear_all`` (including
  the stale one-way-cut-after-heal regression);
* lane-plane interactions: bursts and perf faults flush every lane
  before the next micro-event and refuse re-absorption while active;
  gray failure ejects nobody (gray nodes answer pings).
"""

import pytest

from repro.fuse.api import NotificationReason
from repro.net.faults import FaultInjector
from repro.net.topology import GilbertElliott, Link, LinkKind, Topology
from repro.world import FuseWorld


class _CountingRng:
    """Deterministic stand-in that counts random() draws."""

    def __init__(self, values):
        self.values = list(values)
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.values[(self.draws - 1) % len(self.values)]


class TestGilbertElliott:
    def test_validation(self):
        with pytest.raises(ValueError):
            GilbertElliott(p_g2b=-0.1, p_b2g=0.5)
        with pytest.raises(ValueError):
            GilbertElliott(p_g2b=0.1, p_b2g=1.5)
        with pytest.raises(ValueError, match="NaN"):
            GilbertElliott(p_g2b=float("nan"), p_b2g=0.5)
        with pytest.raises(ValueError):
            GilbertElliott(p_g2b=0.1, p_b2g=0.5, loss_bad=1.0)  # losses are [0, 1)
        with pytest.raises(TypeError):
            GilbertElliott(p_g2b="high", p_b2g=0.5)
        # Transition probabilities may be exactly 1.0 (always flip).
        GilbertElliott(p_g2b=1.0, p_b2g=1.0)

    def test_two_draws_per_sample_in_both_states(self):
        model = GilbertElliott(p_g2b=1.0, p_b2g=0.0, loss_good=0.0, loss_bad=0.9)
        rng = _CountingRng([0.5])
        model.sample(rng)  # good state: no drop, transitions to bad
        assert rng.draws == 2
        assert model.bad
        model.sample(rng)  # bad state: 0.5 < 0.9 drops, stays bad
        assert rng.draws == 4
        assert model.bad

    def test_bursty_loss(self):
        import random

        model = GilbertElliott(p_g2b=0.05, p_b2g=0.3, loss_good=0.0, loss_bad=0.8)
        rng = random.Random(7)
        drops = [model.sample(rng) for _ in range(4000)]
        # Loss only happens in the bad state; the long-run rate sits
        # between loss_good and loss_bad, and drops arrive in runs.
        rate = sum(drops) / len(drops)
        assert 0.02 < rate < 0.4
        adjacent = sum(1 for a, b in zip(drops, drops[1:]) if a and b)
        assert adjacent > sum(drops) * 0.25  # far above independence


class TestTopologyBursts:
    def test_uniform_burst_install_and_clear(self):
        topo = Topology()
        a, b = topo.add_router(), topo.add_router()
        topo.add_link(a, b, 10.0, LinkKind.INTRA_AS)
        topo.attach_host(0, a)
        gen = topo.generation
        installed = topo.set_uniform_burst(0.02, 0.25)
        assert installed == topo.burst_link_count == 2  # core + access link
        assert topo.generation != gen
        gen = topo.generation
        assert topo.clear_burst() == 2
        assert topo.burst_link_count == 0
        assert topo.generation != gen

    def test_set_link_burst_type_checked(self):
        topo = Topology()
        a, b = topo.add_router(), topo.add_router()
        link = topo.add_link(a, b, 10.0, LinkKind.INTRA_AS)
        with pytest.raises(TypeError):
            topo.set_link_burst(link, 0.5)
        topo.set_link_burst(link, GilbertElliott(p_g2b=0.1, p_b2g=0.5))
        assert topo.burst_link_count == 1
        topo.set_link_burst(link, None)
        assert topo.burst_link_count == 0

    def test_route_burst_cache_tracks_generation(self):
        world = FuseWorld(n_nodes=8, seed=3)
        world.bootstrap()
        src, dst = world.node_ids[0], world.node_ids[1]
        route = world.net.routes.route(src, dst)
        assert route.current_burst() == ()
        world.topology.set_uniform_burst(0.02, 0.25)
        route = world.net.routes.route(src, dst)
        assert route.current_burst()
        world.topology.clear_burst()
        route = world.net.routes.route(src, dst)
        assert route.current_burst() == ()


class TestLossValidation:
    @pytest.mark.parametrize("bad", [float("nan"), -0.01, 1.0, 1.5])
    def test_set_uniform_loss_rejects(self, bad):
        topo = Topology()
        a, b = topo.add_router(), topo.add_router()
        topo.add_link(a, b, 10.0, LinkKind.INTRA_AS)
        with pytest.raises(ValueError):
            topo.set_uniform_loss(bad)

    @pytest.mark.parametrize("bad", [float("nan"), -0.01, 1.0])
    def test_set_link_loss_rejects(self, bad):
        topo = Topology()
        a, b = topo.add_router(), topo.add_router()
        link = topo.add_link(a, b, 10.0, LinkKind.INTRA_AS)
        with pytest.raises(ValueError):
            topo.set_link_loss(link, bad)

    def test_add_link_rejects_nan_loss(self):
        topo = Topology()
        a, b = topo.add_router(), topo.add_router()
        with pytest.raises(ValueError, match="NaN"):
            topo.add_link(a, b, 10.0, LinkKind.INTRA_AS, loss=float("nan"))

    def test_non_number_loss_is_type_error(self):
        with pytest.raises(TypeError):
            Link(0, 1, 1.0, LinkKind.OC3, loss="lossy")


class TestGrayFailure:
    def test_liveness_green_application_black(self):
        """The defining property: a gray node answers pings (overlay
        membership never drops it) while application traffic to it is
        silently dropped (the gray_drops counter)."""
        world = FuseWorld(n_nodes=10, seed=5)
        world.bootstrap()
        victim = world.node_ids[3]
        world.net.faults.gray_fail(victim)
        assert world.net.faults.can_communicate(world.node_ids[0], victim)
        world.run_for_minutes(4.0)
        assert world.overlay.member_count == 10  # no liveness suspicion
        # Application traffic: a blocking create through the victim
        # cannot complete — the create RPC blackholes.
        fid, status, _latency = world.create_group_sync(
            world.node_ids[0], [victim, world.node_ids[4]]
        )
        assert fid is None and status != "ok"
        assert world.sim.metrics.counter("net.gray_drops").value > 0

    def test_detection_rows_classify_as_gray_fail(self):
        world = FuseWorld(n_nodes=10, seed=5)
        world.bootstrap()
        fid, status, _latency = world.create_group_sync(
            world.node_ids[0], [world.node_ids[3], world.node_ids[4]]
        )
        assert status == "ok"
        world.net.faults.gray_fail(world.node_ids[3])
        # Detection-driven raw causes refine to GRAY_FAIL while a member
        # is gray; explicit signals stay SIGNALLED.
        assert world.ledger._classify(fid, "link-timeout") is NotificationReason.GRAY_FAIL
        assert world.ledger._classify(fid, "signaled") is NotificationReason.SIGNALLED

    def test_gray_recover_restores_delivery(self):
        world = FuseWorld(n_nodes=10, seed=5)
        world.bootstrap()
        victim = world.node_ids[3]
        faults = world.net.faults
        faults.gray_fail(victim)
        assert faults.is_gray_failed(victim)
        assert faults.has_link_faults()  # gray counts as a path-level fault
        assert not faults.any_faults()  # ...but not as a reachability fault
        faults.gray_recover(victim)
        assert not faults.is_gray_failed(victim)
        fid, status, _latency = world.create_group_sync(world.node_ids[0], [victim])
        assert fid is not None and status == "ok"


class TestPerfFaults:
    def test_factor_validation(self):
        faults = FaultInjector()
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                faults.inflate_latency(1, bad)
            with pytest.raises(ValueError):
                faults.contend_bandwidth(1, bad)

    def test_latency_factor_is_endpoint_product(self):
        faults = FaultInjector()
        assert faults.latency_factor(1, 2) == 1.0
        faults.inflate_latency(1, 3.0)
        faults.inflate_latency(2, 2.0)
        assert faults.latency_factor(1, 2) == pytest.approx(6.0)
        assert faults.latency_factor(1, 9) == pytest.approx(3.0)
        faults.restore_latency(1)
        assert faults.latency_factor(1, 2) == pytest.approx(2.0)

    def test_send_factor_and_visibility(self):
        faults = FaultInjector()
        assert not faults.has_perf_faults()
        faults.contend_bandwidth(4, 8.0)
        assert faults.send_factor(4) == 8.0
        assert faults.send_factor(5) == 1.0
        assert faults.has_perf_faults()
        assert not faults.any_faults()  # perf is not a reachability fault
        faults.restore_bandwidth(4)
        assert not faults.has_perf_faults()

    def test_inflated_latency_slows_delivery(self):
        def rpc_time(factor):
            world = FuseWorld(n_nodes=8, seed=11)
            world.bootstrap()
            if factor != 1.0:
                world.net.faults.inflate_latency(world.node_ids[2], factor)
            _fid, status, latency = world.create_group_sync(
                world.node_ids[0], [world.node_ids[2]]
            )
            assert status == "ok"
            return latency

        assert rpc_time(50.0) > rpc_time(1.0) * 5


class TestSnapshotRestore:
    def _populated(self):
        faults = FaultInjector()
        faults.crash(1)
        faults.disconnect(2)
        faults.block_pair(3, 4)
        faults.block_one_way(5, 6)
        faults.partition([[1, 2, 3], [4, 5, 6]])
        faults.gray_fail(7)
        faults.inflate_latency(8, 4.0)
        faults.contend_bandwidth(9, 8.0)
        return faults

    def test_round_trip(self):
        faults = self._populated()
        snap = faults.snapshot()
        before = repr(faults)
        faults.clear_all()
        assert not faults.any_faults() and not faults.has_link_faults()
        faults.restore(snap)
        assert repr(faults) == before
        assert faults.is_crashed(1) and faults.is_disconnected(2)
        assert faults.is_gray_failed(7)
        assert faults.latency_factor(8, 0) == 4.0
        assert faults.send_factor(9) == 8.0
        assert not faults.can_communicate(3, 4)
        assert not faults.can_communicate(1, 4)  # partition survives

    def test_snapshot_is_detached(self):
        faults = self._populated()
        snap = faults.snapshot()
        faults.crash(99)
        faults.restore(snap)
        assert not faults.is_crashed(99)

    def test_single_mutation_bump(self):
        faults = self._populated()
        snap = faults.snapshot()
        n = faults.mutation_count
        faults.restore(snap)
        assert faults.mutation_count == n + 1
        faults.clear_all()
        assert faults.mutation_count == n + 2

    def test_restore_missing_family_resets(self):
        faults = FaultInjector()
        snap = faults.snapshot()
        del snap["gray"]
        faults.gray_fail(3)
        faults.restore(snap)
        assert not faults.is_gray_failed(3)

    def test_gray_plus_burst_round_trip(self):
        """Regression: a snapshot of gray failure combined with bursty
        loss must round-trip *both* — burst chains live on the topology,
        and the injector-only snapshot silently dropped them (parameters
        and the good/bad state bit) on restore."""
        world = FuseWorld(n_nodes=8, seed=3)
        faults, topo = world.net.faults, world.topology
        faults.gray_fail(world.node_ids[2])
        installed = topo.set_uniform_burst(0.05, 0.4, loss_good=0.0, loss_bad=0.9)
        assert installed > 0
        # Drive some chains into the bad state so state (not just config)
        # is exercised by the round trip.
        rng = world.sim.rng.stream("test.burst")
        for link in list(topo.links())[:4]:
            for _ in range(50):
                link.burst.sample(rng)
        snap = faults.snapshot(topology=topo)
        bad_bits_before = [
            (key, params[4]) for key, params in sorted(snap["burst"].items(), key=repr)
        ]
        assert any(bad for _key, bad in bad_bits_before)

        faults.clear_all()
        cleared = topo.clear_burst()
        assert cleared == installed and topo.burst_link_count == 0

        faults.restore(snap, topology=topo)
        assert faults.is_gray_failed(world.node_ids[2])
        assert topo.burst_link_count == installed
        after = faults.snapshot(topology=topo)
        bad_bits_after = [
            (key, params[4]) for key, params in sorted(after["burst"].items(), key=repr)
        ]
        assert bad_bits_after == bad_bits_before

    def test_restore_without_burst_family_clears_chains(self):
        """Reset-absent semantics extend to the burst family: restoring a
        pre-burst snapshot against the topology removes the chains."""
        world = FuseWorld(n_nodes=8, seed=3)
        faults, topo = world.net.faults, world.topology
        snap = faults.snapshot(topology=topo)
        topo.set_uniform_burst(0.1, 0.5)
        faults.restore(snap, topology=topo)
        assert topo.burst_link_count == 0

    def test_clear_all_heals_stale_one_way_cuts(self):
        """Regression: healing via clear_all must drop one-way cuts too —
        a stale cut after 'heal everything' silently breaks agreement."""
        faults = FaultInjector()
        faults.block_one_way(1, 2)
        faults.block_one_way_sets([3], [4, 5])
        faults.clear_all()
        assert faults.can_communicate(1, 2)
        assert not faults.is_one_way_blocked(1, 2)
        assert not faults.is_one_way_blocked(3, 4)
        assert not faults.has_link_faults()


def _laned_world(n=16, seed=5):
    world = FuseWorld(n_nodes=n, seed=seed, liveness_lanes=True)
    world.bootstrap()
    world.run_for_minutes(1.5)
    plane = world.sim.lane_plane
    assert plane is not None and plane.lane_count == n
    return world, plane


class TestLaneInteractions:
    def test_gray_failure_keeps_every_lane(self):
        """Gray nodes answer pings, and the lane plane replays nothing but
        pings and acks: installing gray failure ejects nobody."""
        world, plane = _laned_world()
        ejects = plane.ejects
        world.net.faults.gray_fail(world.node_ids[2])
        world.run_for_minutes(2.5)
        assert plane.flushes == 0 and plane.ejects == ejects
        assert plane.lane_count == 16

    def test_perf_faults_refuse_absorption(self):
        world, plane = _laned_world()
        world.net.faults.inflate_latency(world.node_ids[2], 4.0)
        world.run_for_minutes(2.5)
        assert plane.lane_count == 0  # flushed and never re-absorbed
        world.net.faults.restore_latency(world.node_ids[2])
        world.run_for_minutes(2.5)
        assert plane.lane_count == 16

    def test_burst_refuses_absorption_until_cleared(self):
        world, plane = _laned_world()
        world.topology.set_uniform_burst(0.0, 1.0, loss_bad=0.0)  # inert chain
        world.run_for_minutes(2.5)
        assert plane.lane_count == 0
        world.topology.clear_burst()
        world.run_for_minutes(2.5)
        assert plane.lane_count == 16
