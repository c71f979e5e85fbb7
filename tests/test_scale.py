"""Paper-scale behaviour: lazy routing bounds, sharded-sweep determinism,
and route-cache invalidation across shard processes.

These tests pin the properties the scale rework (O(n)-ish bootstrap,
lazy contracted-graph routing, sharded scenario sweeps) must keep:

* bootstrap never precomputes routes for host pairs that never
  communicated — the route table stays bounded by actual traffic;
* a sharded sweep (``--jobs 2``) archives byte-identical JSON to a
  serial run, shard for shard;
* ``Topology.generation`` bumps invalidate lazily-built route caches the
  same way in the parent process and in a forked shard;
* the scipy-accelerated kernel Dijkstra and the pure-Python fallback
  produce identical routes (when scipy is available to compare).
"""

from __future__ import annotations

import json
import multiprocessing
import random

import pytest

from repro.net.mercator import MercatorConfig, build_mercator_topology
from repro.net.routing import RouteTable
from repro.scenarios.runner import apply_overrides, run_scenario_sweep
from repro.scenarios.timeline import Phase, Scenario
from repro.scenarios.tracks import GroupWorkload
from repro.world import FuseWorld


class TestLazyRouting:
    def test_bootstrap_does_not_precompute_silent_pairs(self):
        """Route state after bootstrap is bounded by pairs that actually
        communicated, not by n^2 — the core of the lazy-routing design."""
        world = FuseWorld(n_nodes=500, seed=3)
        world.bootstrap()
        n = len(world.node_ids)
        routes = world.net.routes.cached_route_count
        trees = world.net.routes.cached_tree_count
        assert routes > 0
        # Every node talks to its overlay neighbors (leaf set 16 + ring
        # pointers) plus join-time traffic; a generous per-node budget is
        # still vastly below the n*(n-1) all-pairs table.
        assert routes <= n * 60
        assert routes < n * (n - 1) / 10
        # Distance rows exist only for kernel routers, a fraction of all.
        assert 0 < trees < world.topology.router_count

    def test_auto_bootstrap_joins_everyone(self):
        """The compressed join schedule (> 400 nodes) still yields a
        fully-joined overlay."""
        world = FuseWorld(n_nodes=500, seed=3)
        assert world.join_interval_ms() < 200.0
        world.bootstrap()
        assert world.overlay.member_count == 500

    def test_classic_worlds_keep_200ms_schedule(self):
        world = FuseWorld(n_nodes=30, seed=3)
        assert world.join_interval_ms() == 200.0


def _sweep_scenario() -> Scenario:
    return Scenario(
        name="scale-sweep-test",
        n_nodes=1000,
        seed=7,
        phases=(Phase("warmup", 0.5), Phase("measure", 0.5, measure=True)),
        tracks=(GroupWorkload(n_groups=4, group_size=4),),
    )


def _archive_lines(jobs: int) -> list:
    lines = []

    def sink(trial):
        lines.append(
            json.dumps(trial.to_json_dict(include_timing=False), sort_keys=True)
        )

    run_scenario_sweep(
        _sweep_scenario(),
        {"n_nodes": [1000]},
        jobs=jobs,
        seeds=(7, 8),
        on_result=sink,
        keep_results=False,
    )
    return lines


class TestShardedSweep:
    def test_serial_vs_jobs2_byte_identical(self):
        """A 1,000-node sweep archived serially and with --jobs 2 must
        produce byte-identical JSON lines, in the same order."""
        serial = _archive_lines(jobs=1)
        parallel = _archive_lines(jobs=2)
        assert len(serial) == 2
        assert serial == parallel

    def test_apply_overrides_n_nodes_and_track_fields(self):
        scenario = _sweep_scenario()
        varied = apply_overrides(
            scenario, {"n_nodes": 48, "tracks.0.n_groups": 9}
        )
        assert varied.n_nodes == 48
        assert varied.tracks[0].n_groups == 9
        # The original is untouched (tracks are replaced, not mutated).
        assert scenario.n_nodes == 1000
        assert scenario.tracks[0].n_groups == 4

    def test_apply_overrides_rejects_unknown_axes(self):
        scenario = _sweep_scenario()
        with pytest.raises(ValueError):
            apply_overrides(scenario, {"bogus": 1})
        # Seeds replicate via --seeds; a seed "axis" would be silently
        # shadowed by the engine's per-trial seed derivation.
        with pytest.raises(ValueError):
            apply_overrides(scenario, {"seed": 1})
        with pytest.raises(ValueError):
            apply_overrides(scenario, {"tracks.5.n_groups": 1})
        with pytest.raises(ValueError):
            apply_overrides(scenario, {"tracks.0.bogus_field": 1})


def _shard_probe(topology, route, queue):
    """Runs in a forked shard: flip loss, check the lazily-built route
    cache refreshes through the generation counter."""
    before = route.current_loss()
    generation_before = topology.generation
    topology.set_uniform_loss(0.02)
    after = route.current_loss()
    queue.put(
        {
            "before": before,
            "after": after,
            "generation_bumped": topology.generation > generation_before,
        }
    )


class TestGenerationAcrossShards:
    @pytest.fixture
    def topo_and_table(self):
        config = MercatorConfig(n_hosts=20, n_as=4)
        topo, hosts = build_mercator_topology(config, random.Random(5))
        return topo, RouteTable(topo), hosts

    def test_generation_bump_invalidates_parent(self, topo_and_table):
        topo, table, hosts = topo_and_table
        route = table.route(hosts[0], hosts[7])
        assert route.current_loss() == 0.0
        topo.set_link_loss(route.core[0], 0.05)
        assert route.current_loss() > 0.0
        assert route.loss_static == 0.0  # build-time snapshot untouched

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_generation_bump_invalidates_forked_shard(self, topo_and_table):
        """A shard inheriting a warm route cache via fork must see its
        *own* loss mutations through the generation counter, and the
        parent's cache must stay untouched by the shard's mutation."""
        topo, table, hosts = topo_and_table
        route = table.route(hosts[0], hosts[7])
        assert route.current_loss() == 0.0  # warm the cache pre-fork

        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        proc = ctx.Process(target=_shard_probe, args=(topo, route, queue))
        proc.start()
        shard = queue.get(timeout=30)
        proc.join(timeout=30)

        assert shard["before"] == 0.0
        assert shard["after"] > 0.0
        assert shard["generation_bumped"]
        # Parent process: cache still valid, still lossless...
        assert route.current_loss() == 0.0
        # ...and the parent's own mutation invalidates identically.
        topo.set_uniform_loss(0.01)
        assert route.current_loss() > 0.0


class TestDijkstraImplementations:
    def test_scipy_and_python_trees_agree(self, monkeypatch):
        """The accelerated and fallback Dijkstra must materialize the
        same routes (unique shortest paths on generated topologies)."""
        import repro.net.routing as routing

        if routing._csr_matrix is None:
            pytest.skip("scipy not available; only the fallback exists")
        config = MercatorConfig(n_hosts=60, n_as=8)
        topo, hosts = build_mercator_topology(config, random.Random(11))
        fast = RouteTable(topo)
        slow = RouteTable(topo)
        rng = random.Random(13)
        pairs = [rng.sample(hosts, 2) for _ in range(80)]
        routes_fast = [fast.route(a, b) for a, b in pairs]
        monkeypatch.setattr(routing, "_sp_dijkstra", None)  # the pure-Python path
        for (a, b), route_fast in zip(pairs, routes_fast):
            route_slow = slow.route(a, b)
            assert route_fast.latency_ms == route_slow.latency_ms
            assert [l.endpoints() for l in route_fast.links] == [
                l.endpoints() for l in route_slow.links
            ]
