"""One contract suite for every FUSE implementation: the overlay service
and the three alternative liveness topologies (§5.1) must all provide
distributed one-way agreement."""

import pytest

from repro import FuseWorld
from repro.experiments.ablation import alternative_deployment
from repro.fuse.api import GroupLedger
from repro.fuse.topologies import ALL_TO_ALL, DIRECT_TREE, DirectLinkFuse, Topology
from repro.net import MercatorConfig, Network, build_mercator_topology
from repro.net.node import Host
from repro.overlay import OverlayConfig
from repro.sim import Simulator

FAST = OverlayConfig(ping_period_ms=10_000.0, ping_timeout_ms=4_000.0)
ALTERNATIVES = ["direct", "all_to_all", "central"]


class Deployment:
    """A set of hosts running one FUSE implementation: ``overlay`` is
    FuseService on a FuseWorld; the rest are direct-link topologies, with
    one spare host as the central server."""

    def __init__(self, kind: str, n: int = 10, seed: int = 9):
        self.kind = kind
        if kind == "overlay":
            world = FuseWorld(n_nodes=n, seed=seed)
            world.bootstrap()
            self.sim, self.net, self.ledger = world.sim, world.net, world.ledger
            self.hosts = [world.host(nid) for nid in world.node_ids]
            self.services = [world.fuse(nid) for nid in world.node_ids]
            return
        self.sim = Simulator(seed=seed)
        topo, host_ids = build_mercator_topology(
            MercatorConfig(n_hosts=n + 1, n_as=4), self.sim.rng.stream("topology")
        )
        self.net = Network(self.sim, topo)
        self.hosts = [Host(self.net, h) for h in host_ids]
        self.ledger = GroupLedger(self.sim, self.net.faults)
        topology = {"direct": DIRECT_TREE, "all_to_all": ALL_TO_ALL}.get(kind)
        topology = topology or Topology(server=self.hosts[-1].node_id)
        services = [DirectLinkFuse(h, topology, FAST, ledger=self.ledger) for h in self.hosts]
        self.services, self.server = services[:-1], services[-1]

    def create_sync(self, root: int, members):
        outcome = {}
        handle = self.services[root].create_group(
            [self.hosts[m].node_id for m in members]
        )
        handle.on_live(lambda g: outcome.update(fid=g.fuse_id, status="ok"))
        handle.on_notified(
            lambda g, _reason: outcome.update(
                fid=None, status=g.create_failure_reason or "failed"
            )
            if "status" not in outcome
            else None
        )
        for _ in range(200_000):
            if "status" in outcome or not self.sim.step():
                break
        return outcome.get("fid"), outcome.get("status")

    def run_minutes(self, m: float):
        self.sim.run_for(m * 60_000.0)


@pytest.fixture(params=["overlay"] + ALTERNATIVES)
def deployment(request):
    return Deployment(request.param)


@pytest.fixture(params=ALTERNATIVES)
def alternative(request):
    return Deployment(request.param)


class TestAlternativeTopologies:
    def test_create_succeeds(self, deployment):
        fid, status = deployment.create_sync(0, [1, 2, 3])
        assert status == "ok"
        for m in (0, 1, 2, 3):
            assert fid in deployment.services[m].groups

    def test_create_fails_with_dead_member(self, deployment):
        deployment.net.disconnect_host(deployment.hosts[2].node_id)
        fid, status = deployment.create_sync(0, [1, 2])
        assert status != "ok"

    def test_explicit_signal_notifies_everyone(self, deployment):
        fid, status = deployment.create_sync(0, [1, 2, 3])
        assert status == "ok"
        deployment.services[2].signal_failure(fid)
        deployment.run_minutes(3)
        for m in (0, 1, 3):
            assert fid in deployment.services[m].notifications, (deployment.kind, m)

    def test_member_crash_notifies_survivors(self, alternative):
        fid, status = alternative.create_sync(0, [1, 2, 3])
        assert status == "ok"
        alternative.net.crash_host(alternative.hosts[3].node_id)
        alternative.run_minutes(5)
        for m in (0, 1, 2):
            assert fid in alternative.services[m].notifications, (alternative.kind, m)

    def test_handler_exactly_once(self, deployment):
        fid, status = deployment.create_sync(0, [1, 2])
        counts = {m: 0 for m in (0, 1, 2)}
        for m in counts:

            def handler(_f, m=m):
                counts[m] += 1

            deployment.services[m].register_failure_handler(fid, handler)
        deployment.services[1].signal_failure(fid)
        deployment.run_minutes(5)
        assert all(c == 1 for c in counts.values()), (deployment.kind, counts)

    def test_unknown_handler_fires_immediately(self, deployment):
        fired = []
        deployment.services[0].register_failure_handler("nope", fired.append)
        deployment.sim.run_for(100)
        assert fired == ["nope"]

    def test_shared_ledger_sees_every_member(self, deployment):
        """Handle/ledger parity with the overlay implementation: one
        deployment-wide ledger records every member's notification, so
        the creator's handle surface is complete."""
        fid, status = deployment.create_sync(0, [1, 2])
        assert status == "ok"
        deployment.services[1].signal_failure(fid)
        deployment.run_minutes(3)
        times = deployment.ledger.notification_times(fid)
        expected = {deployment.hosts[m].node_id for m in (0, 1, 2)}
        assert expected <= set(times), (deployment.kind, times)

    def test_independent_groups(self, deployment):
        fid_a, _ = deployment.create_sync(0, [1, 2])
        fid_b, _ = deployment.create_sync(0, [1, 2])
        deployment.services[1].signal_failure(fid_a)
        deployment.run_minutes(3)
        assert fid_a in deployment.services[2].notifications
        assert fid_b in deployment.services[2].groups


class TestTopologySpecifics:
    def test_all_to_all_latency_within_two_ping_periods(self):
        """§5.1: all-to-all reduces worst-case latency to ~2 ping periods."""
        dep = Deployment("all_to_all")
        fid, status = dep.create_sync(0, [1, 2, 3])
        assert status == "ok"
        times = {}
        for m in (0, 1, 2):

            def handler(_f, m=m):
                times[m] = dep.sim.now

            dep.services[m].register_failure_handler(fid, handler)
        t0 = dep.sim.now
        dep.net.crash_host(dep.hosts[3].node_id)
        dep.run_minutes(5)
        assert set(times) == {0, 1, 2}
        bound = 2 * FAST.ping_period_ms + FAST.ping_timeout_ms + FAST.liveness_silence_ms
        for m, t in times.items():
            assert t - t0 <= bound

    def test_central_server_death_fails_groups(self):
        """The server is a single point of trust: members detect its death
        and conservatively fail their groups."""
        dep = Deployment("central")
        fid, status = dep.create_sync(0, [1, 2])
        assert status == "ok"
        dep.net.crash_host(dep.server.host.node_id)
        dep.run_minutes(5)
        for m in (0, 1, 2):
            assert fid in dep.services[m].notifications

    def test_central_per_member_load_constant_in_groups(self):
        """Each member pings the server once per period no matter how
        many groups it belongs to."""
        dep = Deployment("central")
        for _ in range(5):
            fid, status = dep.create_sync(0, [1, 2])
            assert status == "ok"
        dep.sim.metrics.reset_counters()
        dep.run_minutes(5)
        pings = dep.sim.metrics.counter("net.msg.AltPing").value
        # 3 participating members x ~30 ten-second periods over 5 minutes,
        # independent of the 5 groups they all belong to.
        periods = (5 * 60_000.0) / FAST.ping_period_ms
        assert pings <= 3 * (periods + 1)

    def test_direct_tree_has_no_delegates(self):
        """Only group members ever hold state for a group."""
        dep = Deployment("direct")
        fid, status = dep.create_sync(0, [1, 2])
        assert status == "ok"
        dep.run_minutes(2)
        holders = [i for i, s in enumerate(dep.services) if fid in s.groups]
        assert sorted(holders) == [0, 1, 2]


class TestInstallPingGrace:
    @pytest.mark.parametrize("kind", ["direct-tree", "all-to-all", "central"])
    def test_no_faults_no_notifications(self, kind):
        """§6.3's grace on the direct-link monitor: a peer that pings or
        acks before a young group's create reached it is racing, not
        failing.  Without the grace this seed loses a group in each
        topology with no fault anywhere."""
        sim, ledger = alternative_deployment(kind, 40, 40, 6, seed=2)
        sim.run(until=sim.now + 600_000.0)
        assert ledger.notes == []
