"""Tests for the applications: SV trees, SWIM membership, CDN replication."""

import pytest

from repro import FuseWorld
from repro.apps.cdn import CdnOrigin, CdnReplica
from repro.apps.membership import SwimConfig, SwimMember
from repro.apps.svtree import SVTreeService
from repro.net import MercatorConfig


def bootstrapped_world(n=24, seed=17):
    world = FuseWorld(n_nodes=n, seed=seed, mercator=MercatorConfig(n_hosts=n, n_as=8))
    world.bootstrap()
    return world


def attach_svtree(world):
    return {nid: SVTreeService(world.fuse(nid)) for nid in world.node_ids}


class TestSVTree:
    def test_subscribe_then_publish_delivers(self):
        world = bootstrapped_world()
        sv = attach_svtree(world)
        got = []
        sv[3].subscribe("news", lambda topic, ev: got.append((3, ev)))
        sv[7].subscribe("news", lambda topic, ev: got.append((7, ev)))
        world.run_for_minutes(1)
        sv[11].publish("news", "hello")
        world.run_for_minutes(1)
        assert sorted(got) == [(3, "hello"), (7, "hello")]

    def test_no_duplicate_delivery(self):
        world = bootstrapped_world()
        sv = attach_svtree(world)
        got = []
        for nid in (3, 7, 12, 15):
            sv[nid].subscribe("dup", lambda topic, ev, nid=nid: got.append(nid))
        world.run_for_minutes(1)
        sv[0].publish("dup", "x")
        world.run_for_minutes(1)
        assert sorted(got) == [3, 7, 12, 15]

    def test_nonsubscribers_get_nothing(self):
        world = bootstrapped_world()
        sv = attach_svtree(world)
        got = []
        sv[3].subscribe("only3", lambda t, ev: got.append(3))
        world.run_for_minutes(1)
        sv[5].publish("only3", "x")
        world.run_for_minutes(1)
        assert got == [3]

    def test_links_are_fuse_guarded(self):
        world = bootstrapped_world()
        sv = attach_svtree(world)
        sv[3].subscribe("g", lambda t, e: None)
        sv[7].subscribe("g", lambda t, e: None)
        world.run_for_minutes(1)
        assert sv[3].group_sizes or sv[7].group_sizes
        for size in sv[3].group_sizes + sv[7].group_sizes:
            assert size >= 2

    def test_subscriber_recovers_after_parent_crash(self):
        world = bootstrapped_world(n=30, seed=23)
        sv = attach_svtree(world)
        got = []
        subscribers = [3, 7, 12, 15, 21, 26]
        for nid in subscribers:
            sv[nid].subscribe("live", lambda t, ev, nid=nid: got.append((nid, ev)))
        world.run_for_minutes(2)
        # Crash whichever node roots the tree (subscribers reattach around it).
        from repro.apps.svtree.service import topic_root_name
        root_name = world.overlay.overlay_route(
            world.overlay_node(3).name, topic_root_name("live")
        )[-1]
        root_id = next(
            nid for nid in world.node_ids if world.overlay_node(nid).name == root_name
        )
        world.crash(root_id)
        world.run_for_minutes(12)  # detection + garbage collection + rejoin
        sv[0].publish("live", "after-crash")
        world.run_for_minutes(3)
        receivers = {nid for nid, ev in got if ev == "after-crash"}
        expected = {nid for nid in subscribers if nid != root_id}
        missing = expected - receivers
        assert len(missing) <= 1, f"too many subscribers lost: {missing}"

    def test_unsubscribe_signals_groups(self):
        world = bootstrapped_world()
        sv = attach_svtree(world)
        sv[3].subscribe("bye", lambda t, e: None)
        world.run_for_minutes(1)
        groups_before = len(world.fuse(3).groups)
        sv[3].unsubscribe("bye")
        world.run_for_minutes(1)
        assert "bye" not in sv[3].subscribed_topics()
        assert len(world.fuse(3).groups) <= groups_before


class TestSwim:
    def make_swim(self, n=12, seed=5):
        world = bootstrapped_world(n=n, seed=seed)
        cfg = SwimConfig(protocol_period_ms=5_000.0, probe_timeout_ms=2_000.0)
        members = {
            nid: SwimMember(world.host(nid), world.node_ids, cfg) for nid in world.node_ids
        }
        for m in members.values():
            m.start()
        return world, members

    def test_stable_system_no_false_positives(self):
        world, members = self.make_swim()
        world.run_for_minutes(5)
        for member in members.values():
            assert member.failed_view == set()

    def test_crash_detected_and_gossiped(self):
        world, members = self.make_swim()
        world.run_for_minutes(1)
        world.crash(4)
        world.run_for_minutes(10)
        detected = [nid for nid, m in members.items() if nid != 4 and 4 in m.failed_view]
        assert len(detected) >= len(members) - 2  # near-complete dissemination

    def test_membership_cannot_scope_intransitive_failure(self):
        """§2's limitation: with an A-B link broken but both reachable via
        proxies, SWIM keeps both alive — applications block.  FUSE scopes
        the failure to the affected group (see TestIntransitiveConnectivity
        in test_fuse_failures.py for the contrast)."""
        world, members = self.make_swim()
        world.net.faults.block_pair(2, 6)
        world.run_for_minutes(10)
        # Indirect probing masks the broken pair: neither node is failed.
        assert 6 in members[2].alive_view
        assert 2 in members[6].alive_view


class TestCdn:
    def test_place_and_read(self):
        world = bootstrapped_world()
        origin = CdnOrigin(world.fuse(0))
        replicas = {nid: CdnReplica(world.fuse(nid)) for nid in (4, 8, 12)}
        done = []
        origin.place("doc1", "v1", [4, 8, 12], on_done=done.append)
        world.run_for_minutes(1)
        assert done == [True]
        for replica in replicas.values():
            assert replica.get("doc1") == "v1"

    def test_update_push(self):
        world = bootstrapped_world()
        origin = CdnOrigin(world.fuse(0))
        replicas = {nid: CdnReplica(world.fuse(nid)) for nid in (4, 8)}
        origin.place("doc", "v1", [4, 8])
        world.run_for_minutes(1)
        assert origin.push_update("doc", "v2")
        world.run_for_minutes(1)
        assert replicas[4].get("doc") == "v2"
        assert replicas[8].get("doc") == "v2"

    def test_replica_failure_invalidates_fate_shared_copies(self):
        world = bootstrapped_world()
        lost = []
        origin = CdnOrigin(world.fuse(0), on_replicas_lost=lost.append)
        replicas = {nid: CdnReplica(world.fuse(nid)) for nid in (4, 8, 12)}
        origin.place("doc", "v1", [4, 8, 12])
        world.run_for_minutes(1)
        world.disconnect(8)
        world.run_for_minutes(10)
        assert lost == ["doc"]
        # The surviving replicas no longer serve the document: fate-shared.
        assert replicas[4].get("doc") is None
        assert replicas[12].get("doc") is None
        assert "doc" in replicas[4].invalidations

    def test_origin_can_re_replicate_after_loss(self):
        world = bootstrapped_world()
        lost = []
        origin = CdnOrigin(world.fuse(0), on_replicas_lost=lost.append)
        CdnReplica(world.fuse(4))
        CdnReplica(world.fuse(8))
        fresh = CdnReplica(world.fuse(16))
        origin.place("doc", "v1", [4, 8])
        world.run_for_minutes(1)
        world.disconnect(8)
        world.run_for_minutes(10)
        assert lost == ["doc"]
        origin.place("doc", "v1", [4, 16])
        world.run_for_minutes(1)
        assert fresh.get("doc") == "v1"
        assert origin.live_documents() == ["doc"]

    def test_stale_update_ignored(self):
        world = bootstrapped_world()
        origin = CdnOrigin(world.fuse(0))
        replica = CdnReplica(world.fuse(4))
        origin.place("doc", "v5", [4])
        world.run_for_minutes(1)
        from repro.apps.cdn import DocUpdate
        world.host(0).send(4, DocUpdate("doc", 0, "ancient"))
        world.run_for_minutes(1)
        assert replica.get("doc") == "v5"
