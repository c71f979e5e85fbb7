"""Detail tests for SV trees: version-stamp races, interception, root
placement — the §3.3/§4 mechanics."""

from repro import FuseWorld
from repro.apps.svtree import SVTreeService
from repro.apps.svtree.messages import SubscribeJoin
from repro.apps.svtree.service import topic_root_name
from repro.net import MercatorConfig


def svtree_world(n=24, seed=31):
    world = FuseWorld(n_nodes=n, seed=seed, mercator=MercatorConfig(n_hosts=n, n_as=8))
    world.bootstrap()
    return {nid: SVTreeService(world.fuse(nid)) for nid in world.node_ids}, world


class TestTopicRootPlacement:
    def test_root_name_is_deterministic(self):
        assert topic_root_name("news") == topic_root_name("news")
        assert topic_root_name("news") != topic_root_name("sports")

    def test_all_publishes_converge_on_one_root(self):
        sv, world = svtree_world()
        terminals = set()
        for src in (0, 5, 11, 17):
            path = world.overlay.overlay_route(
                world.overlay_node(src).name, topic_root_name("conv")
            )
            terminals.add(path[-1])
        assert len(terminals) == 1


class TestVersionStamps:
    def test_late_failure_notification_ignored_after_resubscribe(self):
        """The paper's §3.3 race: version stamps stop a stale notification
        from tearing down a fresh link."""
        sv, world = svtree_world()
        sv[3].subscribe("race", lambda t, e: None)
        world.run_for_minutes(1)
        state = sv[3].topics["race"]
        old_version = state.version
        # Simulate a late notification for the *old* version arriving
        # after the subscription moved on.
        state.version += 1
        sv[3]._on_link_failed("race", old_version)
        assert sv[3].topics["race"].version == old_version + 1  # untouched

    def test_stale_ack_ignored(self):
        sv, world = svtree_world()
        sv[3].subscribe("stale", lambda t, e: None)
        world.run_for_minutes(1)
        state = sv[3].topics["stale"]
        parent_before = state.parent
        from repro.apps.svtree.messages import SubscribeAck

        stale = SubscribeAck("stale", version=0, bypassed=())
        stale.sender = 99
        sv[3]._on_subscribe_ack(stale)
        assert sv[3].topics["stale"].parent == parent_before


class TestInterception:
    def test_join_consumed_by_first_on_tree_node(self):
        """A second subscriber whose route crosses an existing subscriber
        attaches there, not at the root (the SV short-circuit)."""
        sv, world = svtree_world(n=30, seed=33)
        # Find a pair (s1, s2) where s2's route to the topic root passes
        # through s1.
        topic = "short"
        root_dest = topic_root_name(topic)
        chosen = None
        for s1 in world.node_ids:
            for s2 in world.node_ids:
                if s1 == s2:
                    continue
                path = world.overlay.overlay_route(world.overlay_node(s2).name, root_dest)
                names = path[1:-1]
                if world.overlay_node(s1).name in names:
                    chosen = (s1, s2)
                    break
            if chosen:
                break
        if chosen is None:
            return  # no such geometry in this small world; vacuous
        s1, s2 = chosen
        sv[s1].subscribe(topic, lambda t, e: None)
        world.run_for_minutes(1)
        sv[s2].subscribe(topic, lambda t, e: None)
        world.run_for_minutes(1)
        assert sv[s2].topics[topic].parent == s1

    def test_join_path_accumulates_bypassed_hops(self):
        sv, world = svtree_world()
        join = SubscribeJoin("t", subscriber=0, version=1)
        assert join.path == []


class TestDeliverySemantics:
    def test_publisher_can_also_subscribe(self):
        sv, world = svtree_world()
        got = []
        sv[4].subscribe("self", lambda t, e: got.append(e))
        world.run_for_minutes(1)
        sv[4].publish("self", "own-event")
        world.run_for_minutes(1)
        assert got == ["own-event"]

    def test_two_topics_do_not_interfere(self):
        sv, world = svtree_world()
        got = []
        sv[3].subscribe("a", lambda t, e: got.append(("a", e)))
        sv[3].subscribe("b", lambda t, e: got.append(("b", e)))
        world.run_for_minutes(1)
        sv[7].publish("a", 1)
        world.run_for_minutes(1)
        assert got == [("a", 1)]
