"""The per-neighbor shared-group index and the watched-hook contract.

``FuseService._shared`` maps each neighbor to the groups whose checking
tree uses the link to it, and the overlay calls the FUSE ping hooks only
for a watched (indexed) neighbor or a non-empty payload.  These tests pin
both halves on the scalar path and on the lane plane:

* after every kind of link mutation — creates, a blocked pair, link
  timeouts, a neighbor crash, repair, a stable-storage restart and an
  explicit signal — the index equals a scan of ``groups``: each entry's
  sorted id tuple and its lazily built ping payload;
* a ping or ack on a link that carries no group, with an empty payload,
  calls neither FUSE hook;
* liveness is kept per link: each entry holds one armed timer, due no
  later than any of its groups' deadlines (the later of the link's last
  agreement and the group's own refresh, plus the liveness timeout), an
  agreeing ping or ack schedules nothing, and each link timeout fires
  exactly at its group's deadline.
"""

import hashlib

import pytest

from repro import FuseConfig, FuseWorld
from repro.fuse.service import FuseService
from repro.fuse.state import GroupState
from repro.net import MercatorConfig

LANES = [pytest.param(True, id="lanes-on"), pytest.param(False, id="lanes-off")]

GROUPS = [(0, [5, 9, 13]), (3, [7, 11, 17, 20]), (6, [1, 2, 22]), (10, [14, 15, 19])]


def _world(lanes, n=24, seed=43, stable_storage=False):
    return FuseWorld(
        n_nodes=n,
        seed=seed,
        mercator=MercatorConfig(n_hosts=n, n_as=8),
        fuse_config=FuseConfig(stable_storage=stable_storage),
        liveness_lanes=lanes,
    )


def _scan(service):
    out = {}
    for fuse_id, state in service.groups.items():
        for neighbor in state.links:
            out.setdefault(neighbor, set()).add(fuse_id)
    return {neighbor: tuple(sorted(ids)) for neighbor, ids in out.items()}


def _payload(ids):
    return {"fuse": {"hash": hashlib.sha1("|".join(ids).encode()).hexdigest()}}


def _assert_index_is_scan(world):
    indexed = 0
    expiries = []
    for node_id, service in world.fuse_services.items():
        index = {nbr: shared.ids for nbr, shared in service._shared.items()}
        assert index == _scan(service), f"node {node_id}"
        timeout = service._liveness_timeout
        for nbr, shared in service._shared.items():
            assert shared.ping_payload() == _payload(shared.ids)
            assert shared.timer.active, f"node {node_id} link {nbr}"
            for fuse_id in shared.ids:
                refresh = service.groups[fuse_id].links[nbr]
                assert shared.timer.when <= max(shared.agreed, refresh) + timeout
            expiries.append(shared.expire)
        indexed += len(index)
    # Every pending link timer is the one timer of an indexed link.
    pending = [e[2] for e in world.sim.queue.snapshot() if e[3].endswith(":fuse-link")]
    assert sorted(map(id, pending)) == sorted(map(id, expiries))
    return indexed


class TestIndexEqualsScan:
    @pytest.mark.parametrize("lanes", LANES)
    def test_every_mutation_site(self, lanes):
        world = _world(lanes, stable_storage=True)
        world.bootstrap()
        fids = []
        for root, members in GROUPS:
            fid, status, _ = world.create_group_sync(root, members)
            assert status == "ok"
            fids.append(fid)
        world.run_for(30_000)
        assert _assert_index_is_scan(world) > 0

        # A blocked link between two nodes that are not root and member
        # of one group (their direct control path stays open): link
        # timeouts, reconciliation and repair around it.
        ends = [{root, *members} for root, members in GROUPS]
        a, b = min(
            (a, b)
            for a, service in world.fuse_services.items()
            for b in service._shared
            if a < b and not any(a in e and b in e for e in ends)
        )
        world.net.faults.block_pair(a, b)
        world.run_for_minutes(3)
        _assert_index_is_scan(world)
        world.net.faults.unblock_pair(a, b)
        world.run_for_minutes(3)
        _assert_index_is_scan(world)

        # A neighbor crash (its neighbors' overlay declares it failed),
        # then its restart from stable storage.
        victim = min(
            node_id
            for node_id, service in world.fuse_services.items()
            if service._shared and all(node_id not in (r, 13, 14) for r, _ in GROUPS)
        )
        world.crash(victim)
        world.run_for_minutes(3)
        assert world.fuse(victim)._shared == {}
        _assert_index_is_scan(world)
        world.restart(victim)
        world.run_for_minutes(3)
        _assert_index_is_scan(world)

        # A brief member crash that stable storage masks.
        world.crash(13)
        world.run_for(2_000)
        world.restart(13)
        world.run_for_minutes(3)
        assert fids[0] in world.fuse(13).groups
        assert _assert_index_is_scan(world) > 0

        world.fuse(14).signal_failure(fids[3])
        world.run_for_minutes(1)
        _assert_index_is_scan(world)

        counters = {name: c.value for name, c in world.sim.metrics.counters().items()}
        assert counters["fuse.link_timeouts"] > 0
        assert counters["fuse.repairs_succeeded"] > 0
        assert counters["fuse.explicit_signals"] == 1

    def test_payload_follows_the_set(self):
        """The lazily built payload is rebuilt after every add and drop,
        and the entry goes when its last group does."""
        world = _world(False)
        world.bootstrap()
        service = world.fuse(0)
        neighbor = min(world.overlay_node(0).neighbors())
        a, b = (
            GroupState(fid, root_name=service.name, root_id=0, created_at=world.now)
            for fid in ("fuse-a", "fuse-b")
        )
        service.groups.update({"fuse-a": a, "fuse-b": b})
        seen = []
        service._ensure_link(b, neighbor)
        seen.append(service._payload_for(neighbor))
        service._ensure_link(a, neighbor)
        seen.append(service._payload_for(neighbor))
        service._drop_link(b, neighbor)
        seen.append(service._payload_for(neighbor))
        assert seen == [_payload(["fuse-b"]), _payload(["fuse-a", "fuse-b"]), _payload(["fuse-a"])]
        service._clear_links(a)
        assert service._shared == {} and service._payload_for(neighbor) is None


def _count_fuse_hooks(world):
    """Wrap every node's FUSE provider and listener (keeping their watched
    mappings) and record each call as (node, neighbor, kind, payload)."""
    calls = []
    for node_id, node in world.overlay_nodes.items():
        (provider, p_watched), = node._payload_providers
        (listener, l_watched), = node._ping_listeners

        def counted_provider(neighbor, _p=provider, _n=node_id):
            calls.append((_n, neighbor, "provider", None))
            return _p(neighbor)

        def counted_listener(neighbor, payload, is_ack, _l=listener, _n=node_id):
            calls.append((_n, neighbor, "listener", payload))
            return _l(neighbor, payload, is_ack)

        node._payload_providers[0] = (counted_provider, p_watched)
        node._ping_listeners[0] = (counted_listener, l_watched)
    return calls


def _pings(world):
    return world.sim.metrics.counter("net.msg.OverlayPing").value


class TestSilentLinksCallNoHook:
    @pytest.mark.parametrize("lanes", LANES)
    def test_no_group_no_call(self, lanes):
        world = _world(lanes)
        calls = _count_fuse_hooks(world)
        world.bootstrap()
        world.run_for_minutes(3)
        assert _pings(world) > 0
        if lanes:
            assert world.sim.lane_plane.micro_dispatched > 0
        assert calls == []

    @pytest.mark.parametrize("lanes", LANES)
    def test_only_watched_links_or_payloads(self, lanes):
        world = _world(lanes)
        calls = _count_fuse_hooks(world)
        world.bootstrap()
        fid, status, _ = world.create_group_sync(0, [5, 9])
        assert status == "ok"
        before = len(calls)
        pings = _pings(world)
        world.run_for_minutes(3)
        window = calls[before:]
        assert window
        if lanes:
            assert world.sim.lane_plane.micro_dispatched > 0
        links = {
            (node_id, nbr)
            for node_id, service in world.fuse_services.items()
            for nbr in service._shared
        }
        for node_id, neighbor, kind, payload in window:
            assert (node_id, neighbor) in links or (kind == "listener" and payload)
        # Every node pings about a handful of neighbors, and only the
        # checking tree's links reach FUSE.
        assert len(window) < _pings(world) - pings


def _agreeing(service, neighbor, payload):
    shared = service._shared.get(neighbor)
    return shared is not None and payload.get("fuse") == shared.ping_payload()["fuse"]


class TestOneDeadlinePerLink:
    @pytest.mark.parametrize("lanes", LANES)
    def test_agreement_schedules_nothing(self, lanes):
        """An agreeing ping and an agreeing ack each leave the main heap
        as they found it: the link's deadline moves by a field write."""
        world = _world(lanes)
        world.bootstrap()
        for root, members in GROUPS:
            assert world.create_group_sync(root, members)[1] == "ok"
        heap = world.sim.queue._heap
        seen = {False: 0, True: 0}
        for node_id, node in world.overlay_nodes.items():
            (listener, watched), = node._ping_listeners
            service = world.fuse(node_id)

            def spy(neighbor, payload, is_ack, _l=listener, _s=service):
                if not _agreeing(_s, neighbor, payload):
                    return _l(neighbor, payload, is_ack)
                before = list(heap)
                _l(neighbor, payload, is_ack)
                assert heap == before
                seen[is_ack] += 1

            node._ping_listeners[0] = (spy, watched)
        world.run_for_minutes(2)
        assert seen[False] > 0 and seen[True] > 0

    @pytest.mark.parametrize("lanes", LANES)
    def test_timeouts_fire_at_the_deadline(self, lanes, monkeypatch):
        """With one pair blocked, every link timeout fires exactly when its
        group last heard of the link (an agreeing ping or ack on it, or its
        own refresh) plus the liveness timeout."""
        heard = {}
        dropped = {}
        timeouts = []
        ensure, evidence = FuseService._ensure_link, FuseService._on_ping_evidence
        drop, fail = FuseService._drop_link, FuseService._local_tree_failure

        def spy_ensure(self, state, neighbor):
            heard[self, state.fuse_id, neighbor] = self.sim.now
            ensure(self, state, neighbor)

        def spy_evidence(self, neighbor, payload, is_ack):
            if _agreeing(self, neighbor, payload):
                for fuse_id in self._shared[neighbor].ids:
                    heard[self, fuse_id, neighbor] = self.sim.now
            evidence(self, neighbor, payload, is_ack)

        def spy_drop(self, state, neighbor):
            dropped[self] = (state.fuse_id, neighbor)
            drop(self, state, neighbor)

        def spy_fail(self, state, reason, exclude=None):
            if reason == "link-timeout":
                fuse_id, neighbor = dropped[self]
                assert fuse_id == state.fuse_id
                timeouts.append((self.sim.now, heard[self, fuse_id, neighbor] + self._liveness_timeout))
            fail(self, state, reason, exclude)

        monkeypatch.setattr(FuseService, "_ensure_link", spy_ensure)
        monkeypatch.setattr(FuseService, "_on_ping_evidence", spy_evidence)
        monkeypatch.setattr(FuseService, "_drop_link", spy_drop)
        monkeypatch.setattr(FuseService, "_local_tree_failure", spy_fail)
        world = _world(lanes)
        world.bootstrap()
        for root, members in GROUPS:
            assert world.create_group_sync(root, members)[1] == "ok"
        world.run_for(30_000)
        ends = [{root, *members} for root, members in GROUPS]
        a, b = min(
            (a, b)
            for a, service in world.fuse_services.items()
            for b in service._shared
            if a < b and not any(a in e and b in e for e in ends)
        )
        world.net.faults.block_pair(a, b)
        world.run_for_minutes(3)
        counted = world.sim.metrics.counter("fuse.link_timeouts").value
        assert counted == len(timeouts) > 0
        assert all(now == deadline for now, deadline in timeouts), timeouts
        _assert_index_is_scan(world)
