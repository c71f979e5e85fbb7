"""The first-class group API: handles, ledger, typed reasons, one-way faults.

Covers the tentpole surface of ``repro.fuse.api`` — lifecycle
transitions and catch-up subscription semantics, ledger accounting and
the first-cause double-count guard, reason classification against live
fault state — plus the asymmetric-partition fault primitive and track.
"""

import pytest

from repro.fuse.api import (
    FuseGroup,
    GroupLedger,
    GroupStatus,
    NotificationReason,
    base_reason,
)
from repro.net import FaultInjector
from repro.scenarios import Phase, Scenario, execute, execute_with_context
from repro.scenarios.tracks import AsymmetricPartition, GroupWorkload
from tests.conftest import bootstrapped_world


def drive_until(world, predicate, max_ms=120_000.0):
    deadline = world.sim.now + max_ms
    while not predicate() and world.sim.now < deadline:
        if not world.sim.step():
            break


class TestHandleLifecycle:
    def test_create_returns_live_handle(self, tiny_world):
        group = tiny_world.create_group(0, [3, 6])
        assert isinstance(group, FuseGroup)
        assert group.status is GroupStatus.CREATING
        assert group.root == 0
        assert group.members == (0, 3, 6)
        seen = []
        group.on_live(seen.append)
        drive_until(tiny_world, lambda: group.status is not GroupStatus.CREATING)
        assert group.status is GroupStatus.LIVE
        assert seen == [group]

    def test_on_live_after_the_fact_catches_up(self, tiny_world):
        group = tiny_world.create_group(0, [3, 6])
        drive_until(tiny_world, lambda: group.status is GroupStatus.LIVE)
        late = []
        group.on_live(late.append)  # subscribed after the transition
        assert late == [group]

    def test_signal_moves_to_notified_and_fires_callbacks(self, tiny_world):
        group = tiny_world.create_group(0, [3, 6])
        drive_until(tiny_world, lambda: group.status is GroupStatus.LIVE)
        notified = []
        members = []
        group.on_notified(lambda g, reason: notified.append(reason))
        group.on_member_notified(lambda g, node, reason: members.append((node, reason)))
        group.signal()
        tiny_world.run_for_minutes(2.0)
        assert group.status is GroupStatus.NOTIFIED
        assert notified == [NotificationReason.SIGNALLED]
        assert {node for node, _ in members} == {0, 3, 6}
        assert all(r is NotificationReason.SIGNALLED for _n, r in members)
        assert set(group.notified_members()) == {0, 3, 6}

    def test_member_subscription_replays_past_notifications(self, tiny_world):
        group = tiny_world.create_group(0, [3, 6])
        drive_until(tiny_world, lambda: group.status is GroupStatus.LIVE)
        group.signal()
        tiny_world.run_for_minutes(2.0)
        replayed = []
        group.on_member_notified(lambda g, node, reason: replayed.append(node))
        assert set(replayed) == {0, 3, 6}

    def test_failed_create_status_and_reason(self, tiny_world):
        tiny_world.disconnect(6)
        group = tiny_world.create_group(0, [3, 6])
        outcomes = []
        group.on_notified(lambda g, reason: outcomes.append(reason))
        drive_until(
            tiny_world,
            lambda: group.status is GroupStatus.FAILED_CREATE,
            max_ms=300_000.0,
        )
        assert group.status is GroupStatus.FAILED_CREATE
        assert "unreachable" in group.create_failure_reason
        assert outcomes == [NotificationReason.CREATE_FAILED]

    def test_world_ledger_is_shared_across_services(self, tiny_world):
        group = tiny_world.create_group(0, [3, 6])
        assert tiny_world.fuse(0).ledger is tiny_world.ledger
        assert tiny_world.ledger.handle(group.fuse_id) is group
        assert tiny_world.ledger.members_of(group.fuse_id) == (0, 3, 6)


class TestLedgerAccounting:
    def test_creates_are_recorded_for_every_attempt(self, tiny_world):
        fid, status, _ = tiny_world.create_group_sync(0, [3, 6])
        assert status == "ok"
        assert [rec.fuse_id for rec in tiny_world.ledger.creates] == [fid]
        assert tiny_world.ledger.status_of(fid) is GroupStatus.LIVE

    def test_crash_notification_classified_as_crash(self, tiny_world):
        fid, status, _ = tiny_world.create_group_sync(0, [3, 6])
        assert status == "ok"
        tiny_world.crash(6)
        tiny_world.run_for_minutes(8.0)
        notes = tiny_world.ledger.member_notes(fid)
        assert notes, "survivors were never notified"
        assert all(rec.reason is NotificationReason.CRASH for rec in notes)

    def test_disconnect_notification_classified_as_disconnect(self, tiny_world):
        fid, status, _ = tiny_world.create_group_sync(0, [3, 6])
        assert status == "ok"
        tiny_world.disconnect(6)
        tiny_world.run_for_minutes(8.0)
        notes = [r for r in tiny_world.ledger.member_notes(fid) if r.node != 6]
        assert notes
        assert all(rec.reason is NotificationReason.DISCONNECT for rec in notes)

    def test_reason_counts_summarizes_member_rows(self, tiny_world):
        fid, status, _ = tiny_world.create_group_sync(0, [3, 6])
        assert status == "ok"
        tiny_world.fuse(0).signal_failure(fid)
        tiny_world.run_for_minutes(2.0)
        assert tiny_world.ledger.reason_counts() == {"signalled": 3}


class TestDoubleCountGuard:
    """A group both signalled and crash-notified in one trial must record
    exactly one ledger notification per member, keeping the first cause."""

    def test_ledger_dedupes_with_first_cause(self, sim):
        ledger = GroupLedger(sim)
        ledger.record_create("f1", 0, (0, 1))
        ledger.notified("f1", 1, "member", "signaled")
        ledger.notified("f1", 1, "member", "link-timeout")  # late second cause
        assert len(ledger.member_notes("f1")) == 1
        assert ledger.member_notes("f1")[0].reason is NotificationReason.SIGNALLED
        assert len(ledger.duplicates) == 1
        assert ledger.duplicates[0].raw == "link-timeout"

    def test_signal_racing_crash_records_one_row_per_member(self):
        world = bootstrapped_world(16, seed=21)
        fid, status, _ = world.create_group_sync(0, [5, 9])
        assert status == "ok"
        # Crash one member, then signal at the root in the same instant:
        # the signalled fan-out and the (later) crash detection machinery
        # both target the survivors.
        world.crash(9)
        world.fuse(0).signal_failure(fid)
        world.run_for_minutes(10.0)
        for node in (0, 5):
            notes = [r for r in world.ledger.member_notes(fid) if r.node == node]
            assert len(notes) == 1, f"member {node} double-counted"
            assert notes[0].reason is NotificationReason.SIGNALLED  # first cause
        assert not [d for d in world.ledger.duplicates if d.role != "delegate"]

    def test_crash_detection_then_late_signal_is_a_noop(self):
        world = bootstrapped_world(16, seed=22)
        fid, status, _ = world.create_group_sync(0, [5, 9])
        assert status == "ok"
        world.crash(9)
        world.run_for_minutes(10.0)  # detection completes first
        before = len(world.ledger.notes)
        world.fuse(0).signal_failure(fid)  # state already gone everywhere
        world.run_for_minutes(2.0)
        assert len(world.ledger.notes) == before
        times = world.ledger.notification_times(fid)
        assert set(times) >= {0, 5}


class TestReasonClassification:
    def test_base_reasons(self):
        assert base_reason("signaled") is NotificationReason.SIGNALLED
        assert base_reason("create-failed: member 3") is NotificationReason.CREATE_FAILED
        assert base_reason("link-timeout") is NotificationReason.LINK_TIMEOUT
        assert base_reason("no-repair:link-timeout") is NotificationReason.LINK_TIMEOUT
        assert base_reason("overlay-silence") is NotificationReason.LINK_TIMEOUT
        assert base_reason("repair-unknown-at-7") is NotificationReason.REPAIR_FAILED
        assert base_reason("member-repair-timeout") is NotificationReason.REPAIR_FAILED
        assert base_reason("reconcile-disagreement") is NotificationReason.RECONCILE
        assert base_reason("silent:[3]") is NotificationReason.LINK_TIMEOUT
        assert base_reason("server-unreachable") is NotificationReason.REPAIR_FAILED

    def test_detection_with_no_fault_is_false_positive(self, sim):
        faults = FaultInjector()
        ledger = GroupLedger(sim, faults)
        ledger.record_create("f1", 0, (0, 1))
        ledger.notified("f1", 0, "member", "link-timeout")
        assert ledger.member_notes("f1")[0].reason is NotificationReason.FALSE_POSITIVE

    def test_detection_with_link_fault_keeps_protocol_reason(self, sim):
        faults = FaultInjector()
        faults.block_pair(5, 6)
        ledger = GroupLedger(sim, faults)
        ledger.record_create("f1", 0, (0, 1))
        ledger.notified("f1", 0, "member", "link-timeout")
        assert ledger.member_notes("f1")[0].reason is NotificationReason.LINK_TIMEOUT

    def test_explicit_signal_never_refined(self, sim):
        faults = FaultInjector()
        faults.crash(1)
        ledger = GroupLedger(sim, faults)
        ledger.record_create("f1", 0, (0, 1))
        ledger.notified("f1", 0, "member", "signaled")
        assert ledger.member_notes("f1")[0].reason is NotificationReason.SIGNALLED


class TestOneWayFaults:
    def test_block_one_way_is_directional(self):
        faults = FaultInjector()
        faults.block_one_way(1, 2)
        assert not faults.can_communicate(1, 2)
        assert faults.can_communicate(2, 1)
        assert faults.has_link_faults()
        faults.unblock_one_way(1, 2)
        assert faults.can_communicate(1, 2)
        assert not faults.has_link_faults()

    def test_clear_removes_one_way_blocks(self):
        faults = FaultInjector()
        faults.block_one_way(1, 2)
        faults.block_one_way_sets([3], [4])
        faults.clear_all()
        assert faults.can_communicate(1, 2)
        assert faults.can_communicate(3, 4)

    def test_one_way_cut_sets_scale_without_pair_enumeration(self):
        """A (side, side) cut is one record regardless of side sizes."""
        faults = FaultInjector()
        side_a, side_b = range(0, 1000), range(1000, 2000)
        faults.block_one_way_sets(side_a, side_b)
        assert not faults.can_communicate(0, 1999)
        assert faults.can_communicate(1999, 0)  # reverse direction open
        assert faults.has_link_faults()
        faults.unblock_one_way_sets(side_a, side_b)
        assert faults.can_communicate(0, 1999)
        assert not faults.has_link_faults()

    def test_one_way_cut_rejects_overlapping_sides(self):
        with pytest.raises(ValueError):
            FaultInjector().block_one_way_sets([1, 2], [2, 3])

    def test_self_block_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector().block_one_way(3, 3)

    def test_one_way_block_delivers_notifications_both_sides(self):
        """The one-way agreement guarantee under an asymmetric fault:
        a group spanning the A→B cut notifies observable members on
        *both* sides (B times A out; A never sees B's acks)."""
        world = bootstrapped_world(16, seed=31)
        # node 0 on side A (low ids), node 12 on side B.
        fid, status, _ = world.create_group_sync(0, [12])
        assert status == "ok"
        for a in world.node_ids[:8]:
            for b in world.node_ids[8:]:
                world.net.faults.block_one_way(a, b)
        world.run_for_minutes(10.0)
        times = world.ledger.notification_times(fid)
        assert set(times) == {0, 12}


class TestAsymmetricPartitionTrack:
    def _scenario(self, heal_after=None):
        return Scenario(
            name="t-asym",
            n_nodes=16,
            seed=5,
            phases=(Phase("warmup", 2.0), Phase("oneway", 5.0), Phase("drain", 6.0)),
            tracks=(
                GroupWorkload(n_groups=5, group_size=4),
                AsymmetricPartition(phase="oneway", heal_after_minutes=heal_after),
            ),
        )

    def test_spanning_groups_notify_every_observable_member(self):
        m, ctx = execute_with_context(self._scenario())
        assert m["asym_spanning_groups"] >= 1
        assert m["notifications_delivered"] == m["notifications_expected"]
        assert m["spurious_groups"] == 0
        # on_member_notified counted each spanning group's deliveries.
        assert m["asym_member_notifications"] >= m["notifications_delivered"]
        assert not [d for d in ctx.world.ledger.duplicates if d.role != "delegate"]

    def test_heal_unblocks_both_directions(self):
        m = execute(self._scenario(heal_after=2.0))
        assert m["final_alive"] == 16  # nothing crashed, one-way cut healed

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            AsymmetricPartition(phase="p", fraction=1.5)

    def test_spec_kind_registered(self):
        from repro.scenarios.spec import TRACK_KINDS

        assert TRACK_KINDS["asymmetric-partition"] is AsymmetricPartition
