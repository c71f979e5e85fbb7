"""Tests for the fault injector's reachability semantics."""

import pytest

from repro.net import FaultInjector


class TestCrash:
    def test_crash_blocks_both_directions(self):
        faults = FaultInjector()
        faults.crash(1)
        assert not faults.can_communicate(1, 2)
        assert not faults.can_communicate(2, 1)

    def test_recover(self):
        faults = FaultInjector()
        faults.crash(1)
        faults.recover(1)
        assert faults.can_communicate(1, 2)

    def test_is_crashed(self):
        faults = FaultInjector()
        faults.crash(3)
        assert faults.is_crashed(3)
        assert not faults.is_crashed(4)
        assert faults.crashed_nodes == {3}


class TestDisconnect:
    def test_disconnect_blocks(self):
        faults = FaultInjector()
        faults.disconnect(5)
        assert not faults.can_communicate(5, 6)
        assert not faults.can_communicate(6, 5)
        assert faults.is_disconnected(5)

    def test_reconnect(self):
        faults = FaultInjector()
        faults.disconnect(5)
        faults.reconnect(5)
        assert faults.can_communicate(5, 6)


class TestIntransitive:
    def test_blocked_pair_only_affects_that_pair(self):
        """The §3.4 scenario: A-C blocked, but A-B and B-C work."""
        faults = FaultInjector()
        faults.block_pair(1, 3)
        assert not faults.can_communicate(1, 3)
        assert not faults.can_communicate(3, 1)
        assert faults.can_communicate(1, 2)
        assert faults.can_communicate(2, 3)

    def test_unblock(self):
        faults = FaultInjector()
        faults.block_pair(1, 3)
        faults.unblock_pair(3, 1)  # order-insensitive
        assert faults.can_communicate(1, 3)

    def test_self_block_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector().block_pair(2, 2)


class TestPartition:
    def test_cross_group_blocked(self):
        faults = FaultInjector()
        faults.partition([[1, 2], [3, 4]])
        assert faults.can_communicate(1, 2)
        assert faults.can_communicate(3, 4)
        assert not faults.can_communicate(1, 3)
        assert not faults.can_communicate(2, 4)

    def test_unlisted_nodes_unrestricted(self):
        faults = FaultInjector()
        faults.partition([[1], [2]])
        assert faults.can_communicate(1, 99)
        assert faults.can_communicate(99, 2)

    def test_node_in_two_groups_rejected(self):
        faults = FaultInjector()
        with pytest.raises(ValueError):
            faults.partition([[1, 2], [2, 3]])

    def test_heal(self):
        faults = FaultInjector()
        faults.partition([[1], [2]])
        faults.heal_partition()
        assert faults.can_communicate(1, 2)

    def test_repartition_replaces(self):
        faults = FaultInjector()
        faults.partition([[1], [2]])
        faults.partition([[1, 2], [3]])
        assert faults.can_communicate(1, 2)
        assert not faults.can_communicate(2, 3)


class TestClear:
    def test_clear_removes_everything(self):
        faults = FaultInjector()
        faults.crash(1)
        faults.disconnect(2)
        faults.block_pair(3, 4)
        faults.partition([[5], [6]])
        faults.clear_all()
        for a, b in [(1, 9), (2, 9), (3, 4), (5, 6)]:
            assert faults.can_communicate(a, b)


class TestPublicQuerySurface:
    def test_no_private_fault_reads_outside_the_faults_module(self):
        import re
        from pathlib import Path

        import repro

        src = Path(repro.__file__).resolve().parent
        offenders = [
            f"{path.relative_to(src)}:{lineno}"
            for path in sorted(src.rglob("*.py"))
            if path != src / "net" / "faults.py"
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"faults\._", line)
        ]
        assert not offenders, f"FaultInjector privates read outside net/faults.py: {offenders}"
