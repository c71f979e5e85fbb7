"""Tests for the multi-level ring structure and R-table computation."""

import pytest

from repro.overlay.skipnet.rings import RingStructure


def make_rings(names, base=8, digits=16, leaf_half=2):
    rings = RingStructure(base, digits, leaf_half)
    for name in names:
        rings.add(name)
    return rings


NAMES = [f"node-{i:03d}" for i in range(40)]


class TestMembership:
    def test_add_remove_roundtrip(self):
        rings = make_rings(NAMES[:10])
        assert len(rings) == 10
        rings.remove(NAMES[0])
        assert len(rings) == 9
        assert NAMES[0] not in rings

    def test_duplicate_add_rejected(self):
        rings = make_rings(["a"])
        with pytest.raises(ValueError):
            rings.add("a")

    def test_remove_unknown_is_noop(self):
        rings = make_rings(["a"])
        assert rings.remove("zzz") == set()

    @pytest.mark.parametrize("first, second", [("node-001", "node-030"), ("node-030", "node-001")])
    def test_remove_stops_at_a_deeper_ring_without_the_name(self, first, second):
        # Both names share the numeric prefix (5, 5).  ``add`` stops
        # walking at the first singleton ring, so the earlier joiner is in
        # rings () and (5,) only, while ring (5, 5) holds just the later
        # one: removing the earlier must stop there, not disturb it.
        rings = make_rings([first, second])
        assert rings._rings[(5, 5)] == [second]
        affected = rings.remove(first)
        assert affected == {second}
        assert first not in rings and len(rings) == 1
        assert rings.members() == [second]
        assert rings._rings[(5,)] == [second]
        assert rings._rings[(5, 5)] == [second]
        assert rings.table_for(second).neighbor_names() == set()
        assert rings.add(first) == {second}  # and it can come back

    def test_members_sorted(self):
        rings = make_rings(["c", "a", "b"])
        assert rings.members() == ["a", "b", "c"]


class TestTables:
    def test_single_node_has_no_neighbors(self):
        rings = make_rings(["solo"])
        table = rings.table_for("solo")
        assert table.neighbor_names() == set()

    def test_two_nodes_point_at_each_other(self):
        rings = make_rings(["a", "b"])
        assert rings.table_for("a").neighbor_names() == {"b"}
        assert rings.table_for("b").neighbor_names() == {"a"}

    def test_unknown_node_rejected(self):
        rings = make_rings(["a"])
        with pytest.raises(KeyError):
            rings.table_for("nope")

    def test_leaf_set_contains_adjacent_names(self):
        rings = make_rings(NAMES, leaf_half=2)
        table = rings.table_for("node-010")
        for expected in ("node-009", "node-011", "node-008", "node-012"):
            assert expected in table.leaf_set

    def test_level0_pointers_are_ring_adjacent(self):
        rings = make_rings(NAMES)
        table = rings.table_for("node-005")
        level0 = table.ring_neighbors[0]
        assert level0[0] == 0
        assert level0[1] == "node-006"  # clockwise
        assert level0[2] == "node-004"  # counter-clockwise

    def test_higher_levels_exist_for_large_ring(self):
        rings = make_rings(NAMES)
        levels = [rings.table_for(n).levels for n in NAMES]
        assert max(levels) >= 2  # with 40 nodes, some share a first digit

    def test_self_never_a_neighbor(self):
        rings = make_rings(NAMES)
        for name in NAMES:
            assert name not in rings.table_for(name).neighbor_names()


class TestAffectedSets:
    def test_add_affects_reported_nodes(self):
        rings = make_rings(NAMES[:20])
        affected = rings.add("node-0105")  # sorts between node-010 and node-011
        assert "node-010" in affected or "node-011" in affected

    def test_affected_tables_actually_change(self):
        rings = make_rings(NAMES[:20], leaf_half=2)
        before = {n: rings.table_for(n).neighbor_names() for n in NAMES[:20]}
        affected = rings.add("node-0105")
        changed = {
            n for n in NAMES[:20] if rings.table_for(n).neighbor_names() != before[n]
        }
        assert changed <= affected  # every changed table was reported

    def test_remove_affects_neighbors(self):
        rings = make_rings(NAMES[:20], leaf_half=2)
        before = {n: rings.table_for(n).neighbor_names() for n in NAMES[:20] if n != "node-010"}
        affected = rings.remove("node-010")
        changed = {
            n
            for n in before
            if rings.table_for(n).neighbor_names() != before[n]
        }
        assert changed <= affected

    def test_root_ring_successor(self):
        rings = make_rings(["a", "c", "e"])
        assert rings.root_ring_successor("b") == "c"
        assert rings.root_ring_successor("e") == "a"  # wraps
        assert rings.root_ring_successor("c") == "e"  # skips self
