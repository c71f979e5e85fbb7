"""Multi-level ring structure and R-table computation.

A SkipNet deployment's rings form a trie over numeric-ID digits: the root
ring (level 0) contains every node sorted by name; the level-l rings
partition nodes by their first l numeric digits.  A node's routing table
(R-table) holds its clockwise and counter-clockwise neighbor in each ring
it belongs to, and its leaf set holds the nearest ``leaf_set_half`` nodes
on each side of the root ring.

This module maintains the rings as sorted name lists with bisect-based
insert/remove, and computes, for any membership change, the set of nodes
whose tables are affected — so table recomputation under churn is
O(affected) rather than O(deployment).
"""

from __future__ import annotations

import bisect
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.overlay.id_space import NameId, numeric_id_for


class NodeTable:
    """One node's computed routing state; immutable once built."""

    __slots__ = ("name", "leaf_set", "ring_neighbors", "levels", "_neighbor_names")

    def __init__(
        self,
        name: NameId,
        leaf_set: Sequence[NameId],
        ring_neighbors: Sequence[Tuple[int, NameId, NameId]],
    ) -> None:
        self.name = name
        self.leaf_set = tuple(leaf_set)
        # (level, clockwise, counterclockwise) per level with >= 2 members.
        self.ring_neighbors = tuple(ring_neighbors)
        self.levels = len(self.ring_neighbors)
        self._neighbor_names: Optional[FrozenSet[NameId]] = None

    def neighbor_names(self) -> FrozenSet[NameId]:
        """All distinct neighbors (leaf set union ring pointers); built
        on first use and kept, because every routed hop reads it."""
        names = self._neighbor_names
        if names is None:
            found: Set[NameId] = set(self.leaf_set)
            for _level, cw, ccw in self.ring_neighbors:
                found.add(cw)
                found.add(ccw)
            found.discard(self.name)
            names = self._neighbor_names = frozenset(found)
        return names

    def __repr__(self) -> str:
        return f"NodeTable({self.name}, levels={self.levels}, leaf={len(self.leaf_set)})"


class RingStructure:
    """Sorted rings over the current membership."""

    def __init__(self, base: int, numeric_digits: int, leaf_set_half: int) -> None:
        self._base = base
        self._digits = numeric_digits
        self._leaf_half = leaf_set_half
        self._numeric: Dict[NameId, Tuple[int, ...]] = {}
        # prefix tuple -> sorted list of member names; () is the root ring.
        self._rings: Dict[Tuple[int, ...], List[NameId]] = {(): []}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def __contains__(self, name: NameId) -> bool:
        return name in self._numeric

    def __len__(self) -> int:
        return len(self._numeric)

    def members(self) -> List[NameId]:
        return list(self._rings[()])

    def _prefixes(self, name: NameId):
        """Yield the name's ring prefixes level by level.

        A generator, not a list: every consumer breaks out after the
        first ring with fewer than two members, which at realistic
        membership sizes is level ~log_base(n) of the 17 possible —
        building all 17 prefix tuples per call was a join-storm hot spot.
        """
        digits = self._numeric[name]
        for level in range(self._digits + 1):
            yield digits[:level]

    def add(self, name: NameId) -> Set[NameId]:
        """Insert ``name``; returns the set of *other* nodes whose tables
        are affected by the insertion."""
        if name in self._numeric:
            raise ValueError(f"{name} already joined")
        self._numeric[name] = tuple(numeric_id_for(name, self._base, self._digits))
        affected: Set[NameId] = set()
        for level, prefix in enumerate(self._prefixes(name)):
            ring = self._rings.setdefault(prefix, [])
            affected |= self._adjacent(ring, name, level)
            bisect.insort(ring, name)
            if len(ring) == 1 and level > 0:
                # Singleton non-root ring: no pointers exist at this level
                # or above for anyone, so we can stop walking prefixes.
                break
        affected.discard(name)
        return affected

    def remove(self, name: NameId) -> Set[NameId]:
        """Remove ``name``; returns the set of nodes whose tables change."""
        if name not in self._numeric:
            return set()
        affected: Set[NameId] = set()
        for level, prefix in enumerate(self._prefixes(name)):
            ring = self._rings.get(prefix, ())
            index = bisect.bisect_left(ring, name)
            if index == len(ring) or ring[index] != name:
                break  # no such ring, or the name never reached this level
            ring.pop(index)
            if not ring:
                if prefix:
                    del self._rings[prefix]
                break
            affected |= self._adjacent(ring, name, level, removed=True)
        self._numeric.pop(name, None)
        affected.discard(name)
        return affected

    def _adjacent(self, ring: List[NameId], name: NameId, level: int, removed: bool = False) -> Set[NameId]:
        """Ring members adjacent to ``name``'s position at this level.

        At level 0 that is leaf_set_half on each side (leaf sets reach that
        far); above level 0 only the immediate cw/ccw pointers change.
        """
        if not ring:
            return set()
        # Over-approximating the affected set is harmless (a few extra
        # table recomputations); missing a node is not.  Take span members
        # on each side of name's position.  `removed` is accepted for
        # symmetry of the call sites; the window covers both cases.
        del removed
        span = self._leaf_half + 1 if level == 0 else 2
        pos = bisect.bisect_left(ring, name)
        n = len(ring)
        out: Set[NameId] = set()
        for offset in range(-span, span + 1):
            out.add(ring[(pos + offset) % n])
        return out

    # ------------------------------------------------------------------
    # Table computation
    # ------------------------------------------------------------------
    def table_for(self, name: NameId) -> NodeTable:
        if name not in self._numeric:
            raise KeyError(f"{name} is not a member")
        root = self._rings[()]
        pos = bisect.bisect_left(root, name)
        n = len(root)
        leaf: List[NameId] = []
        if n > 1:
            for offset in range(1, min(self._leaf_half, (n - 1) // 2 + 1) + 1):
                leaf.append(root[(pos + offset) % n])
                leaf.append(root[(pos - offset) % n])
        ring_neighbors: List[Tuple[int, NameId, NameId]] = []
        for level, prefix in enumerate(self._prefixes(name)):
            ring = self._rings.get(prefix)
            if ring is None or len(ring) < 2:
                break
            rpos = bisect.bisect_left(ring, name)
            cw = ring[(rpos + 1) % len(ring)]
            ccw = ring[(rpos - 1) % len(ring)]
            ring_neighbors.append((level, cw, ccw))
        if n > 2 * self._leaf_half + 1:
            # The leaf window cannot wrap around the ring, so its entries
            # are already distinct and exclude ``name`` — skip the dedup
            # pass (the common case at scale; tables are pushed ~30 times
            # per join during bootstrap).
            return NodeTable(name, leaf, ring_neighbors)
        # Deduplicate the leaf list while preserving closeness order.
        seen: Set[NameId] = set()
        leaf_unique = []
        for item in leaf:
            if item not in seen and item != name:
                seen.add(item)
                leaf_unique.append(item)
        return NodeTable(name, leaf_unique, ring_neighbors)

    # ------------------------------------------------------------------
    # Routing support
    # ------------------------------------------------------------------
    def root_ring_successor(self, name: NameId) -> Optional[NameId]:
        """Clockwise root-ring neighbor (for join insertion)."""
        root = self._rings[()]
        if not root:
            return None
        pos = bisect.bisect_left(root, name)
        if pos < len(root) and root[pos] == name:
            pos += 1
        return root[pos % len(root)] if root else None

    def __repr__(self) -> str:
        return f"RingStructure(members={len(self._numeric)}, rings={len(self._rings)})"
