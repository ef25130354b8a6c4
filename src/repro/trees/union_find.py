"""Union-find (disjoint set union) with path compression and union by rank.

Used by the Boruvka simulation of the sketch-based decoder (Claim 3.16):
component merges are unions, and the per-phase component lookup of an
original T\\F component is a find.
"""

from __future__ import annotations


class UnionFind:
    """Disjoint sets over ``0..n-1``."""

    def __init__(self, n: int):
        self._parent = list(range(n))
        self._rank = [0] * n
        self._count = n

    @property
    def set_count(self) -> int:
        """Number of disjoint sets."""
        return self._count

    def find(self, x: int) -> int:
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        self._count -= 1
        return True

    def same(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def roots(self) -> tuple[int, ...]:
        """Every element's set representative, in element order."""
        return tuple(self.find(x) for x in range(len(self._parent)))
