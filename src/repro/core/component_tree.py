"""Component-tree identification from ancestry labels (Claim 3.14, Figure 2).

Removing the faulty tree edges ``F_T`` splits the spanning tree into
``|F_T| + 1`` components.  Each component is represented by its highest
vertex: the root ``r`` for the top component, and the child endpoint of
a failed tree edge for every other component.  Claim 3.14 shows the
whole component tree — and the component of any labeled vertex — can be
recovered from the DFS-interval ancestry labels alone:

* sort the ``2(|F_T| + 1)`` interval endpoints and scan once to find
  each representative's parent component (O(f log f));
* locate the component of a vertex by binary searching its ``tin``
  (O(log f)).

A brute-force O(f^2) construction is included for cross-checking.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.graph.ancestry import AncLabel, is_ancestor

_ROOT_INTERVAL: AncLabel = (0, 1 << 60)


def orient_tree_edge(anc_a: AncLabel, anc_b: AncLabel) -> tuple[AncLabel, AncLabel]:
    """Return (child, parent) ancestry labels of a tree edge's endpoints.

    A tree edge always joins a vertex to its parent, so exactly one
    interval contains the other.
    """
    if is_ancestor(anc_a, anc_b):
        return anc_b, anc_a
    if is_ancestor(anc_b, anc_a):
        return anc_a, anc_b
    raise ValueError("labels are not parent/child intervals of a tree edge")


@dataclass(frozen=True)
class Component:
    """One component of T \\ F_T: its representative (highest vertex)
    interval, its parent component index (-1 for the root component), and
    an arbitrary caller reference (the failed edge that roots it)."""

    rep: AncLabel
    parent: int
    ref: Optional[object] = None


class ComponentForest:
    """The component tree of ``T \\ F_T`` plus O(log f) vertex location."""

    def __init__(self, components: list[Component], sorted_tuples: list[tuple[int, int, int]]):
        self.components = components
        self._tuples = sorted_tuples
        self._values = [t[0] for t in sorted_tuples]

    # ------------------------------------------------------------------
    # Construction (Claim 3.14)
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, failed_children: Sequence[AncLabel], refs: Optional[Sequence[object]] = None
    ) -> "ComponentForest":
        """Build from the child-endpoint ancestry labels of F_T.

        Component 0 is always the root component (virtual representative
        interval covering all DFS times).  ``refs[i]`` is attached to the
        component rooted at ``failed_children[i]``.
        """
        if refs is None:
            refs = [None] * len(failed_children)
        reps: list[AncLabel] = [_ROOT_INTERVAL] + list(failed_children)
        comp_refs: list[Optional[object]] = [None] + list(refs)
        tuples: list[tuple[int, int, int]] = []
        for i, (tin, tout) in enumerate(reps):
            tuples.append((tin, i, 1))
            tuples.append((tout, i, 2))
        tuples.sort()
        parent = [-1] * len(reps)
        for pos, (_, i, b) in enumerate(tuples):
            if b != 1 or i == 0:
                continue
            _, u, prev_b = tuples[pos - 1]
            parent[i] = u if prev_b == 1 else parent[u]
        components = [
            Component(rep=reps[i], parent=parent[i], ref=comp_refs[i])
            for i in range(len(reps))
        ]
        return cls(components, tuples)

    @classmethod
    def build_bruteforce(
        cls, failed_children: Sequence[AncLabel], refs: Optional[Sequence[object]] = None
    ) -> "ComponentForest":
        """O(f^2) reference construction: each representative's parent is
        the component of its nearest proper ancestor representative."""
        if refs is None:
            refs = [None] * len(failed_children)
        reps: list[AncLabel] = [_ROOT_INTERVAL] + list(failed_children)
        parent = [-1] * len(reps)
        for i in range(1, len(reps)):
            best = 0
            for j in range(len(reps)):
                if i == j:
                    continue
                if is_ancestor(reps[j], reps[i]) and reps[j] != reps[i]:
                    if is_ancestor(reps[best], reps[j]):
                        best = j
            parent[i] = best
        comp_refs: list[Optional[object]] = [None] + list(refs)
        components = [
            Component(rep=reps[i], parent=parent[i], ref=comp_refs[i])
            for i in range(len(reps))
        ]
        tuples: list[tuple[int, int, int]] = []
        for i, (tin, tout) in enumerate(reps):
            tuples.append((tin, i, 1))
            tuples.append((tout, i, 2))
        tuples.sort()
        return cls(components, tuples)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.components)

    def locate(self, anc: AncLabel) -> int:
        """Component index of the vertex labeled ``anc`` (O(log f))."""
        pos = bisect.bisect_right(self._values, anc[0]) - 1
        if pos < 0:
            return 0
        _, u, b = self._tuples[pos]
        if b == 1:
            return u
        return self.components[u].parent

    def locate_table(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(values, loc)`` with ``locate(anc) == loc[bisect_right(values,
        anc[0])]`` for every vertex label: the sorted endpoint times of the
        non-root representatives, and the component before, between and
        after them.  Plain tuples, for views that answer without this
        class (:meth:`repro.core.sketch_scheme.FaultSetPartition.view`).
        """
        # DFS times run 1..2n, inside the root's virtual interval: its two
        # ends are the first and the last tuple and bound every time.
        inner = self._tuples[1:-1]
        values = tuple(t for t, _, _ in inner)
        loc = (0,) + tuple(
            u if b == 1 else self.components[u].parent for _, u, b in inner
        )
        return values, loc

    def locate_linear(self, anc: AncLabel) -> int:
        """O(f) reference location: deepest representative ancestor."""
        best = 0
        for i, comp in enumerate(self.components):
            if is_ancestor(comp.rep, anc):
                if is_ancestor(self.components[best].rep, comp.rep):
                    best = i
        return best

    def children_of(self, comp_index: int) -> list[int]:
        return [
            i for i, c in enumerate(self.components) if c.parent == comp_index
        ]

    def edges(self) -> list[tuple[int, int]]:
        """Component-tree edges as (child component, parent component)."""
        return [
            (i, c.parent) for i, c in enumerate(self.components) if c.parent >= 0
        ]
