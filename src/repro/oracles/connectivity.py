"""Exact connectivity sensitivity oracle (ground truth).

Answers ``<s, t, F>`` connectivity queries by direct traversal of
``G \\ F``.  Linear space and O(m) query time — this is the *trivial*
end of the tradeoff that the paper's labels compress down to
poly-logarithmic bits; it is used throughout the tests and benches to
verify the labels' answers.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from repro.graph.graph import Graph


class ConnectivityOracle:
    """Exact <s, t, F> connectivity queries on a fixed graph."""

    def __init__(self, graph: Graph):
        self.graph = graph

    def connected_many(
        self, pairs: Sequence[tuple[int, int]], faults=()
    ) -> list[bool]:
        """Batched ground truth for ``query_many``-style query streams.

        ``faults`` follows the batched-API convention (one shared
        iterable of edge indices, or a per-pair sequence); an id outside
        ``0..m-1`` raises ``ValueError``.  Queries are
        grouped by fault set and answered off one component labeling of
        ``G \\ F`` per distinct set, so verifying a batch against the
        labels costs O(m) per fault set instead of per query.
        """
        from repro.core._batch import normalize_faults
        from repro.graph.components import connected_components

        per = normalize_faults(pairs, faults, m=self.graph.m)
        out = [False] * len(pairs)
        groups: dict[frozenset, list[int]] = {}
        for qi, F in enumerate(per):
            groups.setdefault(frozenset(F), []).append(qi)
        for fset, qis in groups.items():
            labels, _ = connected_components(self.graph, fset)
            for qi in qis:
                s, t = pairs[qi]
                out[qi] = labels[s] == labels[t]
        return out

    def connected(self, s: int, t: int, faults: Iterable[int] = ()) -> bool:
        """True iff ``s`` and ``t`` are connected in ``G \\ faults``.

        Like :meth:`connected_many`, rejects fault ids outside
        ``0..m-1`` with ``ValueError``.
        """
        from repro.core._batch import check_fault_ids

        ids = [int(ei) for ei in faults]
        check_fault_ids(ids, self.graph.m)
        if s == t:
            return True
        skip = set(ids)
        seen = [False] * self.graph.n
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v, ei in self.graph.incident(u):
                if ei in skip or seen[v]:
                    continue
                if v == t:
                    return True
                seen[v] = True
                queue.append(v)
        return False

    def component_of(self, s: int, faults: Iterable[int] = ()) -> set[int]:
        """The vertex set of the component of ``s`` in ``G \\ faults``."""
        skip = set(faults)
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v, ei in self.graph.incident(u):
                if ei in skip or v in seen:
                    continue
                seen.add(v)
                queue.append(v)
        return seen

    def is_induced_edge_cut(self, edge_indices: Iterable[int]) -> bool:
        """True iff the edge set equals ``delta(S)`` for some vertex set S.

        For a connected graph this holds iff removing the set splits the
        graph so that every given edge crosses between the two sides of a
        2-coloring; we verify directly: 2-color components of G \\ F and
        check every edge of F crosses a consistent bipartition.
        """
        fset = set(edge_indices)
        if not fset:
            return True
        # Color components of G \ F, then check the "component graph" on
        # F-edges is bipartite with all F-edges crossing and no non-F edge
        # crossing... Equivalently: F = delta(S) iff assigning side(v) by
        # parity works. We test by trying a 2-coloring of components such
        # that every F edge connects opposite colors, and no F edge joins
        # same-colored components, and F contains *all* edges between the
        # two color classes.
        from repro.graph.components import connected_components

        labels, count = connected_components(self.graph, fset)
        # Build component adjacency via F edges.
        comp_edges: list[tuple[int, int]] = []
        for ei in fset:
            e = self.graph.edge(ei)
            comp_edges.append((labels[e.u], labels[e.v]))
        # 2-color the component multigraph.
        color = [-1] * count
        adj: list[list[int]] = [[] for _ in range(count)]
        for a, b in comp_edges:
            if a == b:
                return False  # an F edge internal to a surviving component
            adj[a].append(b)
            adj[b].append(a)
        for start in range(count):
            if color[start] != -1:
                continue
            color[start] = 0
            queue = deque([start])
            while queue:
                a = queue.popleft()
                for b in adj[a]:
                    if color[b] == -1:
                        color[b] = color[a] ^ 1
                        queue.append(b)
                    elif color[b] == color[a]:
                        return False
        # All F edges cross the bipartition by construction; finally check
        # no non-F edge crosses it (F must be *exactly* delta(S)).
        side = [color[labels[v]] for v in self.graph.vertices()]
        for e in self.graph.edges:
            crossing = side[e.u] != side[e.v]
            if crossing != (e.index in fset):
                return False
        return True
