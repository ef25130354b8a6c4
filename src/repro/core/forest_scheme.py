"""Deterministic FT connectivity labels for forests.

When the input graph is a forest, fault-tolerant connectivity labeling
is exact and deterministic with O(log n)-bit labels: removing F from a
tree disconnects ``s`` and ``t`` iff some failed tree edge lies on the
unique s-t tree path, which ancestry labels decide directly — a failed
edge (u, parent(u)) separates s from t iff it lies on exactly one of
the root-s / root-t paths.

This is both a useful special case (overlay/backbone trees) and a
deterministic comparator for the randomized general-graph schemes: it
has no error probability and the smallest possible labels, but it only
exists because forests have no recovery paths to find.  (The paper's
open-problems section notes that *deterministic* labels for general
graphs remain open.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core._batch import check_fault_ids, check_vertex_ids, normalize_faults
from repro.graph.ancestry import (
    AncestryLabeling,
    AncLabel,
    edge_on_root_path,
    stitched_intervals,
)
from repro.graph.graph import Graph
from repro.graph.spanning_tree import spanning_forest
from repro.sizing.bits import bits_for_count


@dataclass(frozen=True)
class ForestVertexLabel:
    """Component id + ancestry interval: 2 log n + O(log n) bits."""

    component: int
    anc: AncLabel
    n: int

    def bit_length(self) -> int:
        return bits_for_count(self.component) + AncestryLabeling.bit_length(self.n)


@dataclass(frozen=True)
class ForestEdgeLabel:
    """Component id + the two endpoint intervals."""

    component: int
    anc_u: AncLabel
    anc_v: AncLabel
    n: int

    def bit_length(self) -> int:
        return bits_for_count(self.component) + 2 * AncestryLabeling.bit_length(self.n)


class ForestPartition:
    """Exact ``forest \\ F`` partition: equal group ids iff connected.

    Output of :meth:`ForestConnectivityScheme.decode_partition`.  The
    forest decoder is deterministic, so the partition is exact: after
    O(|F| n) vectorized setup every query is two array reads, and
    :meth:`answer_many` reproduces
    :meth:`ForestConnectivityScheme.query_many` exactly.  The serving
    layer's partition cache memoizes these per canonical fault set.
    """

    __slots__ = ("faults", "group_of")

    def __init__(self, faults: tuple[int, ...], group_of: np.ndarray):
        self.faults = faults
        self.group_of = group_of  # (n,) int64: vertex -> partition group

    def group(self, v: int) -> int:
        """Partition-group id of vertex ``v`` (equal iff connected)."""
        return int(self.group_of[v])

    def connected(self, s: int, t: int) -> bool:
        """Exact s-t connectivity in ``forest \\ F``, O(1) per query."""
        check_vertex_ids([(s, t)], len(self.group_of))
        return bool(self.group_of[s] == self.group_of[t])

    # uniform partition protocol: the native answer type is bool
    answer = connected

    def answer_many(self, pairs: Sequence[tuple[int, int]]) -> list[bool]:
        """Batched :meth:`connected`; equals ``query_many`` exactly."""
        g = self.group_of
        check_vertex_ids(pairs, len(g))
        return [bool(g[s] == g[t]) for s, t in pairs]


class ForestConnectivityScheme:
    """Exact, deterministic f-FT connectivity labels for forests."""

    def __init__(self, graph: Graph):
        trees, self.comp_of = spanning_forest(graph)
        for tree in trees:
            spanned = len(tree.vertices)
            edges = sum(
                1
                for e in graph.edges
                if self.comp_of[e.u] == self.comp_of[tree.root]
            )
            if edges != spanned - 1:
                raise ValueError("graph is not a forest")
        self.graph = graph
        self.trees = trees
        self._anc = [AncestryLabeling(tree) for tree in trees]
        self._qstore: Optional[tuple] = None

    def vertex_label(self, v: int) -> ForestVertexLabel:
        ci = int(self.comp_of[v])
        return ForestVertexLabel(
            component=ci, anc=self._anc[ci].label(v), n=self.graph.n
        )

    def edge_label(self, edge_index: int) -> ForestEdgeLabel:
        e = self.graph.edge(edge_index)
        ci = int(self.comp_of[e.u])
        anc = self._anc[ci]
        return ForestEdgeLabel(
            component=ci,
            anc_u=anc.label(e.u),
            anc_v=anc.label(e.v),
            n=self.graph.n,
        )

    @staticmethod
    def decode(
        s_label: ForestVertexLabel,
        t_label: ForestVertexLabel,
        fault_labels: Iterable[ForestEdgeLabel],
    ) -> bool:
        """Exact s-t connectivity in ``forest \\ F`` from labels only.

        A failed edge separates s from t iff it lies on the s-t tree
        path, i.e. on exactly one of the root-s / root-t paths.
        """
        if s_label.component != t_label.component:
            return False
        for lab in fault_labels:
            if lab.component != s_label.component:
                continue
            on_s = edge_on_root_path(lab.anc_u, lab.anc_v, s_label.anc)
            on_t = edge_on_root_path(lab.anc_u, lab.anc_v, t_label.anc)
            if on_s != on_t:
                return False
        return True

    def _packed_store(self) -> tuple:
        """Packed label arrays: per-vertex (component, DFS interval)
        and per-edge (component, endpoint intervals), built once."""
        if self._qstore is None:
            graph = self.graph
            n = graph.n
            comp_v = np.asarray(self.comp_of, dtype=np.int64)
            tin, tout = stitched_intervals(self._anc, n)
            if graph.m:
                csr = graph.as_csr()
                eu, ev = csr.edge_u, csr.edge_v
                self._qstore = (
                    comp_v,
                    tin,
                    tout,
                    comp_v[eu],
                    tin[eu],
                    tout[eu],
                    tin[ev],
                    tout[ev],
                )
            else:
                z = np.zeros(0, dtype=np.int64)
                self._qstore = (comp_v, tin, tout, z, z, z, z, z)
        return self._qstore

    def query_many(
        self, pairs: Sequence[tuple[int, int]], faults=()
    ) -> list[bool]:
        """Batched exact queries, identical to looping :meth:`query`.

        The forest decoder is a pure interval predicate, so the whole
        batch vectorizes: for every (query, fault) cell, the failed
        edge separates s from t iff it lies on exactly one of the
        root-s / root-t paths — one boolean tensor reduction.  Vertex
        ids outside ``0..n-1`` and fault ids outside ``0..m-1`` raise
        ``ValueError``.
        """
        check_vertex_ids(pairs, self.graph.n)
        per = normalize_faults(pairs, faults, m=self.graph.m)
        comp_v, tin, tout, comp_e, tin_u, tout_u, tin_v, tout_v = (
            self._packed_store()
        )
        ps = np.asarray([p[0] for p in pairs], dtype=np.int64)
        pt = np.asarray([p[1] for p in pairs], dtype=np.int64)
        same = comp_v[ps] == comp_v[pt]
        out = same.copy()
        # Flatten the (query, fault) incidence and evaluate every cell.
        lens = [len(F) for F in per]
        if sum(lens) and same.any():
            qs = np.repeat(np.arange(len(pairs), dtype=np.int64), lens)
            es = np.asarray(
                [ei for F in per for ei in F], dtype=np.int64
            )
            keep = same[qs] & (comp_e[es] == comp_v[ps[qs]])
            qs, es = qs[keep], es[keep]

            def on_path(x: np.ndarray) -> np.ndarray:
                xi, xo = tin[x][qs], tout[x][qs]
                return (
                    (tin_u[es] <= xi)
                    & (xo <= tout_u[es])
                    & (tin_v[es] <= xi)
                    & (xo <= tout_v[es])
                )

            cut = on_path(ps) != on_path(pt)
            bad = np.zeros(len(pairs), dtype=bool)
            np.logical_or.at(bad, qs, cut)
            out &= ~bad
        return out.tolist()

    def query(self, s: int, t: int, faults: Iterable[int]) -> bool:
        """Single query — the batched engine with batch size 1."""
        return self.query_many([(s, t)], list(faults))[0]

    def decode_partition(self, faults: Iterable[int]) -> ForestPartition:
        """The full ``forest \\ F`` partition for a set of edge indices.

        A failed edge (u, parent(u)) separates exactly the vertices
        whose root path crosses it, so the partition group of a vertex
        is its tree component plus the bit vector of "which failed
        edges lie on my root path" — computed here as one vectorized
        interval-containment pass per fault, with group ids compressed
        after every bit so arbitrarily many faults fit.  One O(|F| n)
        setup then answers all same-fault queries in O(1) each; the
        serving layer's partition cache memoizes the result.
        """
        comp_v, tin, tout, comp_e, tin_u, tout_u, tin_v, tout_v = (
            self._packed_store()
        )
        order: list[int] = []
        seen: set[int] = set()
        for ei in faults:
            ei = int(ei)
            if ei not in seen:
                seen.add(ei)
                order.append(ei)
        check_fault_ids(order, self.graph.m)
        codes = comp_v.astype(np.int64)
        for ei in order:
            # The fault only cuts inside its own tree; masking by the
            # fault's component keeps numerically overlapping DFS
            # intervals of *other* trees from flipping foreign bits
            # (mirroring the component filter of query_many).
            on = (
                (comp_e[ei] == comp_v)
                & (tin_u[ei] <= tin)
                & (tout <= tout_u[ei])
                & (tin_v[ei] <= tin)
                & (tout <= tout_v[ei])
            )
            codes = np.unique(codes * 2 + on, return_inverse=True)[1]
        return ForestPartition(faults=tuple(order), group_of=codes)

    def max_vertex_label_bits(self) -> int:
        return max(
            (self.vertex_label(v).bit_length() for v in self.graph.vertices()),
            default=0,
        )

    def max_edge_label_bits(self) -> int:
        return max(
            (self.edge_label(e.index).bit_length() for e in self.graph.edges),
            default=0,
        )
