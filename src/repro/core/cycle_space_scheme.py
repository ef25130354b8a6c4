"""FT connectivity labels via cycle space sampling (Section 3.1).

The scheme (Theorem 3.6):

* every edge label carries ``(phi(e), ANC(u), ANC(v), tree-bit)`` —
  ``O(f + log n)`` bits with ``b = f + c log n`` cycle-space bits;
* every vertex label carries its ancestry label — ``O(log n)`` bits;
* the decoder determines whether ``s`` and ``t`` are disconnected by a
  fault set F by testing solvability of two GF(2) systems built from the
  augmented labels ``phi'(e)`` (Lemma 3.5), in time
  ``O((f + log n) f^2)``.

For disconnected inputs every label additionally records the connected
component id, and the scheme is applied per component (Section 3
preamble).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro._util import derive_seed
from repro.core._batch import check_fault_ids, check_vertex_ids, normalize_faults
from repro.cycle_space.labels import CycleSpaceLabels
from repro.graph.ancestry import (
    AncestryLabeling,
    AncLabel,
    edge_on_root_path,
    stitched_intervals,
)
from repro.graph.graph import Graph
from repro.graph.spanning_tree import RootedTree, spanning_forest
from repro.linalg.gf2 import gf2_solve
from repro.sizing.bits import bits_for_count


@dataclass(frozen=True)
class CSVertexLabel:
    """Vertex label: component id + ancestry label (O(log n) bits)."""

    component: int
    anc: AncLabel
    n: int

    def bit_length(self) -> int:
        return bits_for_count(self.component) + AncestryLabeling.bit_length(self.n)


@dataclass(frozen=True)
class CSEdgeLabel:
    """Edge label: ``(phi(e), ANC(u), ANC(v), tree-bit)`` plus component id.

    O(f + log n) bits: ``b = f + c log n`` bits of phi and two ancestry
    labels.
    """

    component: int
    phi: int
    b: int
    anc_u: AncLabel
    anc_v: AncLabel
    is_tree: bool
    n: int

    def bit_length(self) -> int:
        return (
            bits_for_count(self.component)
            + self.b
            + 2 * AncestryLabeling.bit_length(self.n)
            + 1
        )

    def identity(self) -> tuple[AncLabel, AncLabel]:
        """A decoder-visible identity used to deduplicate fault lists."""
        return (self.anc_u, self.anc_v) if self.anc_u <= self.anc_v else (
            self.anc_v,
            self.anc_u,
        )


@dataclass(frozen=True)
class CSDecodeResult:
    """Decoder output: verdict plus, when disconnected, the witnessing cut.

    ``cut_member_positions`` indexes into the (deduplicated) fault-label
    list handed to the decoder; the selected edges form an induced edge
    cut F' separating s from t (Corollary 3.4).
    """

    connected: bool
    cut_member_positions: Optional[tuple[int, ...]] = None


def side_of_vertex(anc_x: AncLabel, cut_tree_edges: Sequence[tuple[AncLabel, AncLabel]]) -> int:
    """Claim 3.3 side classification (Figure 1).

    Given the ancestry labels of the tree edges of an induced edge cut
    F', the side of vertex x is the parity of ``n_x(F')`` — the number
    of cut edges on the root-to-x tree path.
    """
    parity = 0
    for anc_u, anc_v in cut_tree_edges:
        if edge_on_root_path(anc_u, anc_v, anc_x):
            parity ^= 1
    return parity


class PreparedFaultSet:
    """Per-fault-set decode context for the cycle-space scheme.

    Output of :meth:`CycleSpaceConnectivityScheme.decode_partition`.
    Unlike the sketch/forest schemes, the Section 3.1 decoder cannot
    precompute a full vertex partition: the two flag bits of the
    Lemma 3.5 augmented columns depend on (s, t), so a GF(2) solve
    remains per query.  What *is* shared by all same-fault queries — the
    per-component fault filtering, the decoder-identity deduplication
    and the ``(phi, tree-bit, endpoint-interval)`` column bases — is
    hoisted here once.  :meth:`answer` reproduces
    :meth:`CycleSpaceConnectivityScheme.query_many` exactly, and the
    serving layer's partition cache memoizes these objects per
    canonical fault set.
    """

    __slots__ = ("faults", "_b", "_by_comp", "_comp_v", "_tin", "_tout")

    def __init__(self, scheme: "CycleSpaceConnectivityScheme", faults: tuple[int, ...]):
        comp_v, tin, tout, comp_e, phi, is_tree, anc_e, ident = (
            scheme._packed_store()
        )
        self.faults = faults
        self._b = scheme.b
        self._comp_v, self._tin, self._tout = comp_v, tin, tout
        by_comp: dict[int, list[tuple]] = {}
        seen: dict[int, set] = {}
        for ei in faults:
            c = comp_e[ei]
            keys = seen.setdefault(c, set())
            key = ident[ei]
            if key in keys:
                continue
            keys.add(key)
            au, av = anc_e[ei]
            by_comp.setdefault(c, []).append((phi[ei], is_tree[ei], au, av))
        self._by_comp = by_comp

    def connected(self, s: int, t: int) -> bool:
        """Exact replica of one ``query_many`` pair: build the Lemma 3.5
        augmented columns from the prepared bases and solve the two
        GF(2) systems."""
        comp_v, tin, tout = self._comp_v, self._tin, self._tout
        check_vertex_ids([(s, t)], len(comp_v))
        cs = comp_v[s]
        if cs != comp_v[t]:
            return False
        s_tin, s_tout = tin[s], tout[s]
        t_tin, t_tout = tin[t], tout[t]
        if s_tin == t_tin and s_tout == t_tout:
            return True
        base = self._by_comp.get(cs)
        if not base:
            return True
        b = self._b
        w_s = 1 << (b + 1)
        w_t = 1 << b
        columns: list[int] = []
        for phi_e, istree, au, av in base:
            col = phi_e
            if istree:
                on_s = (
                    au[0] <= s_tin
                    and s_tout <= au[1]
                    and av[0] <= s_tin
                    and s_tout <= av[1]
                )
                on_t = (
                    au[0] <= t_tin
                    and t_tout <= au[1]
                    and av[0] <= t_tin
                    and t_tout <= av[1]
                )
                if on_s and not on_t:
                    col |= w_s
                elif on_t and not on_s:
                    col |= w_t
            columns.append(col)
        for w in (w_s, w_t):
            if gf2_solve(columns, w) is not None:
                return False
        return True

    # uniform partition protocol: the native answer type is bool
    answer = connected

    def answer_many(self, pairs: Sequence[tuple[int, int]]) -> list[bool]:
        """Batched :meth:`connected`; equals ``query_many`` exactly."""
        return [self.connected(s, t) for s, t in pairs]


class CycleSpaceConnectivityScheme:
    """The full Section 3.1 scheme: labeling plus both decoders."""

    def __init__(
        self,
        graph: Graph,
        f: int,
        seed: int = 0,
        c_log: int = 4,
        trees: Optional[Sequence[RootedTree]] = None,
        all_queries: bool = False,
        engine: str = "csr",
    ):
        """Assign labels for up to ``f`` edge faults.

        ``b = f + c_log * ceil(log2 n)`` cycle-space bits per edge, the
        paper's choice guaranteeing per-query error ``<= 2^f / 2^b =
        n^-c_log`` (Section 3.1.1).  With ``all_queries=True`` the width
        grows to ``b = (f + c_log) * ceil(log2 n)`` — the Section 3.1.1
        remark: since there are at most ``O(n^f)`` fault sets of size
        <= f, O(f log n) bits make the labels correct for *all* queries
        simultaneously w.h.p., not just per query.

        ``trees`` may supply pre-built spanning trees (one per
        component); otherwise BFS trees are used.

        ``engine`` selects the query path: ``"csr"`` (default) answers
        :meth:`query`/:meth:`query_many` from the packed label store,
        ``"reference"`` materializes per-object labels and runs the
        seed :meth:`decode` — identical answers either way (asserted by
        ``tests/test_query_many.py``).
        """
        if f < 0:
            raise ValueError("fault bound f must be >= 0")
        if engine not in ("csr", "reference"):
            raise ValueError(f"unknown engine {engine!r}")
        self.engine = engine
        self.graph = graph
        self.f = f
        self.seed = seed
        self.all_queries = all_queries
        n = max(graph.n, 2)
        log_n = max(1, math.ceil(math.log2(n)))
        if all_queries:
            self.b = (f + c_log) * log_n
        else:
            self.b = f + c_log * log_n
        if trees is None:
            self.trees, self.comp_of = spanning_forest(graph)
        else:
            self.trees = list(trees)
            comp_of = np.full(graph.n, -1, dtype=np.int64)
            for ci, tree in enumerate(self.trees):
                comp_of[tree.arrays().order] = ci
            self.comp_of = comp_of
        self._anc = [AncestryLabeling(tree) for tree in self.trees]
        self._labels = [
            CycleSpaceLabels.build(
                graph, tree, self.b, seed=derive_seed(seed, "cs", ci)
            )
            for ci, tree in enumerate(self.trees)
        ]
        self._qstore: Optional[tuple] = None

    def _packed_store(self) -> tuple:
        """Packed query-side label arrays (built once, lazily).

        Per vertex: component and DFS interval; per edge: component,
        phi word, tree bit, endpoint intervals and the dedup identity —
        the exact fields :meth:`decode` reads off label objects, held as
        flat lists so the batched query loop never materializes labels.
        """
        if self._qstore is None:
            graph = self.graph
            n, m = graph.n, graph.m
            comp_v = np.asarray(self.comp_of, dtype=np.int64).tolist()
            tin_np, tout_np = stitched_intervals(self._anc, n)
            tin = tin_np.tolist()
            tout = tout_np.tolist()
            comp_e = [0] * m
            phi = [0] * m
            is_tree = [False] * m
            anc_e = [None] * m
            ident = [None] * m
            for ei in range(m):
                e = graph.edge(ei)
                ci = comp_v[e.u]
                comp_e[ei] = ci
                phi[ei] = self._labels[ci].phi(ei)
                is_tree[ei] = self.trees[ci].is_tree_edge(ei)
                au = (tin[e.u], tout[e.u])
                av = (tin[e.v], tout[e.v])
                anc_e[ei] = (au, av)
                ident[ei] = (au, av) if au <= av else (av, au)
            self._qstore = (comp_v, tin, tout, comp_e, phi, is_tree, anc_e, ident)
        return self._qstore

    # ------------------------------------------------------------------
    # Labels
    # ------------------------------------------------------------------
    def vertex_label(self, v: int) -> CSVertexLabel:
        ci = int(self.comp_of[v])
        return CSVertexLabel(component=ci, anc=self._anc[ci].label(v), n=self.graph.n)

    def edge_label(self, edge_index: int) -> CSEdgeLabel:
        e = self.graph.edge(edge_index)
        ci = int(self.comp_of[e.u])
        anc = self._anc[ci]
        return CSEdgeLabel(
            component=ci,
            phi=self._labels[ci].phi(edge_index),
            b=self.b,
            anc_u=anc.label(e.u),
            anc_v=anc.label(e.v),
            is_tree=self.trees[ci].is_tree_edge(edge_index),
            n=self.graph.n,
        )

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

    # ------------------------------------------------------------------
    # Decoding (Section 3.1.3 — linear systems over GF(2))
    # ------------------------------------------------------------------
    @staticmethod
    def _augmented_columns(
        s: CSVertexLabel, t: CSVertexLabel, faults: Sequence[CSEdgeLabel]
    ) -> list[int]:
        """Build the phi'(e) column vectors of Lemma 3.5.

        Layout: bit ``b+1`` is the "on r-s only" flag, bit ``b`` the
        "on r-t only" flag, low b bits are phi(e).
        """
        columns = []
        for lab in faults:
            prefix_s = lab.is_tree and edge_on_root_path(lab.anc_u, lab.anc_v, s.anc)
            prefix_t = lab.is_tree and edge_on_root_path(lab.anc_u, lab.anc_v, t.anc)
            col = lab.phi
            if prefix_s and not prefix_t:
                col |= 1 << (lab.b + 1)
            elif prefix_t and not prefix_s:
                col |= 1 << lab.b
            columns.append(col)
        return columns

    def decode(
        self,
        s_label: CSVertexLabel,
        t_label: CSVertexLabel,
        fault_labels: Iterable[CSEdgeLabel],
    ) -> CSDecodeResult:
        """Decide s-t connectivity in G \\ F from labels only.

        Returns connected=True/False; when disconnected, also the subset
        of fault labels forming the witnessing induced cut.
        """
        if s_label.component != t_label.component:
            return CSDecodeResult(connected=False)
        if s_label.anc == t_label.anc:
            return CSDecodeResult(connected=True)
        relevant: list[CSEdgeLabel] = []
        seen: set[tuple[AncLabel, AncLabel]] = set()
        for lab in fault_labels:
            if lab.component != s_label.component:
                continue
            key = lab.identity()
            if key in seen:
                continue
            seen.add(key)
            relevant.append(lab)
        if not relevant:
            return CSDecodeResult(connected=True)
        columns = self._augmented_columns(s_label, t_label, relevant)
        b = relevant[0].b
        for w in (1 << (b + 1), 1 << b):
            solution = gf2_solve(columns, w)
            if solution is not None:
                members = tuple(i for i, xi in enumerate(solution) if xi)
                return CSDecodeResult(connected=False, cut_member_positions=members)
        return CSDecodeResult(connected=True)

    def decode_bruteforce(
        self,
        s_label: CSVertexLabel,
        t_label: CSVertexLabel,
        fault_labels: Iterable[CSEdgeLabel],
    ) -> CSDecodeResult:
        """Exponential reference decoder (Section 3.1.2): enumerate all
        subsets F' of F, test the induced-cut condition via the label XOR
        and the side parity via Corollary 3.4.  For tests only."""
        if s_label.component != t_label.component:
            return CSDecodeResult(connected=False)
        if s_label.anc == t_label.anc:
            return CSDecodeResult(connected=True)
        relevant = [
            lab for lab in fault_labels if lab.component == s_label.component
        ]
        # Deduplicate as in the fast decoder.
        uniq: dict[tuple[AncLabel, AncLabel], CSEdgeLabel] = {}
        for lab in relevant:
            uniq.setdefault(lab.identity(), lab)
        labs = list(uniq.values())
        k = len(labs)
        for mask in range(1, 1 << k):
            subset = [labs[i] for i in range(k) if (mask >> i) & 1]
            if any(True for _ in subset):
                xor = 0
                for lab in subset:
                    xor ^= lab.phi
                if xor != 0:
                    continue
                tree_edges = [
                    (lab.anc_u, lab.anc_v) for lab in subset if lab.is_tree
                ]
                ns = side_of_vertex(s_label.anc, tree_edges)
                nt = side_of_vertex(t_label.anc, tree_edges)
                if ns != nt:
                    members = tuple(i for i in range(k) if (mask >> i) & 1)
                    return CSDecodeResult(connected=False, cut_member_positions=members)
        return CSDecodeResult(connected=True)

    # ------------------------------------------------------------------
    # Batched queries (packed label store)
    # ------------------------------------------------------------------
    def query_many(
        self, pairs: Sequence[tuple[int, int]], faults=()
    ) -> list[bool]:
        """Batched full-pipeline queries on vertex pairs and edge indices.

        ``faults`` is one shared iterable of edge indices or a per-pair
        sequence of iterables.  Answers are identical to looping
        :meth:`query`: the same deduplication, the same Lemma 3.5
        augmented columns and the same GF(2) solves — read off the
        packed store instead of per-object labels (the solve itself is
        already O((f + log n) f^2) per query and stays per query).
        Vertex ids outside ``0..n-1`` and fault ids outside ``0..m-1``
        raise ``ValueError``.
        """
        check_vertex_ids(pairs, self.graph.n)
        per = normalize_faults(pairs, faults, m=self.graph.m)
        if self.engine == "reference":
            return [
                self.decode(
                    self.vertex_label(s),
                    self.vertex_label(t),
                    [self.edge_label(ei) for ei in F],
                ).connected
                for (s, t), F in zip(pairs, per)
            ]
        comp_v, tin, tout, comp_e, phi, is_tree, anc_e, ident = (
            self._packed_store()
        )
        b = self.b
        w_s = 1 << (b + 1)
        w_t = 1 << b
        out: list[bool] = []
        for (s, t), F in zip(pairs, per):
            cs = comp_v[s]
            if cs != comp_v[t]:
                out.append(False)
                continue
            s_tin, s_tout = tin[s], tout[s]
            t_tin, t_tout = tin[t], tout[t]
            if s_tin == t_tin and s_tout == t_tout:
                out.append(True)
                continue
            columns: list[int] = []
            seen = set()
            for ei in F:
                if comp_e[ei] != cs:
                    continue
                key = ident[ei]
                if key in seen:
                    continue
                seen.add(key)
                col = phi[ei]
                if is_tree[ei]:
                    au, av = anc_e[ei]
                    on_s = (
                        au[0] <= s_tin
                        and s_tout <= au[1]
                        and av[0] <= s_tin
                        and s_tout <= av[1]
                    )
                    on_t = (
                        au[0] <= t_tin
                        and t_tout <= au[1]
                        and av[0] <= t_tin
                        and t_tout <= av[1]
                    )
                    if on_s and not on_t:
                        col |= w_s
                    elif on_t and not on_s:
                        col |= w_t
                columns.append(col)
            connected = True
            if columns:
                for w in (w_s, w_t):
                    if gf2_solve(columns, w) is not None:
                        connected = False
                        break
            out.append(connected)
        return out

    def decode_partition(self, faults: Iterable[int]) -> PreparedFaultSet:
        """The reusable per-fault-set decode context (edge indices).

        The cycle-space analogue of the sketch scheme's
        ``decode_partition``: everything that depends only on the fault
        set (component filtering, deduplication, phi columns) is
        computed once; the (s, t)-dependent GF(2) solves of Lemma 3.5
        stay per query inside :meth:`PreparedFaultSet.connected`.
        Answers equal :meth:`query_many` exactly.  Works on both
        engines (the packed store is engine-independent here).
        """
        order: list[int] = []
        seen: set[int] = set()
        for ei in faults:
            ei = int(ei)
            if ei not in seen:
                seen.add(ei)
                order.append(ei)
        check_fault_ids(order, self.graph.m)
        return PreparedFaultSet(self, tuple(order))

    # ------------------------------------------------------------------
    # Convenience wrapper used by examples and benches
    # ------------------------------------------------------------------
    def query(self, s: int, t: int, faults: Iterable[int]) -> bool:
        """Full-pipeline query: look up labels, decode, return connected.

        Delegates to the batched path with batch size 1 on the default
        engine; ``engine="reference"`` runs the seed label decoder.
        """
        check_vertex_ids([(s, t)], self.graph.n)
        faults = [int(ei) for ei in faults]
        check_fault_ids(faults, self.graph.m)
        if self.engine == "csr":
            return self.query_many([(s, t)], faults)[0]
        result = self.decode(
            self.vertex_label(s),
            self.vertex_label(t),
            [self.edge_label(ei) for ei in faults],
        )
        return result.connected
