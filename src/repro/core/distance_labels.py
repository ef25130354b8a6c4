"""FT approximate distance labels (Section 4, Theorem 1.4 / Lemma 4.3).

The transformation from FT connectivity labels to FT approximate
distance labels: for every distance scale ``i in 0..K`` with
``K = ceil(log2(n W))``,

* drop the *heavy* edges ``H_i`` (weight > 2^i),
* build a tree cover ``TC_i = TC(G \\ H_i, w, 2^i, k)``,
* apply the FT connectivity scheme on every cluster subgraph
  ``G_{i,j} = (G \\ H_i)[V(T_{i,j})]`` with the cover tree ``T_{i,j}``
  as its spanning tree.

A vertex label concatenates its connectivity labels over all clusters
containing it plus, per scale, the index ``i*(v)`` of the cluster whose
tree contains ``B_{2^i}(v)``.  The decoder scans the scales upward and
returns the estimate ``(4k-1)(|F|+1) 2^i`` at the first scale where
``s`` and ``t`` are connected in ``G_{i,i*(s)} \\ F``; the analysis of
Section 4 yields

    dist(s,t; G\\F) <= estimate <= (8k-2)(|F|+1) dist(s,t; G\\F).

``base_scheme`` selects the underlying connectivity labels:
``"cycle_space"`` (cheap, O(f + log n) bits per instance edge) or
``"sketch"`` (O(log^3 n) bits, supports succinct path output and hence
routing).  ``routing=True`` builds the Eq. (5)/(6) routing-augmented
variant with per-instance Thorup-Zwick tree routing (Γ-augmented when
``gamma_f`` is set) and ``copies`` independent sketch collections —
exactly the label stack the Section 5 schemes consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from repro._util import derive_seed
from repro._util.build_pool import BuildPool
from repro.core._batch import check_fault_ids, check_vertex_ids, normalize_faults
from repro.core.cycle_space_scheme import CycleSpaceConnectivityScheme
from repro.core.sketch_scheme import RoutingAugmentation, SketchConnectivityScheme
from repro.graph.graph import Graph, InducedSubgraph
from repro.graph.spanning_tree import RootedTree
from repro.sizing.bits import bits_for_count, bits_for_weight_scales
from repro.trees.tree_cover import sparse_cover
from repro.trees.tree_routing import TreeRoutingScheme

InstanceKey = tuple[int, int]  # (scale i, cluster j)


class _EntityView:
    """Dict-like view of one entity's rows in a flat membership store.

    Supports exactly the mapping surface the decoders and the routing
    layer use on the old per-entity dicts: ``get``, ``[]``, ``items``,
    ``keys`` (so ``dict(view)`` works).  Creation is O(1); lookups are
    one ``searchsorted`` into the frozen column arrays.
    """

    __slots__ = ("_store", "_ent")

    def __init__(self, store, ent: int):
        self._store = store
        self._ent = ent

    def get(self, key, default=None):
        got = self._store.lookup(self._ent, key)
        return default if got is None else got

    def __getitem__(self, key):
        got = self._store.lookup(self._ent, key)
        if got is None:
            raise KeyError(key)
        return got

    def items(self):
        return self._store.rows_for(self._ent)

    def keys(self):
        return [k for k, _ in self._store.rows_for(self._ent)]

    def __iter__(self):
        return iter(self.keys())

    def __len__(self):
        return len(self._store.rows_for(self._ent))


class FlatMembership:
    """Flat sorted ``(entity, scale, cluster) -> local id`` columns.

    Replaces the ``[{} for _ in range(n)]`` per-entity dict stores:
    rows are appended as whole clusters during construction (ascending
    ``(i, j)``, so one stable sort by entity at freeze time yields rows
    ordered by ``(entity, i, j)``), then frozen into four int64 columns
    plus a composite sort key for O(log N) ``searchsorted`` lookup.
    ``store[ent]`` returns a dict-like :class:`_EntityView`, keeping
    every existing ``vmem[v].get(key)`` call site unchanged.
    """

    __slots__ = (
        "_parts_ent", "_parts_i", "_parts_j", "_parts_local",
        "_ent", "_i", "_j", "_local", "_key", "_si", "_sj",
    )

    def __init__(self):
        self._parts_ent: Optional[list[np.ndarray]] = []
        self._parts_i: Optional[list[int]] = []
        self._parts_j: Optional[list[int]] = []
        self._parts_local: Optional[list[np.ndarray]] = []
        self._key: Optional[np.ndarray] = None

    def add_cluster(self, entities, i: int, j: int, locals_=None) -> None:
        """Append one cluster's rows; ``locals_`` defaults to
        ``0..len(entities)`` (the local-id enumeration of the cluster)."""
        ent = np.asarray(entities, dtype=np.int64)
        if locals_ is None:
            locals_ = np.arange(ent.size, dtype=np.int64)
        self._parts_ent.append(ent)
        self._parts_i.append(i)
        self._parts_j.append(j)
        self._parts_local.append(np.asarray(locals_, dtype=np.int64))

    def freeze(self, max_i: int, max_j: int) -> None:
        """Sort and seal the columns; no rows may be added afterwards."""
        self._si = np.int64(max_i + 2)
        self._sj = np.int64(max_j + 2)
        if self._parts_ent:
            ent = np.concatenate(self._parts_ent)
            is_ = np.concatenate(
                [
                    np.full(p.size, iv, dtype=np.int64)
                    for p, iv in zip(self._parts_ent, self._parts_i)
                ]
            )
            js = np.concatenate(
                [
                    np.full(p.size, jv, dtype=np.int64)
                    for p, jv in zip(self._parts_ent, self._parts_j)
                ]
            )
            local = np.concatenate(self._parts_local)
            # Stable by entity: clusters were appended in ascending
            # (i, j), so within an entity rows stay (i, j)-ascending —
            # the exact iteration order of the old insertion-order dicts.
            srt = np.argsort(ent, kind="stable")
            ent, is_, js, local = ent[srt], is_[srt], js[srt], local[srt]
        else:
            ent = is_ = js = local = np.zeros(0, dtype=np.int64)
        if ent.size and (
            int(ent.max()) + 1
        ) * int(self._si) * int(self._sj) >= 2**62:  # pragma: no cover
            raise OverflowError("membership composite key overflows int64")
        self._ent, self._i, self._j, self._local = ent, is_, js, local
        self._key = (ent * self._si + is_) * self._sj + js
        self._parts_ent = self._parts_i = None
        self._parts_j = self._parts_local = None

    def set_frozen(self, ent, i, j, local, max_i: int, max_j: int) -> None:
        """Install pre-sorted columns directly (snapshot restore)."""
        self._si = np.int64(max_i + 2)
        self._sj = np.int64(max_j + 2)
        self._ent = np.asarray(ent, dtype=np.int64)
        self._i = np.asarray(i, dtype=np.int64)
        self._j = np.asarray(j, dtype=np.int64)
        self._local = np.asarray(local, dtype=np.int64)
        self._key = (self._ent * self._si + self._i) * self._sj + self._j
        self._parts_ent = self._parts_i = None
        self._parts_j = self._parts_local = None

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(entity, scale, cluster, local)`` frozen columns."""
        return self._ent, self._i, self._j, self._local

    def lookup(self, ent: int, key: InstanceKey) -> Optional[int]:
        k = (np.int64(ent) * self._si + np.int64(key[0])) * self._sj + np.int64(
            key[1]
        )
        pos = int(np.searchsorted(self._key, k))
        if pos < self._key.size and self._key[pos] == k:
            return int(self._local[pos])
        return None

    def rows_for(self, ent: int) -> list[tuple[InstanceKey, int]]:
        lo = int(np.searchsorted(self._key, np.int64(ent) * self._si * self._sj))
        hi = int(
            np.searchsorted(self._key, np.int64(ent + 1) * self._si * self._sj)
        )
        return [
            ((int(self._i[r]), int(self._j[r])), int(self._local[r]))
            for r in range(lo, hi)
        ]

    def __getitem__(self, ent: int) -> _EntityView:
        return _EntityView(self, ent)


class FlatIStar:
    """Flat sorted ``(vertex, scale) -> home cluster`` columns.

    The per-vertex ``i*`` dicts, flattened: whole scales are appended at
    once from the cover's home arrays, frozen into three sorted columns.
    ``store[v]`` is a dict-like view keyed by scale.
    """

    __slots__ = ("_parts_v", "_parts_i", "_parts_j", "_v", "_i", "_j", "_key", "_si")

    def __init__(self):
        self._parts_v: Optional[list[np.ndarray]] = []
        self._parts_i: Optional[list[int]] = []
        self._parts_j: Optional[list[np.ndarray]] = []
        self._key: Optional[np.ndarray] = None

    def add_scale(self, vertices, homes, i: int) -> None:
        self._parts_v.append(np.asarray(vertices, dtype=np.int64))
        self._parts_i.append(i)
        self._parts_j.append(np.asarray(homes, dtype=np.int64))

    def freeze(self, max_i: int) -> None:
        self._si = np.int64(max_i + 2)
        if self._parts_v:
            v = np.concatenate(self._parts_v)
            is_ = np.concatenate(
                [
                    np.full(p.size, iv, dtype=np.int64)
                    for p, iv in zip(self._parts_v, self._parts_i)
                ]
            )
            j = np.concatenate(self._parts_j)
            srt = np.argsort(v, kind="stable")
            v, is_, j = v[srt], is_[srt], j[srt]
        else:
            v = is_ = j = np.zeros(0, dtype=np.int64)
        self._v, self._i, self._j = v, is_, j
        self._key = v * self._si + is_
        self._parts_v = self._parts_i = self._parts_j = None

    def set_frozen(self, v, i, j, max_i: int) -> None:
        """Install pre-sorted columns directly (snapshot restore)."""
        self._si = np.int64(max_i + 2)
        self._v = np.asarray(v, dtype=np.int64)
        self._i = np.asarray(i, dtype=np.int64)
        self._j = np.asarray(j, dtype=np.int64)
        self._key = self._v * self._si + self._i
        self._parts_v = self._parts_i = self._parts_j = None

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(vertex, scale, home cluster)`` frozen columns."""
        return self._v, self._i, self._j

    def lookup(self, v: int, i: int) -> Optional[int]:
        k = np.int64(v) * self._si + np.int64(i)
        pos = int(np.searchsorted(self._key, k))
        if pos < self._key.size and self._key[pos] == k:
            return int(self._j[pos])
        return None

    def rows_for(self, v: int) -> list[tuple[int, int]]:
        lo = int(np.searchsorted(self._key, np.int64(v) * self._si))
        hi = int(np.searchsorted(self._key, np.int64(v + 1) * self._si))
        return [(int(self._i[r]), int(self._j[r])) for r in range(lo, hi)]

    def __getitem__(self, v: int) -> _EntityView:
        return _EntityView(self, v)


def instance_wiring(graph: Graph, to_parent):
    """The global-facing ``(id_of, port_fn)`` closures of one cluster.

    Cluster instances label *local* vertices, but the identifiers and
    ports embedded into EIDs must be globally routable, so both hooks
    translate through the instance's vertex map onto the parent graph.
    Single source of truth for construction (:meth:`DistanceLabelScheme.
    _build_scale`) **and** snapshot restore (:mod:`repro.store.artifacts`)
    — the two must install byte-identical semantics.
    """

    def port_fn(lu: int, lv: int, _m=to_parent) -> int:
        return graph.port_of(_m[lu], _m[lv])

    def id_of(lv: int, _m=to_parent) -> int:
        return _m[lv]

    return id_of, port_fn


def routing_port_bits(n: int) -> int:
    """Fixed EID port-field width for an n-vertex parent graph (Eq. 5)."""
    return max(1, (max(n - 1, 1)).bit_length())


@dataclass
class LabelInstance:
    """One (scale, cluster) connectivity-labeling instance."""

    key: InstanceKey
    sub: InducedSubgraph
    tree: RootedTree  # local coordinates; spans sub.graph
    scheme: Union[SketchConnectivityScheme, CycleSpaceConnectivityScheme]
    tree_routing: Optional[TreeRoutingScheme]
    center_local: int
    radius: float


@dataclass(frozen=True)
class DistVertexLabel:
    """Distance label of a vertex: one connectivity label per cluster
    containing it, plus the per-scale home-cluster indices i*(v)."""

    v: int
    entries: dict
    i_star: dict[int, int]
    key_bits: int

    def bit_length(self) -> int:
        bits = len(self.i_star) * self.key_bits
        for _, entry in self.entries.items():
            bits += self.key_bits + entry.bit_length()
        return bits


@dataclass(frozen=True)
class DistEdgeLabel:
    """Distance label of an edge: connectivity labels per cluster."""

    u: int
    v: int
    entries: dict
    key_bits: int

    def bit_length(self) -> int:
        bits = 0
        for _, entry in self.entries.items():
            bits += self.key_bits + entry.bit_length()
        return bits


@dataclass(frozen=True)
class DistDecodeResult:
    """Estimate plus the instance that produced it (for routing).

    ``inner`` carries the underlying connectivity decode result — for
    the sketch base scheme this includes the Lemma 3.17 succinct path.
    """

    estimate: float
    scale: Optional[int] = None
    instance_key: Optional[InstanceKey] = None
    inner: Optional[object] = None

    @property
    def connected(self) -> bool:
        return not math.isinf(self.estimate)


class DistancePartition:
    """Per-fault-set serving state for the distance labels (Section 4).

    Output of :meth:`DistanceLabelScheme.decode_partition`: one
    connectivity partition per touched (scale, home-cluster) instance,
    computed lazily through the instance scheme's own
    ``decode_partition`` and memoized for the lifetime of this object —
    so a stream of same-fault queries pays each instance's Boruvka /
    column-preparation cost once.  :meth:`answer` reproduces
    :meth:`DistanceLabelScheme.query_many` exactly (the same upward
    scale scan, the same ``(4k+3)(|F|+1) 2^i`` estimate at the first
    connected scale).
    """

    __slots__ = ("scheme", "copy", "faults", "num_faults", "_instance_parts")

    def __init__(self, scheme: "DistanceLabelScheme", faults: tuple[int, ...], copy: int):
        self.scheme = scheme
        self.copy = copy
        self.faults = faults  # deduplicated, in presentation order
        self.num_faults = len(faults)  # the |F| of the estimate formula
        self._instance_parts: dict[InstanceKey, object] = {}

    def _part(self, key: InstanceKey):
        """The (scale, cluster) instance's partition, built on first use."""
        part = self._instance_parts.get(key)
        if part is None:
            scheme = self.scheme
            emem = scheme._edge_membership
            local = [
                le
                for le in (emem[ei].get(key) for ei in self.faults)
                if le is not None
            ]
            inst = scheme.instances[key].scheme
            if isinstance(inst, CycleSpaceConnectivityScheme):
                part = inst.decode_partition(local)
            else:
                part = inst.decode_partition(local, copy=self.copy)
            self._instance_parts[key] = part
        return part

    def answer(self, s: int, t: int) -> float:
        """The Section 4 estimate for one pair, off cached partitions.

        Scans scales upward exactly as :meth:`DistanceLabelScheme.decode`
        and returns ``estimate_at_scale(i, |F|)`` at the first scale
        whose home-cluster instance reports s-t connected under the
        instance-local faults; ``math.inf`` when no scale connects.
        """
        scheme = self.scheme
        check_vertex_ids([(s, t)], scheme.graph.n)
        if s == t:
            return 0.0
        vmem = scheme._vertex_membership
        i_star = scheme._i_star[s]
        for i in range(scheme.K + 1):
            j = i_star.get(i)
            if j is None:
                continue
            key = (i, j)
            ls = vmem[s].get(key)
            lt = vmem[t].get(key)
            if ls is None or lt is None:
                continue
            if self._part(key).connected(ls, lt):
                return scheme.estimate_at_scale(i, self.num_faults)
        return math.inf

    #: alias so the facade/serving layer can treat every partition alike
    estimate = answer

    def answer_many(self, pairs) -> list[float]:
        """Batched :meth:`answer`; equals ``query_many`` exactly."""
        return [self.answer(s, t) for s, t in pairs]


class DistanceLabelScheme:
    """The Section 4 scheme over all scales and clusters."""

    def __init__(
        self,
        graph: Graph,
        f: int,
        k: int,
        seed: int = 0,
        base_scheme: str = "sketch",
        copies: int = 1,
        routing: bool = False,
        gamma_f: Optional[int] = None,
        units: Optional[int] = None,
        engine: str = "csr",
        id_space: Optional[int] = None,
        build_workers: int = 1,
    ):
        if k < 1:
            raise ValueError("stretch parameter k must be >= 1")
        if engine not in ("csr", "reference"):
            raise ValueError(f"unknown engine {engine!r}")
        if id_space is None:
            id_space = graph.n
        if id_space < graph.n:
            raise ValueError("id_space must cover every vertex id")
        if any(e.weight < 1.0 for e in graph.edges):
            raise ValueError("Section 4 assumes edge weights in [1, W]")
        if base_scheme not in ("sketch", "cycle_space"):
            raise ValueError(f"unknown base scheme {base_scheme!r}")
        if routing and base_scheme != "sketch":
            raise ValueError("routing requires the sketch-based labels")
        self.graph = graph
        self.f = f
        self.k = k
        self.seed = seed
        self.base_scheme = base_scheme
        self.routing = routing
        self.copies = copies
        self.engine = engine
        #: identifier space threaded into every cluster instance; vertex
        #: ids are global, so widening it past ``graph.n`` (e.g. for a
        #: shared id universe across graphs) also widens the hash family
        #: the instances pick via ``family_for_key_space``.
        self.id_space = id_space
        self.K = bits_for_weight_scales(graph.n, graph.max_weight())
        self.instances: dict[InstanceKey, LabelInstance] = {}
        # Flat column stores in place of the old [{} for _ in range(n)]
        # per-entity dicts: appended cluster-by-cluster during the scale
        # loop, frozen once at the end (searchsorted lookups thereafter).
        self._vertex_membership = FlatMembership()
        self._edge_membership = FlatMembership()
        self._i_star = FlatIStar()
        self.build_workers = max(1, int(build_workers))
        # One pool shared by every (scale, cluster) instance: cluster
        # schemes farm their independent per-copy builds onto it instead
        # of forking a pool per instance.  Serial (workers=1) skips the
        # pool entirely and is the bit-identical reference path.
        pool = BuildPool(self.build_workers) if self.build_workers > 1 else None
        try:
            for i in range(self.K + 1):
                self._build_scale(i, units, gamma_f, pool)
        finally:
            if pool is not None:
                pool.close()
        max_clusters = max(
            (key[1] for key in self.instances), default=0
        )
        self._vertex_membership.freeze(self.K, max_clusters)
        self._edge_membership.freeze(self.K, max_clusters)
        self._i_star.freeze(self.K)
        self.key_bits = bits_for_count(self.K) + bits_for_count(max(max_clusters, 1))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_scale(
        self,
        i: int,
        units: Optional[int],
        gamma_f: Optional[int],
        pool: Optional[BuildPool] = None,
    ) -> None:
        rho = float(2**i)
        graph = self.graph
        # Weight thresholding over the CSR edge-weight array; the cover's
        # per-scale ball computations run through the batched SSSP kernel
        # inside sparse_cover.
        weights = graph.as_csr().edge_weight
        light = weights <= rho
        heavy_edges = set(np.flatnonzero(~light).tolist())
        cover = sparse_cover(graph, rho, self.k, forbidden_edges=heavy_edges)
        if self.engine == "csr":
            # Clusters are sliced straight off the CSR endpoint arrays
            # (one vectorized keep-mask pass per cluster) instead of the
            # per-edge Python scan of the reference induced_subgraph —
            # identical subgraphs, maps and port numbering either way.
            allowed = light
        else:
            allowed = set(np.flatnonzero(light).tolist())
        for j, ct in enumerate(cover.trees):
            key = (i, j)
            # csr: the int64 member array slices straight into the CSR
            # keep-mask pass; reference keeps the plain-int tuple so no
            # np.int64 leaks into the sequential maps.
            cluster_vs = ct.members if self.engine == "csr" else ct.vertices
            sub = graph.induced_subgraph(
                cluster_vs, allowed_edges=allowed, engine=self.engine
            )
            center_local = sub.vertex_from_parent[ct.center]
            tree = RootedTree.dijkstra(sub.graph, center_local)
            if len(tree.vertices) != sub.graph.n:  # pragma: no cover - defensive
                raise RuntimeError("cover cluster is not connected")
            to_parent = sub.vertex_to_parent
            id_of, port_fn = instance_wiring(graph, to_parent)
            tree_routing = None
            inst_seed = derive_seed(self.seed, "instance", i, j)
            if self.base_scheme == "cycle_space":
                scheme: Union[
                    SketchConnectivityScheme, CycleSpaceConnectivityScheme
                ] = CycleSpaceConnectivityScheme(
                    sub.graph,
                    self.f,
                    seed=inst_seed,
                    trees=[tree],
                    engine=self.engine,
                )
            else:
                aug = None
                if self.routing:
                    tree_routing = TreeRoutingScheme(
                        tree,
                        gamma_f=gamma_f,
                        id_of=id_of,
                        port_fn=port_fn,
                        id_space=self.id_space,
                    )
                    aug = RoutingAugmentation(
                        port_bits=routing_port_bits(self.id_space),
                        tlabel_bits=tree_routing.encoded_label_bits(),
                        tlabel_of=tree_routing.encoded_label,
                    )
                scheme = SketchConnectivityScheme(
                    sub.graph,
                    seed=inst_seed,
                    copies=self.copies,
                    units=units,
                    routing=aug,
                    trees=[tree],
                    id_of=id_of,
                    id_space=self.id_space,
                    port_fn=port_fn,
                    engine=self.engine,
                    _pool=pool,
                )
            self.instances[key] = LabelInstance(
                key=key,
                sub=sub,
                tree=tree,
                scheme=scheme,
                tree_routing=tree_routing,
                center_local=center_local,
                radius=ct.radius,
            )
            self._vertex_membership.add_cluster(to_parent, i, j)
            self._edge_membership.add_cluster(sub.edge_to_parent, i, j)
        hv, hi = cover.home_arrays()
        self._i_star.add_scale(hv, hi, i)

    def __digest_hints__(self) -> dict[int, str]:
        """Segment digests known from construction, merged over every
        (scale, cluster) instance (see
        :meth:`SketchConnectivityScheme.__digest_hints__`)."""
        hints: dict[int, str] = {}
        for inst in self.instances.values():
            collect = getattr(inst.scheme, "__digest_hints__", None)
            if collect is not None:
                hints.update(collect())
        return hints

    # ------------------------------------------------------------------
    # Labels
    # ------------------------------------------------------------------
    def vertex_label(self, v: int) -> DistVertexLabel:
        entries = {}
        for key, lv in self._vertex_membership[v].items():
            entries[key] = self.instances[key].scheme.vertex_label(lv)
        return DistVertexLabel(
            v=v,
            entries=entries,
            i_star=dict(self._i_star[v]),
            key_bits=self.key_bits,
        )

    def edge_label(self, edge_index: int) -> DistEdgeLabel:
        e = self.graph.edge(edge_index)
        entries = {}
        for key, le in self._edge_membership[edge_index].items():
            entries[key] = self.instances[key].scheme.edge_label(le)
        return DistEdgeLabel(u=e.u, v=e.v, entries=entries, key_bits=self.key_bits)

    def max_vertex_label_bits(self) -> int:
        return max(
            (self.vertex_label(v).bit_length() for v in self.graph.vertices()),
            default=0,
        )

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def estimate_at_scale(self, i: int, num_faults: int) -> float:
        """The scale-i estimate ``(4k+3)(|F|+1) 2^i``.

        The paper's constant is ``(4k-1)`` under a tree cover with radius
        ``(2k-1) rho`` (Prop. 4.2); our round-based Awerbuch-Peleg cover
        guarantees ``(2k+1) rho`` (see the note in
        :mod:`repro.trees.tree_cover`), so the realizable-path
        bound of Section 4 becomes ``2(2k+1)(|F|+1)2^i + |F| 2^i <=
        (4k+3)(|F|+1)2^i``.  Same shape, +4 in the constant.
        """
        return (4 * self.k + 3) * (num_faults + 1) * float(2**i)

    def decode(
        self,
        s_label: DistVertexLabel,
        t_label: DistVertexLabel,
        fault_labels: Iterable[DistEdgeLabel],
        copy: int = 0,
        want_path: bool = False,
    ):
        """Scan the scales upward; return the first connected scale's
        estimate (Section 4 decoding algorithm)."""
        faults = list(fault_labels)
        if s_label.v == t_label.v:
            return DistDecodeResult(estimate=0.0)
        num_faults = len({(lab.u, lab.v) for lab in faults})
        for i in range(self.K + 1):
            j = s_label.i_star.get(i)
            if j is None:
                continue
            key = (i, j)
            s_entry = s_label.entries.get(key)
            t_entry = t_label.entries.get(key)
            if s_entry is None or t_entry is None:
                continue
            f_entries = [lab.entries[key] for lab in faults if key in lab.entries]
            scheme = self.instances[key].scheme
            if isinstance(scheme, CycleSpaceConnectivityScheme):
                inner = scheme.decode(s_entry, t_entry, f_entries)
            else:
                inner = scheme.decode(
                    s_entry, t_entry, f_entries, copy=copy, want_path=want_path
                )
            if inner.connected:
                return DistDecodeResult(
                    estimate=self.estimate_at_scale(i, num_faults),
                    scale=i,
                    instance_key=key,
                    inner=inner,
                )
        return DistDecodeResult(estimate=math.inf)

    def query_many(
        self,
        pairs,
        faults=(),
        copy: int = 0,
    ) -> list[float]:
        """Batched estimates, answer-identical to looping :meth:`query`.

        Scales are scanned upward exactly as in :meth:`decode`, but at
        each scale the still-unresolved queries are grouped by their
        home-cluster instance and answered through that instance
        scheme's batched ``query_many`` (faults mapped to instance-local
        edge ids via the membership tables), so the underlying Boruvka
        or GF(2) decodes run over whole query groups at once.  Vertex
        ids outside ``0..n-1`` and fault ids outside ``0..m-1`` raise
        ``ValueError``.
        """
        pairs = list(pairs)
        check_vertex_ids(pairs, self.graph.n)
        per = normalize_faults(pairs, faults, m=self.graph.m)
        if self.engine == "reference":
            return [
                self.query(s, t, F, copy=copy)
                for (s, t), F in zip(pairs, per)
            ]
        results: list[Optional[float]] = [None] * len(pairs)
        nf: list[int] = []
        for qi, ((s, t), F) in enumerate(zip(pairs, per)):
            if s == t:
                results[qi] = 0.0
            nf.append(len(set(F)))
        pending = [qi for qi in range(len(pairs)) if results[qi] is None]
        for i in range(self.K + 1):
            if not pending:
                break
            groups: dict[InstanceKey, list[int]] = {}
            for qi in pending:
                s, t = pairs[qi]
                j = self._i_star[s].get(i)
                if j is None:
                    continue
                key = (i, j)
                ls = self._vertex_membership[s].get(key)
                lt = self._vertex_membership[t].get(key)
                if ls is None or lt is None:
                    continue
                groups.setdefault(key, []).append(qi)
            for key, qis in groups.items():
                scheme = self.instances[key].scheme
                vmem = self._vertex_membership
                emem = self._edge_membership
                sub_pairs = [
                    (vmem[pairs[qi][0]][key], vmem[pairs[qi][1]][key])
                    for qi in qis
                ]
                sub_faults = [
                    [
                        le
                        for le in (emem[ei].get(key) for ei in per[qi])
                        if le is not None
                    ]
                    for qi in qis
                ]
                if isinstance(scheme, CycleSpaceConnectivityScheme):
                    verdicts = scheme.query_many(sub_pairs, sub_faults)
                else:
                    verdicts = [
                        r.connected
                        for r in scheme.query_many(
                            sub_pairs, sub_faults, copy=copy, want_path=False
                        )
                    ]
                for qi, ok in zip(qis, verdicts):
                    if ok:
                        results[qi] = self.estimate_at_scale(i, nf[qi])
            pending = [qi for qi in pending if results[qi] is None]
        for qi in pending:
            results[qi] = math.inf
        return results  # type: ignore[return-value]

    def decode_partition(
        self, faults: Iterable[int], copy: int = 0
    ) -> DistancePartition:
        """Per-fault-set serving state over all scales and clusters.

        Returns a :class:`DistancePartition` whose per-instance
        connectivity partitions are built lazily (only the scales and
        home clusters the query stream actually touches) through the
        underlying scheme's ``decode_partition`` — the entry point the
        serving layer's partition cache memoizes.  Requires the
        vectorized engine, like the instance-level partitions it
        delegates to.
        """
        if self.engine == "reference":
            raise RuntimeError(
                "decode_partition requires the vectorized engine"
            )
        order: list[int] = []
        seen: set[int] = set()
        for ei in faults:
            ei = int(ei)
            if ei not in seen:
                seen.add(ei)
                order.append(ei)
        check_fault_ids(order, self.graph.m)
        return DistancePartition(self, tuple(order), copy)

    # ------------------------------------------------------------------
    # Convenience wrapper used by examples and benches
    # ------------------------------------------------------------------
    def query(self, s: int, t: int, faults: Iterable[int], copy: int = 0) -> float:
        """Full-pipeline estimate of dist(s, t; G \\ F)."""
        check_vertex_ids([(s, t)], self.graph.n)
        faults = [int(ei) for ei in faults]
        check_fault_ids(faults, self.graph.m)
        result = self.decode(
            self.vertex_label(s),
            self.vertex_label(t),
            [self.edge_label(ei) for ei in faults],
            copy=copy,
        )
        return result.estimate

    def stretch_bound(self, num_faults: int) -> float:
        """The Theorem 1.4 guarantee, with this construction's cover
        constant: ``(8k+6)(|F|+1)`` (paper: ``(8k-2)(|F|+1)``)."""
        return (8 * self.k + 6) * (num_faults + 1)
