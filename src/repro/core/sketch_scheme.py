"""FT connectivity labels via graph sketches (Section 3.2, Theorem 3.7).

Labeling (Section 3.2.1):

* every vertex label carries ``(ANC_T(u), ID(u))`` (Eq. 3), plus the
  tree-routing label ``L_T(u)`` in routing mode (Eq. 6);
* every non-tree edge label is its extended identifier ``EID_T(e)``;
* every tree edge label additionally carries the subtree sketch
  ``Sketch(V(T_child))``, the global sketch ``Sketch(V)``, and the seeds
  ``S_ID`` and ``S_h`` — O(log^3 n) bits in total.

Decoding (Section 3.2.2), given the labels of ``s``, ``t`` and the fault
set F:

1. identify the components of ``T \\ F_T`` from ancestry labels
   (Claim 3.14, :mod:`repro.core.component_tree`);
2. compute each component's sketch in G from the subtree sketches
   (Claim 3.15);
3. cancel the faulty edges out of the component sketches;
4. simulate Boruvka phases over the components, one fresh sketch unit
   per phase, until the components stop merging; ``s`` and ``t`` are
   connected iff their components merged.

When connected, the decoder also emits the succinct s-t path of
Lemma 3.17 (O(f) recovery-edge / tree-path segments), which the routing
schemes of Section 5 consume.

``copies`` builds the f' = f+1 independent sketch collections required
by the fault-tolerant routing scheme (Section 5.2): all copies share the
extended identifiers (same ``S_ID``) and differ only in the sketch seeds
``S_h^1..S_h^{f'}``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from repro._util import derive_seed
from repro._util.build_pool import BuildPool, split_ranges
from repro.obs import PhaseTimer
from repro.core._batch import check_fault_ids, check_vertex_ids, normalize_faults
from repro.core.component_tree import ComponentForest, orient_tree_edge
from repro.core.path_chain import chain_segments
from repro.core.path_description import PathSegment, SuccinctPath
from repro.graph.ancestry import AncestryLabeling, AncLabel, stitched_intervals
from repro.graph.graph import Graph
from repro.graph.spanning_tree import RootedTree, spanning_forest
from repro.sketches.edge_ids import DecodedEid, ExtendedEdgeIds, UidScheme
from repro.sketches.hashing import PairwiseHashFamily, family_for_key_space
from repro.sketches.sketch import (
    MAX_SKETCH_ID_SPACE,
    MAX_SKETCH_ID_SPACE_M61,
    RaggedPrefix,
    SketchDims,
    VertexSketches,
    eids_to_word_matrix,
    prefix_store_task,
    word_matrix_to_eids,
)
from repro.sizing.bits import bits_for_count, bits_for_id
from repro.trees.union_find import UnionFind


def default_units(n: int) -> int:
    """Default number of basic sketch units L = Theta(log n)."""
    return 2 * max(2, math.ceil(math.log2(max(n, 4)))) + 8


@dataclass(frozen=True)
class RoutingAugmentation:
    """Extra fields embedded into EIDs for the routing schemes (Eq. 5).

    ``tlabel_of(v)`` returns the encoded Thorup-Zwick tree-routing label
    of ``v`` as an integer of at most ``tlabel_bits`` bits.
    """

    port_bits: int
    tlabel_bits: int
    tlabel_of: Callable[[int], int]


@dataclass(frozen=True)
class SketchContext:
    """Decoder-visible constants: what the seeds in the labels determine.

    Conceptually this is (S_ID, S_h^1.., n, m) — the decoder
    reconstructs the hash families and the EID codec from them.  It is
    shared by reference between labels and counted once per tree-edge
    label in the bit accounting.
    """

    dims: SketchDims
    eids: ExtendedEdgeIds
    sketchers: tuple[VertexSketches, ...]

    @property
    def copies(self) -> int:
        return len(self.sketchers)

    def seed_bits(self) -> int:
        return UidScheme.SEED_BITS + sum(s.family.seed_bits() for s in self.sketchers)


@dataclass(frozen=True)
class SkVertexLabel:
    """Vertex label (Eq. 3 / Eq. 6): component, id, ancestry, tree label."""

    component: int
    vid: int
    anc: AncLabel
    n: int
    tlabel: Optional[int] = None
    tlabel_bits: int = 0

    def bit_length(self) -> int:
        bits = (
            bits_for_count(self.component)
            + bits_for_id(self.n)
            + AncestryLabeling.bit_length(self.n)
        )
        if self.tlabel is not None:
            bits += self.tlabel_bits
        return bits


@dataclass(frozen=True)
class SkEdgeLabel:
    """Edge label: EID for non-tree edges; EID + sketches + seeds for
    tree edges (per-copy child-subtree sketch and the global sketch)."""

    component: int
    eid: int
    is_tree: bool
    context: SketchContext
    subtree: Optional[tuple[np.ndarray, ...]] = None
    global_sketch: Optional[tuple[np.ndarray, ...]] = None

    def bit_length(self) -> int:
        bits = bits_for_count(self.component) + self.context.eids.total_bits + 1
        if self.is_tree:
            cell_bits = self.context.eids.total_bits
            sketch_bits = self.context.dims.cell_count() * cell_bits
            bits += 2 * self.context.copies * sketch_bits  # subtree + global
            bits += self.context.seed_bits()
        return bits


@dataclass(frozen=True)
class SkDecodeResult:
    """Decoder verdict plus the Lemma 3.17 succinct path when connected.

    ``phases_used`` counts the Boruvka phases of the query's fault set:
    every sketch unit read while more than one component is still live.
    A tail of units in which no component can merge counts in full,
    including a tail the batched decoder retires without reading it
    phase by phase.  Trivial verdicts (no tree faults) use 0 phases.
    """

    connected: bool
    path: Optional[SuccinctPath] = None
    phases_used: int = 0


@dataclass(frozen=True)
class ConnectivityPartition:
    """The full G \\ F component structure over the T \\ F_T components.

    Output of :meth:`SketchConnectivityScheme.decode_partition_labels`:
    one decode answers *all* same-component queries for a fixed fault set —
    two labeled vertices are connected in ``G \\ F`` iff their groups
    match.  ``component`` is None when the queried vertex lies in a
    different connected component of G than the fault set's.
    """

    component: int  # the G-component this partition describes
    forest: ComponentForest
    group_of: tuple[int, ...]  # T\F_T component index -> group id

    def group(self, vertex_label: "SkVertexLabel") -> Optional[int]:
        """Group id of a labeled vertex (None if in another G-component)."""
        if vertex_label.component != self.component:
            return None
        return self.group_of[self.forest.locate(vertex_label.anc)]

    def same_component(
        self, a: "SkVertexLabel", b: "SkVertexLabel"
    ) -> bool:
        """Are the two labeled vertices connected in G \\ F?"""
        if a.component != b.component:
            return False
        if a.component != self.component:
            raise ValueError("partition was built for a different component")
        return self.group(a) == self.group(b)

    @property
    def group_count(self) -> int:
        return len(set(self.group_of))


class FaultSetPartition:
    """The ``G \\ F`` connectivity partition for one fault set, all
    components — the unit of work the serving layer caches.

    Output of :meth:`SketchConnectivityScheme.decode_partition`: one
    batched Boruvka decode answers *every* (s, t) query under the same
    fault set.  :meth:`answer`/:meth:`answer_many` reproduce
    :meth:`SketchConnectivityScheme.query_many` bit for bit — succinct
    paths and phase counts included — when ``query_many`` is handed the
    faults in this partition's (deduplicated) order; verdicts agree for
    any fault order.  :meth:`connected`/:meth:`group` answer in
    O(log f) per query without touching the sketches again
    (Claim 3.14 location + one union-find find).
    """

    __slots__ = ("scheme", "copy", "faults", "entries")

    def __init__(
        self,
        scheme: "SketchConnectivityScheme",
        copy: int,
        faults: tuple[int, ...],
        entries: dict,
    ):
        self.scheme = scheme
        self.copy = copy
        #: deduplicated fault edge indices, in presentation order
        self.faults = faults
        #: component -> (forest, union_find, merges, phases); components
        #: without failed tree edges are absent (their spanning tree is
        #: intact, so they stay one group)
        self.entries = entries

    def group(self, v: int) -> tuple[int, int]:
        """Partition-group id of vertex ``v``.

        Two vertices are connected in ``G \\ F`` iff their group ids are
        equal (w.h.p.; Claim 3.16).
        """
        st = self.scheme._packed_store()
        c = st.comp_v[v]
        if c < 0:
            raise ValueError("vertex is not spanned by a tree")
        entry = self.entries.get(c)
        if entry is None:
            return (c, 0)
        forest, uf, _, _ = entry
        return (c, uf.find(forest.locate((st.tin[v], st.tout[v]))))

    def connected(self, s: int, t: int) -> bool:
        """s-t connectivity in ``G \\ F`` (w.h.p.), O(log f) per query."""
        check_vertex_ids([(s, t)], self.scheme.graph.n)
        return self.group(s) == self.group(t)

    def answer(self, s: int, t: int, want_path: bool = True) -> SkDecodeResult:
        """The full decode result for one pair (batch of one)."""
        return self.answer_many([(s, t)], want_path=want_path)[0]

    def answer_many(
        self, pairs: Sequence[tuple[int, int]], want_path: bool = True
    ) -> list[SkDecodeResult]:
        """Decode results for many pairs off the precomputed partition.

        Identical to :meth:`SketchConnectivityScheme.query_many` on the
        same pairs with this partition's fault set (Lemma 3.17 paths
        assembled from the recorded merges), but with no per-query
        Boruvka work left — just locate + union-find.  Vertex ids
        outside ``0..n-1`` raise ``ValueError``.
        """
        scheme = self.scheme
        check_vertex_ids(pairs, scheme.graph.n)
        st = scheme._packed_store()
        comp_v, vid, tin, tout = st.comp_v, st.vid, st.tin, st.tout
        routing = scheme._routing
        tlabel_of = routing.tlabel_of if routing is not None else None
        entries = self.entries
        Result, Path, Segment = SkDecodeResult, SuccinctPath, PathSegment
        out: list[SkDecodeResult] = []
        for s, t in pairs:
            cs = comp_v[s]
            if cs < 0 or comp_v[t] < 0:
                raise ValueError("query vertex is not spanned by a tree")
            if cs != comp_v[t]:
                out.append(Result(connected=False))
                continue
            vs, vt = vid[s], vid[t]
            if vs == vt:
                out.append(Result(connected=True, path=Path(vs, vt, ())))
                continue
            entry = entries.get(cs)
            if entry is None:
                path = None
                if want_path:
                    path = Path(
                        vs,
                        vt,
                        (
                            Segment(
                                kind="tree",
                                x=vs,
                                y=vt,
                                tlabel_x=None if tlabel_of is None else tlabel_of(s),
                                tlabel_y=None if tlabel_of is None else tlabel_of(t),
                            ),
                        ),
                    )
                out.append(Result(connected=True, path=path))
                continue
            forest, uf, merges, phases = entry
            cs_loc = forest.locate((tin[s], tout[s]))
            ct_loc = forest.locate((tin[t], tout[t]))
            if not uf.same(cs_loc, ct_loc):
                out.append(Result(connected=False, phases_used=phases))
                continue
            path = None
            if want_path:
                s_lab = _PathEndpoint(
                    vs, None if tlabel_of is None else tlabel_of(s)
                )
                t_lab = _PathEndpoint(
                    vt, None if tlabel_of is None else tlabel_of(t)
                )
                path = scheme._build_path(s_lab, t_lab, merges, cs_loc, ct_loc)
            out.append(Result(connected=True, path=path, phases_used=phases))
        return out

    def view(self) -> dict:
        """This partition as plain ints and tuples: the numpy-free view
        the serving tier caches and answers from
        (:mod:`repro.serving.views`), for the canonical fault order.

        Maps each G-component with tree faults to ``(values, loc,
        group, phases, merges)``: the component forest's locate table
        (a vertex with DFS entry time ``tin`` lies in ``T \\ F``
        component ``loc[bisect_right(values, tin)]``), each component's
        union-find root, the phase count, and the merges as
        :mod:`repro.core.path_chain` tuples.
        """
        view = {}
        for c, (forest, uf, merges, phases) in self.entries.items():
            values, loc = forest.locate_table()
            view[c] = (values, loc, uf.roots(), phases, _plain_merges(merges))
        return view


class _PathEndpoint(NamedTuple):
    """The two fields of a vertex label the path assembler reads."""

    vid: int
    tlabel: Optional[int]


def _plain_merges(merges) -> tuple:
    """``(DecodedEid, cu, cv)`` merges as :mod:`repro.core.path_chain`
    tuples."""
    return tuple(
        (cu, cv, d.u, d.v, d.port_u, d.port_v, d.tlabel_u, d.tlabel_v, d.raw)
        for d, cu, cv in merges
    )


#: most uint64 words one :meth:`SketchConnectivityScheme._empty_tails`
#: gather materializes (8 MiB) — a 10^4-query batch of bridge cuts can
#: retire every task in its first phase.
_TAIL_WORDS = 1 << 20


def _mix_words(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """64-bit fingerprint per word row: ``sum(words[:, w] * consts[w])``
    modulo 2^64 with odd multipliers, as one ``uint64`` matrix-vector
    product.

    A sorted-fingerprint search finds each word row's candidate real
    edge, and an exact row comparison decides membership, so the mix
    only affects speed, never answers.  The fingerprints are derived in
    ``_packed_store()`` and never persisted, so the mix is free to
    change.
    """
    return words @ consts


class _SplitForest:
    """Stand-in for :class:`ComponentForest` when ``|F_T| = 1``.

    A single failed tree edge splits T into the root component (0) and
    the failed edge's child subtree (1); locating a vertex is one
    interval-containment test.  This is by far the most common shape in
    the batched decoder, and skipping the generic endpoint-sort build
    measurably matters at 10^4 queries.
    """

    __slots__ = ("tin", "tout")

    def __init__(self, tin: int, tout: int):
        self.tin = tin
        self.tout = tout

    def locate(self, anc) -> int:
        return 1 if self.tin <= anc[0] and anc[1] <= self.tout else 0

    def locate_table(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """See :meth:`ComponentForest.locate_table`."""
        return (self.tin, self.tout), (0, 1, 0)


@dataclass
class _PackedQueryStore:
    """Packed array label store backing the batched decoder.

    One contiguous tensor/array per label quantity, sliced per vertex or
    edge instead of materializing per-object labels: vertex side carries
    (component, identifier-space id, DFS-interval ancestry), edge side
    carries (component, tree bit, EID word rows, sampling key, child
    preorder interval, endpoint ancestry).  The plain-list mirrors exist
    because the per-query assembly phase reads single elements, where
    Python list indexing beats numpy scalar indexing severalfold.
    """

    comp_v: list  # vertex -> component (comp_of)
    vid: list  # vertex -> identifier-space id
    tin: list  # vertex -> DFS first visit time
    tout: list  # vertex -> DFS last visit time
    comp_e: list  # edge -> component
    is_tree: list  # edge -> tree bit
    child_a: list  # tree edge -> child-subtree prefix row (else -1)
    child_b: list  # tree edge -> one past the subtree interval
    child_tin: list  # tree edge -> child endpoint tin (else 0)
    child_tout: list
    e_tin_u: list  # edge -> endpoint ancestry (decoder's d.anc_u/d.anc_v)
    e_tout_u: list
    e_tin_v: list
    e_tout_v: list
    root_a: list  # component -> root-subtree prefix row interval
    root_b: list
    keys: np.ndarray  # (m,) int64 identifier-space sampling keys
    eid_words: np.ndarray  # (m, W) uint64 packed EIDs
    #: real-edge membership index: per-edge mixed 64-bit fingerprints of
    #: the EID word rows, sorted, plus the edge order.  A fingerprint
    #: hit (confirmed by exact word comparison) proves single-edge-ness
    #: without a PRF evaluation — the uid a stored edge row embeds
    #: matches by construction; misses go through the batched PRF test.
    mix_consts: np.ndarray  # (W,) odd uint64 mixing multipliers
    mixed_sorted: np.ndarray  # (m,) uint64 sorted fingerprints
    mixed_order: np.ndarray  # (m,) int64 edge index per sorted slot


@dataclass(frozen=True)
class PreloadedSketchArrays:
    """Construction-skipping payload for snapshot restores.

    Carries the two expensive-to-build array stores of the vectorized
    scheme — the packed EID word matrix and the per-copy prefix-XOR
    sketch stores — exactly as a prior construction produced them (and
    as the snapshot store persisted them; arrays may be read-only
    memory maps, the scheme only ever reads them).  A prefix entry is
    either the dense ``(rows, L, J+1, W)`` tensor or, for ragged-layout
    snapshots, the ``(keys, vals)`` change-point array pair the scheme
    rewraps into a :class:`repro.sketches.sketch.RaggedPrefix`.
    """

    eid_words: np.ndarray
    prefix: tuple


class SketchConnectivityScheme:
    """The full Section 3.2 scheme: labeling + Boruvka decoding."""

    def __init__(
        self,
        graph: Graph,
        seed: int = 0,
        copies: int = 1,
        units: Optional[int] = None,
        routing: Optional[RoutingAugmentation] = None,
        trees: Optional[Sequence[RootedTree]] = None,
        id_of: Optional[Callable[[int], int]] = None,
        id_space: Optional[int] = None,
        port_fn: Optional[Callable[[int, int], int]] = None,
        engine: str = "csr",
        prefix_layout: Optional[str] = None,
        build_workers: int = 1,
        _preloaded: Optional[PreloadedSketchArrays] = None,
        _pool: Optional[BuildPool] = None,
    ):
        """``build_workers`` farms independent build units — per-copy
        sketch stores, or contiguous unit ranges of a single copy — onto
        a process pool (:class:`repro._util.build_pool.BuildPool`);
        workers return packed arrays the parent assembles in task order,
        so every ``build_workers`` value yields bit-identical labels and
        ``build_workers=1`` (the default) is the serial reference path.
        ``_pool`` (internal) lets an enclosing scheme share one pool
        across many small instances instead of forking per instance.

        ``id_of``/``id_space``/``port_fn`` translate instance-local
        vertices to global ids/ports when the scheme runs on a tree-cover
        cluster (see Section 4/5); by default they are the identity.

        ``engine="csr"`` (default) builds labels through the vectorized
        CSR kernels; ``engine="reference"`` is the sequential pure-Python
        construction — both produce bit-identical labels (asserted by
        ``tests/test_csr_equivalence.py``), and the benchmark baseline
        times one against the other.

        ``prefix_layout`` selects the prefix sketch store of the csr
        engine: ``"dense"`` (the padded tensor — bit-identical to every
        prior release), ``"ragged"`` (change-point storage, peak memory
        proportional to live sketch cells), or ``None`` (default) to
        pick dense for m31-sized identifier spaces and ragged beyond
        them.  Both layouts answer every query identically.

        ``_preloaded`` (internal; used by :mod:`repro.store`) skips the
        EID packing and sketch-tensor construction and installs the
        given arrays instead — the scheme then behaves exactly as if it
        had built them, which the snapshot round-trip tests assert."""
        if copies < 1:
            raise ValueError("need at least one sketch copy")
        if engine not in ("csr", "reference"):
            raise ValueError(f"unknown engine {engine!r}")
        vectorized = engine == "csr"
        self.graph = graph
        self.seed = seed
        self.engine = engine
        self._identity_ids = id_of is None
        self._id_of = id_of if id_of is not None else (lambda v: v)
        self._id_space = id_space if id_space is not None else graph.n
        #: closures cannot be persisted, so snapshots of standalone
        #: schemes require the default (identity) vertex/port wiring.
        self._custom_wiring = id_of is not None or port_fn is not None
        if self._id_space > MAX_SKETCH_ID_SPACE_M61:
            # Explicit failure instead of silently evaluating hash keys
            # outside the modulus domain.  Identifier spaces past the
            # m31 cap of 46341 ids auto-upgrade to the 2^61 - 1 family;
            # only its own ~1.5e9-id ceiling remains a hard error.
            raise ValueError(
                f"identifier space {self._id_space} exceeds the sketch "
                f"scheme cap of {MAX_SKETCH_ID_SPACE_M61} ids (edge "
                f"sampling keys must stay below the 2^61 - 1 hash "
                f"modulus of the widest family)"
            )
        wide = self._id_space > MAX_SKETCH_ID_SPACE
        if prefix_layout not in (None, "dense", "ragged"):
            raise ValueError(f"unknown prefix layout {prefix_layout!r}")
        self._prefix_layout = (
            prefix_layout
            if prefix_layout is not None
            else ("ragged" if wide else "dense")
        )
        self.build_workers = max(1, int(build_workers))
        #: per-segment BLAKE2b-128 digests computed by build workers,
        #: keyed by ``id(array)`` — save_snapshot forwards them so the
        #: writer can skip re-hashing segments a worker already hashed.
        self._prefix_digests: dict[int, str] = {}
        #: wall-clock seconds per construction phase (forest / eids /
        #: sketches) — the benchmark's ``phase_s`` attribution, recorded
        #: through an obs :class:`~repro.obs.PhaseTimer` (same keys as
        #: the pre-obs hand-rolled dict).
        _timer = PhaseTimer().start()
        self.build_phase_s: dict[str, float] = _timer.seconds
        if trees is None:
            self.trees, self.comp_of = spanning_forest(graph, engine=engine)
        else:
            self.trees = list(trees)
            comp_of = np.full(graph.n, -1, dtype=np.int64)
            for ci, tree in enumerate(self.trees):
                comp_of[tree.arrays().order] = ci
            self.comp_of = comp_of
        self._anc = [AncestryLabeling(tree, engine=engine) for tree in self.trees]
        self._routing = routing

        def anc_of(v: int) -> AncLabel:
            return self._anc[self.comp_of[v]].label(v)

        _timer.split("forest")
        uid_scheme = UidScheme(derive_seed(seed, "uid"))
        # The stitched (tin, tout) arrays let the batch EID packer gather
        # DFS timestamps with numpy indexing instead of per-vertex
        # anc_of calls; values agree with anc_of on every spanned vertex.
        anc_arrays = stitched_intervals(self._anc, graph.n) if vectorized else None
        if routing is None:
            eids = ExtendedEdgeIds(
                graph,
                uid_scheme,
                anc_of,
                id_of=id_of,
                id_space=id_space,
                anc_arrays=anc_arrays,
            )
        else:
            eids = ExtendedEdgeIds(
                graph,
                uid_scheme,
                anc_of,
                port_bits=routing.port_bits,
                tlabel_bits=routing.tlabel_bits,
                tlabel_of=routing.tlabel_of,
                id_of=id_of,
                id_space=id_space,
                port_fn=port_fn,
                anc_arrays=anc_arrays,
            )
        if _preloaded is not None:
            if not vectorized:
                raise ValueError("preloaded arrays require the csr engine")
            # Snapshot restore: the word matrix was persisted verbatim;
            # Python-int EIDs decode lazily from it when labels need
            # them (identical values either way).
            self._eid_words = _preloaded.eid_words
            self._eid_ints: Optional[list] = None
        elif vectorized and eids.word_batchable:
            self._eid_words = eids.eid_words_batch()
            self._eid_ints = None  # materialized on demand
        elif vectorized:
            # Wide-field layouts (e.g. big routing tree labels) can't go
            # through the word packer: batch the ints once and derive
            # the word matrix from them, rather than the reverse.
            self._eid_ints = eids.eid_batch()
            self._eid_words = eids_to_word_matrix(
                self._eid_ints, eids.codec.word_count
            )
        else:
            self._eid_words = None
            self._eid_ints = [eids.eid(ei) for ei in range(graph.m)]
        _timer.split("eids")
        levels = max(1, math.ceil(math.log2(max(graph.m, 2)))) + 1
        n_units = units if units is not None else default_units(graph.n)
        words = max(1, (eids.total_bits + 63) // 64)
        dims = SketchDims(units=n_units, levels=levels, words=words)
        # family_for_key_space keeps the legacy m31 family (bit-identical
        # labels) whenever the identifier space fits its 46341-id cap and
        # upgrades to the 2^61 - 1 split-multiply family beyond it; the
        # seed derivation is unchanged in both cases.
        sketchers = tuple(
            VertexSketches(
                graph,
                dims,
                family_for_key_space(
                    n_units,
                    levels - 1,
                    derive_seed(seed, "sketch_family", c),
                    self._id_space,
                ),
                id_of=id_of,
                key_space=id_space,
            )
            for c in range(copies)
        )
        self.context = SketchContext(dims=dims, eids=eids, sketchers=sketchers)
        # Subtree-aggregated sketches.  Reference engine: ``_agg[c][v]``
        # holds the sketch of subtree(v) (post-order accumulation).  CSR
        # engine: subtrees are contiguous preorder intervals, so we keep
        # per-copy *prefix-XOR* tensors over the forest preorder instead
        # (``_prefix[c][r]`` = XOR of the vertex sketches of the first
        # ``r`` preorder vertices) and materialize any subtree sketch as
        # the XOR of two rows on demand — one pass of sequential
        # accumulation replaces the whole bottom-up tree walk.
        self._agg: Optional[list[np.ndarray]] = None
        self._prefix: Optional[list[np.ndarray]] = None
        self._root_cache: dict[int, tuple] = {}
        # Packed query-side stores (lazy; vectorized engine only): the
        # per-vertex/per-edge label arrays the batched decoder reads
        # instead of materializing per-vertex label objects.
        self._qstore: Optional[_PackedQueryStore] = None
        self._view_columns: Optional[tuple] = None
        self._vid_to_vertex: Optional[dict[int, int]] = None
        self._eid_to_edge: Optional[dict[int, int]] = None
        self._edge_decoded: dict[int, DecodedEid] = {}
        if vectorized:
            pre = np.full(graph.n, -1, dtype=np.int64)
            size_all = np.zeros(graph.n, dtype=np.int64)
            offset = 0
            for tree in self.trees:
                ta = tree.arrays()
                pre[ta.order] = offset + np.arange(ta.order.size, dtype=np.int64)
                size_all[ta.order] = ta.size[ta.order]
                offset += ta.order.size
            self._pre = pre
            self._size = size_all
            # Unspanned vertices (possible with explicitly provided
            # trees) scatter into a trailing trash row that no subtree
            # interval ever reads.
            if _preloaded is not None:
                # Ragged snapshots persist each copy as a (keys, vals)
                # pair; rewrap with the row stride this tree layout
                # implies (identical to the one the build produced).
                self._prefix = [
                    p
                    if isinstance(p, np.ndarray)
                    else RaggedPrefix(
                        rows=offset + 2,
                        units=n_units,
                        levels=levels,
                        width=words,
                        keys=p[0],
                        vals=p[1],
                    )
                    for p in _preloaded.prefix
                ]
                if self._prefix and not isinstance(self._prefix[0], np.ndarray):
                    self._prefix_layout = "ragged"
                else:
                    self._prefix_layout = "dense"
            else:
                row_of = np.where(pre >= 0, pre + 1, offset + 1)
                # The scatter layout is identical for every copy (only
                # the hash families differ), so compute it once.
                plan = sketchers[0].scatter_plan(row_of) if graph.m else None
                self._prefix = self._build_prefix_stores(
                    sketchers, plan, row_of, offset + 2, _pool
                )
        else:
            self._agg = []
            for c in range(copies):
                arr = sketchers[c].build_reference(lambda ei: self._eid_cache[ei])
                for tree in self.trees:
                    for v in tree.post_order():
                        p = tree.parent[v]
                        if p >= 0:
                            arr[p] ^= arr[v]
                self._agg.append(arr)
        _timer.split("sketches")

    def _build_prefix_stores(
        self,
        sketchers: Sequence[VertexSketches],
        plan,
        row_of: np.ndarray,
        rows: int,
        pool: Optional[BuildPool],
    ) -> list:
        """Per-copy prefix stores, serial or farmed onto a process pool.

        The work partition is deterministic and the assembly order is
        the serial order, so every configuration returns bit-identical
        arrays:

        * **copies > 1** — one task per copy (copies are independent
          given the shared scatter plan; Section 5.2's f' design);
        * **one copy, own pool** — contiguous unit ranges
          (:func:`repro.._util.build_pool.split_ranges`), concatenated
          in range order (unit chunks are already globally sorted);
        * **serial** (``build_workers=1``, no shared pool, or an empty
          graph) — the plain per-copy loop, the reference path.

        Full-copy worker tasks also return the BLAKE2b-128 digest of
        each output array (exactly the snapshot's segment digest), which
        lands in ``_prefix_digests`` for the snapshot writer.
        """
        copies = len(sketchers)
        layout = self._prefix_layout
        eid_words = self._eid_words
        units = self.context.dims.units
        levels = self.context.dims.levels
        width = self.context.dims.words
        build = (
            VertexSketches.build_prefix_ragged
            if layout == "ragged"
            else VertexSketches.build_prefix
        )
        shared = pool is not None and pool.workers > 1 and copies > 1
        own_workers = self.build_workers if self.graph.m else 1
        if not shared and own_workers <= 1:
            return [
                build(sketchers[c], eid_words, row_of=row_of, rows=rows, plan=plan)
                for c in range(copies)
            ]
        ctx = {
            "keys": plan.keys,
            "srows": plan.srows,
            "sedges": plan.sedges,
            "swords": plan.scatter_words(eid_words),
            "rows": rows,
            "units": units,
            "levels": levels,
            "width": width,
        }

        def wrap(keys64, vals):
            return RaggedPrefix(
                rows=rows,
                units=units,
                levels=levels,
                width=width,
                keys=keys64,
                vals=vals,
            )

        def assemble_copies(results) -> list:
            out = []
            for res in results:
                if layout == "ragged":
                    ks, vs, dk, dv = res
                    if dk is not None:
                        self._prefix_digests[id(ks)] = dk
                        self._prefix_digests[id(vs)] = dv
                    out.append(wrap(ks, vs))
                else:
                    arr, d = res
                    if d is not None:
                        self._prefix_digests[id(arr)] = d
                    out.append(arr)
            return out

        if shared:
            # Shared pools carry the context in the task (the pool was
            # forked before this instance existed); cluster instances
            # are small, so per-task pickling is cheap.
            tasks = [
                (ctx, sketchers[c].family, layout, 0, units) for c in range(copies)
            ]
            return assemble_copies(pool.map(prefix_store_task, tasks))
        with BuildPool(own_workers, payload=ctx) as own:
            if copies > 1:
                tasks = [
                    (None, sketchers[c].family, layout, 0, units)
                    for c in range(copies)
                ]
                return assemble_copies(own.map(prefix_store_task, tasks))
            # Single copy: partition the unit axis.  Over-split by 4x so
            # uneven per-unit costs still balance across workers.
            ranges = split_ranges(units, own_workers * 4)
            tasks = [
                (None, sketchers[0].family, layout, lo, hi) for lo, hi in ranges
            ]
            results = own.map(prefix_store_task, tasks)
        if layout == "ragged":
            ks = np.concatenate([r[0] for r in results])
            vs = np.concatenate([r[1] for r in results], axis=0)
            return [wrap(ks, vs)]
        return [np.concatenate([r[0] for r in results], axis=1)]

    @property
    def _eid_cache(self) -> list:
        """Packed EIDs by edge index (lazily decoded from the word
        matrix on the vectorized path — labels need Python ints, the
        sketch builder does not).  The word matrix itself stays live on
        the vectorized engine: it is the packed edge-label store the
        batched decoder cancels faults from."""
        if self._eid_ints is None:
            self._eid_ints = word_matrix_to_eids(self._eid_words)
        return self._eid_ints

    def _subtree_sketches(self, v: int) -> tuple[np.ndarray, ...]:
        """Per-copy sketch of subtree(v) (``Sketch(V(T_v))``).

        On the vectorized path a subtree sketch is the XOR of two
        prefix rows followed by the level suffix-XOR that turns
        exact-level cells into Eq. 2's cumulative cells.
        """
        if self._prefix is not None:
            a = int(self._pre[v])
            b = a + int(self._size[v])
            return tuple(
                VertexSketches.suffix_levels(
                    p[b] ^ p[a]
                    if isinstance(p, np.ndarray)
                    else p.full_row(b) ^ p.full_row(a)
                )
                for p in self._prefix
            )
        return tuple(agg[v] for agg in self._agg)

    def _packed_store(self) -> _PackedQueryStore:
        """The packed query-side label store (built once, lazily)."""
        if self._qstore is not None:
            return self._qstore
        if self._prefix is None:
            raise RuntimeError("packed store requires the vectorized engine")
        graph = self.graph
        n, m = graph.n, graph.m
        csr = graph.as_csr()
        if self._identity_ids:
            vid = np.arange(n, dtype=np.int64)
        else:
            id_of = self._id_of
            vid = np.fromiter((id_of(v) for v in range(n)), dtype=np.int64, count=n)
        tin, tout = stitched_intervals(self._anc, n)
        is_tree = np.zeros(m, dtype=bool)
        childv = np.full(m, -1, dtype=np.int64)
        for tree in self.trees:
            # Non-root preorder vertices ARE the child endpoints of the
            # tree edges (forest trees share full-n parent arrays, so a
            # parent >= 0 scan would pull in foreign components).
            ta = tree.arrays()
            vs = ta.order[1:]
            is_tree[ta.parent_edge[vs]] = True
            childv[ta.parent_edge[vs]] = vs
        tree_mask = childv >= 0
        cv = np.maximum(childv, 0)
        child_a = np.where(tree_mask, self._pre[cv], -1)
        child_b = np.where(tree_mask, self._pre[cv] + self._size[cv], -1)
        child_tin = np.where(tree_mask, tin[cv], 0)
        child_tout = np.where(tree_mask, tout[cv], 0)
        if m:
            gu = vid[csr.edge_u]
            gv = vid[csr.edge_v]
            keys = np.minimum(gu, gv) * np.int64(self._id_space) + np.maximum(gu, gv)
            comp_e = np.asarray(self.comp_of, dtype=np.int64)[csr.edge_u]
            e_tin_u, e_tout_u = tin[csr.edge_u], tout[csr.edge_u]
            e_tin_v, e_tout_v = tin[csr.edge_v], tout[csr.edge_v]
        else:
            keys = np.zeros(0, dtype=np.int64)
            comp_e = np.zeros(0, dtype=np.int64)
            e_tin_u = e_tout_u = e_tin_v = e_tout_v = np.zeros(0, dtype=np.int64)
        roots = [tree.root for tree in self.trees]
        root_a = [int(self._pre[r]) for r in roots]
        root_b = [int(self._pre[r] + self._size[r]) for r in roots]
        eid_words = self._eid_words
        if eid_words is None:  # pragma: no cover - defensive (always kept)
            eid_words = eids_to_word_matrix(
                self._eid_cache, self.context.eids.codec.word_count
            )
        width = eid_words.shape[1]
        mix_consts = (
            np.uint64(0x9E3779B97F4A7C15)
            * (2 * np.arange(width, dtype=np.uint64) + np.uint64(1))
        )
        mixed = _mix_words(eid_words, mix_consts)
        order = np.argsort(mixed, kind="stable")
        self._qstore = _PackedQueryStore(
            comp_v=list(self.comp_of),
            vid=vid.tolist(),
            tin=tin.tolist(),
            tout=tout.tolist(),
            comp_e=comp_e.tolist(),
            is_tree=is_tree.tolist(),
            child_a=child_a.tolist(),
            child_b=child_b.tolist(),
            child_tin=child_tin.tolist(),
            child_tout=child_tout.tolist(),
            e_tin_u=e_tin_u.tolist(),
            e_tout_u=e_tout_u.tolist(),
            e_tin_v=e_tin_v.tolist(),
            e_tout_v=e_tout_v.tolist(),
            root_a=root_a,
            root_b=root_b,
            keys=keys,
            eid_words=eid_words,
            mix_consts=mix_consts,
            mixed_sorted=mixed[order],
            mixed_order=order,
        )
        return self._qstore

    def view_columns(self) -> tuple:
        """The per-vertex columns a partition :meth:`~FaultSetPartition.view`
        is read against, numpy-free and built once: ``(comp, tin, vid,
        tlabel)`` with the component and DFS entry time of every vertex
        as ``array("q")``, ``vid`` likewise or ``None`` for identity ids,
        and ``tlabel`` the tree-routing labels or ``None`` without
        routing augmentation."""
        if self._view_columns is None:
            st = self._packed_store()
            routing = self._routing
            self._view_columns = (
                array("q", st.comp_v),
                array("q", st.tin),
                None if self._identity_ids else array("q", st.vid),
                None
                if routing is None
                else [routing.tlabel_of(v) for v in range(self.graph.n)],
            )
        return self._view_columns

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.store)
    # ------------------------------------------------------------------
    def __arrays__(self) -> dict[str, np.ndarray]:
        """The scheme's own packed array stores, for the snapshot store.

        Exactly the payload :class:`PreloadedSketchArrays` accepts back:
        the EID word matrix and the per-copy prefix sketch tensors.
        (Graph, tree and parameter state is persisted separately by
        :mod:`repro.store.artifacts` — it is shared across schemes.)
        """
        if self._prefix is None:
            raise RuntimeError(
                "only the vectorized (csr) engine has packed array stores"
            )
        out: dict[str, np.ndarray] = {"eid_words": self._eid_words}
        for c, p in enumerate(self._prefix):
            if isinstance(p, np.ndarray):
                out[f"prefix{c}"] = p
            else:
                out[f"prefix{c}_keys"] = p.keys
                out[f"prefix{c}_vals"] = p.vals
        return out

    def __digest_hints__(self) -> dict[int, str]:
        """Per-segment BLAKE2b-128 digests known from construction,
        keyed by ``id(array)`` — build workers fingerprint their output
        arrays, so the snapshot writer can skip re-hashing them."""
        return dict(self._prefix_digests)

    @property
    def hash_family(self) -> str:
        """``"m31"`` or ``"m61"`` — which Mersenne family the identifier
        space selected (persisted in snapshot meta for skew checks)."""
        return "m31" if self.context.sketchers[0].family.modulus == (1 << 31) - 1 else "m61"

    @property
    def prefix_layout(self) -> str:
        """``"dense"`` or ``"ragged"`` — the prefix store layout in use
        (``"dense"`` also for the reference engine's aggregate arrays)."""
        return self._prefix_layout

    # ------------------------------------------------------------------
    # Labels
    # ------------------------------------------------------------------
    def vertex_label(self, v: int) -> SkVertexLabel:
        ci = int(self.comp_of[v])
        tlabel = None
        tlabel_bits = 0
        if self._routing is not None:
            tlabel = self._routing.tlabel_of(v)
            tlabel_bits = self._routing.tlabel_bits
        return SkVertexLabel(
            component=ci,
            vid=self._id_of(v),
            anc=self._anc[ci].label(v),
            n=self._id_space,
            tlabel=tlabel,
            tlabel_bits=tlabel_bits,
        )

    def edge_label(self, edge_index: int) -> SkEdgeLabel:
        e = self.graph.edge(edge_index)
        ci = int(self.comp_of[e.u])
        tree = self.trees[ci]
        is_tree = tree.is_tree_edge(edge_index)
        subtree = None
        global_sketch = None
        if is_tree:
            child = tree.child_endpoint(edge_index)
            subtree = self._subtree_sketches(child)
            # The per-component global sketch is shared by all of the
            # tree's edge labels; cache it instead of re-materializing.
            global_sketch = self._root_cache.get(tree.root)
            if global_sketch is None:
                global_sketch = self._subtree_sketches(tree.root)
                self._root_cache[tree.root] = global_sketch
        return SkEdgeLabel(
            component=ci,
            eid=self._eid_cache[edge_index],
            is_tree=is_tree,
            context=self.context,
            subtree=subtree,
            global_sketch=global_sketch,
        )

    def max_vertex_label_bits(self) -> int:
        return max(
            (self.vertex_label(v).bit_length() for v in self.graph.vertices()),
            default=0,
        )

    def max_edge_label_bits(self) -> int:
        # ``SkEdgeLabel.bit_length()`` is structural: it depends only on
        # the component index and tree/non-tree status, never on the
        # sketch contents.  Computing the maximum therefore must not go
        # through ``edge_label`` — materializing per-edge subtree
        # sketches (two ragged-prefix binary searches per tree edge)
        # costs minutes at n=10^6 for values bit_length never reads.
        m = self.graph.m
        if m == 0:
            return 0
        is_tree = np.zeros(m, dtype=bool)
        for tree in self.trees:
            ta = tree.arrays()
            children = ta.order[1:]
            if children.size:
                is_tree[ta.parent_edge[children]] = True
        comp_e = np.asarray(self.comp_of, dtype=np.int64)[
            self.graph.as_csr().edge_u
        ]
        best = 0
        if is_tree.any():
            label = SkEdgeLabel(
                component=int(comp_e[is_tree].max()),
                eid=0,
                is_tree=True,
                context=self.context,
            )
            best = max(best, label.bit_length())
        if not is_tree.all():
            label = SkEdgeLabel(
                component=int(comp_e[~is_tree].max()),
                eid=0,
                is_tree=False,
                context=self.context,
            )
            best = max(best, label.bit_length())
        return best

    # ------------------------------------------------------------------
    # Decoding (Section 3.2.2)
    # ------------------------------------------------------------------
    def decode(
        self,
        s_label: SkVertexLabel,
        t_label: SkVertexLabel,
        fault_labels: Iterable[SkEdgeLabel],
        copy: int = 0,
        want_path: bool = True,
    ) -> SkDecodeResult:
        """Decide s-t connectivity in ``G \\ F`` from labels only.

        ``copy`` selects which of the f' independent sketch collections
        to consume (the FT routing scheme uses a fresh copy per retry
        iteration).

        On the vectorized engine the labels are mapped back onto the
        packed store and the query runs through the batched decoder with
        batch size 1; labels that do not resolve against the store
        (foreign or corrupted), and the ``engine="reference"`` scheme,
        take the retained seed decoder — both produce bit-identical
        results (``tests/test_query_many.py``).
        """
        if self._prefix is not None:
            prepared = self._prepare_label_query(s_label, t_label, fault_labels)
            if prepared is not None:
                return self._decode_batch(
                    [prepared], copy=copy, want_path=want_path
                )[0]
        return self._decode_labels(s_label, t_label, fault_labels, copy, want_path)

    def _prepare_label_query(
        self,
        s_label: SkVertexLabel,
        t_label: SkVertexLabel,
        fault_labels: Iterable[SkEdgeLabel],
    ) -> Optional[tuple[int, int, list[int]]]:
        """Map a label-level query onto store indices (None = fall back)."""
        st = self._packed_store()
        if self._vid_to_vertex is None:
            self._vid_to_vertex = {g: v for v, g in enumerate(st.vid)}
        s = self._vid_to_vertex.get(s_label.vid)
        t = self._vid_to_vertex.get(t_label.vid)
        if s is None or t is None:
            return None
        if (
            st.comp_v[s] != s_label.component
            or (st.tin[s], st.tout[s]) != s_label.anc
            or st.comp_v[t] != t_label.component
            or (st.tin[t], st.tout[t]) != t_label.anc
        ):
            return None
        if self._eid_to_edge is None:
            self._eid_to_edge = {e: i for i, e in enumerate(self._eid_cache)}
        edge_of = self._eid_to_edge.get
        comp = s_label.component
        faults: list[int] = []
        for lab in fault_labels:
            if lab.component != comp:
                continue  # the decoder drops other components' labels
            ei = edge_of(lab.eid)
            if ei is None:
                return None  # unknown EID: let the seed decoder judge it
            faults.append(ei)
        return s, t, faults

    def _decode_labels(
        self,
        s_label: SkVertexLabel,
        t_label: SkVertexLabel,
        fault_labels: Iterable[SkEdgeLabel],
        copy: int = 0,
        want_path: bool = True,
    ) -> SkDecodeResult:
        """The seed (sequential, label-object) decoder."""
        if s_label.component != t_label.component:
            return SkDecodeResult(connected=False)
        if s_label.vid == t_label.vid:
            return SkDecodeResult(
                connected=True, path=SuccinctPath(s_label.vid, t_label.vid, ())
            )
        faults: list[SkEdgeLabel] = []
        seen: set[int] = set()
        for lab in fault_labels:
            if lab.component != s_label.component or lab.eid in seen:
                continue
            seen.add(lab.eid)
            faults.append(lab)
        tree_faults = [lab for lab in faults if lab.is_tree]
        if not tree_faults:
            # T is intact: same component implies connected via the tree.
            path = self._direct_tree_path(s_label, t_label) if want_path else None
            return SkDecodeResult(connected=True, path=path)

        forest, uf, merges, phases = self._simulate_boruvka(
            faults, tree_faults, copy
        )
        cs = forest.locate(s_label.anc)
        ct = forest.locate(t_label.anc)
        if not uf.same(cs, ct):
            return SkDecodeResult(connected=False, phases_used=phases)
        path = None
        if want_path:
            path = self._build_path(s_label, t_label, merges, cs, ct)
        return SkDecodeResult(connected=True, path=path, phases_used=phases)

    def _simulate_boruvka(
        self,
        faults: Sequence[SkEdgeLabel],
        tree_faults: Sequence[SkEdgeLabel],
        copy: int,
    ) -> tuple[ComponentForest, UnionFind, list, int]:
        """Steps 1-4 of the decoder (Section 3.2.2): component tree,
        component sketches, fault cancellation, Boruvka merging."""
        ctx = tree_faults[0].context
        sketcher = ctx.sketchers[copy]
        decoded_faults = [ctx.eids.try_decode(lab.eid) for lab in faults]
        if any(d is None for d in decoded_faults):
            raise ValueError("fault label carries a corrupted EID")

        # Step 1: components of T \ F_T.
        children: list[AncLabel] = []
        refs: list[int] = []
        for pos, lab in enumerate(faults):
            if not lab.is_tree:
                continue
            d = decoded_faults[pos]
            child_anc, _ = orient_tree_edge(d.anc_u, d.anc_v)
            children.append(child_anc)
            refs.append(pos)
        forest = ComponentForest.build(children, refs=refs)

        # Step 2: per-component sketches in G (Claim 3.15).
        num_comps = len(forest)
        prime = [None] * num_comps  # Sketch'(C_j)
        for j in range(1, num_comps):
            pos = forest.components[j].ref
            prime[j] = faults[pos].subtree[copy]
        prime[0] = tree_faults[0].global_sketch[copy]
        comp_sketch: list[np.ndarray] = [None] * num_comps
        for j in range(num_comps):
            sketch = prime[j].copy()
            for child in forest.children_of(j):
                sketch ^= prime[child]
            comp_sketch[j] = sketch

        # Step 3: cancel faulty edges out of the component sketches.
        for pos, lab in enumerate(faults):
            d = decoded_faults[pos]
            cu = forest.locate(d.anc_u)
            cv = forest.locate(d.anc_v)
            if cu != cv:
                sketcher.cancel_edge(comp_sketch[cu], d.u, d.v, lab.eid)
                sketcher.cancel_edge(comp_sketch[cv], d.u, d.v, lab.eid)

        # Step 4: Boruvka phases over the components, one fresh unit each.
        uf = UnionFind(num_comps)
        sketch_of: dict[int, np.ndarray] = {j: comp_sketch[j] for j in range(num_comps)}
        merges: list[tuple[DecodedEid, int, int]] = []
        phases = 0
        for unit in range(ctx.dims.units):
            roots = sorted({uf.find(j) for j in range(num_comps)})
            if len(roots) == 1:
                break
            phases += 1
            candidates: list[DecodedEid] = []
            for r in roots:
                d = VertexSketches.extract_outgoing(sketch_of[r], unit, ctx.eids)
                if d is not None:
                    candidates.append(d)
            for d in candidates:
                cu = forest.locate(d.anc_u)
                cv = forest.locate(d.anc_v)
                ru, rv = uf.find(cu), uf.find(cv)
                if ru == rv:
                    continue
                merged = sketch_of.pop(ru) ^ sketch_of.pop(rv)
                uf.union(ru, rv)
                sketch_of[uf.find(ru)] = merged
                merges.append((d, cu, cv))
        return forest, uf, merges, phases

    def decode_partition_labels(
        self,
        component: int,
        fault_labels: Iterable[SkEdgeLabel],
        copy: int = 0,
    ) -> ConnectivityPartition:
        """One decode, all queries — from labels only, one G-component.

        Returns a :class:`ConnectivityPartition` over the queried
        G-component; any two vertex labels of that component can then be
        tested for connectivity in O(log f) without re-decoding.  (The
        per-query w.h.p. guarantee of Theorem 3.7 applies to the fault
        set as a whole.)  The store-level sibling serving the batched
        engine is :meth:`decode_partition`.
        """
        faults: list[SkEdgeLabel] = []
        seen: set[int] = set()
        for lab in fault_labels:
            if lab.component != component or lab.eid in seen:
                continue
            seen.add(lab.eid)
            faults.append(lab)
        tree_faults = [lab for lab in faults if lab.is_tree]
        if not tree_faults:
            forest = ComponentForest.build([])
            return ConnectivityPartition(
                component=component, forest=forest, group_of=(0,)
            )
        forest, uf, _, _ = self._simulate_boruvka(faults, tree_faults, copy)
        group_of = tuple(uf.find(j) for j in range(len(forest)))
        return ConnectivityPartition(
            component=component, forest=forest, group_of=group_of
        )

    def decode_partition(
        self, faults: Iterable[int], copy: int = 0
    ) -> "FaultSetPartition":
        """One Boruvka decode, all same-fault queries (Claim 3.16): the
        batch of one of :meth:`decode_partitions`."""
        return self.decode_partitions([faults], copy=copy)[0]

    def decode_partitions(
        self, fault_lists: Iterable[Iterable[int]], copy: int = 0
    ) -> list["FaultSetPartition"]:
        """One :class:`FaultSetPartition` per fault list, from a single
        :meth:`_partition_batch` run.

        Factored out of :meth:`query_many`: the per-component
        ``(forest, union_find, merges, phases)`` state the batched
        decoder computes for a hard query is a pure function of the
        fault set, so computing it once per fault set answers *every*
        (s, t) pair under those faults.  Fault lists are edge indices;
        each partition covers all graph components (the per-query
        w.h.p. guarantee of Theorem 3.7 applies to the fault set as a
        whole).  A list's partition does not depend on the other lists
        of the call — batching only shares the fixed per-call cost.

        This is the entry point the serving layer's partition cache
        (:mod:`repro.serving.partition_cache`) resolves its misses
        through.  Requires the vectorized engine — the packed store is
        the partition's substrate; the label-level sibling is
        :meth:`decode_partition_labels`.  Ids outside ``0..m-1`` raise
        ``ValueError`` before anything is decoded.
        """
        lists = [[int(ei) for ei in faults] for faults in fault_lists]
        m = self.graph.m
        for faults in lists:
            check_fault_ids(faults, m)
        st = self._packed_store()
        comp_e, is_tree = st.comp_e, st.is_tree
        orders: list[tuple[int, ...]] = []
        tasks: list[tuple[int, list[int], list[int]]] = []
        owner: list[int] = []  # task -> fault list
        for li, faults in enumerate(lists):
            order = tuple(dict.fromkeys(faults))
            orders.append(order)
            per_comp: dict[int, tuple[list[int], list[int]]] = {}
            for ei in order:
                c = comp_e[ei]
                bucket = per_comp.get(c)
                if bucket is None:
                    bucket = per_comp[c] = ([], [])
                bucket[0].append(ei)
                if is_tree[ei]:
                    bucket[1].append(ei)
            for c, (fl, tf) in per_comp.items():
                if tf:
                    tasks.append((c, fl, tf))
                    owner.append(li)
        entries: list[dict] = [{} for _ in lists]
        if tasks:
            parts = self._partition_batch(tasks, copy=copy)
            for (c, _fl, _tf), li, part in zip(tasks, owner, parts):
                entries[li][c] = part
        return [
            FaultSetPartition(self, copy, order, ent)
            for order, ent in zip(orders, entries)
        ]

    # ------------------------------------------------------------------
    # Path construction (Lemma 3.17)
    # ------------------------------------------------------------------
    def _direct_tree_path(
        self, s_label: SkVertexLabel, t_label: SkVertexLabel
    ) -> SuccinctPath:
        segment = PathSegment(
            kind="tree",
            x=s_label.vid,
            y=t_label.vid,
            tlabel_x=s_label.tlabel,
            tlabel_y=t_label.tlabel,
        )
        return SuccinctPath(s_label.vid, t_label.vid, (segment,))

    @staticmethod
    def _build_path(
        s_label: SkVertexLabel,
        t_label: SkVertexLabel,
        merges: Sequence[tuple[DecodedEid, int, int]],
        cs: int,
        ct: int,
    ) -> SuccinctPath:
        """Assemble the alternating 0/1-labeled path from the merge forest
        (:func:`repro.core.path_chain.chain_segments`)."""
        segments = chain_segments(
            s_label.vid, s_label.tlabel, t_label.vid, t_label.tlabel,
            _plain_merges(merges), cs, ct,
        )
        return SuccinctPath(
            s_label.vid, t_label.vid, tuple(PathSegment(*seg) for seg in segments)
        )

    # ------------------------------------------------------------------
    # Batched decoding (the packed-store query engine)
    # ------------------------------------------------------------------
    def query_many(
        self,
        pairs: Sequence[tuple[int, int]],
        faults=(),
        copy: int = 0,
        want_path: bool = True,
        chunk: int = 2048,
    ) -> list[SkDecodeResult]:
        """Batched full-pipeline queries on vertex pairs and edge indices.

        ``faults`` is either one iterable of edge indices shared by all
        pairs, or a sequence of per-pair iterables (one fault set per
        query).  Answers are bit-identical to looping :meth:`query` —
        including succinct paths and phase counts — which the
        ``tests/test_query_many.py`` equivalence suite asserts against
        both engines.  Fault ids outside ``0..m-1`` raise ``ValueError``
        on both engines.

        On the vectorized engine all queries of a chunk run through one
        batched Boruvka simulation: component sketches are assembled
        from the prefix tensor with two gathers, fault cancellation is
        one exact-level scatter, and each phase validates the candidate
        words of *every* live component at once
        (:meth:`ExtendedEdgeIds.try_decode_words`).  ``chunk`` bounds
        the live sketch matrix (~2 sketch rows per fault per query).  On
        ``engine="reference"`` the seed decoder runs per query.  Vertex
        ids outside ``0..n-1`` raise ``ValueError`` too.
        """
        pairs = list(pairs)
        check_vertex_ids(pairs, self.graph.n)
        per = normalize_faults(pairs, faults, m=self.graph.m)
        if self._prefix is None:
            return [
                self._decode_labels(
                    self.vertex_label(s),
                    self.vertex_label(t),
                    [self.edge_label(ei) for ei in F],
                    copy,
                    want_path,
                )
                for (s, t), F in zip(pairs, per)
            ]
        out: list[SkDecodeResult] = []
        chunk = max(1, chunk)
        for lo in range(0, len(pairs), chunk):
            out.extend(
                self._decode_batch(
                    [
                        (s, t, F)
                        for (s, t), F in zip(
                            pairs[lo : lo + chunk], per[lo : lo + chunk]
                        )
                    ],
                    copy=copy,
                    want_path=want_path,
                )
            )
        return out

    def _decode_batch(
        self,
        queries: Sequence[tuple[int, int, list[int]]],
        copy: int = 0,
        want_path: bool = True,
    ) -> list[SkDecodeResult]:
        """One batched Boruvka simulation over ``(s, t, F)`` queries."""
        st = self._packed_store()
        comp_v, vid = st.comp_v, st.vid
        tin, tout = st.tin, st.tout
        comp_e, is_tree = st.comp_e, st.is_tree
        routing = self._routing

        results: list[Optional[SkDecodeResult]] = [None] * len(queries)
        # ---- assembly: trivial verdicts out, hard queries flattened --
        Result, Path, Segment = SkDecodeResult, SuccinctPath, PathSegment
        tlabel_of = routing.tlabel_of if routing is not None else None
        hard: list[tuple] = []  # (qi, s, t, comp, faults, tree_faults)
        hard_append = hard.append
        for qi, (s, t, F) in enumerate(queries):
            cs = comp_v[s]
            if cs < 0 or comp_v[t] < 0:
                raise ValueError("query vertex is not spanned by a tree")
            if cs != comp_v[t]:
                results[qi] = Result(connected=False)
                continue
            vs = vid[s]
            vt = vid[t]
            if vs == vt:
                results[qi] = Result(connected=True, path=Path(vs, vt, ()))
                continue
            fl: list[int] = []
            tf: list[int] = []
            if F:
                seen = set()
                add = seen.add
                for ei in F:
                    if comp_e[ei] != cs or ei in seen:
                        continue
                    add(ei)
                    fl.append(ei)
                    if is_tree[ei]:
                        tf.append(ei)
            if not tf:
                path = None
                if want_path:
                    path = Path(
                        vs,
                        vt,
                        (
                            Segment(
                                kind="tree",
                                x=vs,
                                y=vt,
                                tlabel_x=None if tlabel_of is None else tlabel_of(s),
                                tlabel_y=None if tlabel_of is None else tlabel_of(t),
                            ),
                        ),
                    )
                results[qi] = Result(connected=True, path=path)
                continue
            hard_append((qi, s, t, cs, fl, tf))
        if not hard:
            return results  # type: ignore[return-value]

        parts = self._partition_batch(
            [(cs, fl, tf) for _qi, _s, _t, cs, fl, tf in hard], copy=copy
        )

        # ---- verdicts and Lemma 3.17 paths ---------------------------
        for h, (qi, s, t, cs, fl, tf) in enumerate(hard):
            forest, uf, merges, phases = parts[h]
            cs_loc = forest.locate((tin[s], tout[s]))
            ct_loc = forest.locate((tin[t], tout[t]))
            if not uf.same(cs_loc, ct_loc):
                results[qi] = Result(connected=False, phases_used=phases)
                continue
            path = None
            if want_path:
                # _build_path only consumes the endpoints' vids and tree
                # labels; a slim stand-in avoids two frozen-dataclass
                # constructions per query.
                s_lab = _PathEndpoint(
                    vid[s], None if tlabel_of is None else tlabel_of(s)
                )
                t_lab = _PathEndpoint(
                    vid[t], None if tlabel_of is None else tlabel_of(t)
                )
                path = self._build_path(s_lab, t_lab, merges, cs_loc, ct_loc)
            results[qi] = Result(connected=True, path=path, phases_used=phases)
        return results  # type: ignore[return-value]

    def _partition_batch(
        self,
        tasks: Sequence[tuple[int, list[int], list[int]]],
        copy: int = 0,
    ) -> list[tuple]:
        """Vectorized Boruvka runs over many fault-set tasks at once.

        Each task is ``(component, faults, tree_faults)`` with ``faults``
        already deduplicated and restricted to ``component``, and
        ``tree_faults`` its non-empty tree-edge subset.  The result is
        one ``(forest, union_find, merges, phases)`` tuple per task —
        Steps 1-4 of the Section 3.2.2 decoder (component tree of
        Claim 3.14, component sketches of Claim 3.15, fault
        cancellation, Boruvka merging with Lemma 3.10 word validation).

        A task's outcome is a pure function of the task itself; batching
        only amortizes the array work.  That purity is what makes
        fault-set partitions cacheable and shardable — both
        :meth:`query_many` (one task per hard query) and
        :meth:`decode_partitions` (one task per component each fault
        list touches, reused for every query) are thin wrappers over
        this engine.
        """
        st = self._packed_store()

        # ---- component structure: forests, gather lists, cancellations
        # A component's sketch is never materialized over all L units:
        # Sketch(C_j) is the XOR of prefix rows (its own preorder
        # interval plus the children components' intervals, Claim 3.15)
        # and of its cancelled fault words, and each Boruvka phase only
        # reads ONE unit — so every component carries a prefix-row
        # gather list and a cancellation list, merging is list
        # concatenation, and the per-phase unit slice is one segmented
        # XOR reduction over the live roots' lists.
        child_tin, child_tout = st.child_tin, st.child_tout
        child_a, child_b = st.child_a, st.child_b
        e_tin_u, e_tout_u = st.e_tin_u, st.e_tout_u
        e_tin_v, e_tout_v = st.e_tin_v, st.e_tout_v
        forests: list = []
        ncomps: list[int] = []
        grows: list[list[list[int]]] = []  # per query, per comp: rows
        gevs: list[list[list[int]]] = []  # per query, per comp: event ids
        ev_edges: list[int] = []  # event id -> cancelled edge
        for cs, fl, tf in tasks:
            nc = len(tf) + 1
            ncomps.append(nc)
            ra, rb = st.root_a[cs], st.root_b[cs]
            if nc == 2:
                # Single tree fault: two components, one containment
                # test per locate, gather lists known outright.
                ei0 = tf[0]
                ca, cb = child_a[ei0], child_b[ei0]
                qrows = [[rb, ra, cb, ca], [cb, ca]]
                qevs: list[list[int]] = [[], []]
                ctin, ctout = child_tin[ei0], child_tout[ei0]
                forests.append(_SplitForest(ctin, ctout))
                for ei in fl:
                    cu = (
                        1
                        if ctin <= e_tin_u[ei] and e_tout_u[ei] <= ctout
                        else 0
                    )
                    cv = (
                        1
                        if ctin <= e_tin_v[ei] and e_tout_v[ei] <= ctout
                        else 0
                    )
                    if cu != cv:
                        ev = len(ev_edges)
                        ev_edges.append(ei)
                        qevs[0].append(ev)
                        qevs[1].append(ev)
                grows.append(qrows)
                gevs.append(qevs)
                continue
            forest = ComponentForest.build(
                [(child_tin[ei], child_tout[ei]) for ei in tf]
            )
            forests.append(forest)
            comps = forest.components
            own_a = [ra] + [child_a[ei] for ei in tf]
            own_b = [rb] + [child_b[ei] for ei in tf]
            qrows = [[own_b[j], own_a[j]] for j in range(nc)]
            for j in range(1, nc):
                qrows[comps[j].parent] += (own_b[j], own_a[j])
            qevs = [[] for _ in range(nc)]
            locate = forest.locate
            for ei in fl:
                cu = locate((e_tin_u[ei], e_tout_u[ei]))
                cv = locate((e_tin_v[ei], e_tout_v[ei]))
                if cu != cv:
                    ev = len(ev_edges)
                    ev_edges.append(ei)
                    qevs[cu].append(ev)
                    qevs[cv].append(ev)
            grows.append(qrows)
            gevs.append(qevs)
        H = len(tasks)

        # ---- per-chunk event tables (one hash evaluation per edge) ---
        ctx = self.context
        dims = ctx.dims
        units, levels, width = dims.units, dims.levels, dims.words
        prefix = self._prefix[copy]
        sketcher = ctx.sketchers[copy]
        if ev_edges:
            ee = np.asarray(ev_edges, dtype=np.int64)
            # Exact sampling depth per (event, unit): cancelling edge e
            # from cumulative cells (i, j <= ml_i) is one XOR into the
            # exact cell (i, ml_i) before the suffix fold.
            ev_ml = sketcher.max_levels_many(st.keys[ee])
            ev_words = st.eid_words[ee]
        else:
            ev_ml = ev_words = None

        # ---- Boruvka phases, one fresh unit per phase ----------------
        eids = ctx.eids
        edge_decoded = self._edge_decoded
        eid_cache = self._eid_cache
        # Searching all but the last fingerprint keeps every position
        # a valid index, and finds the same leftmost candidate.
        mixed_head, mixed_order = st.mixed_sorted[:-1], st.mixed_order
        mix_consts, edge_words = st.mix_consts, st.eid_words
        ufs = [UnionFind(nc) for nc in ncomps]
        roots_of = [list(range(nc)) for nc in ncomps]
        phases = [0] * H
        merges: list[list[tuple[DecodedEid, int, int]]] = [[] for _ in range(H)]
        alive = list(range(H))
        for unit in range(units):
            ext_meta: list[tuple[int, int]] = []  # (query, root) per extraction
            task_lo: list[int] = []  # first extraction of each live task
            still: list[int] = []
            for h in alive:
                roots = roots_of[h]
                if len(roots) == 1:
                    continue
                phases[h] += 1
                task_lo.append(len(ext_meta))
                if len(roots) == 2:
                    # The live roots' exact cells XOR to zero: every
                    # surviving edge sits in two components' sketches,
                    # every cut fault is cancelled from both sides.  So
                    # two live roots read the same cells, and a second
                    # extraction could only find the edge the first one
                    # merges over, or nothing: read the shorter gather.
                    a, b = roots
                    qrows = grows[h]
                    ext_meta.append((h, a if len(qrows[a]) <= len(qrows[b]) else b))
                else:
                    ext_meta += [(h, r) for r in roots]
                still.append(h)
            alive = still
            R = len(ext_meta)
            if not R:
                break
            cand = self._exact_cells(
                ext_meta, grows, gevs, prefix, ev_ml, ev_words, unit, unit + 1
            )[:, 0]
            flat = cand.reshape(R * levels, width)
            rev = cand[:, ::-1, :]
            np.bitwise_xor.accumulate(rev, axis=1, out=rev)
            nz = flat.any(axis=1)
            # Retire empty tails: when every live root of a task reads
            # zero cells in this unit and in every later one, no later
            # phase can merge, so the remaining units only add to
            # ``phases``.  This unit's mask gates the look-ahead.
            root_nz = nz.reshape(R, levels).any(axis=1)
            if unit + 1 < units and not root_nz.all():
                quiet = np.flatnonzero(
                    ~np.logical_or.reduceat(root_nz, np.asarray(task_lo))
                ).tolist()
                if quiet:
                    done = self._empty_tails(
                        [alive[k] for k in quiet],
                        roots_of, grows, gevs, prefix, ev_ml, ev_words, unit + 1,
                    )
                    if done:
                        for h in done:
                            phases[h] += units - unit - 1
                        done_set = set(done)
                        alive = [h for h in alive if h not in done_set]
            # Real-edge membership by fingerprint, decided by exact row
            # compare (a zero row never equals an edge's words): a hit
            # is a valid single-edge EID without any PRF work —
            # successful extractions are exactly such rows.
            mixed = _mix_words(flat, mix_consts)
            hit_ei = mixed_order[np.searchsorted(mixed_head, mixed)]
            valid_flat = (flat == edge_words[hit_ei]).all(axis=1)
            # Unknown nonzero words take the PRF test of Lemma 3.10,
            # one evaluation per distinct endpoint pair.
            prf_dec: dict[int, DecodedEid] = {}
            rows_nz = np.flatnonzero(nz & ~valid_flat)
            if rows_nz.size:
                ok, dec = eids.try_decode_words(flat[rows_nz])
                if dec:
                    valid_flat[rows_nz] = ok
                    for k, d in dec.items():
                        prf_dec[int(rows_nz[k])] = d
            # Each extraction takes its first validating level (the
            # scan order of the scalar extract_outgoing).
            last = -1
            for fr in np.flatnonzero(valid_flat).tolist():
                i = fr // levels
                if i == last:
                    continue
                last = i
                h = ext_meta[i][0]
                d = prf_dec.get(fr)
                if d is None:
                    ei = int(hit_ei[fr])
                    d = edge_decoded.get(ei)
                    if d is None:
                        d = edge_decoded[ei] = eids.decode_issued(eid_cache[ei])
                forest = forests[h]
                cu = forest.locate(d.anc_u)
                cv = forest.locate(d.anc_v)
                uf = ufs[h]
                ru, rv = uf.find(cu), uf.find(cv)
                if ru == rv:
                    continue
                uf.union(ru, rv)
                keep = uf.find(ru)
                lose = rv if keep == ru else ru
                # Merged sketch = XOR of the constituents' sketches:
                # concatenate gather and cancellation lists instead of
                # folding full sketch rows.
                qrows = grows[h]
                qrows[keep] = qrows[keep] + qrows[lose]
                qevs = gevs[h]
                if qevs[lose]:
                    qevs[keep] = qevs[keep] + qevs[lose]
                roots_of[h].remove(lose)
                merges[h].append((d, cu, cv))

        return [(forests[h], ufs[h], merges[h], phases[h]) for h in range(H)]

    def _exact_cells(
        self,
        ext: list[tuple[int, int]],
        grows: list[list[list[int]]],
        gevs: list[list[list[int]]],
        prefix,
        ev_ml: Optional[np.ndarray],
        ev_words: Optional[np.ndarray],
        lo: int,
        hi: int,
    ) -> np.ndarray:
        """Exact sketch cells of the ``(task, root)`` components ``ext``
        over units ``lo..hi-1``, shape ``(len(ext), hi - lo, levels,
        words)``.

        Claim 3.15 plus fault cancellation: each component's cells are
        the XOR of its gathered prefix rows (a dense slice, or one
        :meth:`RaggedPrefix.gather` per unit) with every cancelled
        fault word XORed into its exact level of each unit.  A Boruvka
        phase reads one unit (``hi = lo + 1``); the empty-tail check
        reads all the remaining ones.
        """
        rows: list[int] = []
        seg: list[int] = []
        evs: list[int] = []
        ev_tgt: list[int] = []
        for i, (h, r) in enumerate(ext):
            seg.append(len(rows))
            rows += grows[h][r]
            e = gevs[h][r]
            if e:
                evs += e
                ev_tgt += [i] * len(e)
        idx = np.asarray(rows, dtype=np.int64)
        if isinstance(prefix, np.ndarray):
            slab = prefix[idx, lo:hi]
        elif hi - lo == 1:
            slab = prefix.gather(idx, lo)[:, None]
        else:
            slab = np.stack([prefix.gather(idx, u) for u in range(lo, hi)], axis=1)
        cells = np.bitwise_xor.reduceat(slab, np.asarray(seg, dtype=np.int64), axis=0)
        if evs:
            span, levels, width = cells.shape[1:]
            evi = np.asarray(evs, dtype=np.int64)
            owner = np.asarray(ev_tgt, dtype=np.int64)
            # (event, unit) -> flat exact cell of the event's component
            if span == 1:
                tgt = owner * levels + ev_ml[evi, lo]
                words = ev_words[evi]
            else:
                tgt = (
                    owner[:, None] * span + np.arange(span, dtype=np.int64)
                ) * levels + ev_ml[evi, lo:hi]
                words = ev_words[evi][:, None]
            np.bitwise_xor.at(cells.reshape(-1, width), tgt, words)
        return cells

    def _empty_tails(
        self,
        tasks: list[int],
        roots_of: list[list[int]],
        grows: list[list[list[int]]],
        gevs: list[list[list[int]]],
        prefix,
        ev_ml: Optional[np.ndarray],
        ev_words: Optional[np.ndarray],
        lo: int,
    ) -> list[int]:
        """The tasks whose live roots read all-zero exact cells in every
        unit from ``lo`` on (:meth:`_exact_cells`; exact cells are zero
        iff the cumulative cells are).  Tasks are checked in chunks of
        at most ``_TAIL_WORDS`` gathered words.
        """
        dims = self.context.dims
        per_row = (dims.units - lo) * dims.levels * dims.words
        empty: list[int] = []
        start = 0
        while start < len(tasks):
            chunk: list[int] = []
            ext: list[tuple[int, int]] = []
            task_lo: list[int] = []
            n_rows = 0
            for h in tasks[start:]:
                if chunk and n_rows * per_row > _TAIL_WORDS:
                    break
                chunk.append(h)
                task_lo.append(len(ext))
                # The live roots' cells XOR to zero, so the root with the
                # longest gather reads zero wherever all the others do.
                qrows = grows[h]
                roots = roots_of[h]
                skip = max(roots, key=lambda r: len(qrows[r]))
                for r in roots:
                    if r != skip:
                        ext.append((h, r))
                        n_rows += len(qrows[r])
            start += len(chunk)
            cells = self._exact_cells(
                ext, grows, gevs, prefix, ev_ml, ev_words, lo, dims.units
            )
            busy = cells.reshape(len(ext), -1).any(axis=1)
            busy = np.logical_or.reduceat(busy, np.asarray(task_lo, dtype=np.int64))
            empty += [h for h, b in zip(chunk, busy.tolist()) if not b]
        return empty

    def _tlabel(self, v: int) -> Optional[int]:
        return self._routing.tlabel_of(v) if self._routing is not None else None

    def edge_for_eid(self, eid: int) -> Optional[int]:
        """Edge index behind a packed EID, or ``None`` if the EID does
        not belong to this scheme's store (foreign or corrupted).

        The packed routing engine uses this both to materialize the
        label of a 0-segment fault and to map the learned fault onto a
        store edge index for its partition-cache retry decodes — the
        same resolution :meth:`decode` performs internally.
        """
        if self._eid_to_edge is None:
            self._eid_to_edge = {e: i for i, e in enumerate(self._eid_cache)}
        return self._eid_to_edge.get(eid)

    def label_for_eid(self, eid: int, component: int = 0) -> SkEdgeLabel:
        """The edge label behind a packed EID (packed-store lookup).

        Used by the routing engine to turn an EID learned from a path
        description back into a label; unknown EIDs fall back to a bare
        non-tree label carrying the given component, mirroring the
        engine's previous reconstruction.
        """
        ei = self.edge_for_eid(eid)
        if ei is not None:
            return self.edge_label(ei)
        return SkEdgeLabel(
            component=component, eid=eid, is_tree=False, context=self.context
        )

    # ------------------------------------------------------------------
    # Convenience wrapper used by examples and benches
    # ------------------------------------------------------------------
    def query(
        self, s: int, t: int, faults: Iterable[int], copy: int = 0
    ) -> SkDecodeResult:
        """Full-pipeline query on edge indices (label lookup + decode).

        Delegates to the batched engine with batch size 1 on the
        vectorized scheme; the reference scheme runs the seed decoder.
        Vertex ids outside ``0..n-1`` and fault ids outside ``0..m-1``
        raise ``ValueError``.
        """
        check_vertex_ids([(s, t)], self.graph.n)
        faults = [int(ei) for ei in faults]
        check_fault_ids(faults, self.graph.m)
        if self._prefix is not None:
            return self._decode_batch(
                [(int(s), int(t), faults)], copy=copy, want_path=True
            )[0]
        return self._decode_labels(
            self.vertex_label(s),
            self.vertex_label(t),
            [self.edge_label(ei) for ei in faults],
            copy,
            True,
        )
