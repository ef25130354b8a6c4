"""Object-level snapshot save/load for every packed artifact.

The paper's central observation is that *the labels are the data
structure*: once constructed, the packed label stores and routing
tables are immutable arrays plus a handful of scalars (scheme
parameters, RNG seeds).  This module maps each artifact onto the
container format of :mod:`repro.store.format`:

========================  ====================================================
kind                      artifact
========================  ====================================================
``sketch``                :class:`~repro.core.sketch_scheme.SketchConnectivityScheme`
``cycle_space``           :class:`~repro.core.cycle_space_scheme.CycleSpaceConnectivityScheme`
``forest``                :class:`~repro.core.forest_scheme.ForestConnectivityScheme`
``distance``              :class:`~repro.core.distance_labels.DistanceLabelScheme`
``router``                :class:`~repro.routing.fault_tolerant.FaultTolerantRouter`
``connectivity-facade``   :class:`~repro.core.api.FaultTolerantConnectivity`
``distance-facade``       :class:`~repro.core.api.FaultTolerantDistance`
``routing-facade``        :class:`~repro.core.api.FaultTolerantRouting`
========================  ====================================================

What gets persisted is exactly the expensive-to-rebuild state: graph
edge arrays, spanning-forest parent arrays, packed EID word matrices,
the per-copy prefix-XOR sketch tensors, per-instance tree/cover
structure, cycle-space ``phi`` words and the packed tree-routing
arrays.  Cheap derived state (ancestry intervals, hash families —
reconstructed from the persisted seeds — heavy-light decompositions,
the lazy query-side stores) is recomputed at load; every recomputation
is deterministic, so a restored artifact answers ``query_many`` /
``route_many`` **bit-identically** to the instance that was saved
(asserted by ``tests/test_snapshot.py`` across the generator families).

Loads default to ``mmap=True``: the big segments come back as
read-only views into one shared file mapping, so any number of serving
processes opening the same snapshot share a single page-cache copy —
the build-once / serve-many story the serving layer's snapshot-backed
workers (:class:`~repro.serving.shards.ShardedQueryService`) build on.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro._util import derive_seed
from repro.store.format import (
    RawSnapshot,
    SnapshotError,
    read_snapshot,
    write_snapshot,
)

# Imports of the scheme modules happen lazily inside the handlers: the
# store must stay importable from the serving layer without dragging
# the whole routing plane in at module import time.


# ----------------------------------------------------------------------
# Shared graph / forest helpers
# ----------------------------------------------------------------------
def _graph_arrays(graph, arrays: dict, prefix: str) -> None:
    if graph.m:
        csr = graph.as_csr()
        arrays[prefix + "edge_u"] = csr.edge_u
        arrays[prefix + "edge_v"] = csr.edge_v
        arrays[prefix + "edge_w"] = csr.edge_weight
    else:
        arrays[prefix + "edge_u"] = np.zeros(0, dtype=np.int64)
        arrays[prefix + "edge_v"] = np.zeros(0, dtype=np.int64)
        arrays[prefix + "edge_w"] = np.zeros(0, dtype=np.float64)


def _restore_graph(n: int, arrays: dict, prefix: str):
    from repro.graph.graph import Graph

    # The arrays may be read-only snapshot mmaps; the array-resident
    # Graph shares them without copying (and without materializing any
    # Python adjacency until a caller actually needs it).
    return Graph.from_edge_arrays(
        n,
        arrays[prefix + "edge_u"],
        arrays[prefix + "edge_v"],
        arrays[prefix + "edge_w"],
    )


def _forest_arrays(trees, comp_of, arrays: dict, prefix: str) -> None:
    """Merge a spanning forest's per-tree parent arrays into one pair.

    Trees are vertex-disjoint, so the element-wise merge is lossless;
    ``comp_of`` splits it back per tree at restore time.
    """
    some = trees[0]
    n = some.graph.n
    forest = getattr(some, "_forest", None)
    if forest is not None and len(trees) == forest.comp_count:
        # Forest trees already share one full-n parent/parent_edge pair:
        # roots hold -1 and every non-root slot is owned by exactly one
        # component, so the shared arrays ARE the merged arrays.
        arrays[prefix + "parent"] = forest.parent
        arrays[prefix + "parent_edge"] = forest.parent_edge
        arrays[prefix + "comp_of"] = np.asarray(comp_of, dtype=np.int64)
        return
    parent = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    for tree in trees:
        ta = tree.arrays()
        vs = ta.order[1:]  # non-root vertices of this tree only
        parent[vs] = ta.parent[vs]
        parent_edge[vs] = ta.parent_edge[vs]
    arrays[prefix + "parent"] = parent
    arrays[prefix + "parent_edge"] = parent_edge
    arrays[prefix + "comp_of"] = np.asarray(comp_of, dtype=np.int64)


def _restore_forest(graph, arrays: dict, prefix: str, roots):
    from repro.graph.spanning_tree import Forest

    forest = Forest.from_parent_arrays(
        graph,
        arrays[prefix + "parent"],
        arrays[prefix + "parent_edge"],
        arrays[prefix + "comp_of"],
        [int(r) for r in roots],
    )
    return forest.trees


def _phi_words(phi: list, b: int) -> np.ndarray:
    from repro.sketches.sketch import eids_to_word_matrix

    return eids_to_word_matrix(phi, max(1, (b + 63) // 64))


def _words_phi(words: np.ndarray) -> list:
    from repro.sketches.sketch import word_matrix_to_eids

    return word_matrix_to_eids(np.ascontiguousarray(words))


def _prefix_entries(arrays: dict, prefix: str, copies: int) -> tuple:
    """Per-copy prefix stores as saved: dense tensors persist as one
    ``prefix{c}`` segment, ragged stores as a ``prefix{c}_keys`` /
    ``prefix{c}_vals`` segment pair (format version 2) that the scheme
    rehydrates into a :class:`~repro.sketches.sketch.RaggedPrefix`."""
    entries = []
    for c in range(copies):
        dense = arrays.get(f"{prefix}prefix{c}")
        if dense is not None:
            entries.append(dense)
        else:
            entries.append(
                (arrays[f"{prefix}prefix{c}_keys"], arrays[f"{prefix}prefix{c}_vals"])
            )
    return tuple(entries)


# ----------------------------------------------------------------------
# Sketch scheme (standalone)
# ----------------------------------------------------------------------
def _sketch_state(scheme) -> tuple[dict, dict]:
    if scheme._prefix is None:
        raise SnapshotError(
            "only the vectorized (csr) engine has packed stores to snapshot"
        )
    if scheme._routing is not None or scheme._custom_wiring:
        raise SnapshotError(
            "instance-embedded sketch schemes are persisted through their "
            "distance scheme, not standalone"
        )
    meta = {
        "n": scheme.graph.n,
        "m": scheme.graph.m,
        "seed": scheme.seed,
        "copies": scheme.context.copies,
        "units": scheme.context.dims.units,
        "roots": [tree.root for tree in scheme.trees],
        "id_space": scheme._id_space,
        "hash_family": scheme.hash_family,
        "prefix_layout": scheme.prefix_layout,
    }
    arrays: dict = {}
    _graph_arrays(scheme.graph, arrays, "graph/")
    _forest_arrays(scheme.trees, scheme.comp_of, arrays, "trees/")
    for name, arr in scheme.__arrays__().items():
        arrays["store/" + name] = arr
    return meta, arrays


def _restore_sketch(meta: dict, arrays: dict):
    from repro.core.sketch_scheme import (
        PreloadedSketchArrays,
        SketchConnectivityScheme,
    )

    graph = _restore_graph(meta["n"], arrays, "graph/")
    trees = _restore_forest(graph, arrays, "trees/", meta["roots"])
    preloaded = PreloadedSketchArrays(
        eid_words=arrays["store/eid_words"],
        prefix=_prefix_entries(arrays, "store/", meta["copies"]),
    )
    return SketchConnectivityScheme(
        graph,
        seed=meta["seed"],
        copies=meta["copies"],
        units=meta["units"],
        trees=trees,
        id_space=meta.get("id_space", meta["n"]),
        engine="csr",
        _preloaded=preloaded,
    )


# ----------------------------------------------------------------------
# Forest scheme
# ----------------------------------------------------------------------
def _forest_state(scheme) -> tuple[dict, dict]:
    meta = {"n": scheme.graph.n, "m": scheme.graph.m}
    arrays: dict = {}
    _graph_arrays(scheme.graph, arrays, "graph/")
    return meta, arrays


def _restore_forest_scheme(meta: dict, arrays: dict):
    from repro.core.forest_scheme import ForestConnectivityScheme

    return ForestConnectivityScheme(_restore_graph(meta["n"], arrays, "graph/"))


# ----------------------------------------------------------------------
# Cycle-space scheme
# ----------------------------------------------------------------------
def _cycle_state(scheme) -> tuple[dict, dict]:
    meta = {
        "n": scheme.graph.n,
        "m": scheme.graph.m,
        "f": scheme.f,
        "seed": scheme.seed,
        "b": scheme.b,
        "all_queries": scheme.all_queries,
        "engine": scheme.engine,
        "roots": [tree.root for tree in scheme.trees],
    }
    arrays: dict = {}
    _graph_arrays(scheme.graph, arrays, "graph/")
    _forest_arrays(scheme.trees, scheme.comp_of, arrays, "trees/")
    for ci, labels in enumerate(scheme._labels):
        arrays[f"phi{ci}"] = _phi_words(labels._phi, scheme.b)
    return meta, arrays


def _restore_cycle(meta: dict, arrays: dict):
    graph = _restore_graph(meta["n"], arrays, "graph/")
    trees = _restore_forest(graph, arrays, "trees/", meta["roots"])
    return _rebuild_cycle_scheme(
        graph,
        trees,
        arrays["trees/comp_of"].tolist(),
        f=meta["f"],
        seed=meta["seed"],
        b=meta["b"],
        all_queries=meta["all_queries"],
        engine=meta["engine"],
        phi_words=[arrays[f"phi{ci}"] for ci in range(len(trees))],
    )


def _rebuild_cycle_scheme(
    graph, trees, comp_of, f, seed, b, all_queries, engine, phi_words
):
    """Reassemble a cycle-space scheme around persisted ``phi`` labels.

    Mirrors ``CycleSpaceConnectivityScheme.__init__`` with the random
    circulation sampling replaced by the stored words — the one step
    whose cost (and randomness) the snapshot exists to freeze.
    """
    from repro.core.cycle_space_scheme import CycleSpaceConnectivityScheme
    from repro.cycle_space.labels import CycleSpaceLabels
    from repro.graph.ancestry import AncestryLabeling

    scheme = CycleSpaceConnectivityScheme.__new__(CycleSpaceConnectivityScheme)
    scheme.engine = engine
    scheme.graph = graph
    scheme.f = f
    scheme.seed = seed
    scheme.all_queries = all_queries
    scheme.b = b
    scheme.trees = list(trees)
    scheme.comp_of = list(comp_of)
    scheme._anc = [AncestryLabeling(tree) for tree in trees]
    scheme._labels = [
        CycleSpaceLabels(graph, tree, b, _words_phi(words))
        for tree, words in zip(trees, phi_words)
    ]
    scheme._qstore = None
    return scheme


# ----------------------------------------------------------------------
# Distance scheme (the whole tree-cover stack)
# ----------------------------------------------------------------------
def _distance_state(scheme) -> tuple[dict, dict]:
    from repro.core.cycle_space_scheme import CycleSpaceConnectivityScheme

    if scheme.engine != "csr":
        raise SnapshotError(
            "only the vectorized (csr) engine has packed stores to snapshot"
        )
    gamma_f = None
    instances_meta = []
    arrays: dict = {}
    _graph_arrays(scheme.graph, arrays, "graph/")
    i_star = np.full((scheme.K + 1, scheme.graph.n), -1, dtype=np.int64)
    v_col, i_col, j_col = scheme._i_star.columns()
    i_star[i_col, v_col] = j_col
    arrays["i_star"] = i_star
    for idx, (key, inst) in enumerate(scheme.instances.items()):
        prefix = f"inst{idx}/"
        sub = inst.sub
        arrays[prefix + "vertex_to_parent"] = np.asarray(
            sub.vertex_to_parent, dtype=np.int64
        )
        arrays[prefix + "edge_to_parent"] = np.asarray(
            sub.edge_to_parent, dtype=np.int64
        )
        _graph_arrays(sub.graph, arrays, prefix + "graph/")
        tree_arr = inst.tree.arrays()
        arrays[prefix + "tree_parent"] = np.asarray(
            tree_arr.parent, dtype=np.int64
        )
        arrays[prefix + "tree_parent_edge"] = np.asarray(
            tree_arr.parent_edge, dtype=np.int64
        )
        im = {
            "key": list(key),
            "n_local": sub.graph.n,
            "root": inst.tree.root,
            "center_local": inst.center_local,
            "radius": inst.radius,
        }
        if isinstance(inst.scheme, CycleSpaceConnectivityScheme):
            im["b"] = inst.scheme.b
            arrays[prefix + "phi0"] = _phi_words(
                inst.scheme._labels[0]._phi, inst.scheme.b
            )
        else:
            im["units"] = inst.scheme.context.dims.units
            for name, arr in inst.scheme.__arrays__().items():
                arrays[prefix + "store/" + name] = arr
        if inst.tree_routing is not None:
            gamma_f = inst.tree_routing.gamma_f
            for name, arr in inst.tree_routing.packed().__arrays__().items():
                arrays[prefix + "troute/" + name] = arr
        instances_meta.append(im)
    meta = {
        "n": scheme.graph.n,
        "m": scheme.graph.m,
        "f": scheme.f,
        "k": scheme.k,
        "seed": scheme.seed,
        "base_scheme": scheme.base_scheme,
        "copies": scheme.copies,
        "routing": scheme.routing,
        "gamma_f": gamma_f,
        "K": scheme.K,
        "key_bits": scheme.key_bits,
        "id_space": scheme.id_space,
        "instances": instances_meta,
    }
    return meta, arrays


def _restore_distance(meta: dict, arrays: dict):
    from repro.core.distance_labels import (
        DistanceLabelScheme,
        FlatIStar,
        FlatMembership,
        LabelInstance,
        instance_wiring,
        routing_port_bits,
    )
    from repro.core.sketch_scheme import (
        PreloadedSketchArrays,
        RoutingAugmentation,
        SketchConnectivityScheme,
    )
    from repro.graph.graph import InducedSubgraph
    from repro.graph.spanning_tree import RootedTree
    from repro.trees.tree_routing import PackedTreeRouting, TreeRoutingScheme

    graph = _restore_graph(meta["n"], arrays, "graph/")
    n = meta["n"]
    id_space = meta.get("id_space", n)
    scheme = DistanceLabelScheme.__new__(DistanceLabelScheme)
    scheme.graph = graph
    scheme.id_space = id_space
    scheme.f = meta["f"]
    scheme.k = meta["k"]
    scheme.seed = meta["seed"]
    scheme.base_scheme = meta["base_scheme"]
    scheme.routing = meta["routing"]
    scheme.copies = meta["copies"]
    scheme.engine = "csr"
    scheme.K = meta["K"]
    scheme.key_bits = meta["key_bits"]
    scheme.instances = {}
    scheme._vertex_membership = FlatMembership()
    scheme._edge_membership = FlatMembership()
    scheme._i_star = FlatIStar()
    gamma_f = meta["gamma_f"]
    for idx, im in enumerate(meta["instances"]):
        prefix = f"inst{idx}/"
        key = tuple(im["key"])
        i, j = key
        sub_graph = _restore_graph(im["n_local"], arrays, prefix + "graph/")
        vtp = tuple(arrays[prefix + "vertex_to_parent"].tolist())
        sub = InducedSubgraph(
            graph=sub_graph,
            vertex_to_parent=vtp,
            vertex_from_parent={pv: lv for lv, pv in enumerate(vtp)},
            edge_to_parent=tuple(arrays[prefix + "edge_to_parent"].tolist()),
        )
        tree = RootedTree(
            sub_graph,
            int(im["root"]),
            arrays[prefix + "tree_parent"].tolist(),
            arrays[prefix + "tree_parent_edge"].tolist(),
        )
        # The exact closures _build_scale installs (shared helper, so
        # construction and restore cannot drift apart).
        id_of, port_fn = instance_wiring(graph, sub.vertex_to_parent)
        tree_routing = None
        aug = None
        inst_seed = derive_seed(meta["seed"], "instance", i, j)
        if scheme.routing:
            tree_routing = TreeRoutingScheme(
                tree,
                gamma_f=gamma_f,
                id_of=id_of,
                port_fn=port_fn,
                id_space=id_space,
            )
            tree_routing._packed = PackedTreeRouting.from_arrays(
                {
                    name: arrays[prefix + "troute/" + name]
                    for name in PackedTreeRouting._ARRAY_FIELDS
                }
            )
            aug = RoutingAugmentation(
                port_bits=routing_port_bits(id_space),
                tlabel_bits=tree_routing.encoded_label_bits(),
                tlabel_of=tree_routing.encoded_label,
            )
        if scheme.base_scheme == "cycle_space":
            inst_scheme = _rebuild_cycle_scheme(
                sub_graph,
                [tree],
                _comp_of_from_trees(sub_graph.n, [tree]),
                f=scheme.f,
                seed=inst_seed,
                b=im["b"],
                all_queries=False,
                engine="csr",
                phi_words=[arrays[prefix + "phi0"]],
            )
        else:
            preloaded = PreloadedSketchArrays(
                eid_words=arrays[prefix + "store/eid_words"],
                prefix=_prefix_entries(
                    arrays, prefix + "store/", scheme.copies
                ),
            )
            inst_scheme = SketchConnectivityScheme(
                sub_graph,
                seed=inst_seed,
                copies=scheme.copies,
                units=im["units"],
                routing=aug,
                trees=[tree],
                id_of=id_of,
                id_space=id_space,
                port_fn=port_fn,
                engine="csr",
                _preloaded=preloaded,
            )
        inst = LabelInstance(
            key=key,
            sub=sub,
            tree=tree,
            scheme=inst_scheme,
            tree_routing=tree_routing,
            center_local=int(im["center_local"]),
            radius=float(im["radius"]),
        )
        scheme.instances[key] = inst
        scheme._vertex_membership.add_cluster(vtp, i, j)
        scheme._edge_membership.add_cluster(sub.edge_to_parent, i, j)
    max_clusters = max((key[1] for key in scheme.instances), default=0)
    scheme._vertex_membership.freeze(scheme.K, max_clusters)
    scheme._edge_membership.freeze(scheme.K, max_clusters)
    i_star = arrays["i_star"]
    for i in range(scheme.K + 1):
        row = i_star[i]
        vs = np.flatnonzero(row >= 0)
        scheme._i_star.add_scale(vs, row[vs], i)
    scheme._i_star.freeze(scheme.K)
    return scheme


def _comp_of_from_trees(n: int, trees) -> list[int]:
    comp_of = np.full(n, -1, dtype=np.int64)
    for ci, tree in enumerate(trees):
        comp_of[tree.arrays().order] = ci
    return comp_of.tolist()


# ----------------------------------------------------------------------
# Fault-tolerant router (distance scheme + packed routing plane)
# ----------------------------------------------------------------------
def _router_state(router) -> tuple[dict, dict]:
    dmeta, arrays = _distance_state(router.scheme)
    meta = {
        "f": router.f,
        "k": router.k,
        "table_mode": router.table_mode,
        "reuse_copy": router.reuse_copy,
        "engine": router.engine,
        "partition_cache_capacity": router.partition_cache_capacity,
        "distance": dmeta,
    }
    return meta, arrays


def _restore_router(meta: dict, arrays: dict):
    from repro.routing.fault_tolerant import FaultTolerantRouter

    scheme = _restore_distance(meta["distance"], arrays)
    router = FaultTolerantRouter.__new__(FaultTolerantRouter)
    router.graph = scheme.graph
    router.f = meta["f"]
    router.k = meta["k"]
    router.table_mode = meta["table_mode"]
    router.reuse_copy = meta["reuse_copy"]
    router.engine = meta["engine"]
    router.partition_cache_capacity = meta["partition_cache_capacity"]
    router.scheme = scheme
    router._tables = None  # the seed tables rebuild lazily, as always
    router._packed = None
    return router


# ----------------------------------------------------------------------
# core.api facades
# ----------------------------------------------------------------------
def _connectivity_facade_state(facade) -> tuple[dict, dict]:
    kind, meta, arrays = _state_of(facade.impl)
    return {"f": facade.f, "impl_kind": kind, "impl": meta}, arrays


def _restore_connectivity_facade(meta: dict, arrays: dict):
    from repro.core.api import FaultTolerantConnectivity

    impl = _RESTORERS[meta["impl_kind"]](meta["impl"], arrays)
    facade = FaultTolerantConnectivity.__new__(FaultTolerantConnectivity)
    facade.scheme_name = (
        "sketch" if meta["impl_kind"] == "sketch" else "cycle_space"
    )
    facade.graph = impl.graph
    facade.f = meta["f"]
    facade._impl = impl
    return facade


def _distance_facade_state(facade) -> tuple[dict, dict]:
    meta, arrays = _distance_state(facade.impl)
    return {"f": facade.f, "k": facade.k, "impl": meta}, arrays


def _restore_distance_facade(meta: dict, arrays: dict):
    from repro.core.api import FaultTolerantDistance

    impl = _restore_distance(meta["impl"], arrays)
    facade = FaultTolerantDistance.__new__(FaultTolerantDistance)
    facade.graph = impl.graph
    facade.f = meta["f"]
    facade.k = meta["k"]
    facade._impl = impl
    return facade


def _routing_facade_state(facade) -> tuple[dict, dict]:
    meta, arrays = _router_state(facade.impl)
    return {"f": facade.f, "k": facade.k, "impl": meta}, arrays


def _restore_routing_facade(meta: dict, arrays: dict):
    from repro.core.api import FaultTolerantRouting

    impl = _restore_router(meta["impl"], arrays)
    facade = FaultTolerantRouting.__new__(FaultTolerantRouting)
    facade.graph = impl.graph
    facade.f = meta["f"]
    facade.k = meta["k"]
    facade._impl = impl
    return facade


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
_RESTORERS = {
    "sketch": _restore_sketch,
    "forest": _restore_forest_scheme,
    "cycle_space": _restore_cycle,
    "distance": _restore_distance,
    "router": _restore_router,
    "connectivity-facade": _restore_connectivity_facade,
    "distance-facade": _restore_distance_facade,
    "routing-facade": _restore_routing_facade,
}


#: ``module.Class`` of each artifact type -> (kind, state extractor).
#: Keyed by name, so a save imports nothing beyond what the saved
#: object's own class already loaded.
_EXTRACTORS = {
    "repro.core.sketch_scheme.SketchConnectivityScheme": ("sketch", _sketch_state),
    "repro.core.cycle_space_scheme.CycleSpaceConnectivityScheme": (
        "cycle_space", _cycle_state
    ),
    "repro.core.forest_scheme.ForestConnectivityScheme": ("forest", _forest_state),
    "repro.core.distance_labels.DistanceLabelScheme": ("distance", _distance_state),
    "repro.routing.fault_tolerant.FaultTolerantRouter": ("router", _router_state),
    "repro.core.api.FaultTolerantConnectivity": (
        "connectivity-facade", _connectivity_facade_state
    ),
    "repro.core.api.FaultTolerantDistance": (
        "distance-facade", _distance_facade_state
    ),
    "repro.core.api.FaultTolerantRouting": ("routing-facade", _routing_facade_state),
}


def _state_of(obj) -> tuple[str, dict, dict]:
    cls = type(obj)
    handler = _EXTRACTORS.get(f"{cls.__module__}.{cls.__qualname__}")
    if handler is None:
        raise SnapshotError(
            f"no snapshot handler for objects of type {cls.__name__}"
        )
    kind, extract = handler
    meta, arrays = extract(obj)
    return kind, meta, arrays


def save_snapshot(path: Union[str, Path], obj) -> Path:
    """Persist one artifact (scheme / router / facade) to ``path``.

    The snapshot carries everything needed to serve queries again —
    graph arrays, packed stores, scheme parameters and seeds — and a
    restored object answers bit-identically to ``obj``.

    Artifacts exposing ``__digest_hints__()`` (schemes whose build
    workers already fingerprinted their output arrays) hand those
    digests to the writer, which then skips re-hashing the hinted
    segments while streaming them out.
    """
    kind, meta, arrays = _state_of(obj)
    collect = getattr(obj, "__digest_hints__", None)
    hints = collect() if collect is not None else None
    return write_snapshot(path, kind, meta, arrays, digest_hints=hints)


def load_snapshot(
    path: Union[str, Path], mmap: bool = True, verify=None
):
    """Open a snapshot and rebuild the artifact it holds.

    ``mmap=True`` (default) keeps the packed stores as read-only views
    into one shared file mapping — concurrent loaders share pages.
    Header and manifest digests are always checked; per-segment payload
    digests follow :func:`repro.store.format.read_snapshot` semantics
    (eager on non-mmap loads, on demand otherwise — force with
    ``verify=True`` or :func:`repro.store.verify_snapshot`).
    """
    snap = read_snapshot(path, mmap_arrays=mmap, verify=verify)
    restorer = _RESTORERS.get(snap.kind)
    if restorer is None:
        raise SnapshotError(
            f"{snap.path}: unknown artifact kind {snap.kind!r}"
        )
    return restorer(snap.meta, snap.arrays)


def snapshot_info(path: Union[str, Path]) -> dict:
    """Header summary of a snapshot without rebuilding the artifact."""
    snap = read_snapshot(path, mmap_arrays=True, verify=False)
    return {
        "kind": snap.kind,
        "meta": snap.meta,
        "segments": len(snap.arrays),
        "payload_bytes": snap.nbytes(),
        "file_bytes": Path(path).stat().st_size,
    }


__all__ = [
    "RawSnapshot",
    "SnapshotError",
    "load_snapshot",
    "read_snapshot",
    "save_snapshot",
    "snapshot_info",
    "write_snapshot",
]
