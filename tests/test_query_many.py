"""Batch-vs-scalar equivalence for the packed-store query engine.

The acceptance bar for the batched decoder is *bit-identical answers*:
``query_many`` must return exactly what looping ``query()`` returns —
including succinct paths and Boruvka phase counts for the sketch scheme
— across the five generator families (the high-diameter path family
included) and random fault sets, on both the vectorized engine and
against the retained ``engine="reference"`` seed decoder.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.api import FaultTolerantConnectivity, FaultTolerantDistance
from repro.core.cycle_space_scheme import CycleSpaceConnectivityScheme
from repro.core.distance_labels import DistanceLabelScheme
from repro.core.forest_scheme import ForestConnectivityScheme
from repro.core.sketch_scheme import SketchConnectivityScheme
from repro.graph import generators
from repro.oracles import ConnectivityOracle
from repro.oracles.distances import DistanceOracle
from repro.sketches.sketch import MAX_SKETCH_ID_SPACE

FAMILIES = [
    ("random", lambda: generators.random_connected_graph(72, extra_edges=100, seed=21)),
    ("grid", lambda: generators.grid_graph(8, 8)),
    ("ring_of_cliques", lambda: generators.ring_of_cliques(8, 5)),
    (
        "weighted",
        lambda: generators.with_random_weights(
            generators.random_connected_graph(64, extra_edges=90, seed=22), 1, 8, seed=23
        ),
    ),
    # High-diameter: bridge-heavy tree faults exercise the zero-sketch
    # components that run the full phase budget.
    ("path", lambda: generators.grid_graph(1, 96)),
]


def _query_stream(graph, count, max_faults, seed):
    rnd = random.Random(seed)
    pairs, fault_sets = [], []
    for _ in range(count):
        pairs.append(tuple(rnd.sample(range(graph.n), 2)))
        fault_sets.append(rnd.sample(range(graph.m), rnd.randint(0, max_faults)))
    return pairs, fault_sets


@pytest.mark.parametrize("name,make", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_sketch_query_many_bit_identical(name, make):
    graph = make()
    fast = SketchConnectivityScheme(graph, seed=5)
    ref = SketchConnectivityScheme(graph, seed=5, engine="reference")
    pairs, fault_sets = _query_stream(graph, 80, 6, seed=31)
    batch = fast.query_many(pairs, fault_sets)
    assert len(batch) == len(pairs)
    for (s, t), F, rb in zip(pairs, fault_sets, batch):
        scalar = fast.query(s, t, F)
        seed_res = ref.query(s, t, F)
        # full SkDecodeResult equality: verdict, succinct path, phases
        assert rb == scalar
        assert rb == seed_res


@pytest.mark.parametrize("name,make", FAMILIES[:2], ids=[f[0] for f in FAMILIES[:2]])
def test_sketch_query_many_small_chunks(name, make):
    """Chunk boundaries must not change anything."""
    graph = make()
    fast = SketchConnectivityScheme(graph, seed=7)
    pairs, fault_sets = _query_stream(graph, 50, 5, seed=13)
    assert fast.query_many(pairs, fault_sets, chunk=7) == fast.query_many(
        pairs, fault_sets
    )


def test_sketch_query_many_shared_fault_set():
    graph = generators.random_connected_graph(60, extra_edges=80, seed=9)
    scheme = SketchConnectivityScheme(graph, seed=3)
    rnd = random.Random(4)
    shared = rnd.sample(range(graph.m), 5)
    pairs = [tuple(rnd.sample(range(graph.n), 2)) for _ in range(40)]
    batch = scheme.query_many(pairs, shared)
    for (s, t), rb in zip(pairs, batch):
        assert rb == scheme.query(s, t, shared)


def test_sketch_decode_label_path_matches_seed_decoder():
    graph = generators.random_connected_graph(64, extra_edges=90, seed=17)
    fast = SketchConnectivityScheme(graph, seed=5)
    ref = SketchConnectivityScheme(graph, seed=5, engine="reference")
    rnd = random.Random(23)
    for _ in range(40):
        s, t = rnd.sample(range(graph.n), 2)
        F = rnd.sample(range(graph.m), rnd.randint(0, 5))
        via_labels = fast.decode(
            fast.vertex_label(s),
            fast.vertex_label(t),
            [fast.edge_label(ei) for ei in F],
        )
        seed_res = ref.decode(
            ref.vertex_label(s),
            ref.vertex_label(t),
            [ref.edge_label(ei) for ei in F],
        )
        assert via_labels == seed_res


@pytest.mark.parametrize("name,make", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_cycle_space_query_many_matches_scalar(name, make):
    graph = make()
    fast = CycleSpaceConnectivityScheme(graph, f=4, seed=5)
    ref = CycleSpaceConnectivityScheme(graph, f=4, seed=5, engine="reference")
    pairs, fault_sets = _query_stream(graph, 60, 4, seed=41)
    batch = fast.query_many(pairs, fault_sets)
    for (s, t), F, rb in zip(pairs, fault_sets, batch):
        assert rb == fast.query(s, t, F)
        assert rb == ref.query(s, t, F)


def test_forest_query_many_matches_scalar():
    graph = generators.random_tree(80, seed=6)
    scheme = ForestConnectivityScheme(graph)
    pairs, fault_sets = _query_stream(graph, 60, 4, seed=8)
    batch = scheme.query_many(pairs, fault_sets)
    oracle = ConnectivityOracle(graph)
    for (s, t), F, rb in zip(pairs, fault_sets, batch):
        assert rb == scheme.query(s, t, F)
        assert rb == scheme.decode(
            scheme.vertex_label(s),
            scheme.vertex_label(t),
            [scheme.edge_label(ei) for ei in F],
        )
        assert rb == oracle.connected(s, t, F)  # forests are exact


@pytest.mark.parametrize("base", ["cycle_space", "sketch"])
def test_distance_query_many_matches_scalar(base):
    graph = generators.with_random_weights(
        generators.random_connected_graph(48, extra_edges=70, seed=12), 1, 6, seed=13
    )
    scheme = DistanceLabelScheme(graph, f=2, k=2, seed=3, base_scheme=base)
    pairs, fault_sets = _query_stream(graph, 40, 2, seed=14)
    batch = scheme.query_many(pairs, fault_sets)
    for (s, t), F, rb in zip(pairs, fault_sets, batch):
        assert rb == scheme.query(s, t, F)


def test_distance_query_many_matches_reference_engine():
    graph = generators.random_connected_graph(40, extra_edges=55, seed=15)
    fast = DistanceLabelScheme(graph, f=2, k=2, seed=4, base_scheme="cycle_space")
    ref = DistanceLabelScheme(
        graph, f=2, k=2, seed=4, base_scheme="cycle_space", engine="reference"
    )
    pairs, fault_sets = _query_stream(graph, 30, 2, seed=16)
    assert fast.query_many(pairs, fault_sets) == ref.query_many(pairs, fault_sets)


def test_facades_query_many():
    graph = generators.random_connected_graph(56, extra_edges=80, seed=19)
    pairs, fault_sets = _query_stream(graph, 30, 3, seed=20)
    for scheme in ("cycle_space", "sketch"):
        conn = FaultTolerantConnectivity(graph, f=3, scheme=scheme, seed=2)
        batch = conn.query_many(pairs, fault_sets)
        for (s, t), F, rb in zip(pairs, fault_sets, batch):
            assert rb == conn.connected(s, t, F)
    dist = FaultTolerantDistance(graph, f=2, k=2, seed=2)
    batch = dist.query_many(pairs, [F[:2] for F in fault_sets])
    for (s, t), F, rb in zip(pairs, fault_sets, batch):
        assert rb == dist.estimate(s, t, F[:2])


def test_facade_budget_check_applies_per_pair():
    graph = generators.random_connected_graph(24, extra_edges=30, seed=3)
    conn = FaultTolerantConnectivity(graph, f=1, scheme="cycle_space", seed=1)
    with pytest.raises(ValueError):
        conn.query_many([(0, 1)], [[0, 1, 2]])


def test_oracle_batched_ground_truth():
    graph = generators.random_connected_graph(48, extra_edges=60, seed=25)
    pairs, fault_sets = _query_stream(graph, 40, 4, seed=26)
    conn = ConnectivityOracle(graph)
    assert conn.connected_many(pairs, fault_sets) == [
        conn.connected(s, t, F) for (s, t), F in zip(pairs, fault_sets)
    ]
    dist = DistanceOracle(graph)
    got = dist.distance_many(pairs, fault_sets)
    want = [dist.distance(s, t, F) for (s, t), F in zip(pairs, fault_sets)]
    assert got == want
    # sketch labels agree with the batched ground truth w.h.p.
    scheme = SketchConnectivityScheme(graph, seed=6)
    verdicts = [r.connected for r in scheme.query_many(pairs, fault_sets)]
    assert verdicts == conn.connected_many(pairs, fault_sets)


def test_scenario_batched_queries():
    graph = generators.random_connected_graph(32, extra_edges=40, seed=27)
    from repro.scenarios import FaultScenario

    sc = FaultScenario(graph, f=2, build_router=False)
    e = graph.edge(0)
    sc.fail(e.u, e.v)
    pairs = [(0, v) for v in range(1, 10)]
    assert sc.connected_many(pairs) == [sc.connected(s, t) for s, t in pairs]
    assert sc.distance_many(pairs) == [sc.distance(s, t) for s, t in pairs]
    summary = sc.health_summary([0, 5, 9])
    assert summary["landmark_pairs"] == 3


def test_sketch_id_space_cap_auto_upgrades_past_m31():
    graph = generators.random_connected_graph(16, extra_edges=10, seed=1)
    # at the m31 cap: the legacy family stays selected
    at_cap = SketchConnectivityScheme(graph, seed=1, id_space=MAX_SKETCH_ID_SPACE)
    assert at_cap.hash_family == "m31"
    # past it: no more ValueError — the scheme upgrades to the 2^61 - 1
    # family and keeps answering queries correctly
    wide = SketchConnectivityScheme(graph, seed=1, id_space=MAX_SKETCH_ID_SPACE + 1)
    assert wide.hash_family == "m61"
    conn = ConnectivityOracle(graph)
    pairs = [(0, v) for v in range(1, 8)]
    faults = [0, 1]
    got = [r.connected for r in wide.query_many(pairs, faults)]
    assert got == conn.connected_many(pairs, [faults] * len(pairs))
    # the m61 ceiling is the remaining hard error
    from repro.sketches.sketch import MAX_SKETCH_ID_SPACE_M61

    with pytest.raises(ValueError, match="exceeds the sketch"):
        SketchConnectivityScheme(
            graph, seed=1, id_space=MAX_SKETCH_ID_SPACE_M61 + 1
        )


def test_empty_and_trivial_batches():
    graph = generators.random_connected_graph(20, extra_edges=20, seed=2)
    scheme = SketchConnectivityScheme(graph, seed=2)
    assert scheme.query_many([], []) == []
    res = scheme.query_many([(3, 3), (0, 1)], [])
    assert res[0].connected and res[1].connected
    assert res[0] == scheme.query(3, 3, [])
    assert res[1] == scheme.query(0, 1, [])


def test_query_many_nonpositive_chunk_still_answers_everything():
    graph = generators.random_connected_graph(20, extra_edges=20, seed=2)
    scheme = SketchConnectivityScheme(graph, seed=2)
    pairs = [(0, 1), (2, 3), (4, 5)]
    expected = scheme.query_many(pairs, [])
    assert scheme.query_many(pairs, [], chunk=0) == expected
    assert scheme.query_many(pairs, [], chunk=-3) == expected


def test_rooted_tree_foreign_subtree_falls_back_to_reference():
    from repro.graph.spanning_tree import RootedTree

    g = generators.grid_graph(16, 16)
    base = RootedTree.bfs(g, 0)
    parent = list(base.parent)
    pedge = list(base.parent_edge)
    # Detach an internal vertex: its subtree now chains to a foreign root.
    victim = next(v for v in range(g.n) if parent[v] >= 0 and base.children[v])
    parent[victim] = -1
    pedge[victim] = -1
    fast = RootedTree(g, 0, parent, pedge)
    ref = RootedTree(g, 0, parent, pedge, engine="reference")
    assert fast.vertices == ref.vertices
    assert fast.tree_edge_indices == ref.tree_edge_indices
    assert fast.depth == ref.depth


#: the exact (non-sketch) schemes, built on the path ``grid_graph(1, 8)``
OUT_OF_RANGE_SCHEMES = [
    ("forest", lambda g: ForestConnectivityScheme(g)),
    ("cycle_space", lambda g: CycleSpaceConnectivityScheme(g, 2, seed=3)),
    ("distance", lambda g: DistanceLabelScheme(g, f=2, k=2, seed=3)),
]


@pytest.mark.parametrize("bad", [-1, "m"])
@pytest.mark.parametrize(
    "name,make", OUT_OF_RANGE_SCHEMES, ids=[s[0] for s in OUT_OF_RANGE_SCHEMES]
)
def test_out_of_range_fault_ids_rejected(name, make, bad):
    """An edge id outside 0..m-1 is an error, never a real edge.

    On the path (m = 7) list indexing would wrap -1 onto edge 6, the
    cut between the pair's ends, and id m would raise a bare IndexError
    or, in the distance scheme, go unnoticed.
    """
    g = generators.grid_graph(1, 8)
    scheme = make(g)
    ei = g.m if bad == "m" else bad
    calls = [
        lambda: scheme.query_many([(0, 7)], [ei]),
        lambda: scheme.query_many([(0, 7)], [[ei]]),
        lambda: scheme.query(0, 7, [ei]),
        lambda: scheme.decode_partition([ei]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="out of range"):
            call()
    # the real cut still answers
    assert scheme.query_many([(0, 7)], [g.m - 1])[0] in (False, math.inf)


#: every scheme's query entry points, on ``grid_graph(4, 4)`` (n = 16)
VERTEX_SCHEMES = [
    ("sketch", lambda g: SketchConnectivityScheme(g, seed=3)),
    ("sketch_reference", lambda g: SketchConnectivityScheme(g, seed=3, engine="reference")),
    *OUT_OF_RANGE_SCHEMES[1:],
    ("facade", lambda g: FaultTolerantConnectivity(g, f=2, scheme="cycle_space", seed=3)),
]


@pytest.mark.parametrize("bad", [-1, "n"])
@pytest.mark.parametrize("name,make", VERTEX_SCHEMES, ids=[s[0] for s in VERTEX_SCHEMES])
def test_out_of_range_vertex_ids_rejected(name, make, bad):
    """A vertex id outside 0..n-1 is an error: per-vertex stores would
    answer -1 as vertex n - 1 and raise a bare IndexError for n."""
    g = generators.grid_graph(4, 4)
    scheme = make(g)
    v = g.n if bad == "n" else bad
    calls = [
        lambda: scheme.query_many([(v, 5)], []),
        lambda: scheme.query_many([(0, 5), (5, v)], [[1], [2]]),
    ]
    if hasattr(scheme, "query"):
        calls.append(lambda: scheme.query(v, 5, []))
    if name == "sketch":
        part = scheme.decode_partition([1, 2])
        calls += [lambda: part.answer_many([(v, 5)]), lambda: part.answer(5, v)]
    for call in calls:
        with pytest.raises(ValueError, match="vertex id .* out of range"):
            call()
    # the in-range corner pair still answers: connected, no faults
    ans = scheme.query_many([(0, 15)], [])[0]
    assert ans not in (False, math.inf) and getattr(ans, "connected", True)


def test_out_of_range_vertex_ids_rejected_by_forest_scheme():
    g = generators.random_tree(12, seed=4)
    scheme = ForestConnectivityScheme(g)
    for v in (-1, g.n):
        for call in (
            lambda: scheme.query_many([(v, 3)], []),
            lambda: scheme.query(3, v, []),
        ):
            with pytest.raises(ValueError, match="vertex id .* out of range"):
                call()


#: decode_partition needs the vectorized engine
PARTITION_SCHEMES = [s for s in VERTEX_SCHEMES if s[0] != "sketch_reference"]


@pytest.mark.parametrize(
    "name,make", PARTITION_SCHEMES, ids=[s[0] for s in PARTITION_SCHEMES]
)
def test_out_of_range_vertex_ids_rejected_by_partitions(name, make):
    """The fault-set partitions (what the serving cache answers from)
    refuse out-of-range vertex ids as their schemes do."""
    from repro.serving.partition_cache import PartitionCache

    g = generators.grid_graph(4, 4)
    scheme = make(g)
    part = scheme.decode_partition([1, 2])
    cache = PartitionCache(scheme)
    for v in (-1, g.n):
        for call in (
            lambda: part.answer_many([(v, 5)]),
            lambda: part.answer_many([(5, v)]),
            lambda: cache.query(v, 5, [1, 2]),
            lambda: cache.query_many([(0, 5), (5, v)], [1, 2]),
        ):
            with pytest.raises(ValueError, match="vertex id .* out of range"):
                call()


def test_out_of_range_vertex_ids_rejected_by_forest_partition():
    from repro.serving.partition_cache import PartitionCache

    g = generators.random_tree(12, seed=4)
    scheme = ForestConnectivityScheme(g)
    part = scheme.decode_partition([1])
    for v in (-1, g.n):
        for call in (
            lambda: part.connected(v, 3),
            lambda: part.answer_many([(3, v)]),
            lambda: PartitionCache(scheme).query(v, 3, [1]),
        ):
            with pytest.raises(ValueError, match="vertex id .* out of range"):
                call()
