"""Partition views answer byte-identically to the decoder.

The serving tier answers a fault set it has decoded before from the
partition's numpy-free view (:mod:`repro.serving.views`): shard workers
write their misses through it, and the front door writes its hits.
Every item it writes must equal ``write_sk_results`` of the partition's
own ``answer_many`` — verdicts, phase counts and Lemma 3.17 paths —
over the query families, fault sets of 0 to 6 edges, both
``want_path`` values, ``s == t``, components without tree faults,
non-identity ids with routing labels, and chains of several recovery
edges; and a view must survive a pickle round trip.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sketch_scheme import SketchConnectivityScheme
from repro.graph import generators
from repro.graph.graph import Graph
from repro.routing.fault_tolerant import FaultTolerantRouter
from repro.server.protocol import write_sk_results
from repro.serving import PartitionCache, canonical_fault_key
from repro.serving.views import ViewCache, answer_by_view, write_items


def _two_components() -> Graph:
    """Two disjoint random graphs: a fault set leaves one of them intact."""
    g = Graph(60)
    for shift, seed in ((0, 3), (30, 4)):
        part = generators.random_connected_graph(30, extra_edges=40, seed=seed)
        for e in part.edges:
            g.add_edge(e.u + shift, e.v + shift)
    return g


def _router_instance():
    """A router's largest instance scheme: routing labels, non-identity ids."""
    graph = generators.random_connected_graph(48, extra_edges=70, seed=21)
    router = FaultTolerantRouter(graph, f=2, k=2, seed=7)
    inst = max(router.scheme.instances.values(), key=lambda i: i.scheme.graph.n)
    return inst.scheme


FAMILIES = {
    "random": lambda: SketchConnectivityScheme(
        generators.random_connected_graph(72, extra_edges=100, seed=21), seed=5
    ),
    "grid": lambda: SketchConnectivityScheme(generators.grid_graph(8, 8), seed=5),
    "ring_of_cliques": lambda: SketchConnectivityScheme(
        generators.ring_of_cliques(8, 5), seed=5
    ),
    "weighted": lambda: SketchConnectivityScheme(
        generators.with_random_weights(
            generators.random_connected_graph(64, extra_edges=90, seed=22), 1, 8, seed=23
        ),
        seed=5,
    ),
    "path": lambda: SketchConnectivityScheme(generators.grid_graph(1, 96), seed=5),
    "two_components": lambda: SketchConnectivityScheme(_two_components(), seed=5),
    "router_instance": _router_instance,
}

_BUILT: dict = {}


def _scheme(name: str):
    if name not in _BUILT:
        scheme = FAMILIES[name]()
        tree = [ei for ei, t in enumerate(scheme._packed_store().is_tree) if t]
        _BUILT[name] = (scheme, tree)
    return _BUILT[name]


def _reference(scheme, faults, pairs, want_path):
    part = scheme.decode_partition(list(canonical_fault_key(faults)))
    return part, write_sk_results(part.answer_many(pairs, want_path=want_path))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_view_items_equal_the_decoder_reference(data):
    scheme, tree = _scheme(data.draw(st.sampled_from(sorted(FAMILIES))))
    n, m = scheme.graph.n, scheme.graph.m
    f = data.draw(st.integers(0, 6))
    # tree edges split T, so half the draws take faults from them alone
    pool = data.draw(st.sampled_from([range(m), tree]))
    faults = data.draw(st.lists(st.sampled_from(pool), min_size=f, max_size=f))
    vertex = st.integers(0, n - 1)
    pairs = data.draw(
        st.lists(
            st.one_of(st.tuples(vertex, vertex), vertex.map(lambda v: (v, v))),
            min_size=1,
            max_size=8,
        )
    )
    want_path = data.draw(st.booleans())
    part, expected = _reference(scheme, faults, pairs, want_path)
    view = part.view()
    restored = pickle.loads(pickle.dumps(view, pickle.HIGHEST_PROTOCOL))
    assert restored == view
    assert write_items(scheme.view_columns(), restored, pairs, want_path) == expected


@pytest.mark.parametrize("name", ["random", "ring_of_cliques", "router_instance"])
def test_chains_of_several_recovery_edges(name):
    """Fault sets whose paths cross two or more recovery edges exist in
    these families, and their items match too."""
    scheme, tree = _scheme(name)
    rnd = random.Random(11)
    n = scheme.graph.n
    pairs = [tuple(rnd.sample(range(n), 2)) for _ in range(24)]
    longest = 0
    for _ in range(60):
        faults = rnd.sample(tree, min(len(tree), rnd.randint(3, 6)))
        part, expected = _reference(scheme, faults, pairs, True)
        for a in part.answer_many(pairs, want_path=True):
            if a.path is not None:
                edges = sum(seg.kind == "edge" for seg in a.path.segments)
                longest = max(longest, edges)
        assert write_items(scheme.view_columns(), part.view(), pairs, True) == expected
    assert longest >= 2


def test_answer_by_view_counts_like_the_cache_and_ships_columns_on_request():
    scheme, _ = _scheme("random")
    cache = PartitionCache(scheme, capacity=4)
    pairs = [(0, 5), (7, 7), (3, 60)]
    faults = [9, 2, 40, 2]
    items, view, cols = answer_by_view(cache, pairs, faults, want_path=True)
    assert cols is None and cache.stats.misses == 1
    assert items == write_sk_results(cache.query_many(pairs, faults))
    assert cache.stats.hits == 1  # the reference lookup above
    again, _, cols = answer_by_view(cache, pairs, faults, columns=True)
    assert again == items and cols is scheme.view_columns()
    assert view == cache.partition(faults).view()


def test_vertex_ids_are_checked():
    scheme, _ = _scheme("grid")
    view = scheme.decode_partition([0]).view()
    for bad in ([(0, 64)], [(-1, 3)]):
        with pytest.raises(ValueError, match="out of range"):
            write_items(scheme.view_columns(), view, bad)


def test_view_cache_unpickles_on_first_hit_and_evicts_the_least_recent():
    scheme, _ = _scheme("random")
    views = {k: scheme.decode_partition([k, k + 1]).view() for k in range(3)}
    cache = ViewCache(2)
    cache.put((0, 1), pickle.dumps(views[0]))
    assert len(cache) == 0 and cache.get((0, 1)) is None  # no columns yet
    cache.put((0, 1), pickle.dumps(views[0]), pickle.dumps(scheme.view_columns()))
    assert cache.columns == scheme.view_columns()
    cache.put((1, 2), views[1])
    assert type(cache._lru[(0, 1)]) is bytes
    assert cache.get((0, 1)) == views[0]
    assert type(cache._lru[(0, 1)]) is dict  # kept unpickled
    cache.put((2, 3), views[2])  # (1, 2) is the least recent now
    assert cache.get((1, 2)) is None and len(cache) == 2
    assert cache.get((0, 1)) == views[0] and cache.get((2, 3)) == views[2]
