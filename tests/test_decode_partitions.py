"""Batched partition decodes: ``decode_partitions``, the cache's
``partitions`` and the routing rounds that feed them.

A fault set's partition is a pure function of the fault list (and the
sketch copy), so decoding many lists in one call must give exactly what
one call per list gives: the same fault order, the same Boruvka merges
(raw EIDs and component pairs), the same phase counts and the same
answers with paths.  The cache must count and order its LRU exactly as
the same sequence of single lookups would, and ``route_many`` must
resolve one round's decodes in one call per (instance, copy).
"""

from __future__ import annotations

import random

import pytest

from repro.core.sketch_scheme import SketchConnectivityScheme
from repro.graph import generators
from repro.graph.graph import Graph
from repro.routing.fault_tolerant import FaultTolerantRouter
from repro.serving.partition_cache import PartitionCache

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
    ("path", lambda: generators.grid_graph(1, 96)),
]


def _two_components() -> Graph:
    """Two disjoint random graphs on vertices 0..39 and 40..79."""
    g = Graph(80)
    for shift, seed in ((0, 3), (40, 4)):
        part = generators.random_connected_graph(40, extra_edges=50, seed=seed)
        for e in part.edges:
            g.add_edge(e.u + shift, e.v + shift)
    return g


def _summary(part) -> tuple:
    """Everything a sketch partition carries, in comparable form."""
    comps = []
    for c in sorted(part.entries):
        _forest, uf, merges, phases = part.entries[c]
        comps.append(
            (c, phases, uf.set_count, tuple((d.raw, cu, cv) for d, cu, cv in merges))
        )
    return part.faults, part.copy, tuple(comps)


def _fault_lists(graph, scheme, count, seed):
    rnd = random.Random(seed)
    tree = [ei for ei in range(graph.m) if scheme._packed_store().is_tree[ei]]
    non_tree = [ei for ei in range(graph.m) if ei not in set(tree)]
    lists = [rnd.sample(range(graph.m), rnd.randint(1, 6)) for _ in range(count)]
    lists.append([])  # empty
    if non_tree:
        lists.append(rnd.sample(non_tree, min(3, len(non_tree))))  # no tree fault
    lists.append(lists[0])  # a duplicate list in the same call
    lists.append(list(reversed(lists[1])) + lists[1])  # repeats, other order
    return lists


def _assert_same(batched, looped, scheme, pairs):
    assert len(batched) == len(looped)
    for a, b in zip(batched, looped):
        assert _summary(a) == _summary(b)
        assert a.answer_many(pairs, want_path=True) == b.answer_many(
            pairs, want_path=True
        )


@pytest.mark.parametrize("name,make", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_decode_partitions_equals_looped_decode_partition(name, make):
    graph = make()
    scheme = SketchConnectivityScheme(graph, seed=5, copies=2)
    rnd = random.Random(9)
    pairs = [tuple(rnd.sample(range(graph.n), 2)) for _ in range(25)]
    for copy in (0, 1):
        lists = _fault_lists(graph, scheme, 30, seed=31 + copy)
        batched = scheme.decode_partitions(lists, copy=copy)
        looped = [scheme.decode_partition(F, copy=copy) for F in lists]
        _assert_same(batched, looped, scheme, pairs)
        # and both equal the per-query decoder with the same fault order
        for part, F in zip(batched, lists):
            assert part.answer_many(pairs) == scheme.query_many(
                pairs, list(part.faults), copy=copy
            )


def test_decode_partitions_across_graph_components():
    graph = _two_components()
    scheme = SketchConnectivityScheme(graph, seed=7)
    st = scheme._packed_store()
    rnd = random.Random(3)
    left = [ei for ei in range(graph.m) if st.comp_e[ei] == st.comp_e[0]]
    right = [ei for ei in range(graph.m) if st.comp_e[ei] != st.comp_e[0]]
    cut = [next(ei for ei in side if st.is_tree[ei]) for side in (left, right)]
    lists = [
        rnd.sample(left, 3) + [cut[0]] + rnd.sample(right, 3) + [cut[1]],
        rnd.sample(right, 4),
        rnd.sample(left, 2) + [cut[0]],
    ]
    pairs = [(0, 39), (40, 79), (5, 60), (12, 33), (41, 70)]
    batched = scheme.decode_partitions(lists)
    assert len(batched[0].entries) == 2  # one task per touched component
    _assert_same(batched, [scheme.decode_partition(F) for F in lists], scheme, pairs)


def test_decode_partitions_empty_call_and_bad_ids(monkeypatch):
    graph = generators.grid_graph(6, 6)
    scheme = SketchConnectivityScheme(graph, seed=2)
    assert scheme.decode_partitions([]) == []
    calls = []
    real = scheme._partition_batch
    monkeypatch.setattr(
        scheme, "_partition_batch", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    for bad in (-1, graph.m):
        with pytest.raises(ValueError, match="out of range"):
            scheme.decode_partitions([[0, 1], [2, bad], [3]])
    assert calls == []  # nothing was decoded before the error
    scheme.decode_partitions([[0, 1], [2]])
    assert calls == [1]  # one engine run for the whole call


# ----------------------------------------------------------------------
# PartitionCache.partitions
# ----------------------------------------------------------------------
class _Recording:
    """A scheme wrapper that records every ``decode_partitions`` call."""

    def __init__(self, scheme):
        self.scheme = scheme
        self.calls: list[list[list[int]]] = []

    def decode_partitions(self, fault_lists):
        fault_lists = [list(F) for F in fault_lists]
        self.calls.append(fault_lists)
        return self.scheme.decode_partitions(fault_lists)


def _state(cache):
    st = cache.stats
    return list(cache._lru), (st.hits, st.misses, st.evictions)


@pytest.mark.parametrize("canonicalize", [True, False])
@pytest.mark.parametrize("capacity", [2, 3, 64])
def test_partitions_counts_like_sequential_partition(canonicalize, capacity):
    graph = generators.random_connected_graph(40, extra_edges=50, seed=4)
    scheme = SketchConnectivityScheme(graph, seed=2)
    one = PartitionCache(scheme, capacity=capacity, canonicalize=canonicalize)
    many = PartitionCache(
        _Recording(scheme), capacity=capacity, canonicalize=canonicalize
    )
    A, B, C, D = [0, 5], [1], [2, 9], [3]
    calls = [
        [A, B],
        [A, C, A, [5, 0], D, B],  # repeats; [5, 0] is A canonically only
        [D, D, C],
        [B, A, C, D, A],  # more misses than a small capacity holds
    ]
    recorded = many.scheme.calls
    for call in calls:
        misses_before = one.stats.misses
        decodes_before = len(recorded)
        seq = [one.partition(F) for F in call]
        got = many.partitions(call)
        assert _state(many) == _state(one)
        assert [_summary(p) for p in got] == [_summary(p) for p in seq]
        # a key repeated within the call shares its object, as a
        # sequential hit would
        for i in range(len(call)):
            for j in range(i):
                if (seq[i] is seq[j]) and got[i] is not got[j]:
                    pytest.fail(f"call {call}: items {j} and {i} differ")
        # the call's misses were decoded in at most one call, each
        # distinct key once
        misses = one.stats.misses - misses_before
        assert len(recorded) - decodes_before == (1 if misses else 0)
        if misses:
            keys = [tuple(F) for F in recorded[-1]]
            assert len(keys) == len(set(keys)) <= misses


def test_partitions_failed_decode_leaves_no_placeholder():
    graph = generators.grid_graph(5, 5)
    scheme = SketchConnectivityScheme(graph, seed=2)
    cache = PartitionCache(scheme, capacity=8)
    cache.partition([1])
    with pytest.raises(ValueError, match="out of range"):
        cache.partitions([[2], [1], [graph.m + 3]])
    assert list(cache._lru) == [(1,)]
    assert cache.partition([2]).faults == (2,)


def test_looped_scheme_gets_one_adapter():
    """A scheme with only ``decode_partition`` is looped by the cache."""

    class Single:
        def __init__(self, scheme):
            self.scheme = scheme
            self.calls = 0

        def decode_partition(self, faults):
            self.calls += 1
            return self.scheme.decode_partition(faults)

    graph = generators.grid_graph(5, 5)
    single = Single(SketchConnectivityScheme(graph, seed=2))
    cache = PartitionCache(single)
    parts = cache.partitions([[1], [2], [1]])
    assert single.calls == 2 and parts[0] is parts[2]
    assert cache.stats.misses == 2 and cache.stats.hits == 1


# ----------------------------------------------------------------------
# route_many: one decode call per (instance, copy) per round
# ----------------------------------------------------------------------
def test_route_round_decodes_once_per_instance_copy(monkeypatch):
    graph = generators.grid_graph(6, 6)
    router = FaultTolerantRouter(graph, f=2, k=2, seed=7)
    s, t = 0, 35
    walk = router.route_many([(s, t)], [])[0].trace
    edges = list(
        dict.fromkeys(graph.edge_index_between(u, v) for u, v in zip(walk, walk[1:]))
    )
    e1, e2 = edges[1], edges[-2]
    # A and C are the same message: their learned fault key is shared
    pairs = [(s, t)] * 3
    per = [[e1], [e2], [e1]]

    fresh = FaultTolerantRouter(graph, f=2, k=2, seed=7)
    calls: list[tuple[int, list]] = []
    real = SketchConnectivityScheme.decode_partitions

    def recording(self, fault_lists, copy=0):
        fault_lists = [list(F) for F in fault_lists]
        calls.append((copy, fault_lists))
        return real(self, fault_lists, copy=copy)

    monkeypatch.setattr(SketchConnectivityScheme, "decode_partitions", recording)
    packed = fresh.route_many(pairs, per)
    monkeypatch.undo()
    reference = fresh.route_many(pairs, per, engine="reference")
    for p, r in zip(packed, reference):
        assert (p.delivered, p.trace, p.telemetry) == (r.delivered, r.trace, r.telemetry)
    assert all(r.telemetry.reversals >= 1 for r in packed)
    # round 1: three messages, one instance and copy, one shared key
    assert calls[0] == (0, [[]])
    # round 2: every message bounced; A and C learned the same fault
    copy, lists = calls[1]
    assert copy == 1 and len(lists) == 2 and len(lists[0]) == len(lists[1]) == 1
    assert lists[0] != lists[1]
