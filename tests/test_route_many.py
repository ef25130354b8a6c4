"""Packed-vs-seed equivalence for the batched routing engine.

The acceptance bar for ``route_many`` is *bit-identical route traces*:
delivery status, the full hop sequence (including reversals and their
trace retraces), weighted lengths, delivery scales and every telemetry
counter must equal the retained seed engine
(``FaultTolerantRouter(engine="reference")``) — across the generator
families (the high-diameter path and ring adversaries included), both
table modes, shared and per-message fault sets.
"""

from __future__ import annotations

import random

import pytest

from repro.core.api import FaultTolerantRouting
from repro.graph import generators
from repro.graph.graph import Graph
from repro.routing.fault_tolerant import FaultTolerantRouter

FAMILIES = [
    ("random", lambda: generators.random_connected_graph(40, extra_edges=60, seed=21)),
    ("grid", lambda: generators.grid_graph(6, 6)),
    ("ring_of_cliques", lambda: generators.ring_of_cliques(6, 5)),
    (
        "weighted",
        lambda: generators.with_random_weights(
            generators.random_connected_graph(36, extra_edges=50, seed=22), 1, 8, seed=23
        ),
    ),
    # High-diameter adversaries: tree faults force long walks, full
    # reversals and zero-sketch components.
    ("path", lambda: generators.grid_graph(1, 40)),
    ("ring", lambda: generators.torus_graph(3, 12)),
]


def _message_stream(graph, count, max_faults, seed):
    rnd = random.Random(seed)
    pairs, per = [], []
    for _ in range(count):
        s = rnd.randrange(graph.n)
        t = rnd.randrange(graph.n)
        pairs.append((s, t))
        per.append(rnd.sample(range(graph.m), rnd.randint(0, max_faults)))
    return pairs, per


def _assert_identical(packed, reference):
    assert len(packed) == len(reference)
    for p, r in zip(packed, reference):
        assert p.delivered == r.delivered
        assert p.s == r.s and p.t == r.t
        assert p.scale == r.scale
        assert p.length == r.length
        assert p.trace == r.trace
        assert p.telemetry == r.telemetry


@pytest.mark.parametrize("name,make", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_route_many_bit_identical(name, make):
    graph = make()
    router = FaultTolerantRouter(graph, f=2, k=2, seed=7)
    pairs, per = _message_stream(graph, 30, 2, seed=31)
    packed = router.route_many(pairs, per, engine="packed")
    reference = router.route_many(pairs, per, engine="reference")
    _assert_identical(packed, reference)


@pytest.mark.parametrize("mode", ["simple", "balanced"])
def test_both_table_modes_bit_identical(mode):
    graph = generators.random_connected_graph(32, extra_edges=48, seed=5)
    router = FaultTolerantRouter(graph, f=2, k=2, seed=6, table_mode=mode)
    pairs, per = _message_stream(graph, 25, 2, seed=8)
    _assert_identical(
        router.route_many(pairs, per, engine="packed"),
        router.route_many(pairs, per, engine="reference"),
    )


def test_shared_fault_set_batch():
    graph = generators.grid_graph(5, 5)
    router = FaultTolerantRouter(graph, f=2, k=2, seed=9)
    rnd = random.Random(10)
    pairs = [tuple(rnd.sample(range(graph.n), 2)) for _ in range(20)]
    shared = rnd.sample(range(graph.m), 2)
    _assert_identical(
        router.route_many(pairs, shared, engine="packed"),
        router.route_many(pairs, shared, engine="reference"),
    )


def test_s_equals_t_messages():
    graph = generators.grid_graph(4, 4)
    router = FaultTolerantRouter(graph, f=1, k=2, seed=11)
    results = router.route_many([(5, 5), (0, 15)], [])
    assert results[0].delivered and results[0].trace == [5]
    assert results[0].telemetry.hops == 0
    assert results[1].delivered


def test_undeliverable_when_target_cut_off():
    """Failing a leaf's only edge must leave it unreachable — in both
    engines, with identical undelivered telemetry."""
    g = Graph(5)
    for v in range(4):
        g.add_edge(v, v + 1)
    g.add_edge(0, 3)  # extra cycle, leaving 4 a leaf behind (3, 4)
    router = FaultTolerantRouter(g, f=1, k=2, seed=12)
    ei = g.edge_index_between(3, 4)
    _assert_identical(
        router.route_many([(0, 4), (4, 0)], [ei], engine="packed"),
        router.route_many([(0, 4), (4, 0)], [ei], engine="reference"),
    )
    assert not router.route_many([(0, 4)], [ei])[0].delivered


def test_reversal_hops_counter_consistency():
    """The Claim 5.6 reversal charge: reversal hops re-walk the forward
    prefix, identically counted by both engines, zero without
    reversals, and never exceeding the total hop count."""
    g = Graph(6)
    for v in range(5):
        g.add_edge(v, v + 1)
    g.add_edge(0, 5)
    router = FaultTolerantRouter(g, f=1, k=2, seed=13)
    ei = g.edge_index_between(4, 5)
    packed = router.route_many([(0, 5), (0, 4)], [ei], engine="packed")
    reference = router.route_many([(0, 5), (0, 4)], [ei], engine="reference")
    _assert_identical(packed, reference)
    for res in packed:
        tel = res.telemetry
        assert tel.reversal_hops <= tel.hops
        if tel.reversals == 0:
            assert tel.reversal_hops == 0
    blocked = packed[0].telemetry
    if blocked.reversals:
        assert blocked.reversal_hops > 0


def test_partition_caches_warm_across_batches():
    """Retry decodes go through the shared partition caches: a second
    identical batch decodes mostly from cache, with identical results."""
    graph = generators.random_connected_graph(30, extra_edges=40, seed=14)
    router = FaultTolerantRouter(graph, f=2, k=2, seed=15)
    pairs, per = _message_stream(graph, 20, 2, seed=16)
    first = router.route_many(pairs, per)
    stats_after_first = router.packed_engine().cache_stats()
    second = router.route_many(pairs, per)
    stats_after_second = router.packed_engine().cache_stats()
    _assert_identical(first, second)
    new_hits = stats_after_second["hits"] - stats_after_first["hits"]
    new_misses = stats_after_second["misses"] - stats_after_first["misses"]
    assert new_misses == 0  # every decode state was already cached
    assert new_hits > 0


def test_route_scalar_delegates_to_packed_batch():
    graph = generators.grid_graph(4, 4)
    router = FaultTolerantRouter(graph, f=1, k=2, seed=17)
    ei = graph.edge_index_between(5, 6)
    one = router.route(4, 7, [ei])
    batch = router.route_many([(4, 7)], [ei])
    assert one.trace == batch[0].trace
    assert one.telemetry == batch[0].telemetry


def test_reuse_copy_ablation_matches_reference():
    graph = generators.random_connected_graph(26, extra_edges=36, seed=18)
    router = FaultTolerantRouter(graph, f=2, k=2, seed=19, reuse_copy=True)
    pairs, per = _message_stream(graph, 15, 2, seed=20)
    _assert_identical(
        router.route_many(pairs, per, engine="packed"),
        router.route_many(pairs, per, engine="reference"),
    )


def test_routing_facade():
    graph = generators.grid_graph(4, 4)
    routing = FaultTolerantRouting(graph, f=1, k=2, seed=21)
    ei = graph.edge_index_between(5, 6)
    res = routing.route(4, 7, [ei])
    assert res.delivered
    batch = routing.route_many([(4, 7), (0, 15)], [ei])
    assert batch[0].trace == res.trace
    assert routing.max_table_bits() > 0
    assert routing.max_label_bits() > 0
    assert routing.stretch_bound(1) > 1


def test_invalid_engine_rejected():
    graph = generators.grid_graph(3, 3)
    with pytest.raises(ValueError):
        FaultTolerantRouter(graph, f=1, k=2, engine="warp")
    router = FaultTolerantRouter(graph, f=1, k=2)
    with pytest.raises(ValueError):
        router.route_many([(0, 1)], [], engine="warp")


def test_invalid_table_mode_rejected_at_construction():
    graph = generators.grid_graph(3, 3)
    with pytest.raises(ValueError):
        FaultTolerantRouter(graph, f=1, k=2, table_mode="bogus")


def test_out_of_range_fault_ids_match_reference():
    """Edge ids outside 0..m-1 never match a real edge on the reference
    engine's set checks; the packed fault masks must ignore them the
    same way (not wrap negatives onto real edges, not raise)."""
    graph = generators.grid_graph(4, 4)
    router = FaultTolerantRouter(graph, f=2, k=2, seed=22)
    ei = graph.edge_index_between(5, 6)
    weird = [ei, graph.m + 5, -1]
    _assert_identical(
        router.route_many([(4, 7), (0, 15)], weird, engine="packed"),
        router.route_many([(4, 7), (0, 15)], weird, engine="reference"),
    )


@pytest.mark.parametrize("mode", ["simple", "balanced"])
@pytest.mark.parametrize("name,make", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_on_route_faults_bit_identical(name, make, mode):
    """Two faults on each message's own fault-free walk: the first
    attempt retraces that walk, so every message bounces, and most
    learn a second fault on the retry path.  Every third message
    fails the walk's first and last edge."""
    graph = make()
    router = FaultTolerantRouter(graph, f=2, k=2, seed=7, table_mode=mode)
    rnd = random.Random(41)
    pairs = [tuple(rnd.sample(range(graph.n), 2)) for _ in range(24)]
    per = []
    for i, res in enumerate(router.route_many(pairs, [])):
        walk = list(dict.fromkeys(
            graph.edge_index_between(u, v) for u, v in zip(res.trace, res.trace[1:])
        ))
        if i % 3 == 0:
            per.append(list(dict.fromkeys((walk[0], walk[-1]))))
        else:
            per.append(rnd.sample(walk, min(2, len(walk))))
    packed = router.route_many(pairs, per, engine="packed")
    reference = router.route_many(pairs, per, engine="reference")
    _assert_identical(packed, reference)
    assert all(r.telemetry.reversals >= 1 for r in reference)


@pytest.mark.parametrize("bad", [-1, 16])
@pytest.mark.parametrize("engine", ["packed", "reference"])
def test_out_of_range_vertex_ids_rejected(engine, bad):
    """Both engines refuse a vertex id outside 0..n-1 with the same
    ValueError, before routing anything (the packed engine used to
    answer undelivered and the reference engine to route -1 as 15)."""
    graph = generators.grid_graph(4, 4)
    router = FaultTolerantRouter(graph, f=2, k=2, seed=22, engine=engine)
    for call in (
        lambda: router.route_many([(0, 5), (bad, 5)], []),
        lambda: router.route_many([(5, bad)], [], engine="reference"),
        lambda: router.route(bad, 5, []),
    ):
        with pytest.raises(ValueError, match="vertex id .* out of range"):
            call()
    assert router.route(15, 5, []).delivered
