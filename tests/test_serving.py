"""Serving-layer correctness: caches, coalescers and shards.

The acceptance bar mirrors the batched-engine one: everything the
serving layer answers must be **bit-identical** to the cold decode path
— for the sketch scheme including succinct paths and phase counts —
across the five generator families; on top of that, the layer's own
mechanics (LRU eviction, chunk boundaries, dispatch ordering, process
fan-out) must never reorder or drop an answer.
"""

from __future__ import annotations

import asyncio
import random
from collections import Counter

import pytest

from repro.core.api import FaultTolerantConnectivity, FaultTolerantDistance
from repro.core.cycle_space_scheme import CycleSpaceConnectivityScheme
from repro.core.distance_labels import DistanceLabelScheme
from repro.core.forest_scheme import ForestConnectivityScheme
from repro.core.sketch_scheme import SketchConnectivityScheme
from repro.graph import generators
from repro.oracles import ConnectivityOracle
from repro.serving import (
    AsyncQueryCoalescer,
    PartitionCache,
    ShardedQueryService,
    canonical_fault_key,
)

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


def _repeated_fault_stream(graph, count, num_sets, max_faults, seed):
    """A round-robin (s, t, F) stream over a small pool of fault sets —
    the workload shape the partition cache exists for.  Fault lists are
    canonical (sorted, deduplicated) so cold and cached paths see the
    same presentation order."""
    rnd = random.Random(seed)
    pool = [
        sorted(set(rnd.sample(range(graph.m), rnd.randint(1, max_faults))))
        for _ in range(num_sets)
    ]
    pairs, per = [], []
    for i in range(count):
        pairs.append(tuple(rnd.sample(range(graph.n), 2)))
        per.append(list(pool[i % num_sets]))
    return pairs, per


# ----------------------------------------------------------------------
# Partition cache: bit-identical answers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,make", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_cache_bit_identical_to_cold_decode_sketch(name, make):
    graph = make()
    scheme = SketchConnectivityScheme(graph, seed=5)
    pairs, per = _repeated_fault_stream(graph, 60, 6, 6, seed=31)
    cold = scheme.query_many(pairs, per)  # paths + phase counts included
    cache = PartitionCache(scheme, capacity=8)
    assert cache.query_many(pairs, per) == cold
    assert cache.stats.misses == 6
    # Second pass: all partitions come from the LRU, answers unchanged.
    assert cache.query_many(pairs, per) == cold
    assert cache.stats.misses == 6
    assert cache.stats.hits >= 6


def test_cache_verdicts_for_any_fault_order():
    graph = generators.random_connected_graph(60, extra_edges=80, seed=9)
    scheme = SketchConnectivityScheme(graph, seed=3)
    cache = PartitionCache(scheme, capacity=4)
    rnd = random.Random(7)
    F = rnd.sample(range(graph.m), 6)
    pairs = [tuple(rnd.sample(range(graph.n), 2)) for _ in range(30)]
    cold = scheme.query_many(pairs, F, want_path=False)
    shuffled = list(F)
    rnd.shuffle(shuffled)
    served = cache.query_many(pairs, shuffled + shuffled, want_path=False)
    assert [r.connected for r in served] == [r.connected for r in cold]
    # permutations and duplicates share one canonical entry
    assert canonical_fault_key(shuffled + shuffled) == canonical_fault_key(F)
    assert len(cache) == 1


def test_cache_forest_scheme_exact():
    graph = generators.random_tree(80, seed=6)
    scheme = ForestConnectivityScheme(graph)
    oracle = ConnectivityOracle(graph)
    pairs, per = _repeated_fault_stream(graph, 50, 5, 4, seed=8)
    cache = PartitionCache(scheme)
    got = cache.query_many(pairs, per)
    assert got == scheme.query_many(pairs, per)
    assert got == [
        oracle.connected(s, t, F) for (s, t), F in zip(pairs, per)
    ]


def test_cache_cycle_space_scheme():
    graph = generators.random_connected_graph(72, extra_edges=100, seed=21)
    scheme = CycleSpaceConnectivityScheme(graph, f=4, seed=5)
    pairs, per = _repeated_fault_stream(graph, 50, 5, 4, seed=41)
    cache = PartitionCache(scheme)
    assert cache.query_many(pairs, per) == scheme.query_many(pairs, per)


@pytest.mark.parametrize("base", ["cycle_space", "sketch"])
def test_cache_distance_scheme(base):
    graph = generators.with_random_weights(
        generators.random_connected_graph(48, extra_edges=70, seed=12), 1, 6, seed=13
    )
    scheme = DistanceLabelScheme(graph, f=2, k=2, seed=3, base_scheme=base)
    pairs, per = _repeated_fault_stream(graph, 40, 4, 2, seed=14)
    cache = PartitionCache(scheme)
    assert cache.query_many(pairs, per) == scheme.query_many(pairs, per)
    assert cache.stats.hits == 0 and cache.stats.misses == 4


def test_cache_facades():
    graph = generators.random_connected_graph(56, extra_edges=80, seed=19)
    pairs, per = _repeated_fault_stream(graph, 30, 3, 3, seed=20)
    for scheme_name in ("cycle_space", "sketch"):
        conn = FaultTolerantConnectivity(graph, f=3, scheme=scheme_name, seed=2)
        cache = PartitionCache(conn)
        assert cache.query_many(pairs, per) == conn.query_many(pairs, per)
    dist = FaultTolerantDistance(graph, f=2, k=2, seed=2)
    per2 = [F[:2] for F in per]
    cache = PartitionCache(dist)
    assert cache.query_many(pairs, per2) == dist.query_many(pairs, per2)


def test_cache_lru_eviction():
    graph = generators.random_connected_graph(40, extra_edges=50, seed=4)
    scheme = SketchConnectivityScheme(graph, seed=2)
    cache = PartitionCache(scheme, capacity=2)
    A, B, C = [0], [1], [2]
    cache.partition(A)
    cache.partition(B)
    assert cache.stats.misses == 2 and len(cache) == 2
    part_a = cache.partition(A)  # refreshes A in LRU order
    assert cache.stats.hits == 1
    cache.partition(C)  # evicts B (least recent), not A
    assert cache.stats.evictions == 1
    assert A in cache and C in cache and B not in cache
    assert cache.partition(A) is part_a  # A survived the eviction
    cache.partition(B)  # miss again: B was evicted
    assert cache.stats.misses == 4
    assert len(cache) == 2
    cache.clear()
    assert len(cache) == 0 and cache.stats.misses == 4


def test_cache_rejects_unsupported_backends():
    with pytest.raises(TypeError):
        PartitionCache(object())
    graph = generators.random_connected_graph(20, extra_edges=20, seed=2)
    with pytest.raises(ValueError):
        PartitionCache(SketchConnectivityScheme(graph, seed=1), capacity=0)


# ----------------------------------------------------------------------
# Coalescer
# ----------------------------------------------------------------------
def test_local_service_orders_and_bounds_chunks():
    graph = generators.random_connected_graph(64, extra_edges=90, seed=17)
    scheme = SketchConnectivityScheme(graph, seed=5)
    pairs, per = _repeated_fault_stream(graph, 90, 4, 4, seed=23)
    cold = scheme.query_many(pairs, per)
    with ShardedQueryService(scheme, num_shards=0, max_chunk=7) as svc:
        # answers come back in request order despite per-fault-set chunks
        assert svc.query_many(pairs, per) == cold
        stats = svc.stats()
    # every fault set is cut into ceil(n_k / 7) chunks, none over 7
    per_key = Counter(canonical_fault_key(F) for F in per)
    assert stats.chunks == sum(-(-n // 7) for n in per_key.values())
    assert stats.max_chunk_seen == 7
    assert stats.queries == 90


def test_async_coalescer_size_and_timer_paths():
    graph = generators.random_connected_graph(64, extra_edges=90, seed=17)
    scheme = SketchConnectivityScheme(graph, seed=5)
    pairs, per = _repeated_fault_stream(graph, 40, 3, 4, seed=29)
    cold = scheme.query_many(pairs, per)

    async def drive():
        async def backend(chunk_pairs, faults):
            return scheme.query_many(chunk_pairs, faults)

        ac = AsyncQueryCoalescer(backend, max_chunk=8, max_delay=0.001)
        results = await asyncio.gather(
            *[ac.query(s, t, F) for (s, t), F in zip(pairs, per)]
        )
        assert ac.pending == 0  # gather resolved => everything dispatched
        await ac.aclose()
        return list(results)

    assert asyncio.run(drive()) == cold


def test_async_coalescer_propagates_backend_errors():
    async def drive():
        ac = AsyncQueryCoalescer(_boom, max_chunk=1)
        with pytest.raises(RuntimeError, match="backend down"):
            await ac.query(0, 1, [])
        await ac.aclose()

    async def _boom(pairs, faults):
        raise RuntimeError("backend down")

    asyncio.run(drive())


def test_async_coalescer_rejects_sync_backends():
    with pytest.raises(TypeError, match="coroutine function"):
        AsyncQueryCoalescer(lambda pairs, faults: [])


# Regression: a waiter cancelled while its group is still pending (a
# client that disconnected between submit and dispatch) must be
# *scrubbed* from the group.  The original implementation left the
# cancelled future in the ticket list, so the backend's answers were
# zipped against a stale ticket list — every later waiter in the group
# got the wrong answer (or none), and a fully-cancelled group still hit
# the backend with pairs nobody wanted.
def test_async_coalescer_cancelled_waiter_is_scrubbed_before_dispatch():
    seen_chunks = []

    async def backend(pairs, faults):
        seen_chunks.append(list(pairs))
        return [(s, t, tuple(faults)) for s, t in pairs]

    async def drive():
        ac = AsyncQueryCoalescer(backend, max_chunk=64, max_delay=0.005)
        waiters = [
            asyncio.ensure_future(ac.query(s, s + 1, [7])) for s in range(6)
        ]
        await asyncio.sleep(0)  # all six buffered into one pending group
        assert ac.pending == 6
        for victim in (waiters[0], waiters[3]):  # head and middle
            victim.cancel()
        survivors = await asyncio.gather(*waiters, return_exceptions=True)
        await ac.aclose()
        return survivors

    results = asyncio.run(drive())
    # the cancelled futures stay cancelled ...
    assert isinstance(results[0], asyncio.CancelledError)
    assert isinstance(results[3], asyncio.CancelledError)
    # ... the survivors all got *their own* answers (alignment intact
    # even though earlier indices were removed) ...
    for s in (1, 2, 4, 5):
        assert results[s] == (s, s + 1, (7,))
    # ... and the backend never saw the scrubbed pairs
    assert seen_chunks == [[(1, 2), (2, 3), (4, 5), (5, 6)]]


def test_async_coalescer_fully_cancelled_group_never_hits_backend():
    calls = []

    async def backend(pairs, faults):
        calls.append(list(pairs))
        return [True for _ in pairs]

    async def drive():
        ac = AsyncQueryCoalescer(backend, max_chunk=64, max_delay=0.002)
        waiters = [
            asyncio.ensure_future(ac.query(s, s + 1, [3])) for s in range(4)
        ]
        await asyncio.sleep(0)
        for waiter in waiters:
            waiter.cancel()
        await asyncio.gather(*waiters, return_exceptions=True)
        # the emptied group is gone (timer cancelled, nothing pending)
        assert ac.pending == 0
        # the group key is not poisoned: the same fault set still works
        await asyncio.sleep(0.01)  # outlive the (cancelled) flush timer
        assert await ac.query(0, 1, [3]) is True
        await ac.aclose()

    asyncio.run(drive())
    assert calls == [[(0, 1)]]  # only the post-cancel query dispatched


def test_async_coalescer_cancel_after_dispatch_leaves_chunk_intact():
    """A waiter cancelled *after* its chunk went to an async backend
    just drops its answer; the rest of the chunk is served normally."""
    release = None

    async def backend(pairs, faults):
        await release.wait()  # hold the dispatch so we can cancel mid-flight
        return [s * 100 + t for s, t in pairs]

    async def drive():
        nonlocal release
        release = asyncio.Event()
        ac = AsyncQueryCoalescer(backend, max_chunk=3, max_delay=60.0)
        waiters = [
            asyncio.ensure_future(ac.query(s, s + 1, [])) for s in range(3)
        ]
        await asyncio.sleep(0)  # size trigger dispatched the chunk
        assert ac.pending == 0
        waiters[1].cancel()
        release.set()
        results = await asyncio.gather(*waiters, return_exceptions=True)
        await ac.aclose()
        return results

    results = asyncio.run(drive())
    assert results[0] == 1
    assert isinstance(results[1], asyncio.CancelledError)
    assert results[2] == 203


# ----------------------------------------------------------------------
# Shards
# ----------------------------------------------------------------------
def test_sharded_service_equals_single_process():
    graph = generators.random_connected_graph(72, extra_edges=100, seed=21)
    scheme = SketchConnectivityScheme(graph, seed=5)
    pairs, per = _repeated_fault_stream(graph, 80, 6, 5, seed=37)
    cold = scheme.query_many(pairs, per)  # succinct paths included
    with ShardedQueryService(scheme, num_shards=2, max_chunk=16) as svc:
        assert svc.mode == "fork"
        assert svc.query_many(pairs, per) == cold
        stats = svc.stats()
        assert stats.queries == 80
        assert sum(stats.per_shard) == 80
        assert stats.chunks >= 6
        assert stats.max_chunk_seen <= 16
        # every shard's cache decoded each of its fault sets exactly once
        assert stats.cache_misses == 6
        # second identical batch: all partition lookups hit
        assert svc.query_many(pairs, per) == cold
        stats = svc.stats()
        assert stats.cache_misses == 6 and stats.cache_hits >= 6


def test_sharded_service_local_fallback_mode():
    graph = generators.random_connected_graph(48, extra_edges=60, seed=11)
    scheme = SketchConnectivityScheme(graph, seed=4)
    pairs, per = _repeated_fault_stream(graph, 40, 4, 4, seed=13)
    cold = scheme.query_many(pairs, per)
    with ShardedQueryService(scheme, num_shards=0) as svc:
        assert svc.mode == "local"
        assert svc.query_many(pairs, per) == cold
        assert svc.stats().queries == 40


def test_sharded_service_distance_scheme():
    graph = generators.with_random_weights(
        generators.random_connected_graph(40, extra_edges=55, seed=15), 1, 6, seed=16
    )
    scheme = DistanceLabelScheme(graph, f=2, k=2, seed=4)
    pairs, per = _repeated_fault_stream(graph, 30, 3, 2, seed=17)
    cold = scheme.query_many(pairs, per)
    with ShardedQueryService(scheme, num_shards=2) as svc:
        assert svc.query_many(pairs, per) == cold


def test_sharded_service_accepts_facades():
    graph = generators.random_connected_graph(40, extra_edges=55, seed=15)
    dist = FaultTolerantDistance(graph, f=2, k=2, seed=4)
    pairs, per = _repeated_fault_stream(graph, 20, 2, 2, seed=18)
    cold = dist.query_many(pairs, per)
    with ShardedQueryService(dist, num_shards=2) as svc:
        # the facade hides its instances behind .impl; the pre-fork
        # warm-up must still reach them (workers inherit built stores)
        assert dist.impl.instances  # sanity: there is something to warm
        assert svc.query_many(pairs, per) == cold


def test_facade_budget_counts_distinct_faults_consistently():
    graph = generators.random_connected_graph(24, extra_edges=30, seed=3)
    conn = FaultTolerantConnectivity(graph, f=2, scheme="cycle_space", seed=1)
    # duplicates are not new faults: both entry points accept them ...
    dup = [0, 0, 1]
    assert conn.query_many([(0, 1)], [dup]) == [
        conn.decode_partition(dup).connected(0, 1)
    ]
    # ... and both reject three distinct faults the same way
    with pytest.raises(ValueError):
        conn.query_many([(0, 1)], [[0, 1, 2]])
    with pytest.raises(ValueError):
        conn.decode_partition([0, 1, 2])


# ----------------------------------------------------------------------
# Scenario + CLI integration
# ----------------------------------------------------------------------
def test_scenario_queries_are_cache_served():
    from repro.scenarios import FaultScenario

    graph = generators.random_connected_graph(32, extra_edges=40, seed=27)
    sc = FaultScenario(graph, f=2, build_router=False)
    e = graph.edge(0)
    sc.fail(e.u, e.v)
    pairs = [(0, v) for v in range(1, 10)]
    direct = sc._conn.query_many(pairs, sc.active_faults)
    assert sc.connected_many(pairs) == direct
    first = sc.health_summary([0, 5, 9])
    second = sc.health_summary([0, 5, 9])
    # same fault set, same landmarks: the second sweep is a pure hit
    assert second["reachable_pairs"] == first["reachable_pairs"]
    cache = second["partition_cache"]
    assert cache["hits"] > first["partition_cache"]["hits"]
    assert cache["misses"] == first["partition_cache"]["misses"]
    # repairing changes the fault state: next query decodes a new set
    sc.repair(e.u, e.v)
    sc.connected(0, 5)
    assert sc.health_summary([0, 5, 9])["partition_cache"]["misses"] > cache["misses"]


def test_cli_serve_bench(capsys):
    from repro.cli import main

    code = main(
        ["serve-bench", "--n", "48", "--queries", "200", "--fault-sets", "4",
         "--chunk", "16"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "cold query_many" in out
    assert "coalesced + cached" in out


# ----------------------------------------------------------------------
# Hot-fault-set replication, and the presentation-order cache mode the
# packed routing engine's retry decodes depend on.
# ----------------------------------------------------------------------
def test_presentation_key_cache_preserves_fault_order():
    from repro.serving import presentation_fault_key

    assert presentation_fault_key([7, 3, 7, 1]) == (7, 3, 1)
    graph = generators.random_connected_graph(40, extra_edges=60, seed=61)
    scheme = SketchConnectivityScheme(graph, seed=62)
    rnd = random.Random(63)
    faults = rnd.sample(range(graph.m), 3)
    shuffled = faults[::-1]
    cache = PartitionCache(scheme, canonicalize=False)
    pairs = [tuple(rnd.sample(range(graph.n), 2)) for _ in range(20)]
    # Answers (paths included) equal decoding the faults as presented.
    for F in (faults, shuffled):
        served = cache.query_many(pairs, list(F))
        direct = scheme.query_many(pairs, list(F))
        for a, b in zip(served, direct):
            assert a.connected == b.connected
            assert a.path == b.path
            assert a.phases_used == b.phases_used
    # The two orders are distinct entries (no canonical sharing) ...
    assert len(cache) == 2
    # ... while the canonicalizing cache shares one.
    canon = PartitionCache(scheme, canonicalize=True)
    canon.query_many(pairs, list(faults))
    canon.query_many(pairs, list(shuffled))
    assert len(canon) == 1


def test_hot_fault_set_replicates_across_shards():
    graph = generators.random_connected_graph(48, extra_edges=70, seed=66)
    scheme = SketchConnectivityScheme(graph, seed=67)
    rnd = random.Random(68)
    hot = sorted(rnd.sample(range(graph.m), 2))
    cold = sorted(rnd.sample(range(graph.m), 3))
    svc = ShardedQueryService(
        scheme, num_shards=3, max_chunk=16, mp_context="none",
        hot_key_share=0.6, hot_key_min_queries=32,
    )
    try:
        pairs = [tuple(rnd.sample(range(graph.n), 2)) for _ in range(16)]
        expected = [r.connected for r in scheme.query_many(pairs, list(hot))]
        for _ in range(8):
            got = svc.query_many(pairs, list(hot), want_path=False)
            assert [r.connected for r in got] == expected
        svc.query_many(pairs, list(cold), want_path=False)
        stats = svc.stats()
        assert stats.hot_keys == 1
        assert stats.replicated_chunks > 0
        # the hot key's chunks landed on more than one shard
        assert sum(1 for load in stats.per_shard if load > 0) > 1
        # cold keys still pin their hash owner: one extra shard at most
        snap = stats.snapshot()
        assert snap["hot_keys"] == 1
    finally:
        svc.close()


def test_hot_key_replication_disabled():
    graph = generators.grid_graph(4, 4)
    scheme = SketchConnectivityScheme(graph, seed=69)
    svc = ShardedQueryService(
        scheme, num_shards=3, max_chunk=8, mp_context="none",
        hot_key_share=None,
    )
    try:
        for _ in range(10):
            svc.query_many([(0, 15)] * 8, [1], want_path=False)
        stats = svc.stats()
        assert stats.hot_keys == 0
        assert stats.replicated_chunks == 0
        # every chunk went to the single hash owner
        assert sum(1 for load in stats.per_shard if load > 0) == 1
    finally:
        svc.close()


def test_hot_key_replication_fork_mode_identical_answers():
    import multiprocessing

    try:
        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        pytest.skip("fork unavailable")
    graph = generators.random_connected_graph(40, extra_edges=60, seed=70)
    scheme = SketchConnectivityScheme(graph, seed=71)
    rnd = random.Random(72)
    hot = sorted(rnd.sample(range(graph.m), 2))
    pairs = [tuple(rnd.sample(range(graph.n), 2)) for _ in range(12)]
    expected = [r.connected for r in scheme.query_many(pairs, list(hot))]
    with ShardedQueryService(
        scheme, num_shards=2, max_chunk=8,
        hot_key_share=0.5, hot_key_min_queries=12,
    ) as svc:
        for _ in range(6):
            got = svc.query_many(pairs, list(hot), want_path=False)
            assert [r.connected for r in got] == expected
        assert svc.stats().hot_keys == 1


# ----------------------------------------------------------------------
# PR-5 satellites: discovery-order cache accounting, cache sizes in
# ServiceStats, and the spawn-mode (snapshot-backed) build/serve split.
# ----------------------------------------------------------------------
def test_presentation_cache_eviction_and_stats_accounting():
    """Hit/miss/eviction counters under discovery-order keys.

    With ``canonicalize=False`` every distinct presentation order is
    its own entry, so permutation traffic both hits and evicts
    differently than the canonical mode; the counters must track the
    actual LRU events.
    """
    graph = generators.random_connected_graph(40, extra_edges=60, seed=81)
    scheme = SketchConnectivityScheme(graph, seed=82)
    rnd = random.Random(83)
    faults = rnd.sample(range(graph.m), 3)
    a, b, c = list(faults), list(faults[::-1]), [faults[1], faults[0], faults[2]]
    cache = PartitionCache(scheme, capacity=2, canonicalize=False)
    pairs = [tuple(rnd.sample(range(graph.n), 2)) for _ in range(8)]

    cache.query_many(pairs, a)  # miss -> {a}
    cache.query_many(pairs, b)  # miss -> {a, b}
    assert (cache.stats.hits, cache.stats.misses, cache.stats.evictions) == (0, 2, 0)
    assert len(cache) == 2

    cache.query_many(pairs, a)  # hit, refreshes a -> LRU order {b, a}
    assert cache.stats.hits == 1
    cache.query_many(pairs, c)  # miss, evicts b (the coldest)
    assert (cache.stats.misses, cache.stats.evictions) == (3, 1)
    assert len(cache) == 2
    assert a in cache and c in cache and b not in cache

    # duplicates collapse into the same discovery-order key: a hit
    cache.query_many(pairs, [a[0], a[0], a[1], a[2], a[1]])
    assert cache.stats.hits == 2
    # re-decoding the evicted order is a fresh miss, evicting again
    cache.query_many(pairs, b)
    assert (cache.stats.misses, cache.stats.evictions) == (4, 2)
    # answers stay bit-identical to the cold decode throughout
    assert cache.query_many(pairs, b) == scheme.query_many(pairs, list(b))


def test_packed_engine_retry_cache_reports_entries():
    """The routing engine's discovery-order caches expose live sizes."""
    from repro.routing.fault_tolerant import FaultTolerantRouter

    graph = generators.random_connected_graph(40, extra_edges=60, seed=84)
    router = FaultTolerantRouter(graph, f=2, k=2, seed=85)
    rnd = random.Random(86)
    msgs = [tuple(rnd.sample(range(graph.n), 2)) for _ in range(12)]
    per = [rnd.sample(range(graph.m), 2) for _ in range(12)]
    router.route_many(msgs, per)
    stats = router.packed_engine().cache_stats()
    assert stats["misses"] > 0
    assert stats["entries"] > 0
    assert stats["entries"] <= stats["misses"]  # entries are cached misses
    assert set(stats) == {"caches", "hits", "misses", "evictions", "entries"}


def test_service_stats_expose_cache_entries():
    graph = generators.random_connected_graph(40, extra_edges=60, seed=87)
    scheme = SketchConnectivityScheme(graph, seed=88)
    pairs, per = _repeated_fault_stream(graph, 40, 4, 4, seed=89)
    with ShardedQueryService(scheme, num_shards=2, mp_context="none") as svc:
        svc.query_many(pairs, per)
        stats = svc.stats()
        assert stats.cache_entries == 4  # one live partition per fault set
        snap = stats.snapshot()
        assert snap["cache"]["entries"] == 4
    with ShardedQueryService(scheme, num_shards=2) as svc:  # fork mode
        svc.query_many(pairs, per)
        assert svc.stats().cache_entries == 4


def test_spawn_mode_sharded_service_equals_single_process(tmp_path):
    """The build/serve split: spawn-mode shards answer off a snapshot
    file bit-identically to the in-process scheme — no fork anywhere."""
    from repro.store import save_snapshot

    graph = generators.random_connected_graph(72, extra_edges=100, seed=21)
    scheme = SketchConnectivityScheme(graph, seed=5)
    pairs, per = _repeated_fault_stream(graph, 60, 5, 5, seed=91)
    cold = scheme.query_many(pairs, per)  # succinct paths included
    snap_path = tmp_path / "scheme.snap"
    save_snapshot(snap_path, scheme)
    with ShardedQueryService.from_snapshot(
        snap_path, num_shards=2, max_chunk=16
    ) as svc:
        assert svc.mode == "spawn"
        assert svc.query_many(pairs, per) == cold
        stats = svc.stats()
        assert stats.queries == 60
        assert stats.cache_misses == 5
        assert stats.cache_entries == 5
        # second batch: pure hits, still identical
        assert svc.query_many(pairs, per) == cold
        assert svc.stats().cache_misses == 5


def test_spawn_without_snapshot_degrades_to_local():
    """A spawned worker cannot inherit the scheme; without a snapshot
    the service falls back to in-process shards (same answers)."""
    graph = generators.random_connected_graph(40, extra_edges=60, seed=92)
    scheme = SketchConnectivityScheme(graph, seed=93)
    pairs, per = _repeated_fault_stream(graph, 30, 3, 3, seed=94)
    cold = scheme.query_many(pairs, per)
    with ShardedQueryService(scheme, num_shards=2, mp_context="spawn") as svc:
        assert svc.mode == "local"
        assert svc.query_many(pairs, per) == cold


def test_spawn_mode_bad_snapshot_fails_fast(tmp_path):
    """A missing or corrupt snapshot must raise in the parent, not die
    silently in worker initializers and hang the first query."""
    from repro.store import SnapshotError

    with pytest.raises(SnapshotError):
        ShardedQueryService.from_snapshot(tmp_path / "missing.snap")
    bogus = tmp_path / "bogus.snap"
    bogus.write_bytes(b"not a snapshot at all, certainly not magic")
    with pytest.raises(SnapshotError, match="magic"):
        ShardedQueryService.from_snapshot(bogus)
