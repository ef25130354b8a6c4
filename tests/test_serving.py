"""Serving-layer correctness: caches, batching and shards.

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
    PartitionCache,
    ShardedQueryService,
    canonical_fault_key,
)
from tests.server_util import submit_future

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
# Batching: query_many chunks, submit's group commit
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


# The server's coalescing lives in ``ShardedQueryService.submit``: group
# commit per home shard (a request goes at once to an idle shard; the
# ones that arrive while it works go as one batch when its reply is
# read).  The tests below keep the names of the AsyncQueryCoalescer
# tests they grew from and pin the same behaviours on ``submit``.
def _coalescing_service(scheme, **kw):
    """Worker shards (over a private snapshot) with no hot-key rotation."""
    return ShardedQueryService(scheme, num_shards=2, hot_key_share=None, **kw)


def _recording_posts(svc):
    """Record the pairs of every batch ``svc`` posts, one list per
    request of the batch."""
    seen = []
    post = svc._post

    def recording(shard, msg, job):
        if msg[0] == "batch":
            seen.append([list(entry[0]) for entry in msg[1][0]])
        post(shard, msg, job)

    svc._post = recording
    return seen


def test_async_coalescer_size_and_timer_paths():
    """Singles submitted in a burst are answered exactly like
    ``query_many``; each batch waits for its shard's previous reply (the
    commit-on-reply path that replaced the flush timer) and holds at
    most ``max_chunk`` pairs (the size path)."""
    graph = generators.random_connected_graph(64, extra_edges=90, seed=17)
    scheme = SketchConnectivityScheme(graph, seed=5)
    pairs, per = _repeated_fault_stream(graph, 40, 3, 4, seed=29)
    cold = scheme.query_many(pairs, per)

    async def drive(svc):
        svc.bind_loop(asyncio.get_running_loop())
        futures = [submit_future(svc, [p], F)[1] for p, F in zip(pairs, per)]
        results = await asyncio.gather(*futures)
        assert svc.pending == 0  # gather resolved => everything dispatched
        return [answers[0] for answers, _meta in results]

    with _coalescing_service(scheme, max_chunk=8) as svc:
        assert asyncio.run(drive(svc)) == cold
        batches = svc.obs.histogram("server.coalesce_chunk_size")
    assert batches.total == 40  # every single went out exactly once
    assert batches.vmax == 8  # a full batch, and never more
    assert batches.count < 40  # singles did share batches


def _boom(answers):
    """An answer writer that fails in the shard worker."""
    raise RuntimeError("backend down")


def test_async_coalescer_propagates_backend_errors():
    """A worker error reaches each of its requests, the ones batched
    behind the first included."""
    graph = generators.random_connected_graph(24, extra_edges=30, seed=7)
    scheme = SketchConnectivityScheme(graph, seed=5)

    async def drive(svc):
        svc.bind_loop(asyncio.get_running_loop())
        futures = [
            submit_future(svc, [(0, 1)], [], writer=_boom)[1] for _ in range(3)
        ]
        for future in futures:
            with pytest.raises(RuntimeError, match="backend down"):
                await future
        # the worker survives its error
        answers, _meta = await submit_future(svc, [(0, 1)], [])[1]
        return answers

    with _coalescing_service(scheme) as svc:
        assert asyncio.run(drive(svc)) == scheme.query_many([(0, 1)], [])


def test_async_coalescer_rejects_sync_backends():
    """``submit`` is the event loop's path: a service whose shards answer
    in process (a synchronous backend) refuses it, bound or not — its
    callers use ``query_many`` on a thread."""
    graph = generators.random_connected_graph(24, extra_edges=30, seed=7)
    scheme = SketchConnectivityScheme(graph, seed=5)

    def reply(ok, payload):  # pragma: no cover - never called
        raise AssertionError("a refused request was answered")

    async def drive(svc):
        svc.bind_loop(asyncio.get_running_loop())  # no-op in local mode
        with pytest.raises(RuntimeError, match="worker shards"):
            svc.submit([(0, 1)], [], {}, None, reply)

    with ShardedQueryService(scheme, num_shards=0) as svc:
        with pytest.raises(RuntimeError, match="worker shards"):
            svc.submit([(0, 1)], [], {}, None, reply)
        asyncio.run(drive(svc))


# Regression: a request cancelled while it still waits for its shard (a
# client that disconnected, or a missed deadline) must be *scrubbed*
# from the waiting line.  Left in place, it would ride the next batch —
# work nobody wants — and a line of only cancelled requests would still
# reach the worker.
def test_async_coalescer_cancelled_waiter_is_scrubbed_before_dispatch():
    graph = generators.random_connected_graph(64, extra_edges=90, seed=17)
    scheme = SketchConnectivityScheme(graph, seed=5)
    pairs = [(s, s + 1) for s in range(6)]

    async def drive(svc):
        svc.bind_loop(asyncio.get_running_loop())
        seen_chunks = _recording_posts(svc)
        _h, blocker = submit_future(svc, [(10, 20)], [7])  # shard now busy
        waiters = [submit_future(svc, [p], [7]) for p in pairs]
        assert svc.pending == 6  # all six wait behind the blocker
        for victim in (0, 3):  # head and middle
            handle, future = waiters[victim]
            handle.cancel()
            future.cancel()
        assert svc.pending == 4
        await blocker
        survivors = await asyncio.gather(
            *(future for _h, future in waiters), return_exceptions=True
        )
        return seen_chunks, survivors

    with _coalescing_service(scheme, max_chunk=64) as svc:
        seen_chunks, results = asyncio.run(drive(svc))
    # the cancelled futures stay cancelled ...
    assert isinstance(results[0], asyncio.CancelledError)
    assert isinstance(results[3], asyncio.CancelledError)
    # ... the survivors all got *their own* answers (alignment intact
    # even though earlier indices were removed) ...
    for s in (1, 2, 4, 5):
        assert results[s][0] == scheme.query_many([pairs[s]], [7])
    # ... and the worker never saw the scrubbed pairs
    assert seen_chunks == [[[(10, 20)]], [[(1, 2)], [(2, 3)], [(4, 5)], [(5, 6)]]]


def test_async_coalescer_fully_cancelled_group_never_hits_backend():
    graph = generators.random_connected_graph(64, extra_edges=90, seed=17)
    scheme = SketchConnectivityScheme(graph, seed=5)

    async def drive(svc):
        svc.bind_loop(asyncio.get_running_loop())
        seen = _recording_posts(svc)
        _h, blocker = submit_future(svc, [(10, 20)], [3])  # shard now busy
        waiters = [submit_future(svc, [(s, s + 1)], [3]) for s in range(4)]
        for handle, future in waiters:
            handle.cancel()
            future.cancel()
        # the emptied line is gone: nothing pending, nothing to post
        assert svc.pending == 0
        await blocker
        assert seen == [[[(10, 20)]]]
        # the fault set is not poisoned: it still works
        answers, _meta = await submit_future(svc, [(0, 1)], [3])[1]
        return seen, answers

    with _coalescing_service(scheme, max_chunk=64) as svc:
        seen, answers = asyncio.run(drive(svc))
    assert answers == scheme.query_many([(0, 1)], [3])
    # only the blocker and the post-cancel query were posted
    assert seen == [[[(10, 20)]], [[(0, 1)]]]


def test_async_coalescer_cancel_after_dispatch_leaves_chunk_intact():
    """A request cancelled *after* its batch was posted just drops its
    answer; the rest of the batch is served normally."""
    graph = generators.random_connected_graph(64, extra_edges=90, seed=17)
    scheme = SketchConnectivityScheme(graph, seed=5)
    pairs = [(s, s + 1) for s in range(3)]

    async def drive(svc):
        svc.bind_loop(asyncio.get_running_loop())
        _h, blocker = submit_future(svc, [(10, 20)], [])  # shard now busy
        waiters = [submit_future(svc, [p], []) for p in pairs]
        assert svc.pending == 3
        # The blocker's reply posts the three as one batch, and this
        # task resumes before that batch's reply can be read.
        await blocker
        assert svc.pending == 0
        assert all(handle.posted is not None for handle, _f in waiters)
        handle, future = waiters[1]
        handle.cancel()
        future.cancel()
        return await asyncio.gather(
            *(future for _h, future in waiters), return_exceptions=True
        )

    with _coalescing_service(scheme, max_chunk=3) as svc:
        results = asyncio.run(drive(svc))
        batches = svc.obs.histogram("server.coalesce_chunk_size")
    assert results[0][0] == scheme.query_many([pairs[0]], [])
    assert isinstance(results[1], asyncio.CancelledError)
    assert results[2][0] == scheme.query_many([pairs[2]], [])
    assert batches.vmax == 3  # the three went as one batch


# ----------------------------------------------------------------------
# Shards
# ----------------------------------------------------------------------
def test_sharded_service_equals_single_process():
    graph = generators.random_connected_graph(72, extra_edges=100, seed=21)
    scheme = SketchConnectivityScheme(graph, seed=5)
    pairs, per = _repeated_fault_stream(graph, 80, 6, 5, seed=37)
    cold = scheme.query_many(pairs, per)  # succinct paths included
    with ShardedQueryService(scheme, num_shards=2, max_chunk=16) as svc:
        assert svc.mode == "forkserver"
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
        # the facade hides its instances behind .impl; its private
        # snapshot must still carry them (workers restore built stores)
        assert dist.impl.instances  # sanity: there is something to carry
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
        scheme, num_shards=3, max_chunk=16,
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
        scheme, num_shards=3, max_chunk=8,
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


def test_hot_key_replication_worker_shards_identical_answers():
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
# Discovery-order cache accounting, cache sizes in ServiceStats, and the
# snapshot-backed build/serve split.
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
    with ShardedQueryService(scheme, num_shards=0) as svc:
        svc.query_many(pairs, per)
        stats = svc.stats()
        assert stats.cache_entries == 4  # one live partition per fault set
        snap = stats.snapshot()
        assert snap["cache"]["entries"] == 4
    with ShardedQueryService(scheme, num_shards=2) as svc:  # worker shards
        svc.query_many(pairs, per)
        assert svc.stats().cache_entries == 4


def test_snapshot_sharded_service_equals_single_process(tmp_path):
    """The build/serve split: shards forked from the worker factory
    answer off a snapshot file bit-identically to the in-process scheme,
    and the parent never loads it."""
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
        assert svc.mode == "forkserver" and svc.scheme is None
        assert svc.query_many(pairs, per) == cold
        stats = svc.stats()
        assert stats.queries == 60
        assert stats.cache_misses == 5
        assert stats.cache_entries == 5
        # second batch: pure hits, still identical
        assert svc.query_many(pairs, per) == cold
        assert svc.stats().cache_misses == 5


def test_bad_snapshot_fails_fast(tmp_path):
    """A missing or corrupt snapshot must raise in the parent, not die
    silently in worker initializers and hang the first query."""
    from repro.store import SnapshotError

    with pytest.raises(SnapshotError):
        ShardedQueryService.from_snapshot(tmp_path / "missing.snap")
    bogus = tmp_path / "bogus.snap"
    bogus.write_bytes(b"not a snapshot at all, certainly not magic")
    with pytest.raises(SnapshotError, match="magic"):
        ShardedQueryService.from_snapshot(bogus)
