"""One stats source: every serving event is counted once, in a registry.

The front door, the shard service and each partition cache count into
a :class:`~repro.obs.MetricsRegistry` at the moment an event happens;
``ServerStats``, ``ServiceStats`` and ``CacheStats`` are frozen views
built from a registry dump.  So one dump cannot contradict itself, not
even after a call that failed, and an idle service already carries
every name at zero.  A STATS sweep's messages run under the chunk
timeout like batches: a sweep that meets a hung worker restarts it
instead of leaving its shard stuck.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import signal
import time

import pytest

from repro.core.sketch_scheme import SketchConnectivityScheme
from repro.graph import generators
from repro.obs import MetricsRegistry
from repro.server import AsyncQueryClient, ErrorCode, ServerError, ServerStats
from repro.serving import (
    CacheStats,
    PartitionCache,
    ShardedQueryService,
    canonical_fault_key,
    shard_of,
)
from tests.server_util import ServerThread


@pytest.fixture(scope="module")
def grid_scheme():
    return SketchConnectivityScheme(generators.grid_graph(6, 6), seed=1)


def test_stats_classes_are_frozen_views_of_a_dump(grid_scheme):
    cache = PartitionCache(grid_scheme, capacity=1)
    for faults in ([0], [0], [1]):
        cache.partition(faults)
    assert cache.stats == CacheStats(hits=1, misses=2, evictions=1)
    assert cache.stats == CacheStats.from_dump(cache.obs.to_wire())
    with pytest.raises(dataclasses.FrozenInstanceError):
        cache.stats.hits = 0
    with pytest.raises(AttributeError):
        cache.stats = CacheStats()
    assert ServerStats.from_dump(MetricsRegistry().to_wire()) == ServerStats()


def test_an_idle_service_dump_carries_every_name(grid_scheme):
    with ShardedQueryService(grid_scheme, num_shards=2) as svc:
        stats, dump = asyncio.run(svc.astats_bundle())
    # each worker counted its own start, forked from the preloaded factory
    assert dump["counters"].pop("worker.starts") == 2
    assert dump["counters"].pop("worker.preloaded_starts") == 2
    counters = {
        "service.queries", "service.chunks", "service.pool_restarts",
        "service.replicated_chunks", "cache.evictions",
    } | {
        f"shard.{i}.{name}"
        for i in range(2)
        for name in ("queries", "cache_hits", "cache_misses", "cache_evictions")
    }
    gauges = {"service.hot_keys"} | {
        f"shard.{i}.{name}"
        for i in range(2)
        for name in ("cache_entries", "cache_hit_rate", "queue_depth")
    }
    assert counters <= set(dump["counters"]) and gauges <= set(dump["gauges"])
    assert not any(dump["counters"].values()) and not any(dump["gauges"].values())
    assert "cache.entries" not in dump["gauges"]  # kept per shard only
    assert stats.per_shard == (0, 0) and stats.queries == 0


@pytest.mark.parametrize("num_shards", [0, 2], ids=["local", "fork"])
def test_one_dump_agrees_with_itself_after_a_failed_call(grid_scheme, num_shards):
    bad_fault = grid_scheme.graph.m + 5
    with ShardedQueryService(
        grid_scheme, num_shards=num_shards, hot_key_share=None
    ) as svc:
        svc.query_many([(0, 35), (1, 20)], [3])
        with pytest.raises(ValueError):
            svc.query_many([(0, 1), (2, 3), (4, 5)], [bad_fault])
        stats, dump = asyncio.run(svc.astats_bundle())
    counters = dump["counters"]
    chunk_pairs = dump["histograms"]["shard.chunk_size"]["sum"]
    # the failed chunk was counted when it was sent, its miss at lookup
    assert stats.queries == sum(stats.per_shard) == chunk_pairs == 5
    shards = range(svc.num_shards)
    shard_misses = sum(counters[f"shard.{i}.cache_misses"] for i in shards)
    assert counters["cache.misses"] == shard_misses == stats.cache_misses == 2


@pytest.mark.network
def test_a_stats_sweep_restarts_a_stopped_idle_worker(grid_scheme):
    """The STATS message to a stopped, idle worker is the only one in
    flight on its shard; its chunk timeout restarts the worker, and a
    query homed on the shard is answered by the fresh worker."""
    graph = grid_scheme.graph
    faults = next(
        [ei] for ei in range(graph.m) if shard_of(canonical_fault_key([ei]), 2) == 0
    )
    expected = grid_scheme.query_many([(0, 35)], faults)
    chunk_timeout = 0.5
    with ServerThread(
        grid_scheme, num_shards=2, hot_key_share=None, deadline_s=60.0,
        chunk_timeout=chunk_timeout,
    ) as harness:
        service = harness.server.generation.service
        victim = harness.server.worker_pids()[0]

        async def drive():
            client = await AsyncQueryClient.connect("127.0.0.1", harness.port)
            try:
                os.kill(victim, signal.SIGSTOP)
                sweep = asyncio.ensure_future(client.stats())
                deadline = time.monotonic() + 30
                while service.queue_depths()[0] != 1:
                    assert time.monotonic() < deadline, "no sweep reached shard 0"
                    await asyncio.sleep(0.01)
                t0 = time.monotonic()
                answers = await asyncio.wait_for(
                    client.connectivity([(0, 35)], faults), chunk_timeout + 5
                )
                elapsed = time.monotonic() - t0
                with pytest.raises(ServerError) as lost:
                    await sweep
            finally:
                await client.aclose()
            return answers, elapsed, lost.value.code

        answers, elapsed, code = asyncio.run(drive())
        replaced = victim not in harness.server.worker_pids()
    assert answers == expected
    assert elapsed < chunk_timeout + 5
    assert code is ErrorCode.SHARD_LOST
    assert replaced
