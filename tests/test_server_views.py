"""Cache hits never leave the front door.

A sketch server keeps the partition view each answer brings back and
answers the fault set's next requests on its own event loop, bit for
bit like the workers would: with every shard worker stopped, a cached
fault set is still answered while a fresh one waits for its worker.
The views belong to their generation, so after a reload to a snapshot
with other labels the answers come from the new labels.  Each sketch
request is counted once, as a hit or a miss, in the STATS dump.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal

import pytest

from repro.core.sketch_scheme import SketchConnectivityScheme
from repro.graph import generators
from repro.server import AsyncQueryClient, QueryClient
from repro.serving import canonical_fault_key, shard_of
from repro.store import save_snapshot
from tests.server_util import ServerThread

pytestmark = pytest.mark.network


@pytest.fixture(scope="module")
def graph():
    return generators.random_connected_graph(90, extra_edges=120, seed=31)


def _fault_sets(graph, count: int, seed: int):
    rnd = random.Random(seed)
    return [sorted(rnd.sample(range(graph.m), 4)) for _ in range(count)]


def _pairs(graph, count: int = 8, seed: int = 2):
    rnd = random.Random(seed)
    return [tuple(rnd.sample(range(graph.n), 2)) for _ in range(count)]


def test_hits_answer_with_every_worker_stopped_and_follow_a_reload(graph, tmp_path):
    old = SketchConnectivityScheme(graph, seed=5)
    new = SketchConnectivityScheme(graph, seed=6)
    old_snap, new_snap = str(tmp_path / "old.snap"), str(tmp_path / "new.snap")
    save_snapshot(old_snap, old)
    save_snapshot(new_snap, new)
    pairs = _pairs(graph)
    cached, fresh = _fault_sets(graph, 2, seed=3)
    expected = old.query_many(pairs, cached)
    relabeled = new.query_many(pairs, cached)
    assert relabeled != expected  # the labels differ: so do the paths' EIDs

    with ServerThread(
        snapshot=old_snap, num_shards=2, deadline_s=60.0, hot_key_share=None
    ) as harness:
        service = harness.server.generation.service

        async def drive():
            client = await AsyncQueryClient.connect("127.0.0.1", harness.port)
            workers = harness.server.worker_pids()
            try:
                assert await client.connectivity(pairs, cached) == expected
                for pid in workers:
                    os.kill(pid, signal.SIGSTOP)
                try:
                    waiting = asyncio.ensure_future(client.connectivity(pairs, fresh))
                    hits = [
                        await asyncio.wait_for(client.connectivity(pairs, cached), 5)
                        for _ in range(3)
                    ]
                    home = shard_of(canonical_fault_key(fresh), 2)
                    assert service.queue_depths()[home] == 1
                    assert not waiting.done()
                finally:
                    for pid in workers:
                        os.kill(pid, signal.SIGCONT)
                answered = await asyncio.wait_for(waiting, 30)
            finally:
                await client.aclose()
            return hits, answered

        hits, answered = harness.run(drive())
        assert hits == [expected] * 3
        assert answered == old.query_many(pairs, fresh)

        with QueryClient("127.0.0.1", harness.port, timeout=60) as client:
            client.reload(new_snap)
            # the first answer is the new workers'; the second, the new
            # generation's own view of it
            assert client.connectivity(pairs, cached) == relabeled
            assert client.connectivity(pairs, cached) == relabeled
            stats = client.stats()
    assert stats["server"]["view_entries"] == 1
    assert stats["server"]["errors"] == {}


@pytest.mark.parametrize("num_shards", [0, 2], ids=["local", "workers"])
def test_each_sketch_request_is_counted_once(graph, num_shards):
    scheme = SketchConnectivityScheme(graph, seed=5)
    pairs = _pairs(graph, count=3)
    sets = _fault_sets(graph, 3, seed=7)
    order = [0, 1, 0, 2, 0, 1, 1, 2]  # 3 first asks miss, 5 repeats hit
    with ServerThread(scheme, num_shards=num_shards, deadline_s=60.0) as harness:
        with QueryClient("127.0.0.1", harness.port, timeout=60) as client:
            for k in order:
                got = client.connectivity(pairs, sets[k])
                assert got == scheme.query_many(pairs, sets[k])
            stats = client.stats()
    counters = stats.counters
    assert counters["cache.hits"] + counters["cache.misses"] == len(order)
    assert counters["cache.misses"] == 3
    assert stats["server"]["view_hits"] == 5
    assert stats["server"]["view_entries"] == stats.gauges["server.view_entries"] == 3
    # the service view counts the front door's hits with its workers'
    assert stats["service"]["cache"]["hits"] == counters["cache.hits"]
    assert stats["service"]["queries"] == len(order) * len(pairs)
    assert stats["service"]["chunks"] == len(order)


def test_cli_stats_prints_the_front_door_hits(graph, capsys):
    from repro.cli import main

    scheme = SketchConnectivityScheme(graph, seed=5)
    (faults,) = _fault_sets(graph, 1, seed=9)
    with ServerThread(scheme, num_shards=0) as harness:
        with QueryClient("127.0.0.1", harness.port, timeout=60) as client:
            for _ in range(3):
                client.connectivity(_pairs(graph), faults)
        assert main(["stats", "--connect", f"127.0.0.1:{harness.port}"]) == 0
    out = capsys.readouterr().out
    assert "front door           : 1 partition views, 2 hits" in out
