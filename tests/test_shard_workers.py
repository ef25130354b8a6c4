"""Shard worker processes on their own pipes: lifecycle and failures.

:class:`~repro.serving.shards.ShardedQueryService` runs one worker
process per shard and talks to it over one duplex pipe, with no helper
thread in the parent.  These tests pin what that design promises to a
blocking caller (``tests/test_server_chaos.py`` covers the event-loop
side through the socket server, ``tests/test_worker_factory.py`` how
workers start and that none outlives ``close()``):

* a worker killed while idle is replaced by the next send — the chunk
  is answered, not lost;
* a hung worker costs one ``ShardLostError`` after ``chunk_timeout``,
  then the shard answers again from a fresh worker;
* a worker's exception reaches the caller and the worker keeps serving;
* ``close()`` is bounded even when workers ignore SIGTERM;
* a loop-bound service never blocks its loop on a worker that stopped
  reading, and bounds every batch it posts with its own timer: a
  stopped worker costs that batch a ``ShardLostError`` after
  ``chunk_timeout`` with nothing timed on the caller's side, and a
  batch that fails while being posted leaves no timer behind;
* ``submit`` group-commits: a request to an idle shard is posted within
  the call, with one timer (the batch's chunk timeout) and nothing else,
  and a restart fails only the posted batch — requests still waiting
  for the shard are answered by the fresh worker.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import time

import pytest

from repro.core.sketch_scheme import SketchConnectivityScheme
from repro.graph import generators
from repro.serving import ShardedQueryService, canonical_fault_key, shard_of
from repro.serving.shards import ShardLostError
from tests.server_util import submit_future

# worker processes on pipes: arm the conftest watchdog, so a wedged
# pipe fails the test instead of hanging the suite
pytestmark = pytest.mark.network


@pytest.fixture(scope="module")
def scheme():
    graph = generators.random_connected_graph(72, extra_edges=100, seed=21)
    return SketchConnectivityScheme(graph, seed=5)


def _alive(pid: int) -> bool:
    """Whether ``pid`` exists and has not exited (zombies count as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _wait_dead(pid: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while _alive(pid):
        assert time.monotonic() < deadline, f"pid {pid} never died"
        time.sleep(0.01)


def _faults_on_shard(scheme, shard: int, num_shards: int = 2, seed: int = 3):
    rnd = random.Random(seed)
    while True:
        F = sorted(rnd.sample(range(scheme.graph.m), 3))
        if shard_of(canonical_fault_key(F), num_shards) == shard:
            return F


def _pairs(scheme, count: int = 12, seed: int = 4):
    rnd = random.Random(seed)
    return [tuple(rnd.sample(range(scheme.graph.n), 2)) for _ in range(count)]


def test_idle_kill_is_healed_by_the_next_send(scheme):
    F0 = _faults_on_shard(scheme, 0)
    pairs = _pairs(scheme)
    expected = scheme.query_many(pairs, F0)
    with ShardedQueryService(scheme, num_shards=2, hot_key_share=None) as svc:
        assert svc.query_many(pairs, F0) == expected
        victim = svc.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        _wait_dead(victim)
        assert svc.query_many(pairs, F0) == expected
        assert victim not in svc.worker_pids()
        assert svc.stats().pool_restarts == 1


def test_hung_worker_times_out_then_the_shard_recovers(scheme):
    F0 = _faults_on_shard(scheme, 0)
    pairs = _pairs(scheme)
    expected = scheme.query_many(pairs, F0)
    with ShardedQueryService(
        scheme, num_shards=2, hot_key_share=None, chunk_timeout=0.5
    ) as svc:
        victim = svc.worker_pids()[0]
        os.kill(victim, signal.SIGSTOP)
        t0 = time.monotonic()
        with pytest.raises(ShardLostError):
            svc.query_many(pairs, F0)
        assert time.monotonic() - t0 < 10
        _wait_dead(victim)
        assert victim not in svc.worker_pids()
        assert svc.query_many(pairs, F0) == expected
        assert svc.queue_depths() == [0, 0]


def test_worker_exception_reaches_the_caller(scheme):
    pairs = _pairs(scheme)
    F0 = _faults_on_shard(scheme, 0)
    with ShardedQueryService(scheme, num_shards=2) as svc:
        pids = svc.worker_pids()
        with pytest.raises(TypeError):
            svc.query_many(pairs, F0, no_such_option=True)
        assert svc.worker_pids() == pids
        assert svc.query_many(pairs, F0) == scheme.query_many(pairs, F0)


def test_close_is_bounded_when_workers_ignore_sigterm(scheme):
    svc = ShardedQueryService(scheme, num_shards=2)
    pids = svc.worker_pids()
    for pid in pids:
        os.kill(pid, signal.SIGSTOP)  # a stopped process sits on SIGTERM
    t0 = time.monotonic()
    svc.close()
    assert time.monotonic() - t0 < 15
    assert not [pid for pid in pids if _alive(pid)]


def test_pipes_have_one_owner(scheme):
    pairs = _pairs(scheme)
    F0 = _faults_on_shard(scheme, 0)
    with ShardedQueryService(scheme, num_shards=2) as svc:
        with pytest.raises(RuntimeError):
            # nobody would read the reply
            svc.submit(pairs, F0, {}, None, lambda ok, payload: None)

        async def bound():
            svc.bind_loop(asyncio.get_running_loop())
            with pytest.raises(RuntimeError):
                svc.query_many(pairs, F0)  # the loop reads these pipes
            _handle, future = submit_future(svc, pairs, F0)
            answers, meta = await asyncio.wait_for(future, 60)
            stats, registry = await svc.astats_bundle()
            return answers, meta, stats

        answers, meta, stats = asyncio.run(bound())
        assert answers == scheme.query_many(pairs, F0)
        assert meta["pid"] in svc.worker_pids()
        assert stats.queries == len(pairs) and stats.cache_misses == 1


def test_a_stopped_worker_never_blocks_the_loop(scheme):
    F0 = _faults_on_shard(scheme, 0)
    pairs = _pairs(scheme)
    # megabytes of pickle: far more than a socket buffer takes in
    big = _pairs(scheme, count=100_000)
    with ShardedQueryService(scheme, num_shards=2, hot_key_share=None) as svc:

        async def drive():
            loop = asyncio.get_running_loop()
            svc.bind_loop(loop)
            victim = svc.worker_pids()[0]
            os.kill(victim, signal.SIGSTOP)
            handle, stuck = submit_future(svc, big, F0)  # returns at once
            ticks = 0
            t0 = loop.time()
            while loop.time() - t0 < 0.3:  # the loop keeps turning
                await asyncio.sleep(0.01)
                ticks += 1
            assert handle.shard == 0 and not stuck.done() and ticks > 5
            assert svc.restart_shard(0, epoch=svc.shard_epoch(0))
            with pytest.raises(ShardLostError):
                await stuck
            _handle, fresh = submit_future(svc, pairs, F0)
            answers, _meta = await asyncio.wait_for(fresh, 60)
            return victim, answers

        victim, answers = asyncio.run(drive())
        assert answers == scheme.query_many(pairs, F0)
        _wait_dead(victim)
        assert victim not in svc.worker_pids()


def test_bound_loop_times_out_a_stopped_worker_itself(scheme):
    F0 = _faults_on_shard(scheme, 0)
    pairs = _pairs(scheme)
    with ShardedQueryService(
        scheme, num_shards=2, hot_key_share=None, chunk_timeout=0.5
    ) as svc:

        async def drive():
            loop = asyncio.get_running_loop()
            svc.bind_loop(loop)
            victim = svc.worker_pids()[0]
            os.kill(victim, signal.SIGSTOP)
            t0 = loop.time()
            _handle, future = submit_future(svc, pairs, F0)
            # asyncio.wait only stops looking after 5 s; it neither
            # cancels the future nor restarts anything
            await asyncio.wait({future}, timeout=5)
            elapsed = loop.time() - t0
            assert future.done(), "the service never timed the batch out"
            assert isinstance(future.exception(), ShardLostError)
            assert elapsed < 5
            assert victim not in svc.worker_pids()
            _handle, fresh = submit_future(svc, pairs, F0)
            answers, _meta = await asyncio.wait_for(fresh, 60)
            stats, registry = await svc.astats_bundle()
            return victim, answers, stats, registry

        victim, answers, stats, registry = asyncio.run(drive())
        _wait_dead(victim)
        assert answers == scheme.query_many(pairs, F0)
        assert stats.pool_restarts == 1
        # the registry dump counts the restart once, under service.*
        assert registry["counters"]["service.pool_restarts"] == 1
        assert "shard.pool_restarts" not in registry["counters"]


def test_a_chunk_whose_post_fails_leaves_no_timer(scheme):
    F0 = _faults_on_shard(scheme, 0)
    pairs = _pairs(scheme)
    with ShardedQueryService(scheme, num_shards=2, hot_key_share=None) as svc:

        async def drive():
            loop = asyncio.get_running_loop()
            svc.bind_loop(loop)
            timers = []
            call_later = loop.call_later

            def counted(*args):
                timers.append(call_later(*args))
                return timers[-1]

            loop.call_later = counted
            svc._send = lambda w, data: False  # every worker is gone
            _handle, lost = submit_future(svc, pairs, F0)
            assert lost.done() and isinstance(lost.exception(), ShardLostError)
            assert timers == []
            del svc._send
            _handle, future = submit_future(svc, pairs, F0)
            assert len(timers) == 1
            answers, _meta = await future
            assert timers[0].cancelled()  # the reply cancelled it
            return answers

        assert asyncio.run(drive()) == scheme.query_many(pairs, F0)


def test_an_idle_shard_posts_a_lone_request_within_the_call(scheme):
    F0 = _faults_on_shard(scheme, 0)
    pairs = _pairs(scheme, count=1)
    with ShardedQueryService(scheme, num_shards=2, hot_key_share=None) as svc:

        async def drive():
            loop = asyncio.get_running_loop()
            svc.bind_loop(loop)
            timers = []
            call_at = loop.call_at

            def counted(*args, **kw):  # call_later goes through call_at too
                timers.append(call_at(*args, **kw))
                return timers[-1]

            loop.call_at = counted
            handle, future = submit_future(svc, pairs, F0)
            # on the pipe before submit returned: nothing waits, and the
            # batch's chunk timeout is the one timer
            assert handle.shard == 0 and handle.posted is not None
            assert svc.queue_depths() == [1, 0] and svc.pending == 0
            assert len(timers) == 1
            answers, _meta = await future
            assert timers[0].cancelled()  # the reply cancelled it
            assert len(timers) == 1
            return answers

        assert asyncio.run(drive()) == scheme.query_many(pairs, F0)


def test_a_restart_fails_only_the_posted_batch(scheme):
    F0 = _faults_on_shard(scheme, 0)
    F0b = _faults_on_shard(scheme, 0, seed=11)
    assert F0b != F0
    pairs = _pairs(scheme)
    with ShardedQueryService(scheme, num_shards=2, hot_key_share=None) as svc:

        async def drive():
            svc.bind_loop(asyncio.get_running_loop())
            victim = svc.worker_pids()[0]
            os.kill(victim, signal.SIGSTOP)
            posted, lost = submit_future(svc, pairs, F0)
            waiting = [
                submit_future(svc, pairs[:3], F0),
                submit_future(svc, pairs[:5], F0b),
            ]
            assert posted.posted is not None
            assert [h.posted for h, _f in waiting] == [None, None]
            assert svc.pending == 2
            assert svc.restart_shard(0, epoch=svc.shard_epoch(0))
            # the waiting requests went to the fresh worker at once
            assert svc.pending == 0 and svc.queue_depths()[0] == 1
            with pytest.raises(ShardLostError):
                await lost
            answers = [
                (await asyncio.wait_for(future, 60))[0] for _h, future in waiting
            ]
            stats, _registry = await svc.astats_bundle()
            return victim, answers, stats

        victim, answers, stats = asyncio.run(drive())
        assert answers == [
            scheme.query_many(pairs[:3], F0),
            scheme.query_many(pairs[:5], F0b),
        ]
        assert stats.pool_restarts == 1
        _wait_dead(victim)
        assert victim not in svc.worker_pids()
