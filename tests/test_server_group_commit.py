"""The front door's request path: loop callbacks and group commit.

A CONNECTIVITY or DISTANCE frame is answered by two loop callbacks —
the connection's read, then the shard pipe's reader — with no asyncio
Task, and carries two timers at most: its deadline and its batch's
chunk timeout.  Requests that arrive while their home shard works wait
and go to it as one batch, whatever their fault sets.  A connection
stops reading while ``max_inflight`` of its requests are unanswered or
while its transport is paused for writing.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import threading
import time

import pytest

from repro.core.sketch_scheme import SketchConnectivityScheme
from repro.graph import generators
from repro.server import AsyncQueryClient, LabelServer, QueryClient
from repro.server.protocol import (
    FrameDecoder,
    FrameType,
    encode_frame,
    encode_pairs,
    wire_to_sk_result,
)
from repro.server.server import _Connection
from repro.serving import canonical_fault_key, shard_of
from tests.server_util import ServerThread

pytestmark = pytest.mark.network


@pytest.fixture(scope="module")
def scheme():
    graph = generators.random_connected_graph(72, extra_edges=100, seed=21)
    return SketchConnectivityScheme(graph, seed=5)


def _fault_sets_on_shard(scheme, shard: int, count: int, seed: int = 3):
    """``count`` distinct fault sets whose canonical key routes to ``shard``."""
    rnd = random.Random(seed)
    found = []
    while len(found) < count:
        F = sorted(rnd.sample(range(scheme.graph.m), 3))
        if shard_of(canonical_fault_key(F), 2) == shard and F not in found:
            found.append(F)
    return found


def _on_loop(loop, fn) -> None:
    """Run ``fn`` on ``loop``'s thread and wait for it."""
    done = threading.Event()

    def run():
        fn()
        done.set()

    loop.call_soon_threadsafe(run)
    assert done.wait(30), "the server loop never ran the callback"


def test_a_lone_single_costs_two_timers(scheme):
    """The request deadline and its batch's chunk timeout: no wait timer.
    The measured request asks a fault set the front door has no view of
    yet, so it goes to the warmed worker."""
    F0, F1 = _fault_sets_on_shard(scheme, 0, 2)
    with ServerThread(
        scheme, num_shards=2, deadline_s=50.0, chunk_timeout=40.0,
        hot_key_share=None,
    ) as harness:
        loop = harness.loop
        delays = []
        call_at = loop.call_at

        def counted(when, *args, **kw):
            delays.append(when - loop.time())
            return call_at(when, *args, **kw)

        with QueryClient("127.0.0.1", harness.port, timeout=60) as client:
            expected = scheme.query_many([(0, 1)], F0)
            assert client.connectivity([(0, 1)], F0) == expected  # warm
            _on_loop(loop, lambda: setattr(loop, "call_at", counted))
            try:
                assert client.connectivity([(2, 3)], F1) == scheme.query_many(
                    [(2, 3)], F1
                )
            finally:
                _on_loop(loop, lambda: delattr(loop, "call_at"))
    assert len(delays) == 2, delays
    deadline, chunk_timeout = sorted(delays, reverse=True)
    assert 45.0 < deadline <= 50.0 and 35.0 < chunk_timeout <= 40.0


def test_singles_behind_a_stopped_worker_go_as_one_batch(scheme):
    """N singles on several fault sets wait for shard 0 while its worker
    is stopped, then go as one batch of N; every answer equals
    in-process ``query_many``."""
    fault_sets = _fault_sets_on_shard(scheme, 0, 4)
    rnd = random.Random(5)
    pairs = [tuple(rnd.sample(range(scheme.graph.n), 2)) for _ in range(12)]
    singles = [(p, fault_sets[i % len(fault_sets)]) for i, p in enumerate(pairs)]
    expected = [scheme.query_many([p], F)[0] for p, F in singles]

    with ServerThread(
        scheme, num_shards=2, deadline_s=60.0, hot_key_share=None
    ) as harness:
        service = harness.server.generation.service

        async def until(condition, what):
            deadline = time.monotonic() + 30
            while not condition():
                assert time.monotonic() < deadline, what
                await asyncio.sleep(0.01)

        async def drive():
            client = await AsyncQueryClient.connect("127.0.0.1", harness.port)
            try:
                before = await client.stats()
                victim = harness.server.worker_pids()[0]
                os.kill(victim, signal.SIGSTOP)
                try:
                    blocker = asyncio.ensure_future(
                        client.connectivity([(0, 1)], fault_sets[0])
                    )
                    await until(
                        lambda: service.queue_depths()[0] == 1,
                        "the blocker was never posted",
                    )
                    waiting = [
                        asyncio.ensure_future(client.connectivity([p], F))
                        for p, F in singles
                    ]
                    await until(
                        lambda: service.pending == len(singles),
                        "the singles never queued up",
                    )
                finally:
                    os.kill(victim, signal.SIGCONT)
                await blocker
                answers = [(await future)[0] for future in waiting]
                after = await client.stats()
            finally:
                await client.aclose()
            return before, answers, after

        before, answers, after = asyncio.run(drive())

    assert answers == expected
    name = "server.coalesce_chunk_size"
    hist_before = before.histogram(name) or {"count": 0, "sum": 0}
    hist_after = after.histogram(name)
    # two batches since the first STATS: the blocker alone, then all N
    assert hist_after["count"] - hist_before["count"] == 2
    assert hist_after["sum"] - hist_before["sum"] == 1 + len(singles)
    assert hist_after["max"] == len(singles)
    assert after["server"]["errors"] == {}


@pytest.mark.parametrize("num_shards", [0, 2], ids=["local", "workers"])
def test_query_frames_create_no_task(scheme, num_shards):
    """K query frames on one connection — singles, batches, connectivity
    and a PING — start no asyncio Task on the server's loop."""
    with ServerThread(scheme, num_shards=num_shards) as harness:
        loop = harness.loop
        created = []

        def factory(loop_, coro, **kw):
            created.append(getattr(coro, "__qualname__", repr(coro)))
            return asyncio.Task(coro, loop=loop_, **kw)

        rnd = random.Random(9)
        with QueryClient("127.0.0.1", harness.port, timeout=60) as client:
            client.ping()  # connected and served before counting
            _on_loop(loop, lambda: loop.set_task_factory(factory))
            try:
                for k in range(12):
                    F = sorted(rnd.sample(range(scheme.graph.m), 2))
                    batch = [
                        tuple(rnd.sample(range(scheme.graph.n), 2))
                        for _ in range(1 if k % 2 else 8)
                    ]
                    assert client.connectivity(batch, F) == scheme.query_many(
                        batch, F
                    )
                client.ping()
            finally:
                _on_loop(loop, lambda: loop.set_task_factory(None))
    assert created == []


def _singles(*rids) -> bytes:
    """One CONNECTIVITY frame per request id ``rid``, asking ``(0, rid)``."""
    return b"".join(
        encode_frame(
            FrameType.CONNECTIVITY, rid, [encode_pairs([(0, rid)]), [], False]
        )
        for rid in rids
    )


class _Transport(asyncio.Transport):
    """Records what a connection writes and whether it reads."""

    def __init__(self):
        super().__init__()
        self.decoder = FrameDecoder()
        self.replies = []
        self.reading = True
        self.closing = False

    def write(self, data):
        self.decoder.feed(data)
        self.replies.extend(self.decoder.frames())

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True

    def is_closing(self):
        return self.closing

    def close(self):
        self.closing = True

    abort = close


def test_a_connection_stops_reading_at_its_limits(scheme):
    """At ``max_inflight`` unanswered requests, and while the transport
    is paused for writing, the connection holds reading and leaves the
    frames it already has undecoded; both limits clearing resumes it."""
    pairs = [(0, k) for k in range(1, 6)]

    async def until(condition):
        deadline = time.monotonic() + 30
        while not condition():
            assert time.monotonic() < deadline, "the connection never caught up"
            await asyncio.sleep(0.005)

    async def drive():
        server = LabelServer(scheme, max_inflight=2)  # local: answers on a thread
        await server.start()
        try:
            conn, transport = _Connection(server), _Transport()
            conn.connection_made(transport)
            conn.data_received(_singles(*range(1, len(pairs) + 1)))
            assert len(conn.requests) == 2 and not transport.reading
            await until(lambda: len(transport.replies) == len(pairs))
            assert transport.reading and not conn.requests
            answers = {f.request_id: f.payload for f in transport.replies}

            conn.pause_writing()
            assert not transport.reading
            conn.data_received(encode_frame(FrameType.PING, 9))
            assert len(transport.replies) == len(pairs)  # not even decoded
            conn.resume_writing()
            assert transport.reading
            assert transport.replies[-1].type is FrameType.PONG
            conn.connection_lost(None)
            return answers
        finally:
            await server.aclose()

    answers = asyncio.run(drive())
    assert [
        wire_to_sk_result(answers[rid][0]) for rid in range(1, len(pairs) + 1)
    ] == scheme.query_many(pairs, [], want_path=False)


def test_garbage_behind_held_frames_closes_the_connection_once(scheme):
    """Bytes that fail to decode after the connection hit its limit are
    answered with one BAD_FRAME when reading resumes, then the
    connection closes; answers freed afterwards start nothing more."""

    async def drive():
        server = LabelServer(scheme, max_inflight=2)  # local: answers on a thread
        await server.start()
        try:
            conn, transport = _Connection(server), _Transport()
            conn.connection_made(transport)
            conn.data_received(_singles(1, 2) + b"\x00" * 32)
            assert len(conn.requests) == 2 and not transport.reading
            deadline = time.monotonic() + 30
            while conn.requests:
                assert time.monotonic() < deadline, "requests never finished"
                await asyncio.sleep(0.005)
            conn.connection_lost(None)
            return transport, server.stats.protocol_errors
        finally:
            await server.aclose()

    transport, protocol_errors = asyncio.run(drive())
    assert transport.closing and protocol_errors == 1
    errors = [f for f in transport.replies if f.type is FrameType.ERROR]
    assert len(errors) == 1 and errors[0].request_id == 0


def test_a_lost_connection_starts_none_of_its_buffered_frames(scheme):
    """Dropping the requests of a connection that went away while held
    frees its slots but starts no frame still buffered: nothing would
    ever answer or drop it, and its generation ref would block a reload
    drain."""

    async def drive():
        server = LabelServer(scheme, max_inflight=2)
        await server.start()
        try:
            conn, transport = _Connection(server), _Transport()
            conn.connection_made(transport)
            conn.data_received(_singles(1, 2, 3))
            assert len(conn.requests) == 2 and not transport.reading
            transport.close()  # a transport is closed before connection_lost
            conn.connection_lost(None)
            return len(conn.requests), server.generation.refs, server.stats.frames
        finally:
            await server.aclose()

    assert asyncio.run(drive()) == (0, 0, 2)
