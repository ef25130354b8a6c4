"""Chaos tests: SIGKILL shard workers, feed reloads bad snapshots.

The promised failure domain (see ``repro/server/server.py``): killing
one shard worker mid-load, with chunks in flight on it,

* errors exactly the requests in flight on that shard — as clean
  ``SHARD_LOST`` error frames as soon as the server reads the worker's
  EOF, never a hang or a traceback;
* leaves every other shard's stream untouched (zero errors);
* heals itself: the server respawns the worker (which re-opens the
  snapshot mmap) and subsequent answers are bit-identical to
  in-process ``query_many``;
* leaks nothing: every worker process is gone once the server closes.

Killing a worker while it is idle costs no request anything, whether
the server maps a snapshot file or a private snapshot of a live
backend: the server respawns it at once, and the next chunk for that
shard is answered well inside the chunk timeout.  A request deadline shorter
than the chunk timeout answers a stopped shard's request with one
``DEADLINE`` frame and leaves the worker alone, so once it resumes the
same request is answered again.  A reload to a missing or corrupt
snapshot fails without burning a generation version.
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
from repro.server import AsyncQueryClient, ErrorCode, QueryClient, ServerError
from repro.serving import canonical_fault_key, shard_of
from repro.store import save_snapshot
from tests.server_util import ServerThread

pytestmark = pytest.mark.network

#: server-side chunk timeout: how long a lost chunk takes to surface as
#: SHARD_LOST.  Long enough for a respawned worker to initialize (fork
#: from the factory + snapshot open), short enough to keep the test
#: brisk.
CHUNK_TIMEOUT_S = 5.0


@pytest.fixture(scope="module")
def chaos_env(tmp_path_factory):
    graph = generators.random_connected_graph(200, extra_edges=280, seed=51)
    scheme = SketchConnectivityScheme(graph, seed=52)
    snap = str(tmp_path_factory.mktemp("chaos") / "scheme.snap")
    save_snapshot(snap, scheme)
    return graph, scheme, snap


def _fault_set_on_shard(graph, shard: int, num_shards: int, rnd, size=4):
    """A fault set whose canonical key routes to the given shard."""
    while True:
        F = sorted(set(rnd.sample(range(graph.m), size)))
        if shard_of(canonical_fault_key(F), num_shards) == shard:
            return F


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, other uid
        return True
    return True


def test_sigkill_shard_worker_errors_inflight_only_then_recovers(chaos_env):
    graph, scheme, snap = chaos_env
    rnd = random.Random(53)
    F0 = _fault_set_on_shard(graph, 0, 2, rnd)
    F1 = _fault_set_on_shard(graph, 1, 2, rnd)
    pairs = [tuple(rnd.sample(range(graph.n), 2)) for _ in range(48)]
    expected0 = scheme.query_many(pairs, F0)
    expected1 = scheme.query_many(pairs, F1)
    # Once answered, a fault set is a front-door hit that never reaches
    # a worker: the shard-0 streams move to a fresh set on shard 0 when
    # its worker is frozen, so their requests are in flight on it.
    F0_fresh = _fault_set_on_shard(graph, 0, 2, rnd)
    expected0_fresh = scheme.query_many(pairs, F0_fresh)

    with ServerThread(
        snapshot=snap,
        num_shards=2,
        chunk_timeout=CHUNK_TIMEOUT_S,
        deadline_s=60.0,
        # Pin fault sets to their hash shard.  Hot-key replication
        # would deliberately round-robin a dominant fault set across
        # *all* shards (it trades isolation for throughput) — during
        # the post-kill stall the healthy stream becomes dominant and
        # would be replicated onto the dead shard, muddying the
        # isolation property this test asserts.
        hot_key_share=None,
    ) as harness:
        pids_before = harness.server.worker_pids()
        assert len(pids_before) == 2 and all(_alive(p) for p in pids_before)
        victim = pids_before[0]  # pools are indexed by shard

        async def drive():
            errors = {"shard0": [], "shard1": []}
            ok = {"shard0": 0, "shard1": 0}
            ok_after_error = {"shard0": 0}
            stop = asyncio.Event()

            asked = {"shard0": (F0, expected0), "shard1": (F1, expected1)}

            async def stream(name):
                client = await AsyncQueryClient.connect(
                    "127.0.0.1", harness.port
                )
                try:
                    while not stop.is_set():
                        F, expected = asked[name]
                        try:
                            ans = await client.connectivity(pairs, F)
                        except ServerError as exc:
                            errors[name].append(exc.code)
                            continue
                        # every delivered answer is bit-identical, before,
                        # during and after the kill
                        assert ans == expected
                        ok[name] += 1
                        if errors.get(name):
                            ok_after_error[name] = (
                                ok_after_error.get(name, 0) + 1
                            )
                finally:
                    await client.aclose()

            tasks = [
                asyncio.ensure_future(stream("shard0")),
                asyncio.ensure_future(stream("shard0")),
                asyncio.ensure_future(stream("shard0")),
                asyncio.ensure_future(stream("shard1")),
            ]
            loop = asyncio.get_running_loop()
            try:
                # let the streams establish: the doomed worker is busy
                t0 = loop.time()
                while ok["shard0"] < 3 and loop.time() - t0 < 30:
                    await asyncio.sleep(0.02)
                assert ok["shard0"] >= 3, "streams never warmed up"

                # Freeze the doomed worker first, so chunks are certainly
                # in flight on it when it dies: a worker killed while
                # idle fails nothing (see the idle-kill test below).
                # Replies written before the freeze are read during the
                # pause; whatever is in flight afterwards never returns.
                os.kill(victim, signal.SIGSTOP)
                asked["shard0"] = (F0_fresh, expected0_fresh)
                await asyncio.sleep(0.2)
                service = harness.server.generation.service
                t0 = loop.time()
                while not service.queue_depths()[0] and loop.time() - t0 < 30:
                    await asyncio.sleep(0.02)
                assert service.queue_depths()[0], "no chunk reached the worker"
                os.kill(victim, signal.SIGKILL)

                # the in-flight chunks surface as SHARD_LOST ...
                t0 = loop.time()
                while not errors["shard0"] and loop.time() - t0 < 30:
                    await asyncio.sleep(0.05)
                # ... and the shard heals (respawned worker answers)
                t0 = loop.time()
                while not ok_after_error["shard0"] and loop.time() - t0 < 60:
                    await asyncio.sleep(0.05)
            finally:
                stop.set()
                await asyncio.gather(*tasks)
            return errors, ok, ok_after_error

        errors, ok, ok_after_error = harness.run(drive(), timeout=180)

        # in-flight requests on the killed shard: clean SHARD_LOST frames
        assert errors["shard0"], "kill produced no SHARD_LOST error"
        assert all(
            code == ErrorCode.SHARD_LOST for code in errors["shard0"]
        ), f"unexpected error codes: {errors['shard0']}"
        # the other shard's stream never saw a single failure
        assert errors["shard1"] == []
        assert ok["shard1"] > 0
        # the shard healed and answered bit-identically afterwards
        assert ok_after_error["shard0"] > 0

        # respawn visible in the pids: two live workers, victim replaced
        pids_after = harness.server.worker_pids()
        assert len(pids_after) == 2
        assert victim not in pids_after
        assert all(_alive(p) for p in pids_after)

        # belt and braces: a fresh connection answers bit-identically
        with QueryClient("127.0.0.1", harness.port, timeout=60) as client:
            assert client.connectivity(pairs, F0) == expected0
            stats = client.stats()
        assert stats["server"]["errors"].get("SHARD_LOST", 0) >= 1

    # no leaked workers: every worker process is gone after close
    deadline = time.monotonic() + 30
    remaining = set(pids_before + pids_after)
    while remaining and time.monotonic() < deadline:
        remaining = {p for p in remaining if _alive(p)}
        if remaining:
            time.sleep(0.1)
    assert not remaining, f"leaked worker processes: {sorted(remaining)}"


def test_idle_worker_kill_heals_without_a_timeout(chaos_env):
    graph, scheme, snap = chaos_env
    rnd = random.Random(57)
    F0 = _fault_set_on_shard(graph, 0, 2, rnd)
    pairs = [tuple(rnd.sample(range(graph.n), 2)) for _ in range(16)]
    expected = scheme.query_many(pairs, F0)
    # a fault set the front door has no view of: the fresh worker answers
    F0_fresh = _fault_set_on_shard(graph, 0, 2, rnd)
    expected_fresh = scheme.query_many(pairs, F0_fresh)

    # the snapshot file, then a private snapshot of the live backend
    for source in ({"snapshot": snap}, {"backend": scheme}):
        with ServerThread(
            **source,
            num_shards=2,
            chunk_timeout=CHUNK_TIMEOUT_S,
            deadline_s=60.0,
            hot_key_share=None,
        ) as harness:
            with QueryClient("127.0.0.1", harness.port, timeout=60) as client:
                # shard 0's worker is up, has answered, and now sits idle
                assert client.connectivity(pairs, F0) == expected
                victim = harness.server.worker_pids()[0]
                os.kill(victim, signal.SIGKILL)

                # no request is in flight: the server notices the death
                # on its own and respawns the worker
                deadline = time.monotonic() + 30
                while victim in harness.server.worker_pids():
                    assert time.monotonic() < deadline, "victim never replaced"
                    time.sleep(0.02)
                pids = harness.server.worker_pids()
                assert len(pids) == 2 and all(_alive(p) for p in pids)

                t0 = time.monotonic()
                answers = client.connectivity(pairs, F0_fresh)
                elapsed = time.monotonic() - t0
                stats = client.stats()
            assert answers == expected_fresh
            # served by the fresh worker (its start-up included), not
            # rescued by a timeout
            assert elapsed < 0.6 * CHUNK_TIMEOUT_S, f"answer took {elapsed:.2f}s"
            assert stats["server"]["errors"] == {}
            assert stats["service"]["pool_restarts"] == 1


def test_deadline_below_chunk_timeout_answers_deadline_then_recovers(chaos_env):
    graph, scheme, snap = chaos_env
    rnd = random.Random(59)
    F0 = _fault_set_on_shard(graph, 0, 2, rnd)
    pairs = [tuple(rnd.sample(range(graph.n), 2)) for _ in range(16)]
    expected = scheme.query_many(pairs, F0)
    # a fault set the front door has no view of: it waits for the worker
    F0_fresh = _fault_set_on_shard(graph, 0, 2, rnd)
    expected_fresh = scheme.query_many(pairs, F0_fresh)

    with ServerThread(
        snapshot=snap,
        num_shards=2,
        deadline_s=1.0,
        chunk_timeout=60.0,
        hot_key_share=None,
    ) as harness:
        with QueryClient("127.0.0.1", harness.port, timeout=60) as client:
            # a worker may take longer than the deadline to start: warm
            # shard 0 up first
            deadline = time.monotonic() + 30
            while True:
                try:
                    assert client.connectivity(pairs, F0) == expected
                    break
                except ServerError as exc:
                    assert exc.code == ErrorCode.DEADLINE
                    assert time.monotonic() < deadline, "shard 0 never answered"
            before = client.stats()["server"]["errors"].get("DEADLINE", 0)
            victim = harness.server.worker_pids()[0]
            os.kill(victim, signal.SIGSTOP)
            try:
                t0 = time.monotonic()
                with pytest.raises(ServerError) as excinfo:
                    client.connectivity(pairs, F0_fresh)
                elapsed = time.monotonic() - t0
            finally:
                os.kill(victim, signal.SIGCONT)
            assert excinfo.value.code == ErrorCode.DEADLINE
            assert elapsed < 10, f"DEADLINE took {elapsed:.2f}s"
            # the stopped worker kept its request queue: it answers the
            # abandoned chunk (dropped) and then this one
            assert client.connectivity(pairs, F0_fresh) == expected_fresh
            stats = client.stats()
        assert stats["server"]["errors"] == {"DEADLINE": before + 1}
        assert stats["service"]["pool_restarts"] == 0
        assert harness.server.worker_pids()[0] == victim


def test_failed_reload_keeps_the_version(chaos_env, tmp_path):
    graph, scheme, snap = chaos_env
    bogus = tmp_path / "bogus.snap"
    bogus.write_bytes(b"not a snapshot at all")
    pairs = [(0, 1), (2, 3)]

    with ServerThread(snapshot=snap, num_shards=0) as harness:
        with QueryClient("127.0.0.1", harness.port, timeout=60) as client:
            before = client.ping()
            for bad in (tmp_path / "missing.snap", bogus):
                with pytest.raises(ServerError):
                    client.reload(str(bad))
                assert client.ping() == before
                assert harness.server.version == before
                # the old generation keeps serving
                assert client.connectivity(pairs, [0]) == scheme.query_many(
                    pairs, [0]
                )
            old, new, _kind = client.reload(snap)
        assert (old, new) == (before, before + 1)
