"""The preloaded worker factory and the light front door.

A snapshot-backed :class:`~repro.server.LabelServer` forks its shard
workers from one forkserver that imported the worker's modules once
(:func:`~repro.serving.shards.start_worker_factory`).  These tests pin
what that promises:

* ``import repro.server.server`` loads neither numpy nor a decoder, and
  the lazy package exports still resolve to their defining objects;
* forkserver workers start no thread in the parent, answer bit for bit
  like the scheme, and none outlives ``close()``;
* a program that finds ``repro`` only through an entry it put on
  ``sys.path`` itself — no ``PYTHONPATH`` — still gets workers that
  start with the store imported, respawns included;
* a server process stopped by closing its stdin leaves no descendant
  alive: no forkserver, no resource tracker, no worker.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from importlib import import_module
from pathlib import Path

import pytest

import repro
import repro.core
from repro.core.sketch_scheme import SketchConnectivityScheme
from repro.graph import generators
from repro.server import QueryClient
from repro.serving import ShardedQueryService
from repro.store import save_snapshot

pytestmark = pytest.mark.network

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: A snapshot server the way a deployment script starts one: ``src``
#: only inserted into ``sys.path``, a JSON line once bound, serving
#: until stdin closes (the read runs in an executor thread).
_SERVER_SCRIPT = """
import asyncio, json, os, sys
sys.path.insert(0, sys.argv[1])

async def serve(snapshot):
    from repro.server import LabelServer

    server = LabelServer(snapshot=snapshot, num_shards=2)
    await server.start()
    try:
        line = {"port": server.port, "workers": server.worker_pids()}
        print(json.dumps(line), flush=True)
        await asyncio.get_running_loop().run_in_executor(None, sys.stdin.read)
    finally:
        await server.aclose()

asyncio.run(serve(sys.argv[2]))
"""


@pytest.fixture(scope="module")
def scheme():
    graph = generators.random_connected_graph(72, extra_edges=100, seed=21)
    return SketchConnectivityScheme(graph, seed=5)


@pytest.fixture(scope="module")
def snap(scheme, tmp_path_factory):
    path = tmp_path_factory.mktemp("factory") / "scheme.snap"
    save_snapshot(path, scheme)
    return str(path)


def _alive(pid: int) -> bool:
    """Whether ``pid`` exists and has not exited (zombies count as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _descendants(root: int) -> set[int]:
    """Every live process below ``root`` in the process tree."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (FileNotFoundError, ProcessLookupError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    found, todo = set(), [root]
    while todo:
        for child in children.get(todo.pop(), ()):
            found.add(child)
            todo.append(child)
    return found


def _pairs(scheme, count: int = 12, seed: int = 4):
    rnd = random.Random(seed)
    return [tuple(rnd.sample(range(scheme.graph.n), 2)) for _ in range(count)]


def _faults(scheme, count: int = 12, seed: int = 7):
    rnd = random.Random(seed)
    return [sorted(rnd.sample(range(scheme.graph.m), 3)) for _ in range(count)]


class _ServerProcess:
    """:data:`_SERVER_SCRIPT` as a child process, with no ``PYTHONPATH``
    and a working directory that does not hold ``repro``."""

    def __init__(self, snapshot: str, cwd):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _SERVER_SCRIPT, SRC, snapshot],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=cwd,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("server exited before binding")
        info = json.loads(line)
        self.port, self.workers = info["port"], info["workers"]

    def stop(self) -> None:
        """Close stdin, as ``perfbench/server_main.py`` is stopped."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover - wedged
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def test_front_door_imports_no_numpy_and_no_decoder():
    code = (
        "import json, sys; import repro.server.server; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=env,
    )
    modules = set(json.loads(out.stdout))
    assert "repro.server.server" in modules
    assert "numpy" not in modules
    assert "repro.core.sketch_scheme" not in modules


@pytest.mark.parametrize(
    "package, names",
    [
        (
            repro,
            [
                "Edge", "Graph", "InducedSubgraph", "generators",
                "FaultTolerantConnectivity", "FaultTolerantDistance",
                "FaultTolerantRouting", "CycleSpaceConnectivityScheme",
                "SketchConnectivityScheme", "ForestConnectivityScheme",
                "DistanceLabelScheme", "ConnectivityOracle", "DistanceOracle",
                "FaultScenario", "PartitionCache", "ShardedQueryService",
                "__version__",
            ],
        ),
        (
            repro.core,
            [
                "CycleSpaceConnectivityScheme", "SketchConnectivityScheme",
                "ConnectivityPartition", "ForestConnectivityScheme",
                "ComponentForest", "PathSegment", "SuccinctPath",
                "DistanceLabelScheme", "FaultTolerantConnectivity",
                "FaultTolerantDistance",
            ],
        ),
    ],
)
def test_lazy_exports_resolve_to_their_defining_objects(package, names):
    assert sorted(package.__all__) == sorted(names)
    listed = set(dir(package))
    for name in names:
        value = getattr(package, name)
        assert name in listed
        if name == "__version__":
            continue
        if name == "generators":
            assert value is import_module("repro.graph.generators")
        else:
            assert getattr(import_module(value.__module__), name) is value
    star: dict = {}
    exec(f"from {package.__name__} import *", star)
    assert all(star[name] is getattr(package, name) for name in names)
    with pytest.raises(AttributeError):
        getattr(package, "no_such_export")


def test_forkserver_workers_start_no_threads_and_outlive_nothing(scheme, snap):
    pairs = _pairs(scheme)
    per = _faults(scheme)
    threads = threading.active_count()
    svc = ShardedQueryService.from_snapshot(
        snap, num_shards=2, mp_context="forkserver"
    )
    try:
        assert svc.mode == "forkserver"
        got = svc.query_many(pairs, per, want_path=True)
        assert got == scheme.query_many(pairs, per, want_path=True)
        assert svc.stats().queries == len(pairs)
        assert threading.active_count() == threads
        pids = svc.worker_pids()
        assert len(pids) == 2 and all(_alive(pid) for pid in pids)
    finally:
        svc.close()
    assert not [pid for pid in pids if _alive(pid)]


def test_workers_fork_preloaded_without_pythonpath(scheme, snap, tmp_path):
    pairs = _pairs(scheme)
    faults = _faults(scheme)[0]
    expected = scheme.query_many(pairs, faults, want_path=True)
    server = _ServerProcess(snap, tmp_path)
    try:
        with QueryClient("127.0.0.1", server.port, timeout=60) as client:
            assert client.connectivity(pairs, faults, want_path=True) == expected
            # an idle kill: the respawn forks from the same factory
            before = _descendants(server.proc.pid)
            os.kill(server.workers[0], signal.SIGKILL)
            deadline = time.monotonic() + 30
            while not _descendants(server.proc.pid) - before:
                assert time.monotonic() < deadline, "the worker was never replaced"
                time.sleep(0.01)
            assert client.connectivity(pairs, faults, want_path=True) == expected
            counters = client.stats().counters
    finally:
        server.stop()
    assert counters["service.pool_restarts"] == 1
    assert counters["worker.starts"] == 2
    assert counters["worker.preloaded_starts"] == 2


def test_server_closed_by_stdin_leaves_no_descendant(scheme, snap, tmp_path):
    server = _ServerProcess(snap, tmp_path)
    try:
        with QueryClient("127.0.0.1", server.port, timeout=60) as client:
            client.connectivity(_pairs(scheme), _faults(scheme)[0])
        family = _descendants(server.proc.pid)
    finally:
        server.stop()
    # the forkserver, the resource tracker and two workers
    assert set(server.workers) <= family and len(family) >= 4
    time.sleep(2.0)
    assert not [pid for pid in family if _alive(pid)]
