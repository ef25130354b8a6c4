"""The preloaded worker factory and the light front door.

Every shard worker forks from one forkserver that imported the worker's
modules once (:func:`~repro.serving.shards.start_worker_factory`) and
opens a snapshot: the served file, or a private temporary snapshot of a
live scheme.  These tests pin what that promises:

* ``import repro.server.server`` loads neither numpy nor a decoder, and
  the lazy package exports still resolve to their defining objects;
* forkserver workers start no thread in the parent, answer bit for bit
  like the scheme, and none outlives ``close()``;
* no worker is a fork of its caller, a live scheme's service included:
  its workers, respawns too, open a private snapshot that exists while
  the service serves and is gone after ``close()`` (for ``repro.cli
  serve``, after SIGTERM); an object the store cannot save is refused
  with ``SnapshotError`` and leaves no file;
* a program that finds ``repro`` only through an entry it put on
  ``sys.path`` itself — no ``PYTHONPATH`` — still gets workers that
  start with the store imported, respawns included;
* a server process stopped by closing its stdin leaves no descendant
  alive: no forkserver, no resource tracker, no worker.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
from importlib import import_module
from pathlib import Path

import pytest

import repro
import repro.core
from repro.core.sketch_scheme import SketchConnectivityScheme
from repro.graph import generators
from repro.server import QueryClient, ServerError
from repro.serving import ShardedQueryService, canonical_fault_key, shard_of
from repro.serving.shards import start_worker_factory
from repro.store import SnapshotError, save_snapshot
from tests.server_util import ServerThread

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


def _wait_dead(pid: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while _alive(pid):
        assert time.monotonic() < deadline, f"pid {pid} never died"
        time.sleep(0.01)


def _parent_pid(pid: int) -> int:
    with open(f"/proc/{pid}/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[1])


def _maps(pid: int, path) -> bool:
    """Whether process ``pid`` has ``path`` mapped."""
    with open(f"/proc/{pid}/maps") as fh:
        return str(path) in fh.read()


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


def test_front_door_answers_a_view_without_numpy_or_the_decoder(scheme):
    """A view and its columns unpickle, and answer, in a process that
    imported the front door only."""
    from repro.server.protocol import write_sk_results

    pairs = _pairs(scheme)
    part = scheme.decode_partition(sorted(_faults(scheme)[0]))
    blob = pickle.dumps(
        (pickle.dumps(part.view()), pickle.dumps(scheme.view_columns()), pairs)
    )
    code = (
        "import json, pickle, sys; import repro.server.server\n"
        "from repro.serving.views import write_items\n"
        "view, columns, pairs = pickle.loads(sys.stdin.buffer.read())\n"
        "items = write_items(pickle.loads(columns), pickle.loads(view), pairs)\n"
        "print(json.dumps([sorted(sys.modules), [i.hex() for i in items]]))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], input=blob, capture_output=True,
        check=True, env=env,
    )
    modules, items = json.loads(out.stdout)
    assert "numpy" not in modules
    assert "repro.core.sketch_scheme" not in modules
    expected = write_sk_results(part.answer_many(pairs, want_path=True))
    assert [bytes.fromhex(i) for i in items] == expected


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
    svc = ShardedQueryService.from_snapshot(snap, num_shards=2)
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


@pytest.fixture
def private_dir(tmp_path, monkeypatch):
    """Where a live scheme's service saves its private snapshot.  The
    factory starts first, so its own socket stays where it was."""
    start_worker_factory()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


def _private_snapshots(directory) -> list:
    return sorted(directory.glob("repro-shards-*"))


def test_no_worker_is_a_fork_of_its_caller(scheme, private_dir):
    pairs = _pairs(scheme)
    faults = _faults(scheme)[0]
    home = shard_of(canonical_fault_key(faults), 2)
    expected = scheme.query_many(pairs, faults, want_path=True)
    with ShardedQueryService(scheme, num_shards=2, hot_key_share=None) as svc:
        assert svc.mode == "forkserver"
        pids = svc.worker_pids()
        assert all(_parent_pid(pid) != os.getpid() for pid in pids)
        (private,) = _private_snapshots(private_dir)
        assert svc.snapshot == str(private / "scheme.snap")
        assert svc.query_many(pairs, faults, want_path=True) == expected
        # an idle kill: the respawn reopens the private snapshot
        os.kill(pids[home], signal.SIGKILL)
        _wait_dead(pids[home])
        assert svc.query_many(pairs, faults, want_path=True) == expected
        fresh = svc.worker_pids()[home]
        assert fresh != pids[home] and _parent_pid(fresh) != os.getpid()
        assert _maps(fresh, private)
        assert svc.stats().pool_restarts == 1
    assert _private_snapshots(private_dir) == []


def test_no_server_worker_is_a_fork_of_its_caller(scheme, private_dir):
    pairs = _pairs(scheme)
    faults = _faults(scheme)[0]
    home = shard_of(canonical_fault_key(faults), 2)
    expected = scheme.query_many(pairs, faults, want_path=True)
    # after the kill, a fault set the front door has no view of yet, so
    # the respawned worker answers it
    other = next(
        F for F in _faults(scheme)[1:]
        if shard_of(canonical_fault_key(F), 2) == home
    )
    expected_other = scheme.query_many(pairs, other, want_path=True)
    with ServerThread(
        scheme, num_shards=2, hot_key_share=None, deadline_s=60.0
    ) as harness:
        pids = harness.server.worker_pids()
        assert all(_parent_pid(pid) != os.getpid() for pid in pids)
        (private,) = _private_snapshots(private_dir)
        with QueryClient("127.0.0.1", harness.port, timeout=60) as client:
            assert client.connectivity(pairs, faults, want_path=True) == expected
            os.kill(pids[home], signal.SIGKILL)
            deadline = time.monotonic() + 30
            while pids[home] in harness.server.worker_pids():
                assert time.monotonic() < deadline, "the worker was never replaced"
                time.sleep(0.01)
            assert client.connectivity(pairs, other, want_path=True) == expected_other
            fresh = harness.server.worker_pids()[home]
            with pytest.raises(ServerError, match="no snapshot path"):
                client.reload()  # the private snapshot is no reload source
        assert _parent_pid(fresh) != os.getpid() and _maps(fresh, private)
    assert _private_snapshots(private_dir) == []


#: A program that starts a live scheme's service, prints its private
#: snapshot's directory, and waits on stdin (to be killed).
_PRIVATE_SCRIPT = """
import os, sys
sys.path.insert(0, sys.argv[1])
from repro.core.sketch_scheme import SketchConnectivityScheme
from repro.graph import generators
from repro.serving import ShardedQueryService

graph = generators.random_connected_graph(40, extra_edges=50, seed=3)
svc = ShardedQueryService(SketchConnectivityScheme(graph, seed=5), num_shards=1)
print(os.path.dirname(svc.snapshot), flush=True)
sys.stdin.read()
"""


def test_a_killed_services_private_snapshot_is_reclaimed(scheme, private_dir):
    """A SIGKILL skips ``close()``: the next service this user starts in
    the same temporary directory deletes what the dead one left, and
    leaves a live one's alone."""
    env = dict(os.environ, TMPDIR=str(private_dir))
    env.pop("PYTHONPATH", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", _PRIVATE_SCRIPT, SRC],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        left = Path(proc.stdout.readline().strip())
        assert left.parent == private_dir and (left / "scheme.snap").exists()
        proc.kill()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - wedged
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stdin.close()
    assert left.exists()  # nothing ran close()
    with ShardedQueryService(scheme, num_shards=1) as first:
        assert not left.exists()
        mine = Path(first.snapshot).parent
        assert mine.name.startswith(f"repro-shards-{os.getpid()}-")
        with ShardedQueryService(scheme, num_shards=1) as second:
            assert mine.exists()  # its owner lives
            assert len(_private_snapshots(private_dir)) == 2
            assert second.snapshot != first.snapshot
    assert _private_snapshots(private_dir) == []


class _Unsaveable:
    """A scheme the store has no snapshot handler for."""

    def __init__(self, scheme):
        self.decode_partition = scheme.decode_partition


def test_an_unsaveable_scheme_is_refused_workers_and_served_locally(
    scheme, private_dir
):
    pairs = _pairs(scheme)
    faults = _faults(scheme)[0]
    obj = _Unsaveable(scheme)
    with pytest.raises(SnapshotError):
        ShardedQueryService(obj, num_shards=2)
    assert _private_snapshots(private_dir) == []
    with ShardedQueryService(obj, num_shards=0) as svc:
        assert svc.mode == "local"
        assert svc.query_many(pairs, faults) == scheme.query_many(pairs, faults)


def test_sigterm_stops_a_built_artifact_server_and_deletes_its_snapshot(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=str(tmp_path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--n", "48",
         "--shards", "2", "--port", "0"],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        assert "(2 shards)" in proc.stdout.readline()
        assert len(_private_snapshots(tmp_path)) == 1
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:  # pragma: no cover - wedged
            proc.kill()
            proc.wait()
        proc.stdout.close()
    assert _private_snapshots(tmp_path) == []


def test_workers_fork_preloaded_without_pythonpath(scheme, snap, tmp_path):
    pairs = _pairs(scheme)
    faults = _faults(scheme)[0]
    expected = scheme.query_many(pairs, faults, want_path=True)
    # after the kill, a fault set the front door has no view of, homed
    # on the killed worker's shard: the respawn answers it
    other = next(
        F for F in _faults(scheme)[1:] if shard_of(canonical_fault_key(F), 2) == 0
    )
    expected_other = scheme.query_many(pairs, other, want_path=True)
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
            assert client.connectivity(pairs, other, want_path=True) == expected_other
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
