"""Sharded query service: one worker process per shard over one
immutable snapshot.

Once constructed, a scheme's packed label store never mutates — the
whole query side is read-only — so serving can fan out across worker
processes without locks or copies.  :class:`ShardedQueryService`:

* starts shards **one way**.  ``num_shards=0`` answers in process from
  one :class:`~repro.serving.partition_cache.PartitionCache`.  Any
  ``num_shards > 0`` forks every worker, respawns and reload
  generations included, from **one preloaded worker factory**
  (:func:`start_worker_factory`): a forkserver that imported the store
  and decode modules once, so a worker start costs a fork (a few
  milliseconds), not an interpreter start plus 0.3 s of imports.  Each
  worker opens a :mod:`repro.store` snapshot read-only (mmap: every
  worker on the host shares one page-cache copy) — the caller's file,
  or, for a live scheme, a private temporary snapshot the service
  saves once and :meth:`~ShardedQueryService.close` deletes (a later
  service reclaims one whose process was killed first).  No
  worker is a fork of the caller, whose other threads may hold locks
  or block in reads;
* talks to each worker over **its own duplex pipe** and nothing else:
  a batch goes parent → pipe → worker → pipe → parent, with no helper
  thread and no shared queue.  Blocking callers (:meth:`query_many`,
  :meth:`stats`) read the pipes in their own thread; once
  :meth:`bind_loop` hands them to an asyncio loop, the loop reads them
  (``loop.add_reader``) and :meth:`submit` answers each request through
  its reply callback, with the answers already encoded as reply items
  when the caller passes an answer writer of
  :mod:`repro.server.protocol`, and with the partition's view when it
  passes the sketch view writer of :mod:`repro.serving.views`.  A
  worker that dies shows up as EOF on its pipe: the batch in flight on
  that shard fails with
  :class:`ShardLostError` at once and the worker is respawned; one that
  hangs past ``chunk_timeout`` is killed and replaced the same way;
* **group-commits** submitted requests per home shard: a request goes
  out at once to an idle shard; the ones that arrive while it works
  (any fault sets, up to ``max_chunk`` pairs) go as one batch message
  when its reply is read — no wait timer;
* routes every request by the **hash of its canonical fault set**, so
  all queries about one failure state land on the same worker and hit
  that worker's :class:`~repro.serving.partition_cache.PartitionCache`;
* **replicates pathologically hot fault sets**: when one key takes
  more than ``hot_key_share`` of all traffic, its requests fan out
  round-robin over *every* shard instead of pinning its hash owner —
  each worker's cache builds its own replica of the partition (cheap:
  one decode per worker) and the hot key stops serializing the fleet;
* counts each serving event once, as it happens, in a metrics
  registry — its own (queries, chunks, per-shard load, hot keys,
  restarts) or a worker cache's (hits, misses, evictions); a
  :class:`ServiceStats` is a read-only view of their merged dump.

Answers are bit-identical to the single-process scheme (a restored
snapshot answers bit for bit like the object saved; asserted by
``tests/test_serving.py``).
"""

from __future__ import annotations

import asyncio
import glob
import multiprocessing
import os
import pickle
import shutil
import socket
import struct
import sys
import threading
import time
import weakref
from collections import Counter, deque
from dataclasses import asdict, dataclass
from functools import partial
from multiprocessing import forkserver
from multiprocessing.connection import wait as wait_readable
from typing import Callable, Iterable, Optional, Sequence

from repro.core._batch import normalize_faults
from repro.obs import MetricsRegistry
from repro.serving.partition_cache import (
    CacheStats,
    FaultKey,
    PartitionCache,
    canonical_fault_key,
    group_by_canonical_key,
)
from repro.serving.views import answer_by_view, write_items

#: Timeout (s) for any single chunk result; a worker that takes longer
#: is considered lost and the error propagates to the caller.
_CHUNK_TIMEOUT = 600.0

#: :meth:`ShardedQueryService.close` gives workers this long (s) to exit
#: after SIGTERM before it SIGKILLs them, and as long again to be reaped.
_STOP_GRACE_S = 2.0

#: Hot-key traffic counters are pruned to half this size when they
#: exceed it (coldest keys dropped), so a churning stream of distinct
#: fault sets cannot grow the tracking dict without bound.  A genuinely
#: hot key's count dwarfs the pruned tail, so detection is unaffected.
_HOT_TRACK_LIMIT = 4096


#: What a worker imports before it can answer a sketch query.  The
#: worker factory imports them once; every worker it forks starts with
#: them loaded (:func:`start_worker_factory`).
_FACTORY_PRELOAD = (
    "repro.serving.shards",
    "repro.store",
    "repro.core.sketch_scheme",
    "repro.server.protocol",
    "repro.serving.views",
)

#: The directory that holds the ``repro`` package.
_PACKAGE_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

#: Serializes the factory start's brief ``PYTHONPATH`` edit.
_FACTORY_LOCK = threading.Lock()


class ShardLostError(RuntimeError):
    """A shard worker died or stopped answering with a message in flight."""


def start_worker_factory():
    """The ``forkserver`` context, with its server running and preloaded
    with :data:`_FACTORY_PRELOAD`; a no-op while that server lives.

    Every shard worker forks from this one warm process, so a worker
    start, a respawn and a reload generation cost a fork instead of an
    interpreter start plus the imports.  The forkserver is a fresh
    exec'd interpreter with one thread, so every worker starts from a
    clean process; the server's own process, whose other threads may
    hold locks or block in reads, is never forked.

    On Python 3.11 the forkserver is handed the parent's ``sys.path``
    but never applies it, and its preload skips a module that fails to
    import.  A program that finds ``repro`` only through an entry it
    added to ``sys.path`` itself would get a factory that preloads
    nothing, and every worker would import the stack on its own.  So
    the package's directory goes first on the forkserver's
    ``PYTHONPATH`` while it starts, and the parent's value comes back.
    """
    ctx = multiprocessing.get_context("forkserver")
    with _FACTORY_LOCK:
        ctx.set_forkserver_preload(list(_FACTORY_PRELOAD))
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (_PACKAGE_ROOT, saved) if p
        )
        try:
            forkserver.ensure_running()
        finally:
            if saved is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = saved
    return ctx


def _serve_batch(cache: PartitionCache, entries) -> list:
    """Serve each ``(pairs, faults, kw, writer)`` entry of one batch, in
    order, off the worker's partition cache.

    Returns one ``(True, (answers, meta))`` or ``(False, exception)``
    per entry, so an entry that raises fails alone.  With a ``writer``
    (an answer writer of :mod:`repro.server.protocol`) the answers go
    back as the encoded reply items it makes, so the parent only splices
    bytes; without one they are the native answers, bit-identical to a
    direct ``query_many``.  The sketch view writer
    (:func:`repro.serving.views.write_items`) answers off the partition's
    view instead, and ``meta`` carries that view pickled (``"view"``)
    and, when ``kw`` asks for them, the columns it is read against
    (``"columns"``), for the front door to answer the fault set's next
    requests itself.  ``meta`` also carries the pid and ``worker_s``,
    the time to answer (a request trace's ``partition`` span): the
    decode or cache lookup, and for a view answer its writing too.
    """
    replies = []
    for pairs, faults, kw, writer in entries:
        try:
            t0 = time.perf_counter()
            meta = {"pid": os.getpid()}
            if writer is write_items:
                answers, view, columns = answer_by_view(cache, pairs, faults, **kw)
                meta["worker_s"] = time.perf_counter() - t0
                meta["view"] = pickle.dumps(view, pickle.HIGHEST_PROTOCOL)
                if columns is not None:
                    meta["columns"] = pickle.dumps(columns, pickle.HIGHEST_PROTOCOL)
            else:
                answers = cache.query_many(pairs, faults, **kw)
                meta["worker_s"] = time.perf_counter() - t0
                if writer is not None:
                    answers = writer(answers)
        except Exception as exc:
            replies.append((False, exc))
        else:
            replies.append((True, (answers, meta)))
    return replies


def _cache_dump(cache: PartitionCache) -> dict:
    """The cache's registry (wire dump), ``cache.entries`` set to its
    live size: the parent merges it exactly (fixed bucket family)."""
    cache.obs.gauge("cache.entries").set(len(cache))
    return cache.obs.to_wire()


def shard_of(key: FaultKey, num_shards: int) -> int:
    """Stable shard index of a canonical fault key.

    Computed in the parent only; ``hash`` of an int tuple is
    deterministic (integer hashing is not salted by ``PYTHONHASHSEED``).
    """
    return hash(key) % num_shards


#: Name prefix of a private snapshot directory; the owner's pid follows.
_PRIVATE_PREFIX = "repro-shards-"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # another user's live process
        return True
    return True


def _reclaim_private_snapshots(tmpdir: str) -> None:
    """Delete the ``repro-shards-<pid>-*`` directories in ``tmpdir``
    that this user owns and whose process no longer exists: what a
    service killed before :meth:`ShardedQueryService.close` left."""
    uid = os.getuid()
    for path in glob.glob(os.path.join(glob.escape(tmpdir), _PRIVATE_PREFIX + "*-*")):
        pid = os.path.basename(path)[len(_PRIVATE_PREFIX):].split("-", 1)[0]
        try:
            owned = os.lstat(path).st_uid == uid and os.path.isdir(path)
        except OSError:
            continue
        if owned and pid.isdigit() and not _pid_alive(int(pid)):
            shutil.rmtree(path, ignore_errors=True)


#: what a worker does with each message ``(op, args)`` it reads.
_OPS = {"batch": _serve_batch, "stats": _cache_dump}


def _worker_main(conn, snapshot: str, cache_capacity: int, metrics: bool) -> None:
    """Body of one shard worker: answer ``conn``'s messages in order.

    The worker opens ``snapshot`` read-only (every worker on the host
    shares one page-cache copy of the packed stores).  Each message
    ``(op, args)`` gets one reply ``(ok, payload)`` — the result, or the
    exception it raised.  A worker whose snapshot fails to open stays up
    and answers every message with that error, so a bad snapshot cannot
    become a respawn loop.  Returns at EOF (the parent closed its end or
    died).

    The worker's registry counts ``worker.starts`` and, of those,
    ``worker.preloaded_starts``: starts that found :mod:`repro.store`
    already imported (forked from the preloaded factory).  The STATS
    sweep merges both exactly.
    """
    obs = MetricsRegistry(enabled=metrics)
    obs.counter("worker.starts").inc()
    obs.counter("worker.preloaded_starts").inc(int("repro.store" in sys.modules))
    try:
        from repro.store import load_snapshot

        cache = PartitionCache(
            load_snapshot(snapshot), capacity=cache_capacity, obs=obs
        )
        broken = None
    except Exception as exc:
        cache, broken = None, exc
    while True:
        try:
            op, args = conn.recv()
        except (EOFError, OSError):
            return
        try:
            if broken is not None:
                raise broken
            reply = (True, _OPS[op](cache, *args))
        except Exception as exc:
            reply = (False, exc)
        try:
            conn.send(reply)
        except OSError:
            return
        except Exception as exc:  # the reply does not pickle
            conn.send((False, RuntimeError(f"{type(exc).__name__}: {exc}")))


def _frame(msg) -> bytes:
    """``msg`` pickled behind the 4-byte big-endian length header that
    ``multiprocessing.connection.Connection.recv`` reads (messages stay
    far below that header's 2 GiB limit)."""
    body = pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)
    return struct.pack("!i", len(body)) + body


def _settle(future, ok: bool, payload) -> None:
    """Reply callback resolving an asyncio future (unless abandoned)."""
    if future.done():
        return
    if ok:
        future.set_result(payload)
    else:
        future.set_exception(payload)


def _reap(procs: list, grace: float) -> list:
    """Join ``procs`` within ``grace`` seconds; return those still running."""
    deadline = time.monotonic() + grace
    running = []
    for proc in procs:
        proc.join(max(0.0, deadline - time.monotonic()))
        if proc.exitcode is None:
            running.append(proc)
        else:
            proc.close()
    return running


class _Worker:
    """One shard's worker process and the parent's end of its pipe."""

    __slots__ = ("shard", "epoch", "proc", "pid", "conn", "sock", "jobs", "wbuf")

    def __init__(self, shard: int, epoch: int, proc, conn):
        self.shard = shard
        self.epoch = epoch
        self.proc = proc
        # kept apart from ``proc``, which is closed once reaped: other
        # threads may list pids (worker_pids) while a worker is replaced
        self.pid = proc.pid
        self.conn = conn
        # A second handle on the same socket, for sends that must not
        # block (MSG_DONTWAIT); the descriptor itself stays in blocking
        # mode, which ``conn.recv`` needs.
        self.sock = socket.socket(fileno=os.dup(conn.fileno()))
        self.sock.setblocking(True)
        #: reply callbacks ``job(ok, payload)`` of the messages in
        #: flight, oldest first — the worker answers in order.
        self.jobs: deque = deque()
        #: bytes a full socket buffer refused (bound loop only); the
        #: loop's writer callback flushes them.
        self.wbuf = bytearray()


class _Request:
    """One query chunk for a shard worker and the ``reply`` callback for
    its answer: ``shard`` is its home shard, ``posted`` the
    ``perf_counter`` instant its batch went out (``None`` while it waits
    in ``queue``, its shard's waiting line)."""

    __slots__ = (
        "pairs", "faults", "kw", "writer", "reply", "shard", "posted", "queue"
    )

    def __init__(self, pairs, faults, kw, writer, reply, shard, queue=None):
        self.pairs = pairs
        self.faults = faults
        self.kw = kw
        self.writer = writer
        self.reply = reply
        self.shard = shard
        self.posted = None
        self.queue = queue

    def cancel(self) -> None:
        """Drop the request: scrubbed from its shard's line while it
        waits, its answer ignored once posted; ``reply`` is never called."""
        self.reply = None
        if self.queue is not None:
            self.queue.remove(self)
            self.queue = None


@dataclass(frozen=True)
class ServiceStats:
    """A :class:`ShardedQueryService`'s counters: a read-only view of
    its merged registry dump (:meth:`from_dump`)."""

    queries: int = 0
    chunks: int = 0
    per_shard: tuple = ()
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_entries: int = 0  # live partitions across all worker caches
    mode: str = "local"
    max_chunk_seen: int = 0
    hot_keys: int = 0
    replicated_chunks: int = 0
    pool_restarts: int = 0  # shard workers respawned after a loss
    queue_depth: tuple = ()  # messages in flight per shard, at snapshot time
    per_shard_cache: tuple = ()  # one cache-counter dict per shard

    @classmethod
    def from_dump(cls, dump: dict, mode: str, num_shards: int) -> "ServiceStats":
        """Read the view off a service's merged registry dump (see
        :meth:`ShardedQueryService.astats_bundle`); a missing name reads 0."""
        n = Counter({**dump["counters"], **dump["gauges"]})
        shards = range(num_shards)
        per_shard_cache = tuple(
            {
                "hits": n[f"shard.{i}.cache_hits"],
                "misses": n[f"shard.{i}.cache_misses"],
                "evictions": n[f"shard.{i}.cache_evictions"],
                "entries": n[f"shard.{i}.cache_entries"],
                "hit_rate": round(n[f"shard.{i}.cache_hit_rate"], 4),
            }
            for i in shards
        )
        chunk_size = dump["histograms"].get("shard.chunk_size", {})
        return cls(
            queries=n["service.queries"],
            chunks=n["service.chunks"],
            per_shard=tuple(n[f"shard.{i}.queries"] for i in shards),
            cache_hits=n["cache.hits"],
            cache_misses=n["cache.misses"],
            cache_evictions=n["cache.evictions"],
            cache_entries=sum(c["entries"] for c in per_shard_cache),
            mode=mode,
            max_chunk_seen=int(chunk_size.get("max") or 0),
            hot_keys=n["service.hot_keys"],
            replicated_chunks=n["service.replicated_chunks"],
            pool_restarts=n["service.pool_restarts"],
            queue_depth=tuple(n[f"shard.{i}.queue_depth"] for i in shards),
            per_shard_cache=per_shard_cache,
        )

    @property
    def mean_chunk(self) -> float:
        return self.queries / self.chunks if self.chunks else 0.0

    @property
    def cache_hit_rate(self) -> float:
        n = self.cache_hits + self.cache_misses
        return self.cache_hits / n if n else 0.0

    def snapshot(self) -> dict:
        """JSON-ready summary (what ``serve-bench`` and benches print)."""
        return {
            "mode": self.mode,
            "queries": self.queries,
            "chunks": self.chunks,
            "mean_chunk": round(self.mean_chunk, 1),
            "max_chunk": self.max_chunk_seen,
            "per_shard": list(self.per_shard),
            "hot_keys": self.hot_keys,
            "replicated_chunks": self.replicated_chunks,
            "pool_restarts": self.pool_restarts,
            "queue_depth": list(self.queue_depth),
            "per_shard_cache": list(self.per_shard_cache),
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "evictions": self.cache_evictions,
                "entries": self.cache_entries,
                "hit_rate": round(self.cache_hit_rate, 4),
            },
        }


class ShardedQueryService:
    """Fan fault-set query chunks out over per-shard processes.

    ``scheme`` is anything with ``decode_partition`` (see
    :class:`~repro.serving.partition_cache.PartitionCache`).  With
    ``num_shards=0`` the service answers in process from one partition
    cache — identical answers, no processes.  With ``num_shards > 0``
    every worker forks from the preloaded worker factory and opens a
    snapshot of the scheme (see :meth:`__init__`).

    One thread drives a service: the calling thread of the blocking
    API, or the loop passed to :meth:`bind_loop`.  Use as a context
    manager, or call :meth:`close` — shard workers are real OS
    processes.
    """

    def __init__(
        self,
        scheme,
        num_shards: int = 2,
        cache_capacity: int = 128,
        max_chunk: int = 1024,
        hot_key_share: Optional[float] = 0.5,
        hot_key_min_queries: int = 512,
        snapshot: Optional[str] = None,
        chunk_timeout: float = _CHUNK_TIMEOUT,
        metrics: bool = True,
    ):
        """``hot_key_share`` enables hot-fault-set replication: once a
        single canonical key has taken at least that share of all
        queries (and at least ``hot_key_min_queries`` queries were
        seen), its chunks rotate round-robin over every shard instead
        of going to the hash owner only (``None`` disables).

        ``chunk_timeout`` (seconds) bounds how long :meth:`query_many`
        and :meth:`submit` wait for any single reply (a chunk, or a
        batch of requests); a worker that takes longer (e.g. it hangs)
        is killed and respawned, and a :class:`ShardLostError` surfaces
        to the caller — later requests go to the fresh worker.  A
        worker that *dies* is noticed at once, by EOF on its pipe.  The
        network server runs with a short timeout; the in-process benches
        keep the 600 s default.

        The workers open ``snapshot``, a :mod:`repro.store` file of the
        scheme (``scheme`` may then be ``None``: the parent loads the
        file only to serve it in process; see :meth:`from_snapshot`).
        Without one, the service saves ``scheme`` once, here, to a
        private temporary snapshot (in a ``repro-shards-<pid>-*``
        directory of :func:`tempfile.gettempdir` that only this user can
        read), which :meth:`close` deletes, or interpreter exit if
        nothing closed the service.  Before it saves, it deletes the
        directories there that this user's dead processes left.  An object
        :func:`~repro.store.save_snapshot` cannot persist raises its
        :class:`~repro.store.SnapshotError` (and leaves no file);
        ``num_shards=0`` still serves it."""
        if max_chunk < 1:
            raise ValueError("max_chunk must be >= 1")
        if hot_key_share is not None and not (0.0 < hot_key_share <= 1.0):
            raise ValueError("hot_key_share must be in (0, 1] or None")
        if scheme is None and snapshot is None:
            raise ValueError("need a scheme or a snapshot path")
        self.scheme = scheme  # stays None with snapshot-backed workers
        self.snapshot = None if snapshot is None else str(snapshot)
        self.num_shards = max(1, num_shards)
        self.max_chunk = max_chunk
        self.cache_capacity = cache_capacity
        self.hot_key_share = hot_key_share
        self.hot_key_min_queries = hot_key_min_queries
        self.chunk_timeout = chunk_timeout
        self._key_traffic: dict[FaultKey, int] = {}
        self._total_traffic = 0
        self._hot_keys: set[FaultKey] = set()
        self._rr = 0  # round-robin pointer for replicated keys
        #: parent-side metrics (service counts, chunk sizes, worker
        #: seconds); :meth:`stats` merges the worker registries in.
        self.obs = MetricsRegistry(enabled=metrics)
        # every service.* and shard.<i>.queries name exists, at zero
        count = self.obs.counter
        self._queries, self._chunks = count("service.queries"), count("service.chunks")
        self._shard_queries = [
            count(f"shard.{i}.queries") for i in range(self.num_shards)
        ]
        for name in ("pool_restarts", "replicated_chunks"):
            count(f"service.{name}")
        self.obs.gauge("service.hot_keys").set(0)
        #: per shard, submitted requests waiting for the batch in flight
        self._waiting = [deque() for _ in range(self.num_shards)]
        self._workers: Optional[list[_Worker]] = None
        self._local: Optional[PartitionCache] = None
        #: deletes the private snapshot's directory: at close, or at
        #: interpreter exit for a service never closed
        self._private: Optional[weakref.finalize] = None
        #: the asyncio loop that owns the pipes (see :meth:`bind_loop`)
        self._loop = None
        #: replaced workers' processes, SIGKILLed and not yet reaped
        self._dead: list = []
        if num_shards <= 0:
            if self.scheme is None:
                from repro.store import load_snapshot

                self.scheme = load_snapshot(self.snapshot)
            self._local = PartitionCache(
                self.scheme,
                capacity=cache_capacity,
                obs=MetricsRegistry(enabled=metrics),
            )
            return
        self._workers = []
        try:  # a failure stops every worker started, deletes the file
            if self.snapshot is None:
                import tempfile

                from repro.store import save_snapshot

                tmpdir = tempfile.gettempdir()
                _reclaim_private_snapshots(tmpdir)
                private = tempfile.mkdtemp(
                    prefix=f"{_PRIVATE_PREFIX}{os.getpid()}-", dir=tmpdir
                )
                self._private = weakref.finalize(
                    self, shutil.rmtree, private, ignore_errors=True
                )
                path = os.path.join(private, "scheme.snap")
                self.snapshot = str(save_snapshot(path, scheme))
            else:
                # Fail fast on a missing or corrupt file *here*, with
                # the real SnapshotError, rather than in every worker
                # at its first chunk.
                from repro.store import read_snapshot

                read_snapshot(self.snapshot, verify=False)
            for shard in range(num_shards):
                self._workers.append(self._spawn(shard, 0))
        except BaseException:
            self.close()
            raise

    @classmethod
    def from_snapshot(cls, path, num_shards: int = 2, **kw) -> "ShardedQueryService":
        """Serve a saved scheme snapshot (the build/serve split).

        Hands each worker the *path*: workers open the same file
        read-only, so N serving processes share one page-cache copy of
        the packed stores.  The parent loads the snapshot only if it
        serves queries itself (``num_shards=0``) — with workers
        ``self.scheme`` stays ``None``.
        """
        return cls(None, num_shards=num_shards, snapshot=str(path), **kw)

    @property
    def mode(self) -> str:
        """``"forkserver"`` (worker processes) or ``"local"``."""
        return "forkserver" if self._workers is not None else "local"

    # ------------------------------------------------------------------
    # Worker processes and their pipes
    # ------------------------------------------------------------------
    def _spawn(self, shard: int, epoch: int) -> _Worker:
        ctx = start_worker_factory()
        parent_end, child_end = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main,
            args=(child_end, self.snapshot, self.cache_capacity, self.obs.enabled),
            name=f"repro-shard-{shard}",
            daemon=True,
        )
        proc.start()
        # Only the worker may hold the child end: its death must read
        # as EOF here.
        child_end.close()
        worker = _Worker(shard, epoch, proc, parent_end)
        if self._loop is not None:
            self._loop.add_reader(parent_end.fileno(), self._read, worker)
        return worker

    def _unhook(self, w: _Worker) -> None:
        """Take ``w``'s pipe off the bound loop and close it."""
        if self._loop is not None:
            self._loop.remove_reader(w.conn.fileno())
            if w.wbuf:
                self._loop.remove_writer(w.sock.fileno())
        w.sock.close()
        w.conn.close()

    def _replace(self, w: _Worker, reason: str) -> None:
        """Swap a lost worker for a fresh one; fail what it had in flight.

        The old process is SIGKILLed (a no-op once it is dead, the cure
        when it hangs) and reaped later; every message still waiting for
        its reply fails with :class:`ShardLostError` — after the fresh
        worker is in place, which takes the requests that were only
        waiting (they lose nothing) and any the failures prompt.
        """
        self._unhook(w)
        w.proc.kill()
        self._workers[w.shard] = self._spawn(w.shard, w.epoch + 1)
        self._dead = _reap(self._dead + [w.proc], 0.0)
        self.obs.counter("service.pool_restarts").inc()
        if self._waiting[w.shard]:
            self._commit(w.shard)
        jobs, w.jobs = w.jobs, deque()
        for job in jobs:
            job(False, ShardLostError(f"shard {w.shard} {reason}"))

    def _read(self, w: _Worker) -> None:
        """Take one reply off ``w``'s pipe and hand it to its job.

        One message per call: a bound loop calls this on every readable
        event (epoll is level-triggered, so a second queued reply fires
        again).  EOF or a reset means the worker died.  A reply that
        frees the shard posts its waiting requests before it is handed
        out, so the worker decodes while the loop writes replies.
        """
        try:
            ok, payload = w.conn.recv()
        except (EOFError, OSError):
            self._replace(w, "lost its worker")
            return
        except Exception as exc:  # a reply that does not unpickle
            ok, payload = False, exc
        job = w.jobs.popleft()
        if not w.jobs and self._waiting[w.shard]:
            self._commit(w.shard)
        job(ok, payload)

    def _send(self, w: _Worker, data: bytes) -> bool:
        """Write ``data`` to ``w``'s pipe; ``False`` if the worker is gone.

        Never blocks a bound loop: bytes a full socket buffer refuses
        (a stuck worker stops reading) wait in ``w.wbuf`` for the loop's
        writer callback.  A blocking caller finishes the write itself —
        it keeps one message in flight per shard, so the worker is
        reading.
        """
        if w.wbuf:
            w.wbuf += data
            return True
        try:
            sent = w.sock.send(data, socket.MSG_DONTWAIT)
        except BlockingIOError:
            sent = 0
        except OSError:
            return False
        if sent < len(data):
            if self._loop is None:
                try:
                    w.sock.sendall(memoryview(data)[sent:])
                except OSError:
                    return False
            else:
                w.wbuf += memoryview(data)[sent:]
                self._loop.add_writer(w.sock.fileno(), self._flush, w)
        return True

    def _flush(self, w: _Worker) -> None:
        """Bound-loop writer callback: push ``w.wbuf`` into the pipe."""
        try:
            sent = w.sock.send(w.wbuf, socket.MSG_DONTWAIT)
        except BlockingIOError:
            return
        except OSError:
            self._replace(w, "lost its worker")
            return
        del w.wbuf[:sent]
        if not w.wbuf:
            self._loop.remove_writer(w.sock.fileno())

    def _post(self, shard: int, msg: tuple, job: Callable) -> None:
        """Send ``msg`` to the shard's worker; ``job(ok, payload)`` gets
        its reply.

        A send that finds the worker already dead (killed while idle,
        its EOF not yet read) replaces it and goes to the replacement —
        nothing of the message reached the old worker, so nothing is
        lost.  Should the fresh worker be gone too, ``job`` fails with
        :class:`ShardLostError`.
        """
        data = _frame(msg)
        for attempt in range(2):
            w = self._workers[shard]
            w.jobs.append(job)
            if self._send(w, data):
                return
            if attempt == 0:
                w.jobs.pop()
            self._replace(w, "lost its worker")

    @staticmethod
    def _batch_msg(batch: Sequence[_Request]) -> tuple:
        """The worker message that serves ``batch`` (:func:`_serve_batch`)."""
        return "batch", ([(r.pairs, r.faults, r.kw, r.writer) for r in batch],)

    def _answer(self, batch: Sequence[_Request], ok: bool, payload) -> None:
        """Hand a batch's reply to its requests.

        ``payload`` holds one ``(ok, result)`` per request, or, when the
        whole message failed, is the error every request gets.  Worker
        time feeds the ``shard.worker_seconds`` histogram, one
        observation per answered request, dropped ones included.
        """
        replies = payload if ok else [(False, payload)] * len(batch)
        hist = self.obs.histogram("shard.worker_seconds")
        for req, (req_ok, result) in zip(batch, replies):
            if req_ok:
                hist.observe(result[1]["worker_s"])
            reply, req.reply = req.reply, None
            if reply is not None:
                reply(req_ok, result)

    def _call_sync(self, posts: Sequence[tuple]) -> None:
        """Run ``(shard, msg, job)`` posts to completion in this thread.

        At most one message is in flight per shard, so the parent never
        blocks writing to a worker that is itself blocked writing a
        reply.  A shard silent for ``chunk_timeout`` is restarted, which
        fails its message with :class:`ShardLostError`.
        """
        if self._loop is not None:
            raise RuntimeError(
                "this service's pipes belong to its bound event loop"
            )
        queues = [deque() for _ in self._workers]
        for shard, msg, job in posts:
            queues[shard].append((msg, job))
        due: dict[int, float] = {}  # shard -> deadline of its message

        def advance(shard: int) -> None:
            while queues[shard] and not self._workers[shard].jobs:
                due[shard] = time.monotonic() + self.chunk_timeout
                self._post(shard, *queues[shard].popleft())
            if self._workers[shard].jobs:
                due.setdefault(shard, time.monotonic() + self.chunk_timeout)
            else:
                due.pop(shard, None)

        for shard, queue in enumerate(queues):
            if queue:
                advance(shard)
        while due:
            conns = {self._workers[shard].conn: shard for shard in due}
            timeout = max(0.0, min(due.values()) - time.monotonic())
            for conn in wait_readable(list(conns), timeout):
                self._read(self._workers[conns[conn]])
            now = time.monotonic()
            for shard in list(due):
                if self._workers[shard].jobs and now >= due[shard]:
                    self.restart_shard(shard)
                advance(shard)

    def bind_loop(self, loop) -> None:
        """Hand the shard pipes to ``loop`` (call on the loop's thread).

        From then on the loop reads every reply (``loop.add_reader``)
        and makes every send; :meth:`submit` and :meth:`astats_bundle`
        are the entry points.  A worker's death is
        seen the moment its EOF arrives, and the shard is respawned
        without waiting for a chunk to time out.  The blocking calls
        refuse pipes a loop owns.  No-op in local mode.
        """
        if self._workers is None:
            return
        self._loop = loop
        for w in self._workers:
            loop.add_reader(w.conn.fileno(), self._read, w)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def query(self, s: int, t: int, faults: Iterable[int] = (), **kw):
        return self.query_many([(s, t)], faults, **kw)[0]

    def _shard_for(self, key: FaultKey, chunk_size: int) -> int:
        """Shard of one chunk or request: hash owner, or round-robin for
        hot keys.

        Traffic shares are tracked per canonical key (only while the
        feature is enabled, and pruned to :data:`_HOT_TRACK_LIMIT` —
        the coldest keys are dropped, never the hot ones); once a key
        crosses ``hot_key_share`` of all queries it is (stickily)
        marked hot and its queries rotate over every shard — each
        shard's partition cache builds its own replica, so a single
        pathologically hot fault set stops serializing one worker.
        """
        if self.hot_key_share is None or self.num_shards <= 1:
            return shard_of(key, self.num_shards)
        self._total_traffic += chunk_size
        traffic = self._key_traffic.get(key, 0) + chunk_size
        self._key_traffic[key] = traffic
        if len(self._key_traffic) > _HOT_TRACK_LIMIT:
            keep = sorted(
                self._key_traffic.items(), key=lambda kv: kv[1], reverse=True
            )[: _HOT_TRACK_LIMIT // 2]
            self._key_traffic = dict(keep)
        if (
            key not in self._hot_keys
            and self._total_traffic >= self.hot_key_min_queries
            and traffic >= self.hot_key_share * self._total_traffic
        ):
            self._hot_keys.add(key)
            self.obs.gauge("service.hot_keys").set(len(self._hot_keys))
        if key in self._hot_keys:
            self._rr = (self._rr + 1) % self.num_shards
            self.obs.counter("service.replicated_chunks").inc()
            return self._rr
        return shard_of(key, self.num_shards)

    def _count_chunk(self, shard: int, size: int) -> None:
        """Count one chunk or request of ``size`` pairs, sent to ``shard``."""
        self._queries.inc(size)
        self._chunks.inc()
        self._shard_queries[shard].inc(size)
        self.obs.histogram("shard.chunk_size").observe(size)

    def queue_depths(self) -> list[int]:
        """Messages in flight, per shard (live queue depth)."""
        if self._workers is None:
            return [0] * self.num_shards
        return [len(w.jobs) for w in self._workers]

    @property
    def pending(self) -> int:
        """Submitted requests still waiting for their shard (all shards)."""
        return sum(len(queue) for queue in self._waiting)

    def query_many(
        self, pairs: Sequence[tuple[int, int]], faults=(), **kw
    ) -> list:
        """Batched queries: coalesce by fault set, shard by its hash.

        Chunks of at most ``max_chunk`` queries per fault set are
        dispatched to ``shard_of(key)``'s worker concurrently (hot keys
        round-robin over all shards — see :meth:`_shard_for`); answers
        return in request order with the scheme's native answer type.
        A worker's exception (or :class:`ShardLostError`) is raised
        once every other chunk of the call has been answered.  Refused,
        before anything is counted, once a loop owns the pipes.
        """
        if self._loop is not None:
            raise RuntimeError("this service's pipes belong to its bound event loop")
        pairs = list(pairs)
        per = normalize_faults(pairs, faults)
        groups = group_by_canonical_key(per)
        results: list = [None] * len(pairs)
        errors: list = []

        def fill(chunk, ok, payload):
            if not ok:
                errors.append(payload)
                return
            for qi, ans in zip(chunk, payload[0]):
                results[qi] = ans

        posts = []
        for key, qis in groups.items():
            for lo in range(0, len(qis), self.max_chunk):
                chunk = qis[lo : lo + self.max_chunk]
                shard = self._shard_for(key, len(chunk))
                chunk_pairs = [pairs[qi] for qi in chunk]
                self._count_chunk(shard, len(chunk))
                if self._workers is not None:
                    req = _Request(
                        chunk_pairs, list(key), kw, None, partial(fill, chunk),
                        shard,
                    )
                    posts.append(
                        (shard, self._batch_msg([req]),
                         partial(self._answer, [req]))
                    )
                else:
                    answers = self._local.query_many(chunk_pairs, list(key), **kw)
                    for qi, ans in zip(chunk, answers):
                        results[qi] = ans
        if posts:
            self._call_sync(posts)
        if errors:
            raise errors[0]
        return results

    def submit(
        self,
        pairs: Sequence[tuple[int, int]],
        faults: Sequence[int],
        kw: dict,
        writer: Optional[Callable],
        reply: Callable,
    ) -> _Request:
        """Queue one request on its home shard from the bound loop.

        The asyncio front door (:mod:`repro.server.server`) hands every
        query frame here (:meth:`bind_loop` first).  The request is
        routed like a :meth:`query_many` chunk, then group-committed:
        posted within this call if its shard has nothing in flight,
        otherwise sent with the shard's next batch (:meth:`_commit`).
        ``reply(ok, payload)`` is called once, on the loop, with
        ``(answers, meta)`` (see :func:`_serve_batch`) or the error —
        the worker's exception, or :class:`ShardLostError` if the worker
        dies or hangs past ``chunk_timeout`` with the batch in flight.
        ``writer`` is an answer writer of :mod:`repro.server.protocol`
        (the worker runs it: ``answers`` are encoded reply items) or
        ``None`` for native answers.  Returns the request, whose
        ``cancel()`` drops it.
        """
        if self._loop is None or self._workers is None:
            raise RuntimeError("submit needs worker shards and bind_loop()")
        key = canonical_fault_key(faults)
        pairs = list(pairs)
        shard = self._shard_for(key, len(pairs))
        queue = self._waiting[shard]
        req = _Request(pairs, list(key), kw, writer, reply, shard, queue)
        queue.append(req)
        if not self._workers[shard].jobs:
            self._commit(shard)
        return req

    def count_view_answer(self, size: int) -> None:
        """Count a request of ``size`` pairs that the caller answered for
        this service off a cached partition view (the network server's
        front-door hits): one chunk of ``service.queries``, on no shard."""
        self._queries.inc(size)
        self._chunks.inc()

    def answer_view(self, pairs, faults, kw: dict) -> tuple[list[bytes], dict]:
        """Local mode's sketch answer: ``(items, meta)`` like a worker's
        view reply (:func:`_serve_batch`), with the view and the columns
        as objects, counted as one chunk."""
        if self._local is None:
            raise RuntimeError("answer_view serves local mode only")
        pairs = list(pairs)
        key = canonical_fault_key(faults)
        self._count_chunk(self._shard_for(key, len(pairs)), len(pairs))
        items, view, columns = answer_by_view(self._local, pairs, key, **kw)
        meta = {"view": view}
        if columns is not None:
            meta["columns"] = columns
        return items, meta

    def _commit(self, shard: int) -> None:
        """Post the shard's waiting requests, in arrival order and up to
        ``max_chunk`` pairs (at least one request: none is split), as one
        batch message (:meth:`_post_timed`); ``server.coalesce_chunk_size``
        observes its size.
        """
        queue = self._waiting[shard]
        batch = [queue.popleft()]
        size = len(batch[0].pairs)
        while queue and size + len(queue[0].pairs) <= self.max_chunk:
            batch.append(queue.popleft())
            size += len(batch[-1].pairs)
        posted = time.perf_counter()
        for req in batch:
            req.posted = posted
            req.queue = None
            self._count_chunk(shard, len(req.pairs))
        self.obs.histogram("server.coalesce_chunk_size").observe(len(batch))
        self._post_timed(shard, self._batch_msg(batch), partial(self._answer, batch))

    def _post_timed(self, shard: int, msg: tuple, job: Callable) -> None:
        """:meth:`_post` from the bound loop, batch or stats message alike:
        one loop timer, cancelled by the reply, restarts a worker silent
        for ``chunk_timeout`` (:meth:`restart_shard`).  A message failed
        within the post (its worker was lost) gets no timer."""
        timer = None
        answered = False

        def timed(ok, payload):
            nonlocal answered
            answered = True
            if timer is not None:
                timer.cancel()
            job(ok, payload)

        self._post(shard, msg, timed)
        if not answered:
            # The epoch is read after the post, which may have replaced
            # a dead worker: the timer is about the one holding the job.
            timer = self._loop.call_later(
                self.chunk_timeout,
                self.restart_shard,
                shard,
                self._workers[shard].epoch,
            )

    def worker_pids(self) -> list[int]:
        """Live worker process ids, one per shard (empty in local mode).

        These are every process that serves chunks.  The chaos tests
        SIGKILL entries of this list; once the loss is read (EOF) or
        reported (:meth:`restart_shard`) the shard gets a fresh worker,
        so calling this again returns the replacements.
        """
        if self._workers is None:
            return []
        return [w.pid for w in self._workers]

    def shard_epoch(self, shard: int) -> int:
        """Generation counter of a shard's worker (see :meth:`restart_shard`)."""
        return 0 if self._workers is None else self._workers[shard].epoch

    def restart_shard(self, shard: int, epoch: Optional[int] = None) -> bool:
        """Kill and respawn one shard's worker after a chunk timed out.

        A worker that *dies* is replaced as soon as its EOF is read;
        this is for one that hangs.  Its in-flight messages fail with
        :class:`ShardLostError`; requests still waiting for the shard go
        to the fresh worker.  ``epoch`` (from :meth:`shard_epoch`,
        read at dispatch time) makes concurrent failure reports
        idempotent: only a report about the current worker restarts it.
        Returns whether a restart actually happened.
        """
        if self._workers is None:
            return False
        w = self._workers[shard]
        if epoch is not None and epoch != w.epoch:
            return False
        self._replace(w, "restarted after a chunk timeout")
        return True

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def _worker_sweep(self) -> list[dict]:
        """Every shard's cache dump (:func:`_cache_dump`), in shard order.

        With workers this is one blocking round trip to each; local
        mode reads its one in-process cache directly.
        """
        if self._workers is None:
            return [_cache_dump(self._local)]
        sweep: list = [None] * self.num_shards
        errors: list = []

        def put(shard, ok, payload):
            if ok:
                sweep[shard] = payload
            else:
                errors.append(payload)

        self._call_sync(
            [
                (shard, ("stats", ()), partial(put, shard))
                for shard in range(self.num_shards)
            ]
        )
        if errors:
            raise errors[0]
        return sweep

    def _merged_dump(self, sweep: list[dict]) -> dict:
        """The service's registry dump: its own metrics plus the worker
        cache dumps of ``sweep``, counters and histograms merged exactly.
        Worker gauges are not merged (last-write-wins would keep one
        shard's level): each shard's live entries, like its cache counts
        and queue depth, land under ``shard.<i>.*``."""
        merged = MetricsRegistry(enabled=self.obs.enabled)
        merged.merge_wire(self.obs.to_wire())
        for shard, (wire, depth) in enumerate(zip(sweep, self.queue_depths())):
            merged.merge_wire({**wire, "gauges": {}})
            cache = CacheStats.from_dump(wire)
            for name, count in asdict(cache).items():
                merged.counter(f"shard.{shard}.cache_{name}").inc(count)
            entries = wire["gauges"].get("cache.entries", 0)
            merged.gauge(f"shard.{shard}.cache_entries").set(entries)
            merged.gauge(f"shard.{shard}.cache_hit_rate").set(cache.hit_rate)
            merged.gauge(f"shard.{shard}.queue_depth").set(depth)
        return merged.to_wire()

    def stats(self) -> ServiceStats:
        """The service's counters, off one blocking sweep of the workers."""
        dump = self._merged_dump(self._worker_sweep())
        return ServiceStats.from_dump(dump, self.mode, self.num_shards)

    async def astats_bundle(self) -> tuple[ServiceStats, dict]:
        """``(stats, merged registry dump)`` off one sweep of the workers;
        on a bound loop the loop reads the replies, and each stats
        message is timed like a batch (:meth:`_post_timed`)."""
        if self._loop is None:
            sweep = self._worker_sweep()
        else:
            futures = [self._loop.create_future() for _ in range(self.num_shards)]
            for shard, future in enumerate(futures):
                self._post_timed(shard, ("stats", ()), partial(_settle, future))
            sweep = await asyncio.gather(*futures)
        dump = self._merged_dump(sweep)
        return ServiceStats.from_dump(dump, self.mode, self.num_shards), dump

    def close(self) -> None:
        """Stop every worker, then delete the private snapshot
        (idempotent).

        Closing the pipes is not enough: a stopped or hung worker never
        reads its EOF.  Every worker gets SIGTERM and, after
        :data:`_STOP_GRACE_S`, SIGKILL — so ``close()`` returns in
        bounded time with every worker process (replaced ones included)
        reaped.  Messages still in flight, and requests still waiting,
        fail with :class:`ShardLostError`.
        """
        if self._workers is not None:
            self._stop_workers()
        if self._private is not None:
            self._private()

    def _stop_workers(self) -> None:
        """SIGTERM, then SIGKILL, every worker; fail what it had."""
        workers, self._workers = self._workers, None
        procs, self._dead = self._dead, []
        for w in workers:
            self._unhook(w)
            w.proc.terminate()
            procs.append(w.proc)
        survivors = _reap(procs, _STOP_GRACE_S)
        for proc in survivors:
            proc.kill()
        _reap(survivors, _STOP_GRACE_S)
        for w in workers:
            for job in w.jobs:
                job(False, ShardLostError(f"shard {w.shard} closed"))
            w.jobs.clear()
        for shard, queue in enumerate(self._waiting):
            waiting = list(queue)
            queue.clear()
            for req in waiting:
                req.queue = None
            lost = ShardLostError(f"shard {shard} closed")
            self._answer(waiting, False, lost)

    def __enter__(self) -> "ShardedQueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass
