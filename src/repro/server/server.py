"""The asyncio front door: snapshot-backed shard RPC serving.

:class:`LabelServer` turns the in-process serving stack into a network
service speaking the :mod:`repro.server.protocol` frames:

* **fan-out by loop callbacks** — each connection is an
  :class:`asyncio.Protocol` whose read callback decodes, validates and
  submits every query frame to the shard workers of a
  :class:`~repro.serving.shards.ShardedQueryService` (workers forked
  from one preloaded worker factory, each mapping one
  :mod:`repro.store` snapshot: the served file, or a private one saved
  from a live backend);
  the loop's read of the shard pipe calls the request's reply path,
  which writes the reply frame.  A query frame costs two loop
  callbacks and no Task.  The service group-commits per home shard: an
  idle shard gets a request at once, and requests that arrive while it
  works go as one batch when its reply is read.  Workers reply with
  encoded v1 items, which the loop splices into the reply frame
  without decoding them;
* **cache hits never leave the loop** — a sketch worker's reply also
  carries the fault set's partition as a numpy-free view
  (:mod:`repro.serving.views`), which the generation keeps; a later
  request on that fault set is answered in its read callback by the
  same writer the workers use, and wakes no worker;
* **backpressure + deadlines** — a connection stops reading while
  ``max_inflight`` of its requests are unanswered or its transport is
  paused for writing (TCP then pushes back on the client), and every
  request but RELOAD is bounded by ``deadline_s`` (one timer each; PING
  is answered inline): a lost shard worker surfaces as one ``ERROR``
  frame (:data:`~repro.server.protocol.ErrorCode.SHARD_LOST`) for the
  requests of the batch in flight, never a hang — a worker that dies is
  seen at once (EOF on its pipe) and respawned, one that hangs is killed
  and respawned at the chunk timeout
  (:meth:`~repro.serving.shards.ShardedQueryService.restart_shard`;
  ``tests/test_server_chaos.py``);
* **a warm start** — importing this module loads no numpy and no
  decoder (the package inits are lazy), so :meth:`LabelServer.start`
  starts the worker factory less than 0.2 s into the process.  The
  factory imports the workers' modules on the second core while the
  front door imports the store and reads the snapshot header; workers,
  respawns and reload generations then fork from it in a few
  milliseconds each.  The front door itself is never forked: a
  ``fork`` child of a process with another thread blocked in a read of
  stdin hangs before it starts;
* **zero-downtime reload** — :meth:`LabelServer.reload` (admin
  ``RELOAD`` frame, or SIGHUP when enabled) builds a fresh
  *generation* from the snapshot path in a background thread, swaps it
  in atomically (every request started after the swap is answered by
  the new labels), drains the old generation's in-flight requests, and
  only then stops its shard workers and releases its mmap
  (``tests/test_server_e2e.py`` asserts zero failed requests and the
  old mapping gone).

Malformed bytes never crash the server: a protocol error is answered
with one ``ERROR`` frame (when a header was parseable) and a clean
connection close (``tests/test_server_protocol.py`` fuzzes this).
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import signal
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Optional

from repro.obs import MetricsRegistry, SlowQueryLog, Trace
from repro.serving.partition_cache import canonical_fault_key
from repro.serving.shards import (
    ServiceStats,
    ShardedQueryService,
    ShardLostError,
    start_worker_factory,
)
from repro.serving.views import ViewCache, write_items
from repro.server.protocol import (
    EncodedItems,
    ErrorCode,
    Frame,
    FrameDecoder,
    FrameType,
    ProtocolError,
    decode_faults,
    decode_pairs,
    encode_frame,
    route_result_to_wire,
    write_bools,
    write_floats,
)

#: snapshot ``kind`` -> (the query frame a generation of that kind
#: answers, the answer writer that encodes its replies).  Only the
#: sketch scheme's answers carry paths, so only it is asked
#: ``want_path``; its writer answers off partition views, which the
#: generation keeps to answer repeated fault sets on the loop.
_KINDS = {
    "sketch": (FrameType.CONNECTIVITY, write_items),
    "forest": (FrameType.CONNECTIVITY, write_bools),
    "cycle_space": (FrameType.CONNECTIVITY, write_bools),
    "connectivity-facade": (FrameType.CONNECTIVITY, write_bools),
    "distance": (FrameType.DISTANCE, write_floats),
    "distance-facade": (FrameType.DISTANCE, write_floats),
    "router": (FrameType.ROUTE, None),
    "routing-facade": (FrameType.ROUTE, None),
}


class BadQueryError(ValueError):
    """A well-formed frame asking something invalid (ids out of range)."""


def _kind_of(obj) -> str:
    """The snapshot ``kind`` string of a live backend object."""
    from repro.store.artifacts import _state_of

    return _state_of(obj)[0]


def _graph_dims(meta: dict) -> tuple[Optional[int], Optional[int]]:
    """Best-effort (n, m) out of a (possibly nested) snapshot meta."""
    if isinstance(meta.get("n"), int) and isinstance(meta.get("m"), int):
        return meta["n"], meta["m"]
    for value in meta.values():
        if isinstance(value, dict):
            n, m = _graph_dims(value)
            if n is not None:
                return n, m
    return None, None


@dataclass(frozen=True)
class ServerStats:
    """A :class:`LabelServer`'s front-door counters: a read-only view of
    its registry dump (:meth:`from_dump`)."""

    connections_total: int = 0
    connections_open: int = 0
    frames: int = 0
    queries: int = 0
    errors: dict = field(default_factory=dict)  # ErrorCode name -> count
    reloads: int = 0
    protocol_errors: int = 0
    view_hits: int = 0  # sketch requests answered off the front door's views
    view_entries: int = 0  # partition views the current generation keeps

    @classmethod
    def from_dump(cls, dump: dict) -> "ServerStats":
        """Read the view off the ``server.*`` names of a registry dump
        (a name the dump lacks reads zero)."""
        n = Counter({**dump["counters"], **dump["gauges"]})
        errors = "server.errors."
        return cls(
            connections_total=n["server.connections_total"],
            connections_open=int(n["server.connections_open"]),
            frames=n["server.frames_total"],
            queries=n["server.queries_total"],
            errors={k[len(errors):]: v for k, v in n.items() if k.startswith(errors)},
            reloads=n["server.reloads"],
            protocol_errors=n["server.protocol_errors"],
            view_hits=n["cache.hits"],
            view_entries=int(n["server.view_entries"]),
        )

    def snapshot(self) -> dict:
        return asdict(self)


class _Generation:
    """One immutable serving backend: labels + shard workers.

    Reload is blue/green over generations: requests acquire the
    current generation for their whole lifetime; a retired generation
    is closed only after its refcount drains to zero, so in-flight
    answers always come from the labels they started on and the old
    snapshot's mmap is released only when nobody can touch it.  The
    server numbers a generation only once it is built (see
    :meth:`LabelServer._activate`), so a failed reload burns no version.
    """

    def __init__(
        self,
        kind: str,
        path: Optional[str],
        service: Optional[ShardedQueryService],
        router,
        n: Optional[int],
        m: Optional[int],
    ):
        self.version = 0
        self.kind = kind
        self.path = path
        self.service = service
        self.router = router
        self.n = n
        self.m = m
        self.query_type, self.writer = _KINDS[kind]
        #: a sketch generation's partition views (see :meth:`LabelServer._query`)
        self.views: Optional[ViewCache] = None
        self.refs = 0
        self.retired = False
        self._drained: Optional[asyncio.Event] = None

    def acquire(self) -> "_Generation":
        self.refs += 1
        return self

    def release(self) -> None:
        self.refs -= 1
        if self.refs == 0 and self.retired and self._drained is not None:
            self._drained.set()

    async def drain(self) -> None:
        """Wait until no request holds this (retired) generation."""
        self.retired = True
        if self.refs == 0:
            return
        self._drained = asyncio.Event()
        if self.refs == 0:  # released between the check and the event
            return
        await self._drained.wait()

    def close(self) -> None:
        """Stop shard workers, drop every label ref."""
        if self.service is not None:
            self.service.close()
            self.service = None
        self.router = None
        # The snapshot mmap lives exactly as long as the numpy views
        # into it; collect now so a reload measurably releases the old
        # file (asserted by the hot-reload test via /proc/self/maps).
        gc.collect()


class LabelServer:
    """Asyncio RPC server over one labeling/routing artifact.

    Exactly one of ``backend`` (a live scheme / facade / router) or
    ``snapshot`` (a :mod:`repro.store` file) must be given.  With
    ``num_shards > 0`` connectivity and distance queries go to that many
    shard workers, forked from one preloaded worker factory, that mmap
    one snapshot (one page-cache copy): the file, or for a backend a
    private temporary snapshot saved once at start (see
    :class:`~repro.serving.shards.ShardedQueryService`).  With
    ``num_shards=0``, and for routers, the server answers in process.
    Snapshot mode is the production shape, and only it reloads without
    a path; backend mode is what the equivalence tests use.

    Lifecycle: ``await start()``, then :meth:`serve_forever` (or just
    keep the loop alive); ``await aclose()`` tears everything down.
    """

    def __init__(
        self,
        backend=None,
        *,
        snapshot: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        num_shards: int = 0,
        cache_capacity: int = 128,
        max_chunk: int = 512,
        deadline_s: float = 30.0,
        max_inflight: int = 64,
        chunk_timeout: Optional[float] = None,
        hot_key_share: Optional[float] = 0.5,
        install_sighup: bool = False,
        metrics: bool = True,
        slow_threshold_s: float = 0.050,
        slow_log_capacity: int = 64,
    ):
        if (backend is None) == (snapshot is None):
            raise ValueError("need exactly one of backend= or snapshot=")
        if deadline_s <= 0:
            raise ValueError("deadline_s must be > 0")
        self._backend = backend
        self._snapshot_path = None if snapshot is None else str(snapshot)
        self.host = host
        self.port = port
        self.num_shards = num_shards
        self.cache_capacity = cache_capacity
        self.max_chunk = max_chunk
        self.deadline_s = deadline_s
        self.max_inflight = max_inflight
        self.chunk_timeout = (
            chunk_timeout if chunk_timeout is not None else deadline_s
        )
        self.hot_key_share = hot_key_share
        self.install_sighup = install_sighup
        #: registry for the front door's own metrics (:attr:`stats` is a
        #: view of it); the service's merged dump joins it at STATS
        #: time.  ``metrics=False`` turns every instrument into a shared
        #: no-op (the metrics-off arm of ``benchmarks/bench_obs.py``):
        #: nothing is counted, and every stats view reads zero.
        self.metrics_enabled = metrics
        self.obs = MetricsRegistry(enabled=metrics)
        #: sketch requests the front door answers off its views; misses
        #: are counted by the cache that serves them
        self._view_hits = self.obs.counter("cache.hits")
        #: every request is traced server-side (spans are a handful of
        #: tuple appends); traces crossing ``slow_threshold_s`` land
        #: here and are dumped through the STATS admin frame.
        self.slow_log = SlowQueryLog(
            capacity=slow_log_capacity, threshold_s=slow_threshold_s
        )
        self._gen: Optional[_Generation] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._versions = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._reload_lock: Optional[asyncio.Lock] = None
        # One thread serializes in-parent blocking work (local-mode
        # query_many, route_many — the route engine's partition caches
        # are not thread-safe); a second thread builds reload
        # generations so queries keep flowing through a reload.
        self._blocking = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._reload_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-reload"
        )
        self._conns: set = set()
        #: STATS and RELOAD answers in progress (the only request tasks)
        self._tasks: set = set()
        self._closed = False

    # ------------------------------------------------------------------
    # Generations
    # ------------------------------------------------------------------
    def _build_generation(self, path: Optional[str]) -> _Generation:
        """Construct a serving generation (runs in a worker thread)."""
        obj = None
        if path is None:
            obj = self._backend
            kind = _kind_of(obj)
            n, m = obj.graph.n, obj.graph.m
        else:
            from repro.store import load_snapshot, snapshot_info

            info = snapshot_info(path)
            kind = info["kind"]
            if kind not in _KINDS:
                raise ValueError(f"snapshot {path} holds unservable kind {kind!r}")
            n, m = _graph_dims(info["meta"])
        if _KINDS[kind][0] is FrameType.ROUTE:
            router = obj if path is None else load_snapshot(path)
            return _Generation(kind, path, None, router, n, m)
        service = ShardedQueryService(
            obj,
            snapshot=path,
            num_shards=self.num_shards,
            cache_capacity=self.cache_capacity,
            max_chunk=self.max_chunk,
            hot_key_share=self.hot_key_share,
            chunk_timeout=self.chunk_timeout,
            metrics=self.metrics_enabled,
        )
        gen = _Generation(kind, path, service, None, n, m)
        if gen.writer is write_items:
            gen.views = ViewCache(service.num_shards * self.cache_capacity)
        return gen

    def _activate(self, gen: _Generation) -> _Generation:
        """Number a built generation and hand its shard pipes to the
        running loop (on the loop thread, before it serves anything)."""
        self._versions += 1
        gen.version = self._versions
        if gen.service is not None:
            gen.service.bind_loop(asyncio.get_running_loop())
        return gen

    @property
    def stats(self) -> ServerStats:
        """The front door's counters (a view of :attr:`obs`)."""
        return ServerStats.from_dump(self.obs.to_wire())

    @property
    def generation(self) -> _Generation:
        if self._gen is None:
            raise RuntimeError("server not started")
        return self._gen

    @property
    def version(self) -> int:
        return self.generation.version

    @property
    def kind(self) -> str:
        return self.generation.kind

    def worker_pids(self) -> list[int]:
        """Live shard worker pids (chaos-test hook; empty in local mode)."""
        gen = self.generation
        return [] if gen.service is None else gen.service.worker_pids()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "LabelServer":
        """Bind the listening socket and build the first generation.

        A server with shards starts its worker factory first: the
        factory imports the worker's modules on the second core while
        this process imports the store and reads the snapshot header (or
        saves a backend's private snapshot), and the shard workers then
        fork from it warm.
        """
        loop = self._loop = asyncio.get_running_loop()
        self._reload_lock = asyncio.Lock()
        if self.num_shards > 0:
            start_worker_factory()
        self._gen = self._activate(
            await loop.run_in_executor(
                self._reload_executor,
                partial(self._build_generation, self._snapshot_path),
            )
        )
        self._server = await loop.create_server(
            partial(_Connection, self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.install_sighup:
            loop.add_signal_handler(
                signal.SIGHUP,
                lambda: asyncio.ensure_future(self._reload_quietly()),
            )
        return self

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
        for conn in list(self._conns):
            conn.transport.abort()
        await asyncio.sleep(0)  # connection_lost drops their requests
        if self._server is not None:
            await self._server.wait_closed()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self.install_sighup:
            with contextlib.suppress(Exception):
                asyncio.get_running_loop().remove_signal_handler(signal.SIGHUP)
        if self._gen is not None:
            self._gen.close()
            self._gen = None
        self._blocking.shutdown(wait=True)
        self._reload_executor.shutdown(wait=True)

    async def __aenter__(self) -> "LabelServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Reload (blue/green generation swap)
    # ------------------------------------------------------------------
    async def reload(self, path: Optional[str] = None) -> tuple[int, int, str]:
        """Swap in a fresh generation with zero downtime.

        Loads ``path`` (default: the current snapshot path, re-opened —
        the blue/green pattern is *replace the file, then reload*) off
        the event loop, atomically redirects new requests to it, then
        drains and closes the old generation.  Returns
        ``(old_version, new_version, kind)``.
        """
        if path is None:
            path = self.generation.path
        if path is None:
            raise ValueError(
                "object-backed server has no snapshot path to reload"
            )
        loop = asyncio.get_running_loop()
        async with self._reload_lock:
            new = self._activate(
                await loop.run_in_executor(
                    self._reload_executor, partial(self._build_generation, path)
                )
            )
            old = self._gen
            self._gen = new  # the swap: atomic on the loop thread
            self._snapshot_path = path
            self.obs.counter("server.reloads").inc()
            await old.drain()
            # A request is released when its future resolves, but the
            # blocking thread drops its finished work item, whose closure
            # still holds the old generation's labels, only after that.
            # A no-op queued behind it runs once the item is gone.
            await loop.run_in_executor(self._blocking, lambda: None)
            old.close()
            return old.version, new.version, new.kind

    async def _reload_quietly(self) -> None:
        try:
            old_v, new_v, kind = await self.reload()
        except Exception as exc:  # pragma: no cover - SIGHUP error path
            print(f"repro.server: reload failed: {exc}", flush=True)
        else:  # pragma: no cover - exercised via explicit reload() in tests
            print(
                f"repro.server: reloaded {kind} v{old_v} -> v{new_v}",
                flush=True,
            )

    # ------------------------------------------------------------------
    # Requests: one frame in, one reply out
    # ------------------------------------------------------------------
    def _serve(
        self, conn: "_Connection", frame: Frame, t0: float, decode_s: float
    ) -> None:
        """Start answering one frame decoded by ``conn``'s read callback.

        Every request ends in exactly one :meth:`_finish`: its reply, or
        its drop when the client goes away.  PING and sketch cache hits
        are answered here; other query frames go to the shard service or
        the blocking thread,
        STATS and RELOAD to a task, and each of them but RELOAD gets a
        deadline timer.  Invalid frames are answered here too, with the
        ``ERROR`` frame of their exception (see :data:`_ERROR_CODES`).
        """
        self.obs.counter("server.frames_total").inc()
        # Every request gets a trace: the client's id when the frame
        # carried one, a freshly minted one otherwise (so the slow-query
        # log covers untraced clients too), born when its decode began.
        trace = Trace(frame.trace_id)
        trace.t0 = t0
        trace.add_span("decode", t0, decode_s)
        req = _Request(conn, frame, trace, self.generation.acquire())
        conn.requests.add(req)
        ftype = frame.type
        try:
            if ftype is FrameType.PING:
                self._finish(req, FrameType.PONG, req.gen.version)
            elif ftype in (FrameType.CONNECTIVITY, FrameType.DISTANCE):
                self._query(req)
            elif ftype is FrameType.ROUTE:
                self._route(req)
            elif ftype is FrameType.STATS:
                self._arm_deadline(req)
                req.work = self._run_task(
                    req, FrameType.STATS_REPLY, self._stats_payload, req.gen
                )
            elif ftype is FrameType.RELOAD:
                path = frame.payload
                if path is not None and not isinstance(path, str):
                    raise BadQueryError(
                        "RELOAD payload must be None or a path"
                    )
                # Reload drains the outgoing generation — the ref this
                # very frame holds on it would deadlock that drain.  It
                # runs on its own (much longer) timeline, with no
                # deadline, and finishes even if its client leaves.
                req.gen.release()
                req.gen = None
                self._run_task(req, FrameType.RELOAD_REPLY, self.reload, path)
            else:
                raise _Unsupported(f"server cannot answer {ftype.name} frames")
        except Exception as exc:
            self._fail(req, exc)

    def _query(self, req: "_Request") -> None:
        """A CONNECTIVITY or DISTANCE frame: validate it, then answer it.

        A sketch generation answers a fault set it keeps a partition
        view of right here, on the loop: no worker, no thread, no
        deadline timer.  Anything else goes to the generation's shard
        service (local mode: to the blocking thread), and a sketch
        answer brings back its view for the fault set's next requests.
        """
        gen, frame = req.gen, req.frame
        payload = frame.payload
        if frame.type is FrameType.CONNECTIVITY:
            if not isinstance(payload, (list, tuple)) or len(payload) != 3:
                raise ProtocolError("CONNECTIVITY payload must be "
                                    "[pairs, faults, want_path]")
            raw_pairs, raw_faults, want_path = payload
            if not isinstance(want_path, bool):
                raise ProtocolError("want_path must be a bool")
            reply_type = FrameType.CONNECTIVITY_REPLY
        else:
            if not isinstance(payload, (list, tuple)) or len(payload) != 2:
                raise ProtocolError("DISTANCE payload must be "
                                    "[pairs, faults]")
            raw_pairs, raw_faults = payload
            want_path = None
            reply_type = FrameType.DISTANCE_REPLY
        pairs = decode_pairs(raw_pairs)
        faults = decode_faults(raw_faults)
        if not pairs:
            raise BadQueryError("empty pair list")
        if frame.type is not gen.query_type:
            raise _Unsupported(
                f"this server holds a {gen.kind!r} artifact; it cannot "
                f"answer {frame.type.name} queries"
            )
        self._validate(gen, pairs, faults)
        self.obs.counter("server.queries_total").inc(len(pairs))
        service, writer, views = gen.service, gen.writer, gen.views
        kw = {}
        if views is not None:
            req.key = canonical_fault_key(faults)
            view = views.get(req.key)
            if view is not None:
                self._view_hits.inc()
                service.count_view_answer(len(pairs))
                items = write_items(views.columns, view, pairs, want_path)
                self._finish(req, reply_type, EncodedItems(items))
                return
            kw = {"want_path": want_path, "columns": views.columns is None}
        self._arm_deadline(req)
        if service.mode == "local":
            # Local mode: numpy work and encoding on the blocking thread.
            if views is not None:
                answer = partial(service.answer_view, pairs, faults, kw)
            else:

                def answer():
                    return EncodedItems(writer(service.query_many(pairs, faults)))

            self._on_thread(req, reply_type, answer)
            return
        req.t_submit = time.perf_counter()
        req.work = service.submit(
            pairs, faults, kw, writer, partial(self._answered, req, reply_type)
        )

    def _keep_view(self, req: "_Request", payload) -> EncodedItems:
        """The items of a sketch miss's ``(items, meta)`` answer, after
        its generation keeps the view (and the columns) it carries."""
        items, meta = payload
        req.gen.views.put(req.key, meta["view"], meta.get("columns"))
        return EncodedItems(items)

    def _answered(
        self, req: "_Request", reply_type: FrameType, ok: bool, payload
    ) -> None:
        """Reply callback of :meth:`ShardedQueryService.submit`, called by
        the loop's read of the shard pipe.

        The trace gets a ``coalesce`` span (submit to post), a ``shard``
        span (post to reply) and, on success, a ``partition`` span: the
        worker-reported answer time, placed at the tail of ``shard``
        (queue wait first, then the answer).
        """
        now = time.perf_counter()
        handle = req.work
        posted = now if handle.posted is None else handle.posted
        trace = req.trace
        trace.add_span("coalesce", req.t_submit, posted - req.t_submit)
        trace.add_span("shard", posted, now - posted)
        if not ok:
            self._fail(req, payload)
            return
        worker_s = payload[1]["worker_s"]
        trace.add_span(
            "partition", posted + max(0.0, now - posted - worker_s), worker_s
        )
        trace.meta["shards"] = [handle.shard]
        if req.key is None:
            items = EncodedItems(payload[0])
        else:
            items = self._keep_view(req, payload)
        self._finish(req, reply_type, items)

    def _route(self, req: "_Request") -> None:
        gen, payload = req.gen, req.frame.payload
        if not isinstance(payload, (list, tuple)) or len(payload) != 2:
            raise ProtocolError("ROUTE payload must be [pairs, faults]")
        pairs = decode_pairs(payload[0])
        faults = decode_faults(payload[1])
        if not pairs:
            raise BadQueryError("empty pair list")
        if gen.query_type is not FrameType.ROUTE:
            raise _Unsupported(
                f"this server holds a {gen.kind!r} artifact; it cannot "
                "answer ROUTE queries"
            )
        self._validate(gen, pairs, faults)
        self.obs.counter("server.queries_total").inc(len(pairs))
        self._arm_deadline(req)
        router = gen.router

        def answer():
            return [
                route_result_to_wire(r) for r in router.route_many(pairs, faults)
            ]

        self._on_thread(req, FrameType.ROUTE_REPLY, answer)

    def _on_thread(self, req: "_Request", reply_type: FrameType, fn) -> None:
        """Run ``fn`` on the blocking thread; its result is the reply
        payload, sent from the future's done callback.  The wait for the
        thread is the trace's ``coalesce`` span, the run its ``shard``."""

        def timed():
            return time.perf_counter(), fn()

        req.t_submit = time.perf_counter()
        req.work = self._loop.run_in_executor(self._blocking, timed)
        req.work.add_done_callback(partial(self._thread_done, req, reply_type))

    def _thread_done(self, req: "_Request", reply_type: FrameType, future):
        if future.cancelled():
            return
        exc = future.exception()
        if exc is not None:
            self._fail(req, exc)
            return
        started, payload = future.result()
        req.trace.add_span("coalesce", req.t_submit, started - req.t_submit)
        req.trace.add_span("shard", started, time.perf_counter() - started)
        if req.key is not None:
            payload = self._keep_view(req, payload)
        self._finish(req, reply_type, payload)

    def _run_task(self, req: "_Request", reply_type: FrameType, fn, *args):
        """Answer ``req`` with ``await fn(*args)`` in a task (STATS and
        RELOAD); the server keeps the task until it is done."""

        async def answer():
            try:
                payload = await fn(*args)
            except Exception as exc:
                self._fail(req, exc)
            else:
                self._finish(req, reply_type, payload)

        task = self._loop.create_task(answer())
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    def _arm_deadline(self, req: "_Request") -> None:
        req.timer = self._loop.call_later(self.deadline_s, self._deadline, req)

    def _deadline(self, req: "_Request") -> None:
        """``req`` missed its deadline: drop its work (a request still
        waiting for its shard leaves the line; a posted one's answer
        will be ignored) and answer ``DEADLINE``."""
        if req.work is not None:
            req.work.cancel()
        self._error(
            req, ErrorCode.DEADLINE,
            f"request missed the {self.deadline_s}s deadline",
        )

    def _validate(self, gen: _Generation, pairs, faults) -> None:
        if gen.n is not None:
            for s, t in pairs:
                if not (0 <= s < gen.n and 0 <= t < gen.n):
                    raise BadQueryError(
                        f"vertex pair ({s}, {t}) out of range for n={gen.n}"
                    )
        if gen.m is not None:
            for ei in faults:
                if not 0 <= ei < gen.m:
                    raise BadQueryError(
                        f"fault edge {ei} out of range for m={gen.m}"
                    )

    def _finish(
        self, req: "_Request", ftype: Optional[FrameType] = None, payload=None
    ) -> None:
        """Retire ``req``: send its one reply, or, with no ``ftype``, drop
        it (its client went away) and cancel its work.

        A second answer — one that lost the race with the deadline — is
        ignored.  The ``send`` span covers encoding the frame and handing
        it to the transport; the sealed trace goes to the request
        histogram and the slow-query log.
        """
        if req.done:
            return
        req.done = True
        if req.timer is not None:
            req.timer.cancel()
        if req.gen is not None:
            req.gen.release()
        frame, trace = req.frame, req.trace
        if ftype is None:
            if req.work is not None:
                req.work.cancel()
        else:
            t0 = time.perf_counter()
            try:
                data = encode_frame(
                    ftype, frame.request_id, payload, trace_id=frame.trace_id
                )
            except ProtocolError as exc:  # e.g. a reply beyond MAX_PAYLOAD
                self.obs.counter("server.errors.BAD_FRAME").inc()
                data = encode_frame(
                    FrameType.ERROR, frame.request_id,
                    (int(ErrorCode.BAD_FRAME), str(exc)),
                    trace_id=frame.trace_id,
                )
            req.conn.write(data)
            trace.add_span("send", t0, time.perf_counter() - t0)
        trace.finish()
        self.obs.histogram("server.request_seconds").observe(trace.total_s)
        self.slow_log.record(
            trace, request_id=frame.request_id, frame=frame.type.name
        )
        req.conn.release(req)

    def _fail(self, req: "_Request", exc: Exception) -> None:
        """Answer ``req`` with the ``ERROR`` frame ``exc`` maps to."""
        for kind, code in _ERROR_CODES:
            if isinstance(exc, kind):
                self._error(req, code, str(exc))
                return
        self._error(req, ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}")

    def _error(self, req: "_Request", code: ErrorCode, message: str) -> None:
        if not req.done:
            self.obs.counter(f"server.errors.{code.name}").inc()
            self._finish(req, FrameType.ERROR, (int(code), message))

    async def _stats_payload(self, gen: _Generation) -> str:
        views = 0 if gen.views is None else len(gen.views)
        self.obs.gauge("server.view_entries").set(views)
        front = self.obs.to_wire()
        payload = {
            "version": gen.version,
            "kind": gen.kind,
            "snapshot": gen.path,
            "num_shards": self.num_shards,
            "n": gen.n,
            "m": gen.m,
            "metrics_enabled": self.metrics_enabled,
            "server": ServerStats.from_dump(front).snapshot(),
        }
        # One uniform registry dump: front-door metrics + the service's
        # (worker registries merged exactly — same bucket family).
        merged = MetricsRegistry(enabled=self.metrics_enabled)
        merged.merge_wire(front)
        if gen.service is not None:
            # One round trip to every shard worker through the loop's
            # own pipes, each message under the chunk timeout.
            _, service_wire = await gen.service.astats_bundle()
            merged.merge_wire(service_wire)
            # read off the merged dump, the service's cache counts take
            # in the front door's view hits
            payload["service"] = ServiceStats.from_dump(
                merged.to_wire(), gen.service.mode, gen.service.num_shards
            ).snapshot()
        payload["metrics"] = merged.snapshot()
        payload["slow_queries"] = self.slow_log.snapshot()
        return json.dumps(payload, sort_keys=True)

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    def _connection_made(self, conn: "_Connection") -> None:
        self._conns.add(conn)
        self.obs.counter("server.connections_total").inc()
        self.obs.gauge("server.connections_open").inc()

    def _connection_lost(self, conn: "_Connection") -> None:
        """A dropped client abandons its unanswered requests: those still
        waiting for their shard are scrubbed from its line, posted work
        completes harmlessly."""
        self._conns.discard(conn)
        for req in list(conn.requests):
            self._finish(req)
        self.obs.gauge("server.connections_open").dec()

    def _protocol_error(self, conn: "_Connection", exc: ProtocolError) -> None:
        """The stream is garbage: one ``BAD_FRAME`` error, then close."""
        self.obs.counter("server.protocol_errors").inc()
        self.obs.counter("server.errors.BAD_FRAME").inc()
        conn.write(
            encode_frame(
                FrameType.ERROR, 0, (int(ErrorCode.BAD_FRAME), str(exc))
            )
        )
        conn.transport.close()


class _Unsupported(RuntimeError):
    """This server's artifact cannot answer the requested frame type."""


#: exception type -> the ``ERROR`` code a request failing with it gets
#: (anything else is ``INTERNAL``).
_ERROR_CODES = (
    (ShardLostError, ErrorCode.SHARD_LOST),
    (_Unsupported, ErrorCode.UNSUPPORTED),
    (BadQueryError, ErrorCode.BAD_QUERY),
    (ProtocolError, ErrorCode.BAD_FRAME),
)


class _Request:
    """One frame from its decode to its reply: ``work`` is what answers
    it (the service's request handle, the blocking thread's future or
    the STATS task), cancelled when the deadline ``timer`` fires or the
    client goes away; ``gen`` is the generation ref it holds until
    ``done``."""

    __slots__ = (
        "conn", "frame", "trace", "gen", "timer", "work", "t_submit", "done",
        "key",
    )

    def __init__(self, conn: "_Connection", frame: Frame, trace: Trace, gen):
        self.conn = conn
        self.frame = frame
        self.trace = trace
        self.gen = gen
        self.timer = None
        self.work = None
        self.t_submit = 0.0
        self.done = False
        #: a sketch miss's canonical fault key (its view is kept under it)
        self.key = None


class _Connection(asyncio.Protocol):
    """One client connection: frames in, one reply per frame out.

    Reading stops while ``max_inflight`` requests are unanswered or the
    transport is paused for writing; once both clear, the frames already
    buffered are started first, then reading resumes.
    """

    def __init__(self, server: LabelServer):
        self.server = server
        self.transport = None
        self.decoder = FrameDecoder()
        self.requests: set = set()  # unanswered _Requests
        self.held = False  # reading paused by the two limits above
        self.write_paused = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._connection_made(self)

    def connection_lost(self, exc) -> None:
        self.server._connection_lost(self)

    def data_received(self, data: bytes) -> None:
        self.decoder.feed(data)
        self.pump()

    def pause_writing(self) -> None:
        self.write_paused = True
        self.hold()

    def resume_writing(self) -> None:
        self.write_paused = False
        self.resume()

    def pump(self) -> None:
        """Start buffered frames while there is room, each timed by its
        own decode; hold reading once the room runs out."""
        server = self.server
        frames = self.decoder.frames()
        limit = server.max_inflight
        while len(self.requests) < limit and not self.write_paused:
            t0 = time.perf_counter()
            try:
                frame = next(frames, None)
            except ProtocolError as exc:
                server._protocol_error(self, exc)
                return
            if frame is None:
                return
            server._serve(self, frame, t0, time.perf_counter() - t0)
        self.hold()

    def hold(self) -> None:
        if not self.held:
            self.held = True
            self.transport.pause_reading()

    def resume(self) -> None:
        if (
            self.held
            and not self.write_paused
            and len(self.requests) < self.server.max_inflight
            and not self.transport.is_closing()  # lost, or closed on garbage
        ):
            self.held = False
            self.transport.resume_reading()
            self.pump()

    def release(self, req: _Request) -> None:
        """``req`` is answered or dropped: its slot is free again."""
        self.requests.discard(req)
        self.resume()

    def write(self, data: bytes) -> None:
        if not self.transport.is_closing():
            self.transport.write(data)


def run_server(
    backend=None,
    *,
    snapshot: Optional[str] = None,
    ready_event: Optional[object] = None,
    **kw,
) -> None:
    """Blocking convenience runner (the ``cli.py serve`` entry point).

    Starts a :class:`LabelServer` and serves until cancelled
    (KeyboardInterrupt included; in the main thread SIGTERM too), then
    closes it, which deletes a built artifact's private snapshot.
    ``ready_event`` (a ``threading.Event``-alike) is set once the socket
    is bound — test and bench harnesses that run the server in a thread
    wait on it.
    """

    async def _main():
        server = LabelServer(backend, snapshot=snapshot, **kw)
        await server.start()
        print(
            f"repro.server: serving {server.kind} on "
            f"{server.host}:{server.port} "
            f"({server.num_shards} shards)",
            flush=True,
        )
        if ready_event is not None:
            ready_event.set()
        with contextlib.suppress(RuntimeError):  # not the main thread
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, asyncio.current_task().cancel
            )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.aclose()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass

__all__ = [
    "BadQueryError",
    "LabelServer",
    "ServerStats",
    "ShardLostError",
    "run_server",
]
