"""The asyncio front door: snapshot-backed shard RPC serving.

:class:`LabelServer` turns the in-process serving stack into a network
service speaking the :mod:`repro.server.protocol` frames:

* **fan-out** — connectivity/distance queries are grouped by canonical
  fault key and dispatched to the shard workers of a
  :class:`~repro.serving.shards.ShardedQueryService` (spawn-mode
  workers that mmap one :mod:`repro.store` snapshot when the server is
  snapshot-backed, fork/local otherwise) through the non-blocking
  :meth:`~repro.serving.shards.ShardedQueryService.start_chunk` path —
  the event loop owns every shard pipe (it writes chunks without
  blocking and reads replies as they arrive), so no thread sits between
  the loop and a worker and the loop never blocks on one.  Workers
  reply with encoded v1 items (the generation's answer writer runs
  where the answers are made), which the loop splices into the reply
  frame without decoding them;
* **coalescing** — single-pair requests from any number of connections
  are funneled through per-generation
  :class:`~repro.serving.coalescer.AsyncQueryCoalescer` instances (one
  per keyword shape), so concurrent clients querying the same fault
  set share one partition decode;
* **backpressure + deadlines** — each connection stops consuming new
  frames once ``max_inflight`` requests are unanswered (TCP then
  pushes back on the client), and every request is bounded by
  ``deadline_s``: a lost shard worker surfaces as one ``ERROR`` frame
  (:data:`~repro.server.protocol.ErrorCode.SHARD_LOST`) for exactly
  the in-flight requests, never a hang — a worker that dies is seen at
  once (EOF on its pipe) and respawned, one that hangs is killed and
  respawned at the chunk timeout
  (:meth:`~repro.serving.shards.ShardedQueryService.restart_shard`;
  ``tests/test_server_chaos.py``);
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.obs import MetricsRegistry, SlowQueryLog, Trace
from repro.serving.coalescer import AsyncQueryCoalescer
from repro.serving.shards import ShardedQueryService, ShardLostError
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
    write_sk_results,
)

#: snapshot ``kind`` -> (the query frame a generation of that kind
#: answers, the answer writer that encodes its replies).  Only the
#: sketch scheme's answers carry paths, so only it is asked ``want_path``.
_KINDS = {
    "sketch": (FrameType.CONNECTIVITY, write_sk_results),
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


@dataclass
class ServerStats:
    """Parent-side counters of one :class:`LabelServer`."""

    connections_total: int = 0
    connections_open: int = 0
    frames: int = 0
    queries: int = 0
    errors: dict = field(default_factory=dict)  # ErrorCode name -> count
    reloads: int = 0
    protocol_errors: int = 0

    def count_error(self, code: ErrorCode) -> None:
        name = code.name
        self.errors[name] = self.errors.get(name, 0) + 1

    def snapshot(self) -> dict:
        return {
            "connections_total": self.connections_total,
            "connections_open": self.connections_open,
            "frames": self.frames,
            "queries": self.queries,
            "errors": dict(self.errors),
            "protocol_errors": self.protocol_errors,
            "reloads": self.reloads,
        }


class _Generation:
    """One immutable serving backend: labels + shard workers + coalescers.

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
        self.refs = 0
        self.retired = False
        self._drained: Optional[asyncio.Event] = None
        self.coalescers: dict[tuple, AsyncQueryCoalescer] = {}

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

    async def aclose(self) -> None:
        """Flush coalescers, stop shard workers, drop every label ref."""
        for coalescer in self.coalescers.values():
            await coalescer.aclose()
        self.coalescers.clear()
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
    ``snapshot`` (a :mod:`repro.store` file) must be given.  Snapshot
    mode is the production shape: ``num_shards`` spawn workers mmap
    the file (one page-cache copy) and hot reload is available;
    backend mode serves the object in-process (fork workers when
    ``num_shards > 0``) and is what the equivalence tests use.

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
        mp_context: Optional[str] = None,
        cache_capacity: int = 128,
        max_chunk: int = 512,
        max_delay: float = 0.002,
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
        self.mp_context = mp_context or ("spawn" if snapshot else "fork")
        self.cache_capacity = cache_capacity
        self.max_chunk = max_chunk
        self.max_delay = max_delay
        self.deadline_s = deadline_s
        self.max_inflight = max_inflight
        self.chunk_timeout = (
            chunk_timeout if chunk_timeout is not None else deadline_s
        )
        self.hot_key_share = hot_key_share
        self.install_sighup = install_sighup
        self.stats = ServerStats()
        #: registry for the front door's own metrics; shard-worker and
        #: service registries are merged in at STATS time.  ``metrics=
        #: False`` turns every instrument into a shared no-op (the
        #: metrics-off arm of ``benchmarks/bench_obs.py``).
        self.metrics_enabled = metrics
        self.obs = MetricsRegistry(enabled=metrics)
        #: every request is traced server-side (spans are a handful of
        #: tuple appends); traces crossing ``slow_threshold_s`` land
        #: here and are dumped through the STATS admin frame.
        self.slow_log = SlowQueryLog(
            capacity=slow_log_capacity, threshold_s=slow_threshold_s
        )
        self._gen: Optional[_Generation] = None
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
        self._conn_tasks: set = set()
        self._closed = False

    # ------------------------------------------------------------------
    # Generations
    # ------------------------------------------------------------------
    def _build_generation(self, path: Optional[str]) -> _Generation:
        """Construct a serving generation (runs in a worker thread)."""
        if path is None:
            obj = self._backend
            kind = _kind_of(obj)
            n, m = obj.graph.n, obj.graph.m
            if _KINDS[kind][0] is FrameType.ROUTE:
                return _Generation(kind, None, None, obj, n, m)
            service = ShardedQueryService(
                obj,
                num_shards=self.num_shards,
                cache_capacity=self.cache_capacity,
                max_chunk=self.max_chunk,
                mp_context=self.mp_context,
                hot_key_share=self.hot_key_share,
                chunk_timeout=self.chunk_timeout,
                metrics=self.metrics_enabled,
            )
            return _Generation(kind, None, service, None, n, m)
        from repro.store import load_snapshot, snapshot_info

        info = snapshot_info(path)
        kind = info["kind"]
        if kind not in _KINDS:
            raise ValueError(f"snapshot {path} holds unservable kind {kind!r}")
        n, m = _graph_dims(info["meta"])
        if _KINDS[kind][0] is FrameType.ROUTE:
            router = load_snapshot(path)
            return _Generation(kind, path, None, router, n, m)
        service = ShardedQueryService.from_snapshot(
            path,
            num_shards=self.num_shards,
            mp_context=self.mp_context,
            cache_capacity=self.cache_capacity,
            max_chunk=self.max_chunk,
            hot_key_share=self.hot_key_share,
            chunk_timeout=self.chunk_timeout,
            metrics=self.metrics_enabled,
        )
        return _Generation(kind, path, service, None, n, m)

    def _activate(self, gen: _Generation) -> _Generation:
        """Number a built generation and hand its shard pipes to the
        running loop (on the loop thread, before it serves anything)."""
        self._versions += 1
        gen.version = self._versions
        if gen.service is not None:
            gen.service.bind_loop(asyncio.get_running_loop())
        return gen

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
        """Bind the listening socket and build the first generation."""
        loop = asyncio.get_running_loop()
        self._reload_lock = asyncio.Lock()
        self._gen = self._activate(
            await loop.run_in_executor(
                self._reload_executor,
                partial(self._build_generation, self._snapshot_path),
            )
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
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
            await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self.install_sighup:
            with contextlib.suppress(Exception):
                asyncio.get_running_loop().remove_signal_handler(signal.SIGHUP)
        if self._gen is not None:
            await self._gen.aclose()
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
            self.stats.reloads += 1
            self.obs.counter("server.reloads").inc()
            await old.drain()
            await old.aclose()
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
    # Query dispatch
    # ------------------------------------------------------------------
    async def _service_chunk(
        self, gen: _Generation, pairs, faults, kw, trace: Optional[Trace] = None
    ) -> list:
        """One coalesced chunk through the generation's shard service,
        answered as encoded reply items (``gen.writer``'s output).

        With a ``trace``, the chunk's shard window becomes a ``shard``
        span and the worker-reported decode time a ``partition`` span
        (placed at the window's tail: queue wait first, then the
        build).  Coalesced singles get these spans from the coalescer
        instead — their chunk is shared, so per-request attribution
        happens where the request is still individual.
        """
        service = gen.service
        t0 = time.perf_counter()
        if service.mode == "local":
            # Local mode: numpy work and encoding on the (single)
            # blocking thread.
            items = await asyncio.get_running_loop().run_in_executor(
                self._blocking,
                lambda: gen.writer(service.query_many(pairs, faults, **kw)),
            )
            if trace is not None:
                trace.add_span("shard", t0, time.perf_counter() - t0)
            return items
        # The service bounds the chunk: a worker that dies or hangs past
        # the chunk timeout fails the future with ShardLostError.
        shard, future = service.start_chunk(pairs, faults, kw, gen.writer)
        items, meta = await future
        if trace is not None:
            dur = time.perf_counter() - t0
            trace.add_span("shard", t0, dur)
            worker_s = meta.get("worker_s")
            if worker_s is not None:
                trace.add_span(
                    "partition", t0 + max(0.0, dur - worker_s), worker_s
                )
            trace.meta.setdefault("shards", []).append(shard)
        return items

    def _coalescer_for(self, gen: _Generation, kw: dict) -> AsyncQueryCoalescer:
        key = tuple(sorted(kw.items()))
        coalescer = gen.coalescers.get(key)
        if coalescer is None:

            async def backend(pairs, faults, _gen=gen, _kw=dict(kw)):
                return await self._service_chunk(_gen, pairs, faults, _kw)

            coalescer = AsyncQueryCoalescer(
                backend,
                max_chunk=self.max_chunk,
                max_delay=self.max_delay,
                chunk_hist=self.obs.histogram("server.coalesce_chunk_size"),
            )
            gen.coalescers[key] = coalescer
        return coalescer

    async def _query_via_service(
        self, gen: _Generation, pairs, faults, kw: dict,
        trace: Optional[Trace] = None,
    ) -> list:
        if len(pairs) == 1:
            # Singles coalesce across connections: concurrent clients
            # asking about one fault set share a partition decode.
            s, t = pairs[0]
            return [
                await self._coalescer_for(gen, kw).query(
                    s, t, faults, trace=trace
                )
            ]
        if len(pairs) <= self.max_chunk:
            return await self._service_chunk(gen, pairs, faults, kw, trace=trace)
        chunks = await asyncio.gather(
            *(
                self._service_chunk(
                    gen, pairs[lo : lo + self.max_chunk], faults, kw, trace=trace
                )
                for lo in range(0, len(pairs), self.max_chunk)
            )
        )
        return [item for items in chunks for item in items]

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

    # ------------------------------------------------------------------
    # Frame serving
    # ------------------------------------------------------------------
    async def _answer(
        self, frame: Frame, trace: Optional[Trace] = None
    ) -> tuple[FrameType, object]:
        gen = self.generation
        if frame.type is FrameType.PING:
            return FrameType.PONG, gen.version
        if frame.type is FrameType.STATS:
            return FrameType.STATS_REPLY, await self._stats_payload(gen)
        if frame.type is FrameType.RELOAD:
            path = frame.payload
            if path is not None and not isinstance(path, str):
                raise BadQueryError("RELOAD payload must be None or a path")
            old_v, new_v, kind = await self.reload(path)
            return FrameType.RELOAD_REPLY, (old_v, new_v, kind)
        if frame.type in (FrameType.CONNECTIVITY, FrameType.DISTANCE):
            payload = frame.payload
            if frame.type is FrameType.CONNECTIVITY:
                if not isinstance(payload, (list, tuple)) or len(payload) != 3:
                    raise ProtocolError("CONNECTIVITY payload must be "
                                        "[pairs, faults, want_path]")
                raw_pairs, raw_faults, want_path = payload
                if not isinstance(want_path, bool):
                    raise ProtocolError("want_path must be a bool")
            else:
                if not isinstance(payload, (list, tuple)) or len(payload) != 2:
                    raise ProtocolError("DISTANCE payload must be "
                                        "[pairs, faults]")
                raw_pairs, raw_faults = payload
                want_path = None
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
            kw = {"want_path": want_path} if gen.kind == "sketch" else {}
            self.stats.queries += len(pairs)
            self.obs.counter("server.queries_total").inc(len(pairs))
            items = await self._query_via_service(
                gen, pairs, faults, kw, trace=trace
            )
            if frame.type is FrameType.CONNECTIVITY:
                reply = FrameType.CONNECTIVITY_REPLY
            else:
                reply = FrameType.DISTANCE_REPLY
            return reply, EncodedItems(items)
        if frame.type is FrameType.ROUTE:
            payload = frame.payload
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
            self.stats.queries += len(pairs)
            self.obs.counter("server.queries_total").inc(len(pairs))
            t0 = time.perf_counter()
            results = await asyncio.get_running_loop().run_in_executor(
                self._blocking,
                partial(gen.router.route_many, pairs, faults),
            )
            if trace is not None:
                trace.add_span("shard", t0, time.perf_counter() - t0)
            return FrameType.ROUTE_REPLY, [
                route_result_to_wire(r) for r in results
            ]
        raise _Unsupported(f"server cannot answer {frame.type.name} frames")

    async def _stats_payload(self, gen: _Generation) -> str:
        payload = {
            "version": gen.version,
            "kind": gen.kind,
            "snapshot": gen.path,
            "num_shards": self.num_shards,
            "n": gen.n,
            "m": gen.m,
            "metrics_enabled": self.metrics_enabled,
            "server": self.stats.snapshot(),
        }
        service_wire = None
        if gen.service is not None:
            # One round trip to every shard worker through the loop's
            # own pipes (bounded by the caller's deadline), returning
            # both the legacy counters and the uniform registry dump
            # (queue depth, per-shard cache hit rates, exact-merged
            # worker histograms).
            service_stats, service_wire = await gen.service.astats_bundle()
            payload["service"] = service_stats.snapshot()
        coalesced = {}
        for key, coalescer in gen.coalescers.items():
            coalesced[repr(dict(key))] = {
                "chunks": coalescer.stats.chunks,
                "queries": coalescer.stats.queries,
                "max_chunk": coalescer.stats.max_chunk,
                "mean_chunk": round(coalescer.stats.mean_chunk, 2),
            }
        payload["coalescers"] = coalesced
        # One uniform registry dump: front-door metrics + the service's
        # (worker registries merged exactly — same bucket family).
        merged = MetricsRegistry(enabled=self.metrics_enabled)
        if self.metrics_enabled:
            merged.merge_wire(self.obs.to_wire())
            if service_wire is not None:
                merged.merge_wire(service_wire)
        payload["metrics"] = merged.snapshot()
        payload["slow_queries"] = self.slow_log.snapshot()
        return json.dumps(payload, sort_keys=True)

    async def _serve_frame(
        self,
        frame: Frame,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        sem: asyncio.Semaphore,
        trace: Trace,
    ) -> None:
        gen = self.generation.acquire()
        held = True
        # Replies echo the trace id only when the request carried one;
        # untraced clients see byte-identical pre-tracing frames.
        echo = frame.trace_id
        try:
            try:
                # RELOAD manages its own (much longer) timeline; every
                # query/stat frame is deadline-bounded.
                if frame.type is FrameType.RELOAD:
                    # Reload drains the outgoing generation — the ref this
                    # very frame holds on it would deadlock that drain.
                    gen.release()
                    held = False
                    ftype, payload = await self._answer(frame, trace)
                else:
                    ftype, payload = await asyncio.wait_for(
                        self._answer(frame, trace), timeout=self.deadline_s
                    )
                with trace.span("send"):
                    await self._send(
                        writer, write_lock, ftype, frame.request_id, payload,
                        trace_id=echo,
                    )
            except asyncio.CancelledError:
                raise
            except ShardLostError as exc:
                await self._send_error(
                    writer, write_lock, frame.request_id,
                    ErrorCode.SHARD_LOST, str(exc), trace_id=echo,
                )
            except asyncio.TimeoutError:
                await self._send_error(
                    writer, write_lock, frame.request_id, ErrorCode.DEADLINE,
                    f"request missed the {self.deadline_s}s deadline",
                    trace_id=echo,
                )
            except _Unsupported as exc:
                await self._send_error(
                    writer, write_lock, frame.request_id,
                    ErrorCode.UNSUPPORTED, str(exc), trace_id=echo,
                )
            except BadQueryError as exc:
                await self._send_error(
                    writer, write_lock, frame.request_id,
                    ErrorCode.BAD_QUERY, str(exc), trace_id=echo,
                )
            except ProtocolError as exc:
                await self._send_error(
                    writer, write_lock, frame.request_id,
                    ErrorCode.BAD_FRAME, str(exc), trace_id=echo,
                )
            except Exception as exc:
                await self._send_error(
                    writer, write_lock, frame.request_id,
                    ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}",
                    trace_id=echo,
                )
        finally:
            if held:
                gen.release()
            sem.release()
            trace.finish()
            self.obs.histogram("server.request_seconds").observe(trace.total_s)
            self.slow_log.record(
                trace, request_id=frame.request_id, frame=frame.type.name
            )

    async def _send(
        self, writer, write_lock, ftype: FrameType, request_id: int, payload,
        trace_id: Optional[int] = None,
    ) -> None:
        data = encode_frame(ftype, request_id, payload, trace_id=trace_id)
        with contextlib.suppress(ConnectionError, RuntimeError):
            async with write_lock:
                writer.write(data)
                await writer.drain()

    async def _send_error(
        self, writer, write_lock, request_id: int, code: ErrorCode,
        message: str, trace_id: Optional[int] = None,
    ) -> None:
        self.stats.count_error(code)
        self.obs.counter(f"server.errors.{code.name}").inc()
        await self._send(
            writer, write_lock, FrameType.ERROR, request_id,
            (int(code), message), trace_id=trace_id,
        )

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self.stats.connections_total += 1
        self.stats.connections_open += 1
        self.obs.counter("server.connections_total").inc()
        self.obs.gauge("server.connections_open").inc()
        decoder = FrameDecoder()
        write_lock = asyncio.Lock()
        sem = asyncio.Semaphore(self.max_inflight)
        inflight: set = set()
        try:
            while True:
                data = await reader.read(64 * 1024)
                if not data:
                    break
                t_dec = time.perf_counter()
                try:
                    decoder.feed(data)
                    frames = list(decoder.frames())
                except ProtocolError as exc:
                    self.stats.protocol_errors += 1
                    self.obs.counter("server.protocol_errors").inc()
                    await self._send_error(
                        writer, write_lock, 0, ErrorCode.BAD_FRAME, str(exc)
                    )
                    break  # the stream is garbage: close the connection
                dec_dur = time.perf_counter() - t_dec
                for frame in frames:
                    self.stats.frames += 1
                    self.obs.counter("server.frames_total").inc()
                    # Every request gets a trace: the client's id when
                    # the frame carried one, a freshly minted one
                    # otherwise (so the slow-query log covers untraced
                    # clients too).  Birth is backdated to the read so
                    # the decode span sits at offset zero.
                    trace = Trace(frame.trace_id)
                    trace.t0 = t_dec
                    trace.add_span("decode", t_dec, dec_dur)
                    # Backpressure: stop consuming frames while
                    # max_inflight requests are unanswered.
                    await sem.acquire()
                    req = asyncio.ensure_future(
                        self._serve_frame(frame, writer, write_lock, sem, trace)
                    )
                    inflight.add(req)
                    req.add_done_callback(inflight.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancels connection tasks; ending cleanly
            # here keeps asyncio's stream-protocol callback quiet (it
            # retrieves task.exception() on completed handler tasks).
            pass
        finally:
            # A dropped client cancels its pending requests — the
            # coalescer scrubs them from pending groups (see
            # AsyncQueryCoalescer); dispatched work completes harmlessly.
            for req in list(inflight):
                req.cancel()
            if inflight:
                await asyncio.gather(*inflight, return_exceptions=True)
            self.stats.connections_open -= 1
            self.obs.gauge("server.connections_open").dec()
            try:
                with contextlib.suppress(ConnectionError):
                    writer.close()
                    await writer.wait_closed()
            finally:
                # Stay in _conn_tasks until fully done: aclose() must
                # be able to await a handler parked on wait_closed(),
                # else it dies pending when the loop closes.
                self._conn_tasks.discard(task)


class _Unsupported(RuntimeError):
    """This server's artifact cannot answer the requested frame type."""


def run_server(
    backend=None,
    *,
    snapshot: Optional[str] = None,
    ready_event: Optional[object] = None,
    **kw,
) -> None:
    """Blocking convenience runner (the ``cli.py serve`` entry point).

    Starts a :class:`LabelServer` and serves until cancelled
    (KeyboardInterrupt included).  ``ready_event`` (a
    ``threading.Event``-alike) is set once the socket is bound — test
    and bench harnesses that run the server in a thread wait on it.
    """

    async def _main():
        server = LabelServer(backend, snapshot=snapshot, **kw)
        await server.start()
        print(
            f"repro.server: serving {server.kind} on "
            f"{server.host}:{server.port} "
            f"({server.num_shards} shards, {server.mp_context})",
            flush=True,
        )
        if ready_event is not None:
            ready_event.set()
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
