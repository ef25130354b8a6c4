"""Clients for the label server: blocking socket and asyncio flavors.

Both speak :mod:`repro.server.protocol` and rebuild wire answers into
the schemes' native dataclasses, so a client-side answer compares
equal (``==``) to the in-process ``query_many`` / ``route_many``
answer — succinct paths, telemetry and float bits included.

* :class:`QueryClient` — synchronous, one request at a time over one
  TCP connection (the CLI ``query --connect`` path and simple tools);
* :class:`AsyncQueryClient` — pipelined: any number of concurrent
  ``await`` ed requests over one connection, matched to responses by
  request id (the load generator and the hot-reload test drive this).

Server-reported failures raise :class:`ServerError` carrying the
:class:`~repro.server.protocol.ErrorCode`.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import socket
from typing import Iterable, Optional, Sequence

from repro.server.protocol import (
    ErrorCode,
    Frame,
    FrameDecoder,
    FrameType,
    ProtocolError,
    decode_faults,
    encode_frame,
    encode_pairs,
    wire_to_route_result,
    wire_to_sk_result,
)

_REPLY_OF = {
    FrameType.CONNECTIVITY: FrameType.CONNECTIVITY_REPLY,
    FrameType.DISTANCE: FrameType.DISTANCE_REPLY,
    FrameType.ROUTE: FrameType.ROUTE_REPLY,
    FrameType.PING: FrameType.PONG,
    FrameType.STATS: FrameType.STATS_REPLY,
    FrameType.RELOAD: FrameType.RELOAD_REPLY,
}


class ServerError(RuntimeError):
    """An ``ERROR`` frame from the server."""

    def __init__(self, code: ErrorCode, message: str):
        super().__init__(f"[{code.name}] {message}")
        self.code = code
        self.message = message


class StatsReport(dict):
    """A ``STATS_REPLY`` payload with typed accessors.

    Still a plain dict (``report["server"]["frames"]`` keeps working),
    plus named views over the uniform registry dump the server now
    returns: per-shard queue depth, cache hit rate, latency histogram
    percentiles, the slow-query log, and a Prometheus text rendering.
    """

    @property
    def kind(self) -> Optional[str]:
        return self.get("kind")

    @property
    def version(self) -> Optional[int]:
        return self.get("version")

    @property
    def metrics(self) -> dict:
        """The merged registry dump (counters/gauges/histograms)."""
        return self.get("metrics") or {}

    @property
    def counters(self) -> dict:
        return self.metrics.get("counters") or {}

    @property
    def gauges(self) -> dict:
        return self.metrics.get("gauges") or {}

    @property
    def histograms(self) -> dict:
        return self.metrics.get("histograms") or {}

    @property
    def queue_depth(self) -> list:
        """Messages (batches and stats) in flight per shard at snapshot time."""
        return (self.get("service") or {}).get("queue_depth") or []

    @property
    def cache_hit_rate(self) -> float:
        cache = (self.get("service") or {}).get("cache") or {}
        return float(cache.get("hit_rate", 0.0))

    @property
    def slow_queries(self) -> list:
        """Recorded slow-query traces (span timelines), oldest first."""
        return (self.get("slow_queries") or {}).get("entries") or []

    def histogram(self, name: str) -> Optional[dict]:
        """One histogram's summary+buckets (``None`` if not recorded)."""
        return self.histograms.get(name)

    def prometheus(self, prefix: str = "repro") -> str:
        """The registry dump in Prometheus text exposition format."""
        from repro.obs import render_prometheus

        return render_prometheus(self.metrics, prefix=prefix)


def _raise_if_error(frame: Frame) -> Frame:
    if frame.type is FrameType.ERROR:
        code, message = frame.payload
        try:
            code = ErrorCode(code)
        except ValueError:
            pass
        raise ServerError(code, message)
    return frame


def _decode_reply(request_type: FrameType, frame: Frame):
    expected = _REPLY_OF[request_type]
    if frame.type is not expected:
        raise ProtocolError(
            f"expected {expected.name}, got {frame.type.name}"
        )
    if request_type is FrameType.CONNECTIVITY:
        return [
            ans if isinstance(ans, bool) else wire_to_sk_result(ans)
            for ans in frame.payload
        ]
    if request_type is FrameType.DISTANCE:
        return list(frame.payload)
    if request_type is FrameType.ROUTE:
        return [wire_to_route_result(ans) for ans in frame.payload]
    if request_type is FrameType.STATS:
        return StatsReport(json.loads(frame.payload))
    return frame.payload  # PONG: generation version; RELOAD_REPLY tuple


def _conn_payload(pairs, faults, want_path: bool):
    return [encode_pairs(pairs), decode_faults(list(faults)), bool(want_path)]


def _pair_payload(pairs, faults):
    return [encode_pairs(pairs), decode_faults(list(faults))]


class QueryClient:
    """Blocking client: one request in flight at a time.

    ``timeout`` is the per-response socket timeout (None blocks
    forever — tests always set one so a wedged server fails fast).
    """

    def __init__(self, host: str, port: int, timeout: Optional[float] = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._decoder = FrameDecoder()
        self._ids = itertools.count(1)
        #: trace id echoed on the last reply (None for untraced requests)
        self.last_trace_id: Optional[int] = None

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "QueryClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _roundtrip(
        self, ftype: FrameType, payload, trace_id: Optional[int] = None
    ):
        request_id = next(self._ids)
        self._sock.sendall(
            encode_frame(ftype, request_id, payload, trace_id=trace_id)
        )
        while True:
            for frame in self._decoder.frames():
                if frame.request_id == request_id:
                    self.last_trace_id = frame.trace_id
                    return _decode_reply(ftype, _raise_if_error(frame))
                # stale reply of an abandoned request: drop it
            data = self._sock.recv(64 * 1024)
            if not data:
                raise ConnectionError("server closed the connection")
            self._decoder.feed(data)

    # -- queries -------------------------------------------------------
    def connectivity(
        self,
        pairs: Sequence[tuple[int, int]],
        faults: Iterable[int] = (),
        want_path: bool = True,
        trace_id: Optional[int] = None,
    ) -> list:
        """Batched connectivity answers (``SkDecodeResult`` or bools).

        ``trace_id`` (mint one with :func:`repro.obs.mint_trace_id`)
        rides the wire's optional trace field: the server records a
        span timeline under that id (see its slow-query log) and echoes
        it on the reply (:attr:`last_trace_id`).  Answers are identical
        with or without it.
        """
        return self._roundtrip(
            FrameType.CONNECTIVITY,
            _conn_payload(pairs, faults, want_path),
            trace_id=trace_id,
        )

    def connected(self, s: int, t: int, faults: Iterable[int] = ()) -> bool:
        ans = self.connectivity([(s, t)], faults, want_path=False)[0]
        return ans if isinstance(ans, bool) else ans.connected

    def distance(
        self,
        pairs: Sequence[tuple[int, int]],
        faults: Iterable[int] = (),
        trace_id: Optional[int] = None,
    ) -> list[float]:
        return self._roundtrip(
            FrameType.DISTANCE, _pair_payload(pairs, faults), trace_id=trace_id
        )

    def route(
        self,
        pairs: Sequence[tuple[int, int]],
        faults: Iterable[int] = (),
        trace_id: Optional[int] = None,
    ) -> list:
        """Batched :class:`~repro.routing.network.RouteResult` answers."""
        return self._roundtrip(
            FrameType.ROUTE, _pair_payload(pairs, faults), trace_id=trace_id
        )

    # -- admin ---------------------------------------------------------
    def ping(self) -> int:
        """Round trip; returns the server's current generation version."""
        return self._roundtrip(FrameType.PING, None)

    def stats(self) -> StatsReport:
        """The server's stats plane as a typed :class:`StatsReport`."""
        return self._roundtrip(FrameType.STATS, None)

    def reload(self, path: Optional[str] = None) -> tuple:
        """Ask the server for a zero-downtime snapshot reload."""
        return self._roundtrip(FrameType.RELOAD, path)


class AsyncQueryClient:
    """Pipelined asyncio client: concurrent requests over one connection."""

    def __init__(self):
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._reader_task: Optional[asyncio.Task] = None
        self._write_lock: Optional[asyncio.Lock] = None
        #: trace id echoed on the last reply (None for untraced requests)
        self.last_trace_id: Optional[int] = None

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncQueryClient":
        client = cls()
        client._reader, client._writer = await asyncio.open_connection(
            host, port
        )
        client._write_lock = asyncio.Lock()
        client._reader_task = asyncio.ensure_future(client._read_loop())
        return client

    async def aclose(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            self._writer = None
        self._fail_pending(ConnectionError("client closed"))

    async def __aenter__(self) -> "AsyncQueryClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    def _fail_pending(self, exc: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    async def _read_loop(self) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                data = await self._reader.read(64 * 1024)
                if not data:
                    self._fail_pending(
                        ConnectionError("server closed the connection")
                    )
                    return
                decoder.feed(data)
                for frame in decoder.frames():
                    future = self._pending.pop(frame.request_id, None)
                    if future is not None and not future.done():
                        future.set_result(frame)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._fail_pending(exc)

    async def _roundtrip(
        self, ftype: FrameType, payload, trace_id: Optional[int] = None
    ):
        request_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            async with self._write_lock:
                self._writer.write(
                    encode_frame(ftype, request_id, payload, trace_id=trace_id)
                )
                await self._writer.drain()
            frame = await future
        finally:
            self._pending.pop(request_id, None)
        self.last_trace_id = frame.trace_id
        return _decode_reply(ftype, _raise_if_error(frame))

    # -- queries -------------------------------------------------------
    async def connectivity(
        self,
        pairs: Sequence[tuple[int, int]],
        faults: Iterable[int] = (),
        want_path: bool = True,
        trace_id: Optional[int] = None,
    ) -> list:
        return await self._roundtrip(
            FrameType.CONNECTIVITY,
            _conn_payload(pairs, faults, want_path),
            trace_id=trace_id,
        )

    async def distance(
        self,
        pairs: Sequence[tuple[int, int]],
        faults: Iterable[int] = (),
        trace_id: Optional[int] = None,
    ) -> list[float]:
        return await self._roundtrip(
            FrameType.DISTANCE, _pair_payload(pairs, faults), trace_id=trace_id
        )

    async def route(
        self,
        pairs: Sequence[tuple[int, int]],
        faults: Iterable[int] = (),
        trace_id: Optional[int] = None,
    ) -> list:
        return await self._roundtrip(
            FrameType.ROUTE, _pair_payload(pairs, faults), trace_id=trace_id
        )

    # -- admin ---------------------------------------------------------
    async def ping(self) -> int:
        return await self._roundtrip(FrameType.PING, None)

    async def stats(self) -> StatsReport:
        """The server's stats plane as a typed :class:`StatsReport`."""
        return await self._roundtrip(FrameType.STATS, None)

    async def reload(self, path: Optional[str] = None) -> tuple:
        return await self._roundtrip(FrameType.RELOAD, path)


__all__ = ["AsyncQueryClient", "QueryClient", "ServerError", "StatsReport"]
