"""Test harness: run a :class:`LabelServer` on a background thread.

Blocking test code (sync clients, raw sockets) needs a live server
without owning the event loop, so the harness runs the server's
asyncio loop on a daemon thread and exposes thread-safe entry points.
Async tests don't need this — they create the server inside their own
``asyncio.run``.  :func:`submit_future` drives a loop-bound
:class:`~repro.serving.shards.ShardedQueryService` directly.
"""

from __future__ import annotations

import asyncio
import threading

from repro.server import LabelServer


def submit_future(service, pairs, faults, kw=None, writer=None):
    """``service.submit(...)`` with an asyncio future for its reply.

    Returns ``(handle, future)``: the future resolves to ``(answers,
    meta)`` or raises the request's error.  Call it on the loop the
    service is bound to.
    """
    future = asyncio.get_running_loop().create_future()

    def reply(ok, payload):
        if future.done():
            return
        if ok:
            future.set_result(payload)
        else:
            future.set_exception(payload)

    return service.submit(pairs, faults, kw or {}, writer, reply), future


class ServerThread:
    """A live server for the duration of a ``with`` block.

    ``ServerThread(backend, num_shards=2, ...)`` accepts everything
    :class:`LabelServer` does; the bound port is ``self.port`` once
    the context is entered.
    """

    def __init__(self, backend=None, **kw):
        self._backend = backend
        self._kw = kw
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: LabelServer | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self.port: int = 0

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        async def _up():
            self._server = LabelServer(self._backend, **self._kw)
            await self._server.start()
            self.port = self._server.port

        try:
            loop.run_until_complete(_up())
        except BaseException as exc:  # surface build errors in the test
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self._server.aclose())
            loop.close()

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=120):
            raise TimeoutError("server did not start within 120s")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def __exit__(self, *exc) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=120)

    @property
    def server(self) -> LabelServer:
        return self._server

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The server's event loop (touch it only through its thread)."""
        return self._loop

    def run(self, coro, timeout: float = 120.0):
        """Run a coroutine on the server's loop; return its result."""
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout=timeout)
