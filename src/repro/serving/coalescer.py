"""Request coalescing: single ``(s, t, F)`` queries into batched chunks.

Interactive callers issue one query at a time, but the decode engine is
at its best on batches sharing a fault set (one partition decode, many
locates).  :class:`AsyncQueryCoalescer` bridges the two shapes for the
asyncio server: ``await query(s, t, F)`` parks the caller on a future;
a per-group timer (``max_delay`` seconds) or the ``max_chunk`` size
bound triggers the dispatch, so concurrent tasks querying the same
fault set are served by one batched decode.  Callers that already hold
a whole stream skip the buffer: ``ShardedQueryService.query_many``
groups it by canonical fault set and chunks it at ``max_chunk`` in one
call.

The backend is a coroutine function ``async (pairs, faults) ->
answers`` with ``query_many`` semantics.  Dispatch order never changes
answers (each chunk shares one canonical fault list), and every future
receives exactly the answer the backend produced for its position —
asserted by ``tests/test_serving.py``.
"""

from __future__ import annotations

import asyncio
import inspect
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Iterable, Sequence

from repro.serving.partition_cache import FaultKey, canonical_fault_key

Backend = Callable[[Sequence[tuple[int, int]], list[int]], Awaitable[list]]


@dataclass
class ChunkStats:
    """Dispatch accounting of one coalescer."""

    chunks: int = 0
    queries: int = 0
    max_chunk: int = 0

    @property
    def mean_chunk(self) -> float:
        return self.queries / self.chunks if self.chunks else 0.0

    def record(self, size: int) -> None:
        self.chunks += 1
        self.queries += size
        if size > self.max_chunk:
            self.max_chunk = size


@dataclass
class _Group:
    """Pending queries of one canonical fault set.

    ``traces`` holds one ``(trace, enqueue_perf_counter)`` entry per
    pair **when any waiter is traced** (``None`` entries for untraced
    waiters keep the lists index-aligned); it stays empty otherwise so
    the untraced hot path allocates nothing extra.
    """

    pairs: list = field(default_factory=list)
    tickets: list = field(default_factory=list)
    traces: list = field(default_factory=list)


class AsyncQueryCoalescer:
    """Asyncio front-end: ``await query(...)``, batched under the hood.

    Each canonical fault set gets a pending group with a
    ``loop.call_later(max_delay, ...)`` flush timer; hitting
    ``max_chunk`` dispatches immediately and cancels the timer.

    The backend is a coroutine function, awaited in its own dispatch
    task per chunk, so slow fan-outs (the sharded server) never block
    the loop; :meth:`aclose` drains those tasks.

    Cancellation is first-class: a waiter cancelled while its group is
    still pending (a disconnected client) is *scrubbed* from the group
    — its pair is removed, the remaining tickets keep their answers
    aligned, and a group whose every waiter vanished is dropped without
    ever touching the backend.  A waiter cancelled after dispatch
    simply ignores its answer; the rest of the chunk is unaffected
    (regression-tested by ``tests/test_serving.py``).
    """

    def __init__(
        self,
        backend: Backend,
        max_chunk: int = 512,
        max_delay: float = 0.002,
        chunk_hist=None,
    ):
        if max_chunk < 1:
            raise ValueError("max_chunk must be >= 1")
        if not inspect.iscoroutinefunction(backend):
            raise TypeError("the backend must be a coroutine function")
        self.backend = backend
        self.max_chunk = max_chunk
        self.max_delay = max_delay
        self.stats = ChunkStats()
        #: optional obs histogram observing dispatched chunk sizes
        self.chunk_hist = chunk_hist
        self._groups: dict[FaultKey, _Group] = {}
        self._timers: dict[FaultKey, asyncio.TimerHandle] = {}
        self._inflight: set = set()  # dispatch tasks

    @property
    def pending(self) -> int:
        return sum(len(g.pairs) for g in self._groups.values())

    async def query(
        self, s: int, t: int, faults: Iterable[int] = (), trace=None
    ):
        """One query; resolves when its chunk is dispatched.

        ``trace`` (a :class:`repro.obs.Trace`) makes the waiter record
        a ``coalesce`` span (enqueue -> dispatch) and a ``shard`` span
        (backend duration) on its timeline; answers are identical with
        or without it.
        """
        loop = asyncio.get_running_loop()
        key = canonical_fault_key(faults)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group()
            self._timers[key] = loop.call_later(
                self.max_delay, self._dispatch_key, key
            )
        future = loop.create_future()
        group.pairs.append((s, t))
        group.tickets.append(future)
        if trace is not None or group.traces:
            # lazily backfill: the traces list only materializes once a
            # traced waiter joins, then stays index-aligned with pairs.
            while len(group.traces) < len(group.pairs) - 1:
                group.traces.append(None)
            group.traces.append(
                None if trace is None else (trace, time.perf_counter())
            )
        if len(group.pairs) >= self.max_chunk:
            self._dispatch_key(key)
        try:
            return await future
        except asyncio.CancelledError:
            self._scrub(key, future)
            raise

    def _scrub(self, key: FaultKey, future) -> None:
        """Remove a cancelled waiter from its still-pending group.

        Pair and ticket are removed at the same index, so the group's
        surviving tickets stay aligned with the backend's answer list;
        an emptied group is dropped (timer cancelled) without invoking
        the backend at all.  If the group already dispatched, there is
        nothing to scrub — the cancelled future just drops its answer.
        """
        group = self._groups.get(key)
        if group is None:
            return
        try:
            idx = group.tickets.index(future)
        except ValueError:  # pragma: no cover - future of a dispatched group
            return
        del group.tickets[idx]
        del group.pairs[idx]
        if group.traces:
            del group.traces[idx]
        if not group.pairs:
            del self._groups[key]
            timer = self._timers.pop(key, None)
            if timer is not None:
                timer.cancel()

    async def flush(self) -> int:
        """Dispatch everything pending; returns the query count served."""
        served = self.pending
        for key in list(self._groups):
            self._dispatch_key(key)
        return served

    async def aclose(self) -> None:
        """Flush pending work, cancel all timers, drain dispatch tasks."""
        await self.flush()
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    @staticmethod
    def _settle(group: _Group, answers, exc) -> bool:
        """Fill every still-waiting ticket of a dispatched group."""
        if exc is not None:
            for future in group.tickets:
                if not future.done():
                    future.set_exception(exc)
            return False
        for future, ans in zip(group.tickets, answers):
            if not future.done():
                future.set_result(ans)
        return True

    async def _dispatch(self, group: _Group, key: FaultKey) -> None:
        """Await the backend for one group (own task: a cancelled waiter
        never cancels the batch).

        Traced waiters get a ``coalesce`` span (enqueue -> dispatch) and
        a ``shard`` span (backend duration).
        """
        t_disp = time.perf_counter()
        for entry in group.traces:
            if entry is not None:
                trace, t_enq = entry
                trace.add_span("coalesce", t_enq, t_disp - t_enq)
        try:
            answers = await self.backend(group.pairs, list(key))
        except asyncio.CancelledError:  # loop teardown: fail the waiters
            self._settle(group, None, ConnectionError("dispatch cancelled"))
            raise
        except Exception as exc:
            self._settle(group, None, exc)
            return
        if group.traces:
            dur = time.perf_counter() - t_disp
            for entry in group.traces:
                if entry is not None:
                    entry[0].add_span("shard", t_disp, dur)
        if self._settle(group, answers, None):
            self.stats.record(len(group.pairs))
            if self.chunk_hist is not None:
                self.chunk_hist.observe(len(group.pairs))

    def _dispatch_key(self, key: FaultKey) -> None:
        group = self._groups.pop(key, None)
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        if group is None or not group.pairs:
            return
        task = asyncio.get_running_loop().create_task(self._dispatch(group, key))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)
