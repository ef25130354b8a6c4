"""Per-request tracing: trace ids, span timelines, and the slow-query log.

A :class:`Trace` is born when the server starts decoding a request
frame — with the client's trace id if the frame carried one
(``FLAG_TRACED`` in the wire protocol), freshly minted otherwise — and
rides the request through the shard service's group commit and the
worker.  Each stage appends a **span**: a ``(name, start_offset_s,
duration_s)`` triple relative to the trace's birth, producing the
timeline

    decode -> coalesce -> shard -> partition -> send

for every query frame served by shard workers: ``decode`` is the
frame's own decode, ``coalesce`` runs from submit to the post of the
request's batch, ``shard`` from the post to the reply, ``partition`` is
the worker's decode time at the tail of ``shard``, and ``send`` encodes
and writes the reply.  Local-mode and ROUTE requests record the wait
for the server's blocking thread as ``coalesce`` and their run on it as
``shard``; admin frames record ``decode`` and ``send`` only.  Spans are plain tuples appended under no
lock — a trace belongs to one request and is only ever touched from the
event loop, so the cheap representation is the safe one.

Traces observe; they never steer.  No decode path branches on the
presence of a trace, which is how the bit-identity constraint (answers
and snapshots identical with tracing on or off) holds by construction
— asserted end-to-end by ``tests/test_obs.py``.

Finished traces whose wall time crosses a threshold land in the
:class:`SlowQueryLog`, a fixed-capacity ring buffer dumped through the
``STATS`` admin frame — the "why did p99 move" plane: connect with
``cli stats`` and read the span timelines of the worst recent requests.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

#: trace ids are 63-bit so they survive signed-int64 round trips.
_TRACE_ID_BITS = 63


def mint_trace_id() -> int:
    """A fresh nonzero 63-bit trace id (os.urandom; fork/spawn safe)."""
    while True:
        tid = int.from_bytes(os.urandom(8), "big") & ((1 << _TRACE_ID_BITS) - 1)
        if tid:
            return tid


class Trace:
    """One request's span timeline.

    ``trace_id`` is the wire-carried correlation id; ``t0`` is the
    ``perf_counter`` birth instant all span offsets are relative to.
    """

    __slots__ = ("trace_id", "t0", "spans", "meta", "_finished_s")

    def __init__(self, trace_id: Optional[int] = None):
        self.trace_id = trace_id if trace_id is not None else mint_trace_id()
        self.t0 = time.perf_counter()
        #: list of (name, start_offset_s, duration_s)
        self.spans: List[Tuple[str, float, float]] = []
        self.meta: Dict[str, object] = {}
        self._finished_s: Optional[float] = None

    def span(self, name: str) -> "_Span":
        """``with trace.span("decode"): ...`` appends a timed span."""
        return _Span(self, name)

    def add_span(self, name: str, start: float, duration: float) -> None:
        """Append a span from explicit ``perf_counter`` endpoints."""
        self.spans.append((name, start - self.t0, duration))

    def finish(self) -> float:
        """Seal the trace; returns (and caches) total wall seconds."""
        if self._finished_s is None:
            self._finished_s = time.perf_counter() - self.t0
        return self._finished_s

    @property
    def total_s(self) -> float:
        return self._finished_s if self._finished_s is not None else (
            time.perf_counter() - self.t0
        )

    def to_dict(self, ndigits: int = 6) -> dict:
        return {
            "trace_id": f"{self.trace_id:016x}",
            "total_s": round(self.total_s, ndigits),
            "spans": [
                {"name": n, "start_s": round(s, ndigits), "dur_s": round(d, ndigits)}
                for n, s, d in self.spans
            ],
            **({"meta": dict(self.meta)} if self.meta else {}),
        }


class _Span:
    __slots__ = ("_trace", "_name", "_t0")

    def __init__(self, trace: Trace, name: str):
        self._trace = trace
        self._name = name

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._trace.add_span(
            self._name, self._t0, time.perf_counter() - self._t0
        )
        return False


class SlowQueryLog:
    """Fixed-capacity ring buffer of the slowest recent request traces.

    ``record`` keeps a trace only if its total time crosses
    ``threshold_s`` (0.0 keeps everything — what the tests use); the
    deque evicts oldest-first so the log is always the *recent* slow
    set, not the all-time worst.  Thread-safe: the event loop records
    while STATS handlers snapshot.
    """

    def __init__(self, capacity: int = 64, threshold_s: float = 0.050):
        self.capacity = capacity
        self.threshold_s = threshold_s
        self._entries: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.recorded = 0

    def record(self, trace: Trace, **extra: object) -> bool:
        total = trace.finish()
        if total < self.threshold_s:
            return False
        entry = trace.to_dict()
        if extra:
            entry.update(extra)
        with self._lock:
            self._entries.append(entry)
            self.recorded += 1
        return True

    def snapshot(self) -> dict:
        with self._lock:
            entries = list(self._entries)
        return {
            "capacity": self.capacity,
            "threshold_s": self.threshold_s,
            "recorded": self.recorded,
            "entries": entries,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


__all__ = ["Trace", "SlowQueryLog", "mint_trace_id"]
