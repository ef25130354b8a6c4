"""Process-local, thread-safe metrics registry (the observability spine).

Every serving-tier process — the asyncio front door, each shard
worker, each :class:`~repro._util.build_pool.BuildPool` worker — owns
one :class:`MetricsRegistry` holding three instrument kinds:

* :class:`Counter` — a monotone event count (``requests``, ``errors``);
* :class:`Gauge` — a last-write-wins level (``connections_open``,
  ``queue_depth``);
* :class:`Histogram` — a log-bucketed latency/size distribution.

Histograms use one **fixed bucket family** everywhere: bucket ``i``
covers ``(2^((i-1)/4), 2^(i/4)]`` (base ``2^(1/4)``, four buckets per
octave, ≤ 19 % relative width).  Because the edges are a property of
the family — never of the data — histograms recorded in *different
processes* merge **exactly**: merging is integer addition per bucket
index, so a parent aggregating N worker registries reports precisely
the distribution one process observing everything would have reported
(asserted across spawn workers by ``tests/test_obs.py``).

Registries cross process boundaries as plain dicts (:meth:`
MetricsRegistry.to_wire` / :meth:`MetricsRegistry.merge_wire`) — safe
to pickle over a ``multiprocessing`` pipe — or as compact zlib-packed
JSON bytes (:meth:`MetricsRegistry.to_bytes`).  :func:`render_prometheus`
turns a registry dump into the Prometheus text exposition the
``repro.cli stats --prometheus`` command prints.

The hot path is deliberately boring: one ``threading.Lock`` per
registry, taken for the few integer ops of an observation.  Metric
points are per *chunk* / per *request*, never per vertex, so the cost
is amortized over batch work — ``benchmarks/bench_obs.py`` gates the
end-to-end serving overhead at ≤ 5 %.  A registry constructed with
``enabled=False`` hands out shared no-op instruments, which is the
metrics-off arm of that benchmark.
"""

from __future__ import annotations

import json
import math
import threading
import time
import zlib
from typing import Dict, Iterator, Optional

#: the histogram bucket family: edge(i) = BUCKET_BASE ** i = 2^(i/4).
BUCKET_BASE = 2.0 ** 0.25

#: buckets per factor-of-two (the "4" in 2^(1/4)).
BUCKETS_PER_OCTAVE = 4

#: bucket indices are clamped to [-_MAX_BUCKET, _MAX_BUCKET]; 2^(±128)
#: spans every latency/size this repo can observe.
_MAX_BUCKET = BUCKETS_PER_OCTAVE * 128


def bucket_index(value: float) -> int:
    """Index of the fixed bucket holding ``value``.

    Bucket ``i`` covers ``(2^((i-1)/4), 2^(i/4)]``; non-positive values
    land in the bottom clamp bucket.  The mapping depends only on the
    value, so two processes bucket identically by construction.
    """
    if value <= 0.0:
        return -_MAX_BUCKET
    idx = math.ceil(BUCKETS_PER_OCTAVE * math.log2(value))
    # ceil can land one bucket high on exact edges hit by FP noise;
    # the clamp only guards absurd magnitudes.
    if idx < -_MAX_BUCKET:
        return -_MAX_BUCKET
    if idx > _MAX_BUCKET:
        return _MAX_BUCKET
    return idx


def bucket_upper_edge(index: int) -> float:
    """Upper edge ``2^(index/4)`` of bucket ``index``."""
    return 2.0 ** (index / BUCKETS_PER_OCTAVE)


class Counter:
    """Monotone event counter."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self.value = 0
        self._lock = lock

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """Last-write-wins level (supports inc/dec for depth tracking)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self.value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """Log-bucketed distribution over the fixed ``2^(1/4)`` family.

    Tracks exact ``count``/``sum``/``min``/``max`` alongside the sparse
    bucket counts, so merges lose nothing an aggregator reports:
    bucket addition is exact, and min/max/sum/count combine exactly.
    """

    __slots__ = ("name", "count", "total", "vmin", "vmax", "buckets", "_lock")

    def __init__(self, name: str = "", lock: Optional[threading.Lock] = None):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf
        self.buckets: Dict[int, int] = {}
        self._lock = lock if lock is not None else threading.Lock()

    def observe(self, value: float) -> None:
        idx = bucket_index(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.vmin:
                self.vmin = value
            if value > self.vmax:
                self.vmax = value
            self.buckets[idx] = self.buckets.get(idx, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Upper bucket edge at quantile ``q`` (in [0, 100]).

        Exact to within one bucket (≤ 19 % relative) and — because the
        edges are fixed — identical whether the histogram was recorded
        in one process or merged from many.
        """
        with self._lock:
            if not self.count:
                return 0.0
            rank = math.ceil(q / 100.0 * self.count)
            rank = min(max(rank, 1), self.count)
            seen = 0
            for idx in sorted(self.buckets):
                seen += self.buckets[idx]
                if seen >= rank:
                    # never report an edge beyond the observed extremes
                    return min(bucket_upper_edge(idx), self.vmax)
            return self.vmax  # pragma: no cover - unreachable

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` in exactly (same bucket family by construction)."""
        with self._lock:
            self.count += other.count
            self.total += other.total
            self.vmin = min(self.vmin, other.vmin)
            self.vmax = max(self.vmax, other.vmax)
            for idx, n in other.buckets.items():
                self.buckets[idx] = self.buckets.get(idx, 0) + n

    def to_dict(self) -> dict:
        """Wire form: everything needed for an exact merge."""
        with self._lock:
            return {
                "count": self.count,
                "sum": self.total,
                "min": self.vmin if self.count else None,
                "max": self.vmax if self.count else None,
                "buckets": {str(i): n for i, n in sorted(self.buckets.items())},
            }

    def merge_dict(self, data: dict) -> None:
        """Exact merge of a :meth:`to_dict` payload."""
        with self._lock:
            self.count += int(data["count"])
            self.total += float(data["sum"])
            if data.get("min") is not None:
                self.vmin = min(self.vmin, float(data["min"]))
            if data.get("max") is not None:
                self.vmax = max(self.vmax, float(data["max"]))
            for key, n in data.get("buckets", {}).items():
                idx = int(key)
                self.buckets[idx] = self.buckets.get(idx, 0) + int(n)

    def summary(self, scale: float = 1.0, ndigits: int = 4) -> dict:
        """JSON-ready percentile summary (values multiplied by ``scale``)."""
        with self._lock:
            count, vmax, mean = self.count, self.vmax, self.mean
        return {
            "count": count,
            "mean": round(mean * scale, ndigits),
            "p50": round(self.percentile(50) * scale, ndigits),
            "p90": round(self.percentile(90) * scale, ndigits),
            "p99": round(self.percentile(99) * scale, ndigits),
            "p99_9": round(self.percentile(99.9) * scale, ndigits),
            "max": round(vmax * scale, ndigits) if count else 0.0,
        }


class _Noop:
    """Shared do-nothing instrument of a disabled registry."""

    __slots__ = ()

    def inc(self, amount=1):
        pass

    def dec(self, amount=1):
        pass

    def set(self, value):
        pass

    def observe(self, value):
        pass


_NOOP = _Noop()


class _NoopTimer:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NOOP_TIMER = _NoopTimer()


class _Timer:
    """``with registry.timer("name"):`` — observes elapsed seconds."""

    __slots__ = ("_hist", "_t0")

    def __init__(self, hist: Histogram):
        self._hist = hist

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._hist.observe(time.perf_counter() - self._t0)
        return False


class MetricsRegistry:
    """Named instruments of one process, created lazily, merged exactly.

    Metric names are dotted paths (``server.request_seconds``,
    ``shard.partition_decode_seconds``) — the naming scheme is
    documented in ``docs/ARCHITECTURE.md`` §12.  All instruments of a
    registry share one lock: observation cost is a couple of integer
    ops under an uncontended lock, and creation races are impossible.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instruments ---------------------------------------------------
    def counter(self, name: str):
        if not self.enabled:
            return _NOOP
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter(name, self._lock))
        return c

    def gauge(self, name: str):
        if not self.enabled:
            return _NOOP
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(name, Gauge(name, self._lock))
        return g

    def histogram(self, name: str):
        if not self.enabled:
            return _NOOP
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(
                    name, Histogram(name, self._lock)
                )
        return h

    def timer(self, name: str):
        """Context manager observing elapsed seconds into ``name``."""
        if not self.enabled:
            return _NOOP_TIMER
        return _Timer(self.histogram(name))

    # -- aggregation ---------------------------------------------------
    def to_wire(self) -> dict:
        """The registry as a plain dict (pickle/JSON-safe, merge-exact)."""
        if not self.enabled:
            return {"counters": {}, "gauges": {}, "histograms": {}}
        with self._lock:
            counters = {n: c.value for n, c in self._counters.items()}
            gauges = {n: g.value for n, g in self._gauges.items()}
            hists = list(self._histograms.items())
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": {n: h.to_dict() for n, h in hists},
        }

    def merge_wire(self, wire: dict) -> None:
        """Fold a :meth:`to_wire` dump from another process in exactly.

        Counters and histogram buckets add; gauges take the incoming
        value (a worker's gauge is its latest level, not a delta).
        """
        for name, value in wire.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in wire.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in wire.get("histograms", {}).items():
            hist = self.histogram(name)
            if isinstance(hist, Histogram):
                hist.merge_dict(data)

    def to_bytes(self) -> bytes:
        """Compact binary form (zlib-packed canonical JSON)."""
        return zlib.compress(
            json.dumps(self.to_wire(), sort_keys=True).encode("utf-8")
        )

    def merge_bytes(self, data: bytes) -> None:
        self.merge_wire(json.loads(zlib.decompress(data).decode("utf-8")))

    @classmethod
    def from_wire(cls, wire: dict) -> "MetricsRegistry":
        reg = cls()
        reg.merge_wire(wire)
        return reg

    # -- export --------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready dump: counters/gauges verbatim, histograms with
        percentile summaries *and* their exact buckets (so a scraper can
        merge dumps from several servers exactly)."""
        wire = self.to_wire()
        return {
            "counters": dict(sorted(wire["counters"].items())),
            "gauges": {
                n: round(v, 6) for n, v in sorted(wire["gauges"].items())
            },
            "histograms": {
                name: {
                    **self._histograms[name].summary(),
                    "sum": data["sum"],
                    "buckets": data["buckets"],
                }
                for name, data in sorted(wire["histograms"].items())
            },
        }


def _prom_name(name: str, prefix: str) -> str:
    clean = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"{prefix}_{clean}" if prefix else clean


def render_prometheus(dump: dict, prefix: str = "repro") -> str:
    """Prometheus text exposition of a registry dump.

    ``dump`` is a :meth:`MetricsRegistry.to_wire` / :meth:`
    MetricsRegistry.snapshot` payload (both carry exact buckets).
    Histograms render as cumulative ``_bucket{le="..."}`` series plus
    ``_sum``/``_count``, counters as ``counter``, gauges as ``gauge``.
    """
    lines: list[str] = []
    for name, value in sorted(dump.get("counters", {}).items()):
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    for name, value in sorted(dump.get("gauges", {}).items()):
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value}")
    for name, data in sorted(dump.get("histograms", {}).items()):
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for key in sorted(data.get("buckets", {}), key=int):
            cumulative += int(data["buckets"][key])
            edge = bucket_upper_edge(int(key))
            lines.append(f'{metric}_bucket{{le="{edge:.6g}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {data["count"]}')
        lines.append(f"{metric}_sum {data['sum']}")
        lines.append(f"{metric}_count {data['count']}")
    return "\n".join(lines) + "\n"


class PhaseTimer:
    """Ordered wall-clock phase attribution (the ``phase_s`` spine).

    Replaces the hand-rolled ``t0 = perf_counter(); d["x"] = ...``
    threading in scheme construction and the scale benchmark: phases
    are recorded with ``with timer.phase("forest"): ...`` (or, for
    straight-line code, ``timer.start()`` then ``timer.split("forest")``
    at each boundary) and read back as the familiar ``{phase: seconds}``
    dict — same keys, and :meth:`rounded` applies the same
    ``round(x, 3)`` the benchmark rows always used, so committed row
    shapes are unchanged.  Re-entering a phase name accumulates (a
    phase split across call sites still reports its total).
    """

    __slots__ = ("seconds", "_registry", "_metric", "_mark")

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 metric: str = ""):
        #: insertion-ordered ``{phase: seconds}`` (plain dict semantics)
        self.seconds: Dict[str, float] = {}
        self._registry = registry
        self._metric = metric
        self._mark: Optional[float] = None

    def phase(self, name: str):
        return _Phase(self, name)

    def start(self) -> "PhaseTimer":
        """Arm the sequential clock (for :meth:`split`-style timing)."""
        self._mark = time.perf_counter()
        return self

    def split(self, name: str) -> float:
        """Record time since :meth:`start`/the previous split as ``name``.

        The stopwatch-lap twin of :meth:`phase` for straight-line code
        where consecutive phases share boundaries.  Returns the lap.
        """
        if self._mark is None:
            raise RuntimeError("PhaseTimer.split() before start()")
        now = time.perf_counter()
        lap = now - self._mark
        self._mark = now
        self.record(name, lap)
        return lap

    def record(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        if self._registry is not None:
            self._registry.histogram(f"{self._metric or 'phase'}.{name}").observe(
                seconds
            )

    def rounded(self, ndigits: int = 3) -> Dict[str, float]:
        """The dict the benchmark rows commit: ``round(s, ndigits)``."""
        return {name: round(s, ndigits) for name, s in self.seconds.items()}


class _Phase:
    __slots__ = ("_timer", "_name", "_t0")

    def __init__(self, timer: PhaseTimer, name: str):
        self._timer = timer
        self._name = name

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._timer.record(self._name, time.perf_counter() - self._t0)
        return False


__all__ = [
    "BUCKET_BASE",
    "BUCKETS_PER_OCTAVE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseTimer",
    "bucket_index",
    "bucket_upper_edge",
    "render_prometheus",
]
