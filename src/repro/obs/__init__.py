"""Observability spine: metrics registry, request tracing, stats export.

One consistent measurement layer for every tier of the serving stack:

* :class:`MetricsRegistry` — thread-safe counters/gauges/histograms on
  a fixed base-``2^(1/4)`` bucket family, merged **exactly** across
  processes (shard workers and build workers ship their
  registries to the parent as dicts or zlib-packed bytes);
* :class:`Trace` / :class:`SlowQueryLog` — per-request span timelines
  (decode → coalesce → shard → partition → send; ``coalesce`` is the
  wait for the request's group-commit batch) carried through the
  wire protocol by an optional trace-id header field;
* :class:`PhaseTimer` — ordered build-phase attribution replacing the
  hand-rolled ``build_phase_s`` / ``phase_s`` dict threading;
* :func:`render_prometheus` — text exposition for ``cli stats``.

See ``src/repro/obs/README.md`` and ``docs/ARCHITECTURE.md`` §12 for
the metric naming scheme and the span timeline diagram.
"""

from .registry import (
    BUCKET_BASE,
    BUCKETS_PER_OCTAVE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PhaseTimer,
    bucket_index,
    bucket_upper_edge,
    render_prometheus,
)
from .tracing import SlowQueryLog, Trace, mint_trace_id

__all__ = [
    "BUCKET_BASE",
    "BUCKETS_PER_OCTAVE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseTimer",
    "SlowQueryLog",
    "Trace",
    "bucket_index",
    "bucket_upper_edge",
    "mint_trace_id",
    "render_prometheus",
]
