"""Observability layer: registry exactness, tracing, bit-identity.

The contracts PR 10 introduced:

* the metrics registry is thread-safe (concurrent increments lose
  nothing) and histograms over the fixed ``2^(1/4)`` bucket family
  merge **exactly** across processes — a parent aggregating worker
  registries reports what one process observing everything would have;
* a client-minted trace id rides the wire protocol through the shard
  fan-out and comes back on the reply, while untraced frames stay
  byte-identical to protocol v1 (old clients unaffected);
* the slow-query log captures span timelines over the STATS plane;
* tracing observes, never steers: answers and snapshot digests are
  bit-identical with tracing/metrics on or off.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core.sketch_scheme import SketchConnectivityScheme
from repro.graph import generators
from repro.obs import (
    Histogram,
    MetricsRegistry,
    PhaseTimer,
    SlowQueryLog,
    Trace,
    bucket_index,
    bucket_upper_edge,
    mint_trace_id,
    render_prometheus,
)
from repro.server import QueryClient
from repro.server.protocol import (
    FLAG_TRACED,
    FrameDecoder,
    FrameType,
    ProtocolError,
    encode_frame,
)
from repro.store import save_snapshot

from server_util import ServerThread


def _graph(n=48, seed=0):
    return generators.random_connected_graph(n, extra_edges=n, seed=seed)


# ---------------------------------------------------------------------------
# registry: bucket family, thread safety, exact merge
# ---------------------------------------------------------------------------


def test_bucket_family_is_fixed_and_monotone():
    # bucket i covers (2^((i-1)/4), 2^(i/4)]: edges depend only on i
    for value in (0.001, 0.5, 1.0, 1.5, 7.0, 1e6):
        idx = bucket_index(value)
        assert value <= bucket_upper_edge(idx) * (1 + 1e-12)
        assert value > bucket_upper_edge(idx - 1) * (1 - 1e-9)
    assert bucket_index(0.0) == bucket_index(-5.0)  # clamp bucket
    assert bucket_upper_edge(4) == 2.0  # four buckets per octave


def test_registry_thread_safety_under_concurrent_increments():
    reg = MetricsRegistry()
    threads, per_thread = 8, 2000

    def hammer(i):
        counter = reg.counter("hot")  # same instruments from every thread
        gauge = reg.gauge("depth")
        hist = reg.histogram("lat")
        for j in range(per_thread):
            counter.inc()
            gauge.inc()
            gauge.dec()
            hist.observe(1.0 + (j % 7))

    ts = [threading.Thread(target=hammer, args=(i,)) for i in range(threads)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    wire = reg.to_wire()
    assert wire["counters"]["hot"] == threads * per_thread
    assert wire["gauges"]["depth"] == 0.0
    hist = wire["histograms"]["lat"]
    assert hist["count"] == threads * per_thread
    assert sum(hist["buckets"].values()) == threads * per_thread


def test_histogram_merge_is_exact():
    """Merged shards == one histogram that saw every sample."""
    values = [0.0003 * (i % 91) + 0.0001 for i in range(3000)]
    whole = Histogram("h")
    parts = [Histogram("h") for _ in range(4)]
    for i, v in enumerate(values):
        whole.observe(v)
        parts[i % 4].observe(v)
    merged = Histogram("h")
    for part in parts:
        merged.merge(part)
    assert merged.buckets == whole.buckets
    assert merged.count == whole.count
    assert merged.vmin == whole.vmin and merged.vmax == whole.vmax
    assert merged.total == pytest.approx(whole.total)
    for q in (50, 90, 99, 99.9):
        assert merged.percentile(q) == whole.percentile(q)


_WORKER_SNIPPET = """
import json, sys
from repro.obs import MetricsRegistry
seed = int(sys.argv[1])
reg = MetricsRegistry()
reg.counter("worker.events").inc(seed * 10)
hist = reg.histogram("worker.seconds")
for i in range(500):
    hist.observe(((seed * 7919 + i * 104729) % 1000) / 1000.0 + 0.001)
sys.stdout.write(reg.to_bytes().hex())
"""


def test_histogram_merge_exactness_across_spawn_workers():
    """Fresh worker processes ship registries as bytes; the parent's
    merge equals one registry that observed every sample itself."""
    import os

    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    parent = MetricsRegistry()
    replay = MetricsRegistry()
    for seed in (1, 2, 3):
        out = subprocess.run(
            [sys.executable, "-c", _WORKER_SNIPPET, str(seed)],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        parent.merge_bytes(bytes.fromhex(out.stdout))
        replay.counter("worker.events").inc(seed * 10)
        hist = replay.histogram("worker.seconds")
        for i in range(500):
            hist.observe(((seed * 7919 + i * 104729) % 1000) / 1000.0 + 0.001)
    assert parent.to_wire() == replay.to_wire()


def test_render_prometheus_cumulative_buckets():
    reg = MetricsRegistry()
    reg.counter("requests").inc(3)
    reg.gauge("open").set(2)
    h = reg.histogram("lat")
    for v in (0.5, 1.0, 2.0):
        h.observe(v)
    text = render_prometheus(reg.to_wire())
    assert "# TYPE repro_requests counter" in text
    assert "repro_requests 3" in text
    assert "repro_open 2" in text
    assert 'repro_lat_bucket{le="+Inf"} 3' in text
    assert "repro_lat_count 3" in text
    # cumulative counts never decrease
    counts = [
        int(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("repro_lat_bucket")
    ]
    assert counts == sorted(counts)


def test_phase_timer_keys_and_rounding():
    timer = PhaseTimer().start()
    with timer.phase("forest"):
        pass
    timer.split("eids")
    timer.record("sketches", 0.12345)
    assert list(timer.seconds) == ["forest", "eids", "sketches"]
    assert timer.rounded(3)["sketches"] == 0.123
    timer.record("sketches", 0.1)  # re-entry accumulates
    assert timer.seconds["sketches"] == pytest.approx(0.22345)


# ---------------------------------------------------------------------------
# wire protocol: trace flag
# ---------------------------------------------------------------------------


def test_untraced_frames_are_byte_identical_to_v1():
    plain = encode_frame(FrameType.PING, 7, None)
    assert plain[3] & FLAG_TRACED == 0  # type byte, flag clear
    traced = encode_frame(FrameType.PING, 7, None, trace_id=0x1234)
    assert traced[3] & FLAG_TRACED
    assert len(traced) == len(plain) + 8
    # stripping the flag and the 8-byte id recovers the v1 frame
    stripped = traced[:3] + bytes([traced[3] & 0x7F]) + traced[4:16]
    assert stripped == plain[:16]
    assert traced[24:] == plain[16:]  # payload untouched


def test_zero_trace_id_rejected_on_encode_and_decode():
    with pytest.raises(ValueError):
        encode_frame(FrameType.PING, 1, None, trace_id=0)
    # hand-craft a flagged frame with a zero id: decoder poisons
    good = bytearray(encode_frame(FrameType.PING, 1, None, trace_id=1))
    good[16:24] = b"\x00" * 8
    dec = FrameDecoder()
    dec.feed(bytes(good))
    with pytest.raises(ProtocolError):
        list(dec.frames())


def test_trace_roundtrips_through_decoder():
    tid = mint_trace_id()
    dec = FrameDecoder()
    dec.feed(encode_frame(FrameType.PING, 9, None, trace_id=tid))
    (frame,) = list(dec.frames())
    assert frame.type is FrameType.PING
    assert frame.trace_id == tid
    dec.feed(encode_frame(FrameType.PING, 10, None))
    (frame,) = list(dec.frames())
    assert frame.trace_id is None


# ---------------------------------------------------------------------------
# end-to-end: trace propagation, slow log, bit-identity
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def served_scheme():
    graph = _graph(64, seed=3)
    scheme = SketchConnectivityScheme(graph, seed=2)
    with ServerThread(
        scheme, num_shards=2, slow_threshold_s=0.0, deadline_s=60.0
    ) as srv:
        yield graph, scheme, srv


def test_trace_id_propagates_socket_to_shard_to_reply(served_scheme):
    graph, scheme, srv = served_scheme
    pairs = [(0, 1), (2, 3), (4, 5)]
    faults = [0, 2]
    with QueryClient("127.0.0.1", srv.port, timeout=60) as client:
        tid = mint_trace_id()
        traced = client.connectivity(pairs, faults, trace_id=tid)
        assert client.last_trace_id == tid  # echoed on the reply
        plain = client.connectivity(pairs, faults)
        assert client.last_trace_id is None  # untraced -> no echo
        assert traced == plain  # tracing never changes an answer
        stats = client.stats()
    # the shard fan-out recorded spans for the traced request
    entries = [e for e in stats.slow_queries if e["trace_id"] == f"{tid:016x}"]
    assert entries, "traced request missing from the slow-query log"
    span_names = {s["name"] for e in entries for s in e["spans"]}
    assert "decode" in span_names
    assert "shard" in span_names


def test_slow_query_log_capture_over_stats_plane(served_scheme):
    graph, scheme, srv = served_scheme
    with QueryClient("127.0.0.1", srv.port, timeout=60) as client:
        before = len(client.stats().slow_queries)
        client.connectivity([(1, 2)], [1])
        stats = client.stats()
    entries = stats.slow_queries
    # threshold 0.0 keeps every request; ours arrived after `before`
    assert len(entries) > before or stats["slow_queries"]["recorded"] > before
    latest = entries[-1]
    assert latest["total_s"] >= 0.0
    assert latest["frame"] in ("CONNECTIVITY", "STATS")
    assert all(
        set(span) >= {"name", "start_s", "dur_s"}
        for entry in entries
        for span in entry["spans"]
    )


def test_stats_report_registry_dump(served_scheme):
    graph, scheme, srv = served_scheme
    with QueryClient("127.0.0.1", srv.port, timeout=60) as client:
        client.connectivity([(6, 7)], [3])
        stats = client.stats()
    assert stats.get("metrics_enabled") is True
    assert len(stats.queue_depth) == 2  # one entry per shard
    assert all(depth >= 0 for depth in stats.queue_depth)
    assert 0.0 <= stats.cache_hit_rate <= 1.0
    assert stats.counters["server.queries_total"] >= 1
    assert "server.request_seconds" in stats.histograms
    hist = stats.histogram("server.request_seconds")
    assert hist["count"] >= 1 and "buckets" in hist
    assert set(stats["service"]) == {
        "mode", "queries", "chunks", "mean_chunk", "max_chunk", "per_shard",
        "hot_keys", "replicated_chunks", "pool_restarts", "queue_depth",
        "per_shard_cache", "cache",
    }
    per_shard = stats["service"]["per_shard_cache"]
    assert len(per_shard) == 2
    assert all({"hits", "misses", "hit_rate"} <= set(c) for c in per_shard)
    # every name a fresh service carries, per shard too; worker gauges
    # stay per shard, and cache.evictions is the one name added
    assert {
        "service.queries", "service.chunks", "service.pool_restarts",
        "service.replicated_chunks", "cache.evictions",
    } | {
        f"shard.{i}.{name}"
        for i in range(2)
        for name in ("queries", "cache_hits", "cache_misses", "cache_evictions")
    } <= set(stats.counters)
    assert {"service.hot_keys"} | {
        f"shard.{i}.{name}"
        for i in range(2)
        for name in ("cache_entries", "cache_hit_rate", "queue_depth")
    } <= set(stats.gauges)
    assert "cache.entries" not in stats.gauges
    # the dump renders as Prometheus text without error
    assert "repro_server_queries_total" in stats.prometheus()


def test_answers_and_snapshot_bit_identical_with_tracing(tmp_path):
    """The hard constraint: tracing/metrics on vs off changes nothing
    about answers or persisted snapshots."""
    graph = _graph(56, seed=5)
    scheme = SketchConnectivityScheme(graph, seed=2)
    pairs = [(i, (i * 7 + 1) % graph.n) for i in range(24)]
    faults = [0, 3, 5]
    expected = scheme.query_many(pairs, faults, want_path=True)

    digests = {}
    answers = {}
    reports = {}
    for metrics in (False, True):
        path = tmp_path / f"snap-{metrics}.ftl"
        save_snapshot(path, scheme)
        digests[metrics] = hashlib.sha256(path.read_bytes()).hexdigest()
        with ServerThread(
            scheme, num_shards=2, metrics=metrics, slow_threshold_s=0.0
        ) as srv:
            with QueryClient("127.0.0.1", srv.port, timeout=60) as client:
                answers[metrics] = client.connectivity(
                    pairs, faults, want_path=True, trace_id=mint_trace_id()
                )
                untraced = client.connectivity(pairs, faults, want_path=True)
                reports[metrics] = client.stats()
        assert answers[metrics] == untraced
        assert reports[metrics]["metrics_enabled"] is metrics
    # metrics off: nothing is counted, so the dump is empty and every
    # stats view reads zero
    off, on = reports[False], reports[True]
    assert off.metrics == {"counters": {}, "gauges": {}, "histograms": {}}
    assert off["server"]["frames"] == off["server"]["queries"] == 0
    assert off["service"]["queries"] == off["service"]["cache"]["misses"] == 0
    assert on["server"]["queries"] == on["service"]["queries"] == 2 * len(pairs)
    assert digests[False] == digests[True]
    assert answers[False] == answers[True] == expected


def test_trace_and_slow_log_units():
    trace = Trace(trace_id=0x42)
    with trace.span("work"):
        pass
    trace.add_span("tail", trace.t0, 0.001)
    d = trace.to_dict()
    assert d["trace_id"] == f"{0x42:016x}"
    assert [s["name"] for s in d["spans"]] == ["work", "tail"]
    log = SlowQueryLog(capacity=2, threshold_s=0.0)
    for i in range(3):
        assert log.record(Trace(trace_id=i + 1), request_id=i)
    snap = log.snapshot()
    assert snap["recorded"] == 3
    assert len(snap["entries"]) == 2  # ring evicted the oldest
    assert snap["entries"][-1]["request_id"] == 2
    fast = SlowQueryLog(capacity=2, threshold_s=10.0)
    assert not fast.record(Trace())  # under threshold -> dropped
    assert len(fast) == 0


def test_loadreport_merges_histograms_exactly():
    from repro.traffic.loadgen import LoadReport

    combined = LoadReport(workers=2)
    solo = LoadReport(workers=2)
    a, b = LoadReport(), LoadReport()
    for i in range(200):
        ms = 0.1 + (i % 37) * 0.5
        (a if i % 2 else b).record(ms)
        solo.record(ms)
        combined.requests = solo.requests = 200
    a.requests, b.requests = 100, 100
    combined.requests = 0
    combined.merge(a)
    combined.merge(b)
    assert combined.requests == 200
    s_combined, s_solo = combined.summary(), solo.summary()
    for key in ("p50_ms", "p90_ms", "p99_ms", "p99_9_ms", "max_ms",
                "latency_buckets"):
        assert s_combined[key] == s_solo[key], key
    # registry dumps built from the same family merge with these too
    assert json.loads(json.dumps(s_combined)) == s_combined
