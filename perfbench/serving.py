"""The socket workloads: ``serve-hot`` and ``serve-singles``.

The label server runs in its own process (``server_main.py``) with two
spawn shard workers mapping one snapshot; this process is the load
generator, with two connections on its own event loop.  Every latency
percentile comes from raw per-request samples.

Traced runs start a second server that keeps every request's span
timeline (slow-log threshold 0), mint a trace id per request, and join
the client's timings to the server's spans by id.  Cache, chunk and
worker-time counts are window deltas of the STATS plane.  Client
encode and reply decode are timed by replaying recorded payloads and
answers through the public codec.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import (
    SCHEME_SEED,
    WORK,
    ExactConnectivity,
    Outcome,
    PhasePeaks,
    build,
    make_graph,
    cpu_seconds,
    mean,
    median,
    pairs_of,
    pss_mb,
    random_fault_set,
    report_latency,
)

SERVER_MAIN = str(Path(__file__).resolve().parent / "server_main.py")

SHARDS = 2
CONNS = 2  # no more connections than the two cores the shapes assume
WARMUP_S = 2.0
PING_EVERY_S = 0.05
SEGMENT_S = 0.5
SERVER_STARTS = 5  # per run; setup_s is their median
REPLAY_SAMPLES = 1000

#: name -> (n, pairs per request, fault-set pool, requests per second).
#: Both loads are open loops well under the 2-core capacity (about 40%
#: of it when the host lends only one core), so latency measures the
#: cost of a request, not how much CPU the host lent the run.
SHAPES = {
    "serve-hot": (20_000, 8, 8, 150.0),
    "serve-singles": (20_000, 1, 4096, 200.0),
}
SMOKE_N = 1500


class ServerProcess:
    """One ``server_main.py`` child; closing stdin stops it."""

    def __init__(self, snapshot: str, traced: bool):
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        # asyncio logs harmless teardown races on stderr; keep the log
        # for a server that fails to start.
        self.log = open(f"{snapshot}.{id(self)}.log", "w+")
        self.proc = subprocess.Popen(
            [sys.executable, SERVER_MAIN, snapshot, str(SHARDS), "1" if traced else "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
            env=env,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            self.log.seek(0)
            raise RuntimeError("label server exited before binding:\n" + self.log.read())
        info = json.loads(line)
        self.port = info["port"]
        self.pids = [info["pid"], *info["workers"]]

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:  # pragma: no cover - wedged
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class Stream:
    """The seeded request stream: pairs and a fault-set index each."""

    def __init__(self, rng, n: int, m: int, batch: int, pool: int, count: int):
        self.pool = [random_fault_set(rng, m) for _ in range(pool)]
        self.fidx = rng.integers(0, pool, size=count).tolist()
        flat = pairs_of(rng, n, count * batch)
        self.pairs = [flat[i * batch : (i + 1) * batch] for i in range(count)]
        self.next = 0

    def take(self) -> int:
        i = self.next % len(self.pairs)
        self.next += 1
        return i


class Sample:
    __slots__ = ("i", "due", "sent", "done", "tid", "answers", "error")

    def __init__(self, i, due, sent, tid):
        self.i, self.due, self.sent, self.tid = i, due, sent, tid
        self.done = None
        self.answers = None
        self.error = None


async def _ask(client, stream: Stream, sample: Sample, want_path: bool) -> None:
    from repro.server import ServerError

    try:
        sample.answers = await client.connectivity(
            stream.pairs[sample.i],
            stream.pool[stream.fidx[sample.i]],
            want_path=want_path,
            trace_id=sample.tid,
        )
    except (ServerError, ConnectionError, OSError) as exc:
        sample.error = repr(exc)
    sample.done = time.perf_counter()


async def _drive(clients, stream, seconds, rate, traced, want_path):
    """One open-loop load segment: requests fall due every 1/rate
    seconds whatever the server does, alternating connections, and the
    segment ends with nothing in flight.  Returns (samples, pings,
    lateness, busy seconds).
    """
    from repro.obs import mint_trace_id

    samples: list[Sample] = []
    pings: list[float] = []
    late_max = 0.0
    t_start = time.perf_counter()
    t_end = t_start + seconds

    async def ping():
        while time.perf_counter() < t_end:
            t0 = time.perf_counter()
            await clients[0].ping()
            pings.append(time.perf_counter() - t0)
            await asyncio.sleep(PING_EVERY_S)

    tasks = [asyncio.ensure_future(ping())] if traced else []
    k = 0
    while True:
        due = t_start + k / rate
        if due >= t_end:
            break
        wait = due - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        sent = time.perf_counter()
        late_max = max(late_max, sent - due)
        tid = mint_trace_id() if traced else None
        sample = Sample(stream.take(), due, sent, tid)
        samples.append(sample)
        tasks.append(
            asyncio.ensure_future(_ask(clients[k % CONNS], stream, sample, want_path))
        )
        k += 1
    await asyncio.gather(*tasks)
    return samples, pings, late_max, time.perf_counter() - t_start


async def _stats(port):
    from repro.server import AsyncQueryClient

    client = await AsyncQueryClient.connect("127.0.0.1", port)
    try:
        return await client.stats()
    finally:
        await client.aclose()


def _cold_start(snapshot, traced, probe, expected) -> tuple[float, ServerProcess]:
    """Spawn a server and time it up to its first correct answer."""
    from repro.server import QueryClient

    t0 = time.perf_counter()
    server = ServerProcess(snapshot, traced)
    try:
        with QueryClient("127.0.0.1", server.port, timeout=60) as client:
            got = client.connectivity(probe[0], probe[1], want_path=True)
    except BaseException:
        server.close()
        raise
    elapsed = time.perf_counter() - t0
    if got != expected:
        server.close()
        raise AssertionError("socket answers differ from in-process query_many")
    return elapsed, server


async def _load(server, stream, seconds, rate, traced, want_path, yard):
    """Warm-up, then the measured window in segments of ``SEGMENT_S``.

    Between segments nothing is in flight and the yardstick kernel runs,
    so machine speed is sampled inside the window without timing it.
    Returns (samples, pings, lateness, busy seconds, server CPU seconds,
    STATS before, STATS after); the STATS pair only when traced.
    """
    from repro.server import AsyncQueryClient

    clients = [
        await AsyncQueryClient.connect("127.0.0.1", server.port) for _ in range(CONNS)
    ]
    try:
        await _drive(clients, stream, WARMUP_S, rate, False, want_path)
        before = await clients[0].stats() if traced else None
        samples, pings, late, busy = [], [], 0.0, 0.0
        cpu0 = cpu_seconds(server.pids)
        gc.collect()
        gc.disable()
        try:
            while busy < seconds:
                yard.tick()
                seg = await _drive(
                    clients, stream, min(SEGMENT_S, seconds - busy), rate, traced, want_path
                )
                samples += seg[0]
                pings += seg[1]
                late = max(late, seg[2])
                busy += seg[3]
        finally:
            gc.enable()
        cpu = cpu_seconds(server.pids) - cpu0
        after = await clients[0].stats() if traced else None
    finally:
        for client in clients:
            await client.aclose()
    return samples, pings, late, busy, cpu, before, after


def _path_ok(oracle: ExactConnectivity, scheme, s: int, t: int, path, faults) -> bool:
    """Whether a succinct path expands to an s-t walk in ``G \\ F``."""
    if path is None or (path.s, path.t) != (s, t):
        return False
    try:
        walk = path.expand(oracle.graph, scheme.trees[int(scheme.comp_of[s])])
    except ValueError:
        return False
    return oracle.walk_ok(walk, faults)


def _check(out: Outcome, oracle: ExactConnectivity, stream: Stream, samples, scheme) -> None:
    """Every verdict against the exact oracle, grouped by fault set; with
    a ``scheme`` (requests asked for paths) every connected answer's
    path is expanded through its spanning tree and walked over G."""
    groups: dict[int, list] = {}
    for sample in samples:
        out.attempted += 1
        if sample.error is not None:
            out.failed += 1
            continue
        groups.setdefault(stream.fidx[sample.i], []).append(sample)
    for fi, group in groups.items():
        faults = stream.pool[fi]
        pairs = [p for s in group for p in stream.pairs[s.i]]
        answers = [a for s in group for a in s.answers]
        truth = oracle.connected(pairs, faults).tolist()
        out.checked += len(answers)
        for (s, t), a, ok in zip(pairs, answers, truth):
            if a.connected != ok or (
                scheme is not None and ok and not _path_ok(oracle, scheme, s, t, a.path, faults)
            ):
                out.wrong += 1


def _delta(before, after, kind: str, name: str):
    a = after.metrics.get(kind, {}).get(name)
    b = before.metrics.get(kind, {}).get(name)
    if kind == "counters":
        return (a or 0) - (b or 0)
    if a is None:
        return 0, 0.0
    return a["count"] - (b["count"] if b else 0), a["sum"] - (b["sum"] if b else 0.0)


def _replay(stream: Stream, samples, want_path: bool) -> dict:
    """Client codec cost and wire size per request, replayed offline."""
    from repro.server.protocol import (
        FrameDecoder,
        FrameType,
        encode_frame,
        encode_pairs,
        sk_result_to_wire,
        wire_to_sk_result,
    )

    done = [s for s in samples if s.error is None][:REPLAY_SAMPLES]
    enc, dec, req_b, rep_b, pairs = [], [], 0, 0, 0
    for rid, s in enumerate(done, start=1):
        p = stream.pairs[s.i]
        faults = stream.pool[stream.fidx[s.i]]
        t0 = time.perf_counter()
        frame = encode_frame(
            FrameType.CONNECTIVITY,
            rid,
            [encode_pairs(p), list(faults), want_path],
            trace_id=s.tid,
        )
        enc.append(time.perf_counter() - t0)
        reply = encode_frame(
            FrameType.CONNECTIVITY_REPLY,
            rid,
            [sk_result_to_wire(a) for a in s.answers],
            trace_id=s.tid,
        )
        t0 = time.perf_counter()
        decoder = FrameDecoder()
        decoder.feed(reply)
        got = [wire_to_sk_result(v) for v in next(decoder.frames()).payload]
        dec.append(time.perf_counter() - t0)
        if got != s.answers:
            raise AssertionError("reply replay does not round-trip")
        req_b += len(frame)
        rep_b += len(reply)
        pairs += len(p)
    return {
        "encode_us": mean(enc) * 1e6,
        "decode_us": mean(dec) * 1e6,
        "request_bytes": req_b / max(1, pairs),
        "reply_bytes": rep_b / max(1, pairs),
    }


def _layers(out, stream, samples, pings, late, before, after, want_path, seconds):
    """The per-layer rows of a traced window."""
    spans, ping_server_s = {}, []
    for entry in after.slow_queries:
        spans[entry["trace_id"]] = entry
        if entry.get("frame") == "PING":
            ping_server_s.append(entry["total_s"])
    rows = {k: [] for k in ("decode", "coalesce", "shard", "send", "answer", "total")}
    client_ms = []
    for s in samples:
        entry = spans.get(f"{s.tid:016x}")
        if s.error is not None or entry is None:
            continue
        by = {}
        for span in entry["spans"]:
            by[span["name"]] = by.get(span["name"], 0.0) + span["dur_s"]
        total = entry["total_s"]
        for k in ("decode", "coalesce", "shard", "send"):
            rows[k].append(by.get(k, 0.0))
        rows["answer"].append(
            total - sum(by.get(k, 0.0) for k in ("decode", "coalesce", "shard", "send"))
        )
        rows["total"].append(total)
        client_ms.append((s.done - s.sent) * 1e3)
    if not client_ms:
        raise RuntimeError("no server spans joined to client requests")
    ms = {k: mean(v) * 1e3 for k, v in rows.items()}
    # Partition time from the STATS plane, not from a per-request span:
    # the server records a ``partition`` span only for requests that
    # bypass the coalescer, and coalesced singles share one chunk.
    chunks, worker_s = _delta(before, after, "histograms", "shard.worker_seconds")
    partition_ms = worker_s / max(1, chunks) * 1e3
    hits = _delta(before, after, "counters", "cache.hits")
    misses = _delta(before, after, "counters", "cache.misses")
    sizes, size_sum = _delta(before, after, "histograms", "server.coalesce_chunk_size")
    codec = _replay(stream, samples, want_path)
    # Wire transit: the PING round trip minus the server's own time on
    # the PING frame (its slow-log entry), so server-loop queueing is
    # not counted twice.
    transit_ms = (mean(pings) - mean(ping_server_s[-len(pings):])) * 1e3
    out.set("server.frame_decode_ms", ms["decode"])
    out.set("server.answer_ms", ms["answer"])
    out.set("server.send_ms", ms["send"])
    out.set("client.encode_us", codec["encode_us"])
    out.set("client.reply_decode_us", codec["decode_us"])
    out.set("wire.request_bytes", codec["request_bytes"])
    out.set("wire.reply_bytes", codec["reply_bytes"])
    out.set("wire.transit_ms", transit_ms)
    out.set("coalesce.wait_ms", ms["coalesce"])
    out.set("coalesce.chunk_size_mean", size_sum / sizes if sizes else 0.0)
    out.set("shard.handoff_ms", ms["shard"] - partition_ms)
    # Little's law: chunks in flight per shard = arrival rate x time in shard.
    out.set("shard.queue_depth_mean", chunks / seconds * ms["shard"] / 1e3 / SHARDS)
    out.set("cache.hit_rate", hits / max(1, hits + misses))
    out.set("cache.partition_ms", partition_ms)
    out.set("loadgen.late_ms_max", late * 1e3)
    row_sum = (
        codec["encode_us"] / 1e3
        + transit_ms
        + ms["total"]
        + codec["decode_us"] / 1e3
    )
    out.set("layers.sum_ms", row_sum)
    out.set("layers.client_mean_ms", mean(client_ms))
    out.set("layers.coverage", row_sum / mean(client_ms))


def _decode_counts(out: Outcome, stream, samples, tree_mask) -> None:
    answers = [a for s in samples if s.error is None for a in s.answers]
    phases = np.asarray([a.phases_used for a in answers])
    tree = [
        int(tree_mask[stream.pool[stream.fidx[s.i]]].sum()) * len(s.answers)
        for s in samples
        if s.error is None
    ]
    out.set("decode.phases_used_mean", phases.mean())
    out.set("decode.boruvka_share", np.count_nonzero(phases) / max(1, phases.size))
    out.set("decode.tree_faults_per_query", sum(tree) / max(1, phases.size))


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool, out: Outcome):
    from repro.core.sketch_scheme import SketchConnectivityScheme
    from repro.store import load_snapshot

    n, batch, pool, rate = SHAPES[name]
    if smoke:
        n = SMOKE_N
    want_path = batch > 1
    rng = np.random.default_rng(seed)
    WORK.mkdir(exist_ok=True)
    snap = str(WORK / f"{name}-{os.getpid()}.snap")
    phases = PhasePeaks()
    graph = phases.run("graph", lambda: make_graph(n))
    scheme, _ = build(
        out, phases, snap, lambda: SketchConnectivityScheme(graph, seed=SCHEME_SEED)
    )
    out.set("vertex_label_bits", scheme.max_vertex_label_bits())
    out.set("edge_label_bits", scheme.max_edge_label_bits())
    del scheme
    gc.collect()

    # The in-process reference the probe compares socket answers to.
    local = phases.run("load", lambda: load_snapshot(snap))
    out.set("store.load_s", phases.seconds["load"])
    out.set("store.load_peak_mb", phases.peak_mb["load"])
    oracle = ExactConnectivity(graph)
    count = int(rate * (seconds + WARMUP_S) * 2) + 16
    stream = Stream(rng, n, graph.m, batch, pool, count)
    probe = (pairs_of(rng, n, 64), stream.pool[0])
    t0 = time.perf_counter()
    expected = local.query_many(*probe, want_path=True)
    out.set("decode.first_query_s", time.perf_counter() - t0)
    for fi in range(min(4, pool)):
        oracle.cross_check(probe[0], stream.pool[fi])
    tree_mask = np.zeros(graph.m, dtype=bool)
    for tree in local.trees:
        arr = tree.arrays()
        tree_mask[np.asarray(arr.parent_edge)[np.asarray(arr.order)[1:]]] = True

    try:
        if not trace:
            starts = []
            server = None
            for _ in range(SERVER_STARTS):
                if server is not None:
                    server.close()
                elapsed, server = _cold_start(snap, False, probe, expected)
                starts.append(elapsed)
            out.set("setup_s", median(starts))
            try:
                _probe_all(server, stream, local, want_path)
                samples, _, late, _, cpu, _, _ = asyncio.run(
                    _load(server, stream, seconds, rate, False, want_path, out.yard)
                )
                out.set("serve_rss_mb", pss_mb(server.pids))
            finally:
                server.close()
            _check(out, oracle, stream, samples, local if want_path else None)
            _window_rows(out, samples, cpu)
            out.notes.append(f"loadgen late max {late * 1e3:.2f} ms")
        else:
            _, server = _cold_start(snap, False, probe, expected)
            try:
                plain = asyncio.run(
                    _load(server, stream, seconds, rate, False, want_path, out.yard)
                )[0]
            finally:
                server.close()
            _, server = _cold_start(snap, True, probe, expected)
            try:
                _probe_all(server, stream, local, want_path)
                samples, pings, late, busy, cpu, before, after = asyncio.run(
                    _load(server, stream, seconds, rate, True, want_path, out.yard)
                )
            finally:
                server.close()
            _check(out, oracle, stream, plain, local if want_path else None)
            _check(out, oracle, stream, samples, local if want_path else None)
            _layers(out, stream, samples, pings, late, before, after, want_path, busy)
            _decode_counts(out, stream, samples, tree_mask)
            lat = lambda ss: mean([x.done - x.sent for x in ss if x.error is None])
            out.set("obs.trace_overhead", lat(samples) / lat(plain) - 1.0)
            _window_rows(out, samples, cpu)
        out.fingerprint = {
            "vertex_label_bits": out.values["vertex_label_bits"],
            "edge_label_bits": out.values["edge_label_bits"],
            "snapshot_bytes": os.path.getsize(snap),
            "probe_phases_used": sum(a.phases_used for a in expected),
        }
    finally:
        del local
        gc.collect()
        os.unlink(snap)


#: per-layer metrics of layers these workloads do not exercise (read 0)
BYPASSED = (
    "route.build_s",
    "route.engine_s",
    "route.us_per_message",
    "route.hops_per_message",
    "route.reversal_share",
    "route.decode_calls_per_message",
    "route.retry_cache_hit_rate",
    "route.retry_cache_evictions",
    "route.stretch_mean",
)


def _probe_all(server, stream, local, want_path) -> None:
    """Socket answers equal in-process ``query_many`` before any timing."""
    from repro.server import QueryClient

    with QueryClient("127.0.0.1", server.port, timeout=60) as client:
        for fi in range(min(4, len(stream.pool))):
            pairs = stream.pairs[fi]
            faults = stream.pool[fi]
            got = client.connectivity(pairs, faults, want_path=want_path)
            if got != local.query_many(pairs, faults, want_path=want_path):
                raise AssertionError("socket answers differ from in-process query_many")


def _window_rows(out: Outcome, samples, cpu: float) -> None:
    ok = [s for s in samples if s.error is None]
    # From the due time, so a stall charges every request it delays.
    report_latency(out, [(s.done - s.due) * 1e3 for s in ok])
    # The open loop fixes the offered rate; what the program controls is
    # how much server CPU (front door plus shard workers) each pair costs.
    out.set("throughput_per_s", sum(len(s.answers) for s in ok) / cpu)
