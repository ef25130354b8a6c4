"""The in-process workload ``route-onpath``.

It builds a router, writes it with ``save_snapshot``, releases the
builder, and cold-starts from the file (``load_snapshot`` plus the
first route) several times.  The timed window then calls
``route_many`` on fresh messages whose faults lie on their own route.

Traced runs alternate traced and untraced batches in one window.  A
traced batch wraps the call in a :class:`repro.obs.PhaseTimer` and
reads the counts off the answers (route telemetry);
the difference between the two kinds is the tracing overhead.
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np

from common import (
    SCHEME_SEED,
    WORK,
    ExactConnectivity,
    Outcome,
    PhasePeaks,
    build,
    make_graph,
    mean,
    median,
    pairs_of,
    report_latency,
    anon_rss_mb,
)

WARMUP_S = 1.0
TICK_EVERY_S = 0.5
COLD_STARTS = 21  # per run; setup_s is their median

ROUTE_N, ROUTE_SMOKE_N, ROUTE_F, ROUTE_K, ROUTE_BATCH = 256, 96, 2, 2, 4
ROUTE_MESSAGES = 10_000
STRETCH_SAMPLES = 200

#: per-layer metrics of the layers this workload bypasses (read 0)
BYPASSED = (
    "server.frame_decode_ms",
    "server.answer_ms",
    "server.send_ms",
    "client.encode_us",
    "client.reply_decode_us",
    "wire.request_bytes",
    "wire.reply_bytes",
    "wire.transit_ms",
    "coalesce.wait_ms",
    "coalesce.chunk_size_mean",
    "shard.handoff_ms",
    "shard.queue_depth_mean",
    "cache.hit_rate",
    "cache.partition_ms",
    "loadgen.late_ms_max",
    "layers.sum_ms",
    "layers.client_mean_ms",
    "layers.coverage",
    "build.forest_s",
    "build.eids_s",
    "build.sketches_s",
    "decode.phases_used_mean",
    "decode.tree_faults_per_query",
    "decode.boruvka_share",
)


def _window(inputs, call, seconds: float, trace: bool, on_traced, check, yard):
    """Warm-up, then call batches for ``seconds``.

    Returns ``(records, plain_secs, traced_secs, calls)`` where a record
    is ``(input index, call seconds, answers in the batch)`` and
    ``calls`` counts the calls made, warm-up included.  Every answer is
    handed to ``check`` after its call is timed and then dropped, so
    the window keeps no answers alive.  In a traced run every other
    batch is traced: timed through a PhaseTimer and handed to
    ``on_traced``, whose counting is part of its ``traced_secs``.
    Every ``TICK_EVERY_S`` the yardstick kernel runs between calls.
    """
    from repro.obs import PhaseTimer

    k = 0
    t_end = time.perf_counter() + WARMUP_S
    while time.perf_counter() < t_end:
        call(*inputs[k % len(inputs)])
        k += 1
    records, plain, traced = [], [], []
    timer = PhaseTimer()
    gc.collect()
    gc.disable()
    try:
        t_end = time.perf_counter() + seconds
        t_tick = 0.0
        while time.perf_counter() < t_end:
            if time.perf_counter() >= t_tick:
                # the machine-speed kernel, outside every timed call
                t_end += yard.tick()
                t_tick = time.perf_counter() + TICK_EVERY_S
            i = k % len(inputs)
            if trace and len(records) % 2:
                t0 = time.perf_counter()
                with timer.phase("call"):
                    answers = call(*inputs[i])
                on_traced(i, answers)
                traced.append(time.perf_counter() - t0)
                dt = timer.seconds.pop("call")
            else:
                t0 = time.perf_counter()
                answers = call(*inputs[i])
                dt = time.perf_counter() - t0
                plain.append(dt)
            # checking is untimed; the deadline moves past it
            t0 = time.perf_counter()
            check(i, answers)
            t_end += time.perf_counter() - t0
            records.append((i, dt, len(answers)))
            k += 1
    finally:
        gc.enable()
    return records, plain, traced, k


def _cold_starts(out: Outcome, snap: str, first):
    """``COLD_STARTS`` cold starts: load_snapshot, then ``first(artifact)``.

    Returns the last artifact and its first answer.  Reports setup_s,
    store.load_s, store.load_peak_mb and the first call's time.
    """
    from repro.store import load_snapshot

    setup, load, first_s, peaks = [], [], [], []
    artifact = answer = None
    for _ in range(COLD_STARTS):
        artifact = answer = None
        gc.collect()
        phases = PhasePeaks()
        t0 = time.perf_counter()
        artifact = phases.run("load", lambda: load_snapshot(snap))
        t1 = time.perf_counter()
        answer = first(artifact)
        t2 = time.perf_counter()
        setup.append(t2 - t0)
        load.append(t1 - t0)
        first_s.append(t2 - t1)
        peaks.append(phases.peak_mb["load"])
    out.set("setup_s", median(setup))
    out.set("store.load_s", median(load))
    out.set("store.load_peak_mb", median(peaks))
    return artifact, answer, median(first_s)


# ----------------------------------------------------------------------
# route-onpath
# ----------------------------------------------------------------------
def _route_edges(oracle: ExactConnectivity, trace: list) -> list:
    """Distinct edge indices along a routed walk."""
    return list(dict.fromkeys(oracle.walk_edges(trace).tolist()))


def run_route(seed: int, seconds: float, trace: bool, smoke: bool, out: Outcome):
    from repro.oracles import DistanceOracle
    from repro.routing.fault_tolerant import FaultTolerantRouter

    n = ROUTE_SMOKE_N if smoke else ROUTE_N
    messages = 600 if smoke else ROUTE_MESSAGES
    rng = np.random.default_rng(seed)
    WORK.mkdir(exist_ok=True)
    snap = str(WORK / f"route-{os.getpid()}.snap")
    phases = PhasePeaks()
    graph = phases.run("graph", lambda: make_graph(n))
    try:
        router, construct_s = build(
            out,
            phases,
            snap,
            lambda: FaultTolerantRouter(graph, f=ROUTE_F, k=ROUTE_K, seed=SCHEME_SEED),
        )
        out.set("route.build_s", construct_s)
        out.set("vertex_label_bits", router.max_label_bits())
        out.set(
            "edge_label_bits",
            max(router.scheme.edge_label(e).bit_length() for e in range(graph.m)),
        )
        del router
        oracle = ExactConnectivity(graph)
        probe = pairs_of(rng, n, 32)
        engine_s = []

        def first(router):
            t0 = time.perf_counter()
            router.packed_engine()
            engine_s.append(time.perf_counter() - t0)
            return router.route_many(probe[:1], [])

        baseline = anon_rss_mb()
        router, _, first_s = _cold_starts(out, snap, first)
        out.set("route.engine_s", median(engine_s))
        out.set("decode.first_query_s", first_s)

        # Each message's two faults lie on its own fault-free route.
        reqs = pairs_of(rng, n, messages)
        per = []
        for res in router.route_many(reqs, []):
            edges = _route_edges(oracle, res.trace)
            if len(edges) >= ROUTE_F:
                per.append(rng.choice(edges, size=ROUTE_F, replace=False).tolist())
            else:
                extra = [e for e in rng.permutation(graph.m)[: ROUTE_F + 1].tolist()
                         if e not in edges]
                per.append((edges + extra)[:ROUTE_F])
        del res
        inputs = [
            (reqs[lo : lo + ROUTE_BATCH], per[lo : lo + ROUTE_BATCH])
            for lo in range(0, messages, ROUTE_BATCH)
        ]
        fixed = router.route_many(probe, [per[i] for i in range(len(probe))])
        out.fingerprint = {
            "vertex_label_bits": out.values["vertex_label_bits"],
            "edge_label_bits": out.values["edge_label_bits"],
            "snapshot_bytes": os.path.getsize(snap),
            "probe_hops": sum(r.telemetry.hops for r in fixed),
            "probe_reversal_hops": sum(r.telemetry.reversal_hops for r in fixed),
            "probe_decode_calls": sum(r.telemetry.decode_calls for r in fixed),
        }
        del fixed
        engine = router.packed_engine()
        before = engine.cache_stats()
        counts = {"hops": 0, "rev": 0, "calls": 0, "msgs": 0, "undelivered": 0}
        stretch = []  # (s, t, faults, length) of the first delivered messages

        def on_traced(i, results):
            for r in results:
                counts["hops"] += r.telemetry.hops
                counts["rev"] += r.telemetry.reversal_hops
                counts["calls"] += r.telemetry.decode_calls
                counts["msgs"] += 1

        def check(i, results):
            for (s, t), fs, r in zip(*inputs[i], results):
                out.attempted += 1
                out.checked += 1
                if r.delivered:
                    if r.trace[0] != s or r.trace[-1] != t or not oracle.walk_ok(r.trace, fs):
                        out.wrong += 1
                    elif trace and s != t and len(stretch) < STRETCH_SAMPLES:
                        stretch.append((s, t, fs, r.length))
                else:
                    counts["undelivered"] += 1
                    out.wrong += int(oracle.connected([(s, t)], fs)[0])

        records, plain, traced, calls = _window(
            inputs, lambda p, f: router.route_many(p, f), seconds, trace, on_traced, check,
            out.yard,
        )
        after = engine.cache_stats()
        out.notes.append(f"undelivered (disconnected) messages {counts['undelivered']}")
        if len(records) > len(inputs):
            out.notes.append("message stream wrapped around")
        secs = [dt for _, dt, _ in records]
        sent = sum(size for _, _, size in records)
        report_latency(out, [dt * 1e3 for dt in secs])
        out.set("throughput_per_s", sent / sum(secs))
        if trace:
            dist = DistanceOracle(graph)
            ratios = [length / dist.distance(s, t, fs) for s, t, fs, length in stretch]
            hits = after["hits"] - before["hits"]
            misses = after["misses"] - before["misses"]
            out.set("route.us_per_message", sum(secs) / sent * 1e6)
            out.set("route.hops_per_message", counts["hops"] / counts["msgs"])
            out.set("route.reversal_share", counts["rev"] / max(1, counts["hops"]))
            out.set("route.decode_calls_per_message", counts["calls"] / counts["msgs"])
            out.set("route.retry_cache_hit_rate", hits / max(1, hits + misses))
            out.set("route.retry_cache_evictions", after["evictions"] - before["evictions"])
            out.set("route.stretch_mean", mean(ratios))
            out.set("obs.trace_overhead", mean(traced) / mean(plain) - 1.0)
        # Route the rest of the stream, untimed: the retry caches grow
        # with each fresh fault set, so they are read after every
        # message has been routed, however many the window reached.
        for i in range(min(calls, len(inputs)), len(inputs)):
            router.route_many(*inputs[i])
        # The router, its packed engine and their caches are all that
        # stays live past the baseline.
        del records, inputs, reqs, per, secs
        out.set("serve_rss_mb", anon_rss_mb() - baseline)
        del router, engine
    finally:
        gc.collect()
        if os.path.exists(snap):
            os.unlink(snap)
