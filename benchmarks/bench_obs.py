"""Observability overhead baseline: ``BENCH_obs.json``.

The cost of the :mod:`repro.obs` layer, measured where it actually
runs — the serving hot path — with a **hard bar**, not a 2x drift
gate: metrics-on throughput must stay within
:data:`MAX_OVERHEAD` (5 %) of metrics-off.  Per workload:

* ``qps_metrics_off`` / ``qps_metrics_on`` — warm repeated-fault-set
  ``query_many`` throughput through an in-process (local-mode)
  :class:`~repro.serving.shards.ShardedQueryService`, identical
  streams, instruments disabled vs enabled.  Local mode keeps process
  scheduling noise out of a 5 % comparison; the instrument points
  exercised (chunk histograms, cache hit/miss counters, tallies) are
  the same ones the socket server's worker shards hit.
* ``metrics_overhead`` — ``qps_off / qps_on - 1`` (the gated headline;
  both sides measured interleaved in the same run, so machine speed
  cancels).
* ``traced_overhead`` — mean per-request latency over a real TCP
  socket with every request carrying a trace id (8 extra header
  bytes + span capture) vs untraced, same stream.  Reported, and the
  traced answers are asserted bit-identical to the untraced ones —
  tracing must never change an answer.

Usage::

    python -m benchmarks.bench_obs           # full set -> BENCH_obs.json
    python -m benchmarks.bench_obs --smoke   # tiny sizes, print only
    python -m benchmarks.bench_obs --check   # re-run smoke workloads and
                                             # fail on >5% metrics overhead

``--check`` is what ``benchmarks/run_baseline.sh`` and the
``bench_smoke`` pytest marker run in CI.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import platform
import random
import sys
import time
from pathlib import Path

import numpy as np

from benchmarks.common import print_table, workload_graph
from repro.core.sketch_scheme import SketchConnectivityScheme
from repro.obs import mint_trace_id
from repro.server import AsyncQueryClient, LabelServer
from repro.serving import ShardedQueryService
from repro.traffic import fault_set_pool, uniform_pairs

#: repo-root location of the committed baseline.
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

#: (name, family, n, queries, smoke)
#: queries are sized so one timed pass is tens of milliseconds — a 5%
#: bar needs the timed region well clear of timer/scheduler jitter.
WORKLOADS = [
    ("random-512", "random", 512, 16384, False),
    ("random-128", "random", 128, 8192, True),
]

#: the hard bar: metrics-on serving throughput may cost at most this
#: fraction of metrics-off (``qps_off / qps_on - 1 <= MAX_OVERHEAD``).
MAX_OVERHEAD = 0.05

#: traced requests measured over the socket per arm.
TRACED_REQUESTS = 256

FAULT_SIZE = 2
FAULT_SETS = 8


def _bench_stream(graph, queries: int, seed: int):
    rnd = random.Random(seed)
    pairs = uniform_pairs(graph.n, queries, rnd)
    pool = fault_set_pool(graph.m, FAULT_SETS, FAULT_SIZE, rnd)
    per = [pool[i % len(pool)] for i in range(queries)]
    return pairs, per, pool


def _serving_qps(scheme, pairs, per, repeats: int) -> tuple[float, float]:
    """(qps_off, qps_on): warm local-mode service, instruments off/on.

    The two arms run interleaved best-of-``repeats`` so scheduler
    drift hits both equally — a 5 % bar needs paired measurement, not
    absolute wall clocks.
    """
    services = {}
    for enabled in (False, True):
        svc = ShardedQueryService(
            scheme,
            num_shards=0,  # in-process: no pool scheduling noise
            cache_capacity=FAULT_SETS + 1,
            metrics=enabled,
        )
        svc.query_many(pairs, per)  # warm every partition cache
        services[enabled] = svc
    best = {False: float("inf"), True: float("inf")}
    try:
        for _ in range(repeats):
            for enabled in (False, True):
                gc.collect()
                t0 = time.perf_counter()
                services[enabled].query_many(pairs, per)
                best[enabled] = min(best[enabled], time.perf_counter() - t0)
    finally:
        for svc in services.values():
            svc.close()
    return len(pairs) / best[False], len(pairs) / best[True]


async def _traced_overhead(scheme, graph, seed: int) -> dict:
    """Socket arm: per-request latency traced vs untraced, answers equal."""
    pairs, per, pool = _bench_stream(graph, TRACED_REQUESTS, seed)
    batches = [pairs[i : i + 8] for i in range(0, len(pairs), 8)]
    faults = [pool[i % len(pool)] for i in range(len(batches))]
    server = LabelServer(backend=scheme, num_shards=0, deadline_s=120.0)
    await server.start()
    try:
        client = await AsyncQueryClient.connect("127.0.0.1", server.port)
        try:
            # warm both code paths before timing (partition caches,
            # allocator pools)
            for batch, F in zip(batches[:16], faults[:16]):
                await client.connectivity(batch, F)
                await client.connectivity(batch, F, trace_id=mint_trace_id())
            plain = []
            t0 = time.perf_counter()
            for batch, F in zip(batches, faults):
                plain.append(await client.connectivity(batch, F))
            plain_s = time.perf_counter() - t0
            traced = []
            t0 = time.perf_counter()
            for batch, F in zip(batches, faults):
                traced.append(
                    await client.connectivity(
                        batch, F, trace_id=mint_trace_id()
                    )
                )
            traced_s = time.perf_counter() - t0
        finally:
            await client.aclose()
    finally:
        await server.aclose()
    if traced != plain:  # pragma: no cover - tripwire
        raise AssertionError("traced answers diverge from untraced answers")
    return {
        "traced_requests": len(batches),
        "plain_ms": round(plain_s / len(batches) * 1e3, 4),
        "traced_ms": round(traced_s / len(batches) * 1e3, 4),
        "traced_overhead": round(traced_s / plain_s - 1.0, 4),
        "answers_bit_identical": True,
    }


def measure_workload(
    name: str,
    family: str,
    n: int,
    queries: int,
    repeats: int = 5,
    seed: int = 1,
) -> dict:
    """All measurements of one workload, as a JSON-ready dict."""
    graph = workload_graph(family, n, seed=seed)
    scheme = SketchConnectivityScheme(graph, seed=2)
    pairs, per, _pool = _bench_stream(graph, queries, seed + 1)
    qps_off, qps_on = _serving_qps(scheme, pairs, per, repeats)
    traced = asyncio.run(_traced_overhead(scheme, graph, seed + 10))
    return {
        "family": family,
        "n": n,
        "m": graph.m,
        "queries": queries,
        "qps_metrics_off": round(qps_off, 1),
        "qps_metrics_on": round(qps_on, 1),
        "metrics_overhead": round(qps_off / qps_on - 1.0, 4),
        **traced,
    }


def run(workloads, repeats: int = 5) -> dict:
    results = {}
    for name, family, n, queries, _smoke in workloads:
        row = measure_workload(name, family, n, queries, repeats)
        results[name] = row
        print(
            f"  {name}: metrics off {row['qps_metrics_off']:.0f} q/s  "
            f"on {row['qps_metrics_on']:.0f} q/s  "
            f"(overhead {row['metrics_overhead']:+.1%})  "
            f"traced {row['traced_ms']:.2f}ms vs {row['plain_ms']:.2f}ms "
            f"({row['traced_overhead']:+.1%})",
            flush=True,
        )
    return {
        "schema": 1,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "machine": platform.machine(),
        "max_overhead": MAX_OVERHEAD,
        "smoke_workloads": [w[0] for w in workloads if w[4]],
        "workloads": results,
    }


def check_against(committed: dict, repeats: int = 5) -> list[str]:
    """Re-run the smoke workloads; return problem messages (empty = ok).

    Unlike the drift gates, this is an absolute bar re-measured on the
    current machine: metrics-on throughput within :data:`MAX_OVERHEAD`
    of metrics-off (both sides of the ratio come from one interleaved
    run, so the bar is machine-independent), and traced answers
    bit-identical to untraced.
    """
    problems = []
    by_name = {w[0]: w for w in WORKLOADS}
    for name in committed.get("smoke_workloads", []):
        if name not in by_name:
            continue
        _, family, n, queries, _ = by_name[name]
        row = measure_workload(name, family, n, queries, repeats)
        overhead = row["metrics_overhead"]
        over = overhead > MAX_OVERHEAD
        status = "OVER BUDGET" if over else "ok"
        print(
            f"  {name}: metrics overhead {overhead:+.1%} "
            f"(bar {MAX_OVERHEAD:.0%})  traced {row['traced_overhead']:+.1%}"
            f"  [{status}]"
        )
        if over:
            problems.append(
                f"{name}: metrics-on serving costs {overhead:.1%} vs "
                f"metrics-off, over the {MAX_OVERHEAD:.0%} hard bar"
            )
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument(
        "--smoke", action="store_true", help="run only the tiny smoke workloads"
    )
    ap.add_argument(
        "--check",
        nargs="?",
        const=str(DEFAULT_OUT),
        default=None,
        metavar="JSON",
        help="re-run smoke workloads and fail on >5%% metrics overhead",
    )
    ap.add_argument(
        "--no-write", action="store_true", help="print results without writing JSON"
    )
    args = ap.parse_args(argv)

    if args.check is not None:
        path = Path(args.check)
        if not path.exists():
            print(
                f"no committed baseline at {path} — run "
                "`python -m benchmarks.bench_obs` to create it"
            )
            return 1
        committed = json.loads(path.read_text())
        problems = check_against(committed, repeats=args.repeats)
        if problems:
            print("observability overhead over budget:")
            for p in problems:
                print("  " + p)
            return 1
        print("observability overhead within budget")
        return 0

    workloads = [w for w in WORKLOADS if w[4]] if args.smoke else WORKLOADS
    payload = run(workloads, repeats=args.repeats)
    rows = [
        (
            name,
            r["n"],
            f"{r['qps_metrics_off']:.0f}",
            f"{r['qps_metrics_on']:.0f}",
            f"{r['metrics_overhead']:+.1%}",
            f"{r['plain_ms']:.2f}",
            f"{r['traced_ms']:.2f}",
            f"{r['traced_overhead']:+.1%}",
        )
        for name, r in payload["workloads"].items()
    ]
    print_table(
        "Observability overhead (metrics hot path + request tracing)",
        ["workload", "n", "off q/s", "on q/s", "overhead",
         "plain ms", "traced ms", "traced ovh"],
        rows,
    )
    if not args.smoke and not args.no_write:
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
