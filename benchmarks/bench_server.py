"""Network serving-tier baseline: ``BENCH_server.json``.

The end of the pipeline: queries through a real TCP socket into a
:class:`~repro.server.server.LabelServer` whose shard workers, forked
from its preloaded worker factory, all mmap one snapshot file.  For
every workload it measures:

* ``inproc_qps`` — the in-process warm partition cache on the same
  stream (the machine-speed yardstick every ratio is normalized by);
* a closed-loop worker ladder through the socket
  (:func:`repro.traffic.run_load`), keeping the best run as
  ``qps_at_saturation`` with its ``p50_ms``/``p99_ms``;
* ``socket_ratio`` — ``qps_at_saturation / inproc_qps``, the protocol
  + fan-out overhead (the gated headline: machine-independent);
* the hot-reload blip: a sustained client stream while the server
  swaps generations to a second snapshot — ``reload_errors`` (must be
  0: zero-downtime is correctness, not perf), ``reload_max_ms`` (the
  worst request latency around the swap) and ``reload_wall_ms``.

Every workload first proves the socket answers bit-identical to
in-process ``query_many`` on a probe batch.

Usage::

    python -m benchmarks.bench_server           # full set -> BENCH_server.json
    python -m benchmarks.bench_server --smoke   # tiny sizes, print only
    python -m benchmarks.bench_server --check   # compare smoke ratios against
                                                # the committed JSON; exit 1 on
                                                # >2x regression or any reload
                                                # error

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
import tempfile
import time
from pathlib import Path

import numpy as np

from benchmarks.common import print_table, workload_graph
from repro.core.sketch_scheme import SketchConnectivityScheme
from repro.server import AsyncQueryClient, LabelServer
from repro.serving import PartitionCache
from repro.store import save_snapshot
from repro.traffic import fault_set_pool, run_load, uniform_pairs

#: repo-root location of the committed baseline.
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_server.json"

#: (name, family, n, shards, duration_s, smoke).  The headline workload
#: — >= 4 shard workers on one mmap'd snapshot — runs first.
WORKLOADS = [
    ("random-512-x4", "random", 512, 4, 3.0, False),
    ("random-128-x2", "random", 128, 2, 1.2, True),
]

#: --check fails when a smoke workload's socket/in-process qps ratio
#: worsens by more than this factor against the committed one (both
#: sides of the ratio are measured in the same run, so machine speed
#: cancels).
REGRESSION_FACTOR = 2.0

#: closed-loop connections tried per workload; the best run is the
#: saturation point.
WORKER_LADDER = (2, 8)

FAULT_SIZE = 2
FAULT_SETS = 8
BATCH = 8  # pairs per request


def _bench_stream(graph, queries: int, seed: int):
    rnd = random.Random(seed)
    pairs = uniform_pairs(graph.n, queries, rnd)
    pool = fault_set_pool(graph.m, FAULT_SETS, FAULT_SIZE, rnd)
    per = [pool[i % len(pool)] for i in range(queries)]
    return pairs, per, pool


def _inproc_qps(scheme, pairs, per, repeats: int) -> float:
    """Warm partition-cache qps on the same stream (the yardstick)."""
    cache = PartitionCache(scheme, capacity=FAULT_SETS + 1)
    cache.query_many(pairs, per)  # warm every partition
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        cache.query_many(pairs, per)
        best = min(best, time.perf_counter() - t0)
    return len(pairs) / best


async def _measure_async(
    name: str,
    scheme,
    snap_v1: str,
    snap_v2: str,
    graph,
    shards: int,
    duration_s: float,
    seed: int,
) -> dict:
    pairs, per, pool = _bench_stream(graph, 512, seed + 1)
    server = LabelServer(
        snapshot=snap_v1,
        num_shards=shards,
        chunk_timeout=120.0,
        deadline_s=120.0,
    )
    await server.start()
    try:
        # Correctness gate before any timing: socket == in-process.
        probe_pairs, probe_faults = pairs[:64], pool[0]
        client = await AsyncQueryClient.connect("127.0.0.1", server.port)
        try:
            got = await client.connectivity(probe_pairs, probe_faults)
        finally:
            await client.aclose()
        expected = scheme.query_many(probe_pairs, probe_faults)
        if got != expected:  # pragma: no cover - tripwire
            raise AssertionError(f"{name}: socket answers diverge")

        best = None
        for workers in WORKER_LADDER:
            report = await run_load(
                "127.0.0.1",
                server.port,
                n=graph.n,
                m=graph.m,
                query="connectivity",
                workers=workers,
                batch=BATCH,
                duration_s=duration_s,
                fault_size=FAULT_SIZE,
                fault_sets=FAULT_SETS,
                seed=seed + workers,
            )
            if report.errors:  # pragma: no cover - tripwire
                raise AssertionError(
                    f"{name}: load errors at {workers} workers: "
                    f"{report.error_codes}"
                )
            summary = report.summary()
            summary["queries_per_request"] = BATCH
            summary["qps"] = round(summary["qps"] * BATCH, 1)
            if best is None or summary["qps"] > best["qps"]:
                best = summary

        # Hot reload under sustained load: zero failed requests.
        load_task = asyncio.ensure_future(
            run_load(
                "127.0.0.1",
                server.port,
                n=graph.n,
                m=graph.m,
                query="connectivity",
                workers=4,
                batch=BATCH,
                duration_s=max(duration_s, 1.5),
                fault_size=FAULT_SIZE,
                fault_sets=FAULT_SETS,
                seed=seed + 99,
            )
        )
        await asyncio.sleep(0.3)  # let the stream establish
        admin = await AsyncQueryClient.connect("127.0.0.1", server.port)
        try:
            t0 = time.perf_counter()
            old_v, new_v, _kind = await admin.reload(snap_v2)
            reload_wall = time.perf_counter() - t0
        finally:
            await admin.aclose()
        reload_report = await load_task
        if new_v != old_v + 1:  # pragma: no cover - tripwire
            raise AssertionError(f"{name}: reload did not bump the version")
        reload_summary = reload_report.summary()
        return dict(best or {}), {
            "reload_errors": reload_report.errors,
            "reload_wall_ms": round(reload_wall * 1e3, 2),
            "reload_max_ms": reload_summary["max_ms"],
            "reload_p50_ms": reload_summary["p50_ms"],
        }
    finally:
        await server.aclose()


def measure_workload(
    name: str,
    family: str,
    n: int,
    shards: int,
    duration_s: float,
    repeats: int = 3,
    seed: int = 1,
) -> dict:
    """All measurements of one workload, as a JSON-ready dict."""
    graph = workload_graph(family, n, seed=seed)
    scheme = SketchConnectivityScheme(graph, seed=2)
    scheme_v2 = SketchConnectivityScheme(graph, seed=9)
    with tempfile.TemporaryDirectory(prefix="bench_server_") as tmp:
        snap_v1 = str(Path(tmp) / "v1.snap")
        snap_v2 = str(Path(tmp) / "v2.snap")
        save_snapshot(snap_v1, scheme)
        save_snapshot(snap_v2, scheme_v2)
        pairs, per, _pool = _bench_stream(graph, 512, seed + 1)
        inproc = _inproc_qps(scheme, pairs, per, repeats)
        best, reload_row = asyncio.run(
            _measure_async(
                name, scheme, snap_v1, snap_v2, graph, shards, duration_s,
                seed + 10,
            )
        )
    return {
        "family": family,
        "n": n,
        "m": graph.m,
        "shards": shards,
        "batch": BATCH,
        "inproc_qps": round(inproc, 1),
        "qps_at_saturation": best["qps"],
        "saturation_workers": best["workers"],
        "requests": best["requests"],
        "p50_ms": best["p50_ms"],
        "p90_ms": best["p90_ms"],
        "p99_ms": best["p99_ms"],
        "socket_ratio": round(best["qps"] / inproc, 4) if inproc else 0.0,
        **reload_row,
    }


def run(workloads, repeats: int = 3) -> dict:
    results = {}
    for name, family, n, shards, duration_s, _smoke in workloads:
        row = measure_workload(name, family, n, shards, duration_s, repeats)
        results[name] = row
        print(
            f"  {name}: socket {row['qps_at_saturation']:.0f} q/s "
            f"(x{row['shards']} shards, p50 {row['p50_ms']:.2f}ms, "
            f"p99 {row['p99_ms']:.2f}ms)  in-proc {row['inproc_qps']:.0f} q/s  "
            f"reload blip {row['reload_max_ms']:.1f}ms, "
            f"{row['reload_errors']} errors",
            flush=True,
        )
    return {
        "schema": 1,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "machine": platform.machine(),
        "smoke_workloads": [w[0] for w in workloads if w[5]],
        "workloads": results,
    }


def check_against(committed: dict, repeats: int = 3) -> list[str]:
    """Re-run the smoke workloads; return regression messages (empty = ok).

    Machine-normalized: the gate is the socket/in-process qps ratio
    (both measured in the same run), failed when it worsens by more
    than :data:`REGRESSION_FACTOR` against the committed ratio.  Any
    reload error fails outright — zero-downtime is a correctness bar.
    """
    problems = []
    by_name = {w[0]: w for w in WORKLOADS}
    for name in committed.get("smoke_workloads", []):
        recorded = committed["workloads"].get(name)
        if recorded is None or name not in by_name:
            continue
        _, family, n, shards, duration_s, _ = by_name[name]
        row = measure_workload(name, family, n, shards, duration_s, repeats)
        now_ratio = row["socket_ratio"]
        committed_ratio = recorded["socket_ratio"]
        regressed = now_ratio * REGRESSION_FACTOR < committed_ratio
        status = "REGRESSED" if regressed else "ok"
        print(
            f"  {name}: socket/in-proc now {now_ratio:.3f}  "
            f"committed {committed_ratio:.3f}  "
            f"reload errors {row['reload_errors']}  [{status}]"
        )
        if regressed:
            problems.append(
                f"{name}: socket throughput now only {now_ratio:.3f} of the "
                f"in-process cache, > {REGRESSION_FACTOR}x below the "
                f"committed {committed_ratio:.3f}"
            )
        if row["reload_errors"]:
            problems.append(
                f"{name}: {row['reload_errors']} requests failed during the "
                "hot reload (zero-downtime bar)"
            )
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument(
        "--smoke", action="store_true", help="run only the tiny smoke workloads"
    )
    ap.add_argument(
        "--check",
        nargs="?",
        const=str(DEFAULT_OUT),
        default=None,
        metavar="JSON",
        help="re-run smoke workloads and fail on >2x regression vs JSON",
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
                "`python -m benchmarks.bench_server` to create it"
            )
            return 1
        committed = json.loads(path.read_text())
        problems = check_against(committed, repeats=args.repeats)
        if problems:
            print("server regressions detected:")
            for p in problems:
                print("  " + p)
            return 1
        print("no server regressions")
        return 0

    workloads = [w for w in WORKLOADS if w[5]] if args.smoke else WORKLOADS
    payload = run(workloads, repeats=args.repeats)
    rows = [
        (
            name,
            r["n"],
            f"x{r['shards']}",
            f"{r['qps_at_saturation']:.0f}",
            f"{r['p50_ms']:.2f}",
            f"{r['p99_ms']:.2f}",
            f"{r['socket_ratio']:.3f}",
            f"{r['reload_max_ms']:.1f}",
            r["reload_errors"],
        )
        for name, r in payload["workloads"].items()
    ]
    print_table(
        "Server throughput (socket, forkserver shard workers on one snapshot)",
        ["workload", "n", "shards", "q/s", "p50 ms", "p99 ms",
         "vs in-proc", "reload ms", "reload err"],
        rows,
    )
    if not args.smoke and not args.no_write:
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
