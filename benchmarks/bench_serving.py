"""Persistent serving-layer baseline: ``BENCH_serving.json``.

This runner pins the performance trajectory of the *serving* layer —
the counterpart of ``bench_query_throughput.py`` (decode engine) and
``baseline.py`` (construction).  The workload is the one the serving
layer exists for: a long (s, t, F) stream that keeps revisiting a small
pool of fault sets (live incidents are queried thousands of times while
they last).  For every workload it measures, verdict-checked:

* ``cold_qps`` — queries/second of plain ``query_many`` (the PR-2
  batched decoder runs one Boruvka simulation per hard query);
* ``first_pass_qps`` — an in-process ``ShardedQueryService``
  (``num_shards=0``) starting with an empty cache: its ``query_many``
  groups the stream by fault set and chunks it at :data:`CHUNK`, each
  distinct fault set is decoded once, everything else is a locate +
  union-find lookup;
* ``warm_qps`` — the same stream on a partition cache already filled
  by one untimed pass (pure hits: the steady state of a live serving
  process);
* ``speedup`` — ``warm_qps / cold_qps``, the headline (the acceptance
  bar for the serving layer is >= 3x on ``random-1024``);
* the service's cache hit rate and chunk shape for the first pass.

Usage::

    python -m benchmarks.bench_serving           # full set -> BENCH_serving.json
    python -m benchmarks.bench_serving --smoke   # tiny sizes, print only
    python -m benchmarks.bench_serving --check   # compare smoke speedups
                                                 # against the committed JSON;
                                                 # exit 1 on >2x regression

``--check`` is what ``benchmarks/run_baseline.sh`` and the
``bench_smoke`` pytest marker run in CI.
"""

from __future__ import annotations

import argparse
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
from repro.serving import PartitionCache, ShardedQueryService

#: repo-root location of the committed baseline.
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

#: (name, family, n, queries, fault_sets, fault_size, smoke).  The
#: headline workload — the acceptance target — runs first on a cold
#: process.
WORKLOADS = [
    ("random-1024", "random", 1024, 8000, 32, 4, False),
    ("random-256", "random", 256, 2000, 16, 4, True),
    ("grid-256", "grid", 256, 2000, 16, 4, True),
    ("weighted-512", "weighted", 512, 4000, 24, 4, False),
]

#: --check fails when a smoke workload's warm/cold speedup worsens by
#: more than this factor against the committed one (machine-speed
#: independent: both sides are measured in the same run).
REGRESSION_FACTOR = 2.0

#: the first pass's ``max_chunk`` (a few chunks per fault set, so the
#: first pass already shows cache reuse).
CHUNK = 64


def repeated_fault_stream(graph, queries: int, fault_sets: int, fault_size: int, seed: int):
    """Deterministic round-robin (s, t, F) stream over a fault-set pool.

    Fault lists are canonical (sorted, unique) so the cold decoder sees
    exactly the fault presentation the cached path uses.
    """
    rnd = random.Random(seed)
    size = min(fault_size, graph.m)
    pool = [
        sorted(set(rnd.sample(range(graph.m), size)))
        for _ in range(fault_sets)
    ]
    stream = []
    for i in range(queries):
        s, t = rnd.sample(range(graph.n), 2)
        stream.append((s, t, pool[i % fault_sets]))
    return stream


def measure_workload(
    name: str,
    family: str,
    n: int,
    queries: int,
    fault_sets: int,
    fault_size: int,
    repeats: int = 3,
) -> dict:
    """All measurements of one workload, as a JSON-ready dict."""
    graph = workload_graph(family, n, seed=1)
    scheme = SketchConnectivityScheme(graph, seed=2)
    stream = repeated_fault_stream(graph, queries, fault_sets, fault_size, seed=3)
    pairs = [(s, t) for s, t, _ in stream]
    per = [list(F) for _, _, F in stream]

    # Warm the packed store and check agreement before timing anything.
    warm_probe = scheme.query_many(pairs[:64], per[:64], want_path=False)
    probe_cache = PartitionCache(scheme, capacity=fault_sets + 1)
    if probe_cache.query_many(pairs[:64], per[:64], want_path=False) != warm_probe:
        raise AssertionError("cached/cold divergence")  # pragma: no cover

    best_cold = float("inf")
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        cold = scheme.query_many(pairs, per, want_path=False)
        best_cold = min(best_cold, time.perf_counter() - t0)

    # First pass: a fresh service, empty cache (misses included).
    with ShardedQueryService(
        scheme, num_shards=0, cache_capacity=fault_sets + 1, max_chunk=CHUNK
    ) as service:
        gc.collect()
        t0 = time.perf_counter()
        first = service.query_many(pairs, per, want_path=False)
        first_s = time.perf_counter() - t0
        first_stats = service.stats()
    if [r.connected for r in first] != [r.connected for r in cold]:
        raise AssertionError("coalesced verdicts diverge")  # pragma: no cover

    # Warm passes: the steady serving state, on a bare cache filled by
    # one untimed pass (every partition cached).
    cache = PartitionCache(scheme, capacity=fault_sets + 1)
    cache.query_many(pairs, per, want_path=False)
    best_warm = float("inf")
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        warm = cache.query_many(pairs, per, want_path=False)
        best_warm = min(best_warm, time.perf_counter() - t0)
    if [r.connected for r in warm] != [r.connected for r in cold]:
        raise AssertionError("warm verdicts diverge")  # pragma: no cover

    count = len(stream)
    return {
        "family": family,
        "n": n,
        "m": graph.m,
        "queries": count,
        "fault_sets": fault_sets,
        "fault_size": fault_size,
        "chunk": CHUNK,
        "cold_s": round(best_cold, 4),
        "first_pass_s": round(first_s, 4),
        "warm_s": round(best_warm, 4),
        "cold_qps": round(count / best_cold, 1),
        "first_pass_qps": round(count / first_s, 1),
        "warm_qps": round(count / best_warm, 1),
        "warm_us_per_query": round(best_warm / count * 1e6, 2),
        "first_pass_hit_rate": round(first_stats.cache_hit_rate, 4),
        "chunks": first_stats.chunks,
        "mean_chunk": round(first_stats.mean_chunk, 1),
        "speedup": round(best_cold / best_warm, 2) if best_warm > 0 else float("inf"),
        "first_pass_speedup": (
            round(best_cold / first_s, 2) if first_s > 0 else float("inf")
        ),
    }


def run(workloads, repeats: int = 3) -> dict:
    results = {}
    for name, family, n, queries, fault_sets, fault_size, _smoke in workloads:
        row = measure_workload(
            name, family, n, queries, fault_sets, fault_size, repeats
        )
        results[name] = row
        print(
            f"  {name}: cold {row['cold_qps']:.0f} q/s  "
            f"first-pass {row['first_pass_qps']:.0f} q/s  "
            f"warm {row['warm_qps']:.0f} q/s  "
            f"speedup {row['speedup']:.1f}x",
            flush=True,
        )
    return {
        "schema": 1,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "machine": platform.machine(),
        "smoke_workloads": [w[0] for w in workloads if w[6]],
        "workloads": results,
    }


def check_against(committed: dict, repeats: int = 3) -> list[str]:
    """Re-run the smoke workloads; return regression messages (empty = ok).

    Machine-normalized like the other gates: the cold decoder is
    measured in the same run, and a workload regresses when the
    warm/cold speedup worsens by more than :data:`REGRESSION_FACTOR`
    against the committed speedup.
    """
    problems = []
    by_name = {w[0]: w for w in WORKLOADS}
    for name in committed.get("smoke_workloads", []):
        recorded = committed["workloads"].get(name)
        if recorded is None or name not in by_name:
            continue
        _, family, n, queries, fault_sets, fault_size, _ = by_name[name]
        row = measure_workload(
            name, family, n, queries, fault_sets, fault_size, repeats
        )
        now_ratio = row["speedup"]
        committed_ratio = recorded["speedup"]
        regressed = now_ratio * REGRESSION_FACTOR < committed_ratio
        status = "REGRESSED" if regressed else "ok"
        print(
            f"  {name}: warm now {now_ratio:.2f}x of cold  "
            f"committed {committed_ratio:.2f}x  [{status}]"
        )
        if regressed:
            problems.append(
                f"{name}: warm serving now only {now_ratio:.2f}x the cold "
                f"decoder, > {REGRESSION_FACTOR}x below the committed "
                f"{committed_ratio:.2f}x"
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
                "`python -m benchmarks.bench_serving` to create it"
            )
            return 1
        committed = json.loads(path.read_text())
        problems = check_against(committed, repeats=args.repeats)
        if problems:
            print("serving-throughput regressions detected:")
            for p in problems:
                print("  " + p)
            return 1
        print("no serving-throughput regressions")
        return 0

    workloads = [w for w in WORKLOADS if w[6]] if args.smoke else WORKLOADS
    payload = run(workloads, repeats=args.repeats)
    rows = [
        (
            name,
            r["n"],
            r["queries"],
            f"{r['cold_qps']:.0f}",
            f"{r['warm_qps']:.0f}",
            f"{r['speedup']:.1f}x",
            f"{r['first_pass_hit_rate']:.0%}",
            f"{r['warm_us_per_query']:.1f}",
        )
        for name, r in payload["workloads"].items()
    ]
    print_table(
        "Serving throughput (partition cache vs cold query_many)",
        ["workload", "n", "queries", "cold q/s", "warm q/s", "speedup",
         "hit rate", "us/q"],
        rows,
    )
    if not args.smoke and not args.no_write:
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
