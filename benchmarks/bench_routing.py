"""Persistent routing-plane baseline: ``BENCH_routing.json``.

This runner pins the performance trajectory of the *routing* layer —
the counterpart of ``bench_serving.py`` (serving),
``bench_query_throughput.py`` (decode engine) and ``baseline.py``
(construction).  The workload is a message batch under a pool of
hidden fault sets, routed twice through one router (both engines share
the identical labels, tables and sketch randomness):

* ``seed_mps`` — routed messages/second of the retained scalar seed
  engine (``engine="reference"``: per-vertex table dicts, per-hop
  tree-label decoding, one full retry decode per iteration);
* ``packed_mps`` — the packed ``route_many`` plane (array tables,
  whole tree segments per step, partition-cache retry decodes);
* ``speedup`` — ``packed_mps / seed_mps``, the headline (acceptance
  bar: >= 3x on ``random-1024``);
* trace equality is asserted before anything is timed or reported —
  the two engines must produce bit-identical route traces and
  telemetry.

Usage::

    python -m benchmarks.bench_routing           # full set -> BENCH_routing.json
    python -m benchmarks.bench_routing --smoke   # tiny sizes, print only
    python -m benchmarks.bench_routing --check   # compare smoke speedups
                                                 # against the committed JSON;
                                                 # exit 1 on >2x regression
                                                 # or packed slower than seed

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
from repro.routing.fault_tolerant import FaultTolerantRouter
from repro.traffic import fault_set_pool, uniform_pairs

#: repo-root location of the committed baseline.
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_routing.json"

#: (name, family, n, messages, fault_sets, f, smoke).  The headline
#: workload — the acceptance target — runs first on a cold process.
WORKLOADS = [
    ("random-1024", "random", 1024, 768, 12, 2, False),
    ("random-192", "random", 192, 256, 8, 2, True),
    ("grid-256", "grid", 256, 256, 8, 2, True),
    ("weighted-512", "weighted", 512, 384, 8, 2, False),
]

#: --check fails when a smoke workload's packed/seed speedup worsens by
#: more than this factor against the committed one (machine-speed
#: independent: both sides are measured in the same run).
REGRESSION_FACTOR = 2.0

#: --check also fails when a smoke workload's packed engine is slower
#: than the seed engine, whatever the committed speedup: a relative
#: bound alone let a committed 1.26x drift to 0.63x and still pass.
SPEEDUP_FLOOR = 1.0


def message_batch(graph, messages: int, fault_sets: int, f: int, seed: int):
    """Deterministic (pairs, per-message fault lists) batch."""
    rnd = random.Random(seed)
    pool = fault_set_pool(graph.m, fault_sets, f, rnd)
    pairs = uniform_pairs(graph.n, messages, rnd)
    per = [pool[i % len(pool)] for i in range(messages)]
    return pairs, per


def measure_workload(
    name: str,
    family: str,
    n: int,
    messages: int,
    fault_sets: int,
    f: int,
    repeats: int = 3,
) -> dict:
    """All measurements of one workload, as a JSON-ready dict."""
    graph = workload_graph(family, n, seed=1)
    router = FaultTolerantRouter(graph, f=f, k=2, seed=2)
    pairs, per = message_batch(graph, messages, fault_sets, f, seed=3)

    # Build both planes outside the timed region, then assert the
    # engines agree bit for bit before timing anything.
    router.tables
    router.packed_engine()
    probe_ref = router.route_many(pairs[:32], per[:32], engine="reference")
    probe_packed = router.route_many(pairs[:32], per[:32], engine="packed")
    for p, r in zip(probe_packed, probe_ref):
        if p.trace != r.trace or p.telemetry != r.telemetry:
            raise AssertionError("packed/seed route divergence")  # pragma: no cover

    best_seed = float("inf")
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        ref = router.route_many(pairs, per, engine="reference")
        best_seed = min(best_seed, time.perf_counter() - t0)

    best_packed = float("inf")
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        packed = router.route_many(pairs, per, engine="packed")
        best_packed = min(best_packed, time.perf_counter() - t0)

    for p, r in zip(packed, ref):
        if p.trace != r.trace or p.telemetry != r.telemetry:
            raise AssertionError("packed/seed route divergence")  # pragma: no cover

    delivered = sum(r.delivered for r in ref)
    total_hops = sum(r.telemetry.hops for r in ref)
    reversal_hops = sum(r.telemetry.reversal_hops for r in ref)
    return {
        "family": family,
        "n": n,
        "m": graph.m,
        "messages": messages,
        "fault_sets": fault_sets,
        "f": f,
        "delivered": delivered,
        "total_hops": total_hops,
        "reversal_hops": reversal_hops,
        "seed_s": round(best_seed, 4),
        "packed_s": round(best_packed, 4),
        "seed_mps": round(messages / best_seed, 1),
        "packed_mps": round(messages / best_packed, 1),
        "packed_us_per_message": round(best_packed / messages * 1e6, 1),
        "speedup": (
            round(best_seed / best_packed, 2)
            if best_packed > 0
            else float("inf")
        ),
    }


def run(workloads, repeats: int = 3) -> dict:
    results = {}
    for name, family, n, messages, fault_sets, f, _smoke in workloads:
        row = measure_workload(
            name, family, n, messages, fault_sets, f, repeats
        )
        results[name] = row
        print(
            f"  {name}: seed {row['seed_mps']:.0f} msg/s  "
            f"packed {row['packed_mps']:.0f} msg/s  "
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

    Machine-normalized like the other gates: the seed engine is
    measured in the same run, and a workload regresses when the
    packed/seed speedup worsens by more than :data:`REGRESSION_FACTOR`
    against the committed speedup, or falls below
    :data:`SPEEDUP_FLOOR`.
    """
    problems = []
    by_name = {w[0]: w for w in WORKLOADS}
    for name in committed.get("smoke_workloads", []):
        recorded = committed["workloads"].get(name)
        if recorded is None or name not in by_name:
            continue
        _, family, n, messages, fault_sets, f, _ = by_name[name]
        row = measure_workload(
            name, family, n, messages, fault_sets, f, repeats
        )
        now_ratio = row["speedup"]
        committed_ratio = recorded["speedup"]
        regressed = now_ratio * REGRESSION_FACTOR < committed_ratio
        too_slow = now_ratio < SPEEDUP_FLOOR
        status = "REGRESSED" if regressed or too_slow else "ok"
        print(
            f"  {name}: packed now {now_ratio:.2f}x of seed  "
            f"committed {committed_ratio:.2f}x  [{status}]"
        )
        if regressed:
            problems.append(
                f"{name}: packed routing now only {now_ratio:.2f}x the seed "
                f"engine, > {REGRESSION_FACTOR}x below the committed "
                f"{committed_ratio:.2f}x"
            )
        if too_slow:
            problems.append(
                f"{name}: packed routing now {now_ratio:.2f}x the seed "
                f"engine, below the {SPEEDUP_FLOOR}x floor"
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
        help="re-run smoke workloads and fail on >2x regression vs JSON "
        "or a packed engine slower than the seed engine",
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
                "`python -m benchmarks.bench_routing` to create it"
            )
            return 1
        committed = json.loads(path.read_text())
        problems = check_against(committed, repeats=args.repeats)
        if problems:
            print("routing-throughput regressions detected:")
            for p in problems:
                print("  " + p)
            return 1
        print("no routing-throughput regressions")
        return 0

    workloads = [w for w in WORKLOADS if w[6]] if args.smoke else WORKLOADS
    payload = run(workloads, repeats=args.repeats)
    rows = [
        (
            name,
            r["n"],
            r["messages"],
            f"{r['seed_mps']:.0f}",
            f"{r['packed_mps']:.0f}",
            f"{r['speedup']:.1f}x",
            f"{r['packed_us_per_message']:.0f}",
        )
        for name, r in payload["workloads"].items()
    ]
    print_table(
        "Routing throughput (packed route_many vs seed engine)",
        ["workload", "n", "messages", "seed msg/s", "packed msg/s",
         "speedup", "us/msg"],
        rows,
    )
    if not args.smoke and not args.no_write:
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
