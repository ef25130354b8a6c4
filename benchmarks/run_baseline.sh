#!/bin/sh
# Perf smoke checks: re-run the tiny baseline workloads and fail if
# label construction (vs BENCH_construction.json), batched decode
# throughput (vs BENCH_query.json), serving-layer throughput (vs
# BENCH_serving.json), routed-message throughput (vs
# BENCH_routing.json), snapshot-load speedup (vs BENCH_snapshot.json),
# the large-instance build fingerprints (vs BENCH_scale.json) or the
# socket server's throughput ratio / zero-downtime reload (vs
# BENCH_server.json) regressed more than 2x against the committed
# numbers, or the observability layer costs more than its 5% hard
# bar (vs BENCH_obs.json).  Last, it runs the repository benchmark's
# own test (perfbench/check_smoke.py, about a minute): every workload at
# smoke size, correct, with the declared metrics and repeatable
# fingerprints.  Intended for CI / pre-merge:
#
#   ./benchmarks/run_baseline.sh
#
# Regenerate the committed baselines (after a deliberate perf change):
#
#   PYTHONPATH=src python -m benchmarks.baseline
#   PYTHONPATH=src python -m benchmarks.bench_query_throughput
#   PYTHONPATH=src python -m benchmarks.bench_serving
#   PYTHONPATH=src python -m benchmarks.bench_routing
#   PYTHONPATH=src python -m benchmarks.bench_snapshot
#   PYTHONPATH=src python -m benchmarks.bench_server
#   PYTHONPATH=src python -m benchmarks.bench_obs
#   PYTHONPATH=src python -m benchmarks.bench_scale   # minutes + tens of GB RAM
set -e
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m benchmarks.baseline --check "$@"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m benchmarks.bench_query_throughput --check "$@"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m benchmarks.bench_serving --check "$@"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m benchmarks.bench_routing --check "$@"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m benchmarks.bench_snapshot --check "$@"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m benchmarks.bench_server --check "$@"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m benchmarks.bench_obs --check "$@"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m benchmarks.bench_scale --check "$@"
python3 perfbench/check_smoke.py
