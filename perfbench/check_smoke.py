"""The benchmark's own test: every workload at smoke size, twice.

Usage: ``python3 perfbench/check_smoke.py`` (about two minutes).

For each workload it runs ``run.py --smoke`` once per ``--trace`` mode
and asserts that the run is correct, that the result line carries
exactly the metrics ``BENCHMARK.json`` declares for that mode (each
with its unit), and that the deterministic counts — label bits,
snapshot bytes, route hops and decode calls, ``phases_used`` — repeat
exactly for the fixed seed.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    fingerprint = json.loads(lines[-2].removeprefix("fingerprint "))
    return json.loads(lines[-1]), fingerprint


def _check(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"check failed: {what}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        prints = []
        for trace in (0, 1):
            result, fingerprint = _run(workload, trace)
            _check(set(result) == {"correct", "attempted", "failed", "metrics"}, result)
            _check(result["correct"] and result["failed"] == 0, result)
            _check(result["attempted"] >= 1, result)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            _check(units == declared[trace], (workload, trace, units))
            prints.append(fingerprint)
        _check(prints[0] == prints[1], (workload, prints))
        print(f"ok  {workload}  {json.dumps(prints[0], sort_keys=True)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
