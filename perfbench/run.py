"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --smoke ...   # tiny inputs

Workloads, metric names and units are declared in ``BENCHMARK.json``
at the repository root.  ``--trace 0`` reports every end-to-end metric,
``--trace 1`` every per-layer metric (a metric of a layer the workload
does not exercise reads 0).  A readable table goes to stderr; the last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 1 when any answer is wrong or any request failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(HERE, "..", "src"))

from common import ROOT, WORK, Outcome  # noqa: E402

#: the end-to-end time and rate scaled by the run's machine slowdown
#: (sampled between the segments of the measured window; host drift is
#: slow next to one run, see :class:`common.Yardstick`)
_SCALED = ("setup_s", "throughput_per_s")


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return [w["name"] for w in spec["workloads"]], e2e, layer


def main(argv=None) -> int:
    names, e2e, layer = _declared()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)

    # Fail fast (before any work) when the program is not importable.
    import repro  # noqa: F401

    import inproc
    import serving

    trace = bool(args.trace)
    out = Outcome({**e2e, **layer}, list(layer if trace else e2e))
    yard = out.yard
    try:
        if args.workload in serving.SHAPES:
            serving.run(args.workload, args.seed, args.seconds, trace, args.smoke, out)
            bypassed = serving.BYPASSED
        else:
            inproc.run_route(args.seed, args.seconds, trace, args.smoke, out)
            bypassed = inproc.BYPASSED
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if trace:
        for name in bypassed:
            out.set(name, 0.0)
        out.set("machine.yardstick_ms", yard.slowdown() * yard.REF_S * 1e3)

    raw = {}
    slowdown = yard.slowdown()
    for name in _SCALED:
        if name in out.values:
            raw[name] = out.values[name]
            out.values[name] *= slowdown if e2e[name] == "1/s" else 1.0 / slowdown
    metrics = out.metrics()
    wrong_share = out.wrong / max(1, out.checked)
    error_share = out.failed / max(1, out.attempted)
    correct = out.wrong == 0 and out.checked > 0
    err = sys.stderr
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"machine slowdown {slowdown:.3f} ({len(yard.samples)} yardstick samples)",
          file=err)
    for name, m in metrics.items():
        unscaled = f"  (as timed: {raw[name]:.4f})" if name in raw and not trace else ""
        print(f"  {name:34s} {m['value']:14.4f} {m['unit']}{unscaled}", file=err)
    print(f"  {'wrong_answer_share':34s} {wrong_share:14.6f} ratio "
          f"({out.wrong} of {out.checked} answers)", file=err)
    print(f"  {'error_share':34s} {error_share:14.6f} ratio "
          f"({out.failed} of {out.attempted} requests)", file=err)
    for note in out.notes:
        print(f"  note: {note}", file=err)
    print("fingerprint " + json.dumps(out.fingerprint, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct and out.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
