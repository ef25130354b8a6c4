"""Closed-loop load generator for the network serving tier.

Drives a :class:`~repro.server.server.LabelServer` through real
sockets: ``workers`` concurrent :class:`~repro.server.client.
AsyncQueryClient` connections each issue back-to-back requests (a
closed loop — a worker sends its next request the moment the previous
answer lands), for a fixed duration or request count.  Per-request
latencies land in a :mod:`repro.obs` log-bucketed histogram and are
summarized into a :class:`LoadReport` with p50/p90/p99/p99.9 and
achieved qps — the measurement half of ``benchmarks/bench_server.py``
and of the hot-reload blip test.  Because the buckets come from the
registry's fixed bucket family, per-worker reports merge exactly and
memory stays bounded no matter how long the run.

The pair/fault mix comes from :mod:`repro.traffic.workloads`
(:func:`~repro.traffic.workloads.uniform_pairs` by default), so the
load shape matches the rest of the traffic stack.  Requests cycle
through a small pool of fault sets: distinct enough to exercise the
shard fan-out, repetitive enough that the server's shard batches and
partition caches see realistic reuse.

Everything is stdlib + the repo's own client; the generator runs
in-process (``await run_load(...)``) or standalone via
``python -m repro.traffic.loadgen HOST PORT``.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.obs import Histogram
from repro.server.client import AsyncQueryClient, ServerError
from repro.traffic.workloads import fault_set_pool, uniform_pairs


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a sorted list."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    rank = (q / 100.0) * (len(sorted_values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = rank - lo
    return float(sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac)


@dataclass
class LoadReport:
    """What a load run measured: counts, errors, and the latency shape.

    Latencies live in a :class:`repro.obs.Histogram` (millisecond
    values) rather than a raw list, so memory is O(buckets) regardless
    of run length and :meth:`merge` is exact: two workers' reports
    merged give the same percentiles as one worker that saw all the
    samples, because every process buckets with the same fixed
    base-2^(1/4) edges.
    """

    requests: int = 0
    errors: int = 0
    error_codes: dict = field(default_factory=dict)
    duration_s: float = 0.0
    workers: int = 0
    latency: Histogram = field(
        default_factory=lambda: Histogram("loadgen.latency_ms")
    )

    @property
    def qps(self) -> float:
        return self.requests / self.duration_s if self.duration_s > 0 else 0.0

    def record(self, latency_ms: float) -> None:
        """Record one request's latency (milliseconds)."""
        self.latency.observe(latency_ms)

    def summary(self) -> dict:
        """JSON-ready percentile summary (latencies in milliseconds)."""
        lat = self.latency
        return {
            "requests": self.requests,
            "errors": self.errors,
            "error_codes": dict(self.error_codes),
            "duration_s": round(self.duration_s, 4),
            "workers": self.workers,
            "qps": round(self.qps, 2),
            "p50_ms": round(lat.percentile(50), 4),
            "p90_ms": round(lat.percentile(90), 4),
            "p99_ms": round(lat.percentile(99), 4),
            "p99_9_ms": round(lat.percentile(99.9), 4),
            "max_ms": round(lat.vmax, 4) if lat.count else 0.0,
            "latency_buckets": {
                str(k): v for k, v in sorted(lat.buckets.items())
            },
        }

    def merge(self, other: "LoadReport") -> None:
        self.requests += other.requests
        self.errors += other.errors
        for code, count in other.error_codes.items():
            self.error_codes[code] = self.error_codes.get(code, 0) + count
        self.latency.merge(other.latency)


async def _worker_loop(
    host: str,
    port: int,
    *,
    pairs_pool: Sequence[tuple[int, int]],
    faults_pool: Sequence[list],
    query: str,
    batch: int,
    duration_s: Optional[float],
    max_requests: Optional[int],
    deadline: Optional[float],
    rng: random.Random,
    report: LoadReport,
    stop: asyncio.Event,
) -> None:
    client = await AsyncQueryClient.connect(host, port)
    try:
        sent = 0
        while not stop.is_set():
            if max_requests is not None and sent >= max_requests:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            start = rng.randrange(len(pairs_pool))
            pairs = [
                pairs_pool[(start + i) % len(pairs_pool)] for i in range(batch)
            ]
            faults = faults_pool[rng.randrange(len(faults_pool))]
            t0 = time.perf_counter()
            try:
                if query == "connectivity":
                    await client.connectivity(pairs, faults, want_path=True)
                elif query == "distance":
                    await client.distance(pairs, faults)
                elif query == "route":
                    await client.route(pairs, faults)
                elif query == "ping":
                    await client.ping()
                else:  # pragma: no cover - caller bug
                    raise ValueError(f"unknown query kind {query!r}")
            except ServerError as exc:
                report.errors += 1
                code = exc.code.name if hasattr(exc.code, "name") else str(exc.code)
                report.error_codes[code] = report.error_codes.get(code, 0) + 1
            except ConnectionError:
                report.errors += 1
                report.error_codes["DISCONNECT"] = (
                    report.error_codes.get("DISCONNECT", 0) + 1
                )
                break
            report.record((time.perf_counter() - t0) * 1e3)
            report.requests += 1
            sent += 1
    finally:
        await client.aclose()


async def run_load(
    host: str,
    port: int,
    *,
    n: int,
    m: int,
    query: str = "connectivity",
    workers: int = 4,
    batch: int = 1,
    duration_s: Optional[float] = 2.0,
    max_requests: Optional[int] = None,
    fault_size: int = 2,
    fault_sets: int = 8,
    seed: int = 0,
) -> LoadReport:
    """Drive the server at ``host:port`` and return a :class:`LoadReport`.

    ``workers`` closed-loop connections issue ``query`` requests of
    ``batch`` pairs each, until ``duration_s`` elapses or each worker
    has sent ``max_requests`` (whichever is given; both means either).
    ``n``/``m`` size the pair and fault pools — ask the server's
    :meth:`~repro.server.client.AsyncQueryClient.stats` for them.
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    rng = random.Random(seed)
    pairs_pool = uniform_pairs(n, max(64, 4 * batch), rng)
    faults_pool = fault_set_pool(m, fault_sets, fault_size, rng) if m else [[]]
    report = LoadReport(workers=workers)
    stop = asyncio.Event()
    deadline = (
        time.monotonic() + duration_s if duration_s is not None else None
    )
    t0 = time.perf_counter()
    worker_reports = [LoadReport() for _ in range(workers)]
    tasks = [
        asyncio.ensure_future(
            _worker_loop(
                host,
                port,
                pairs_pool=pairs_pool,
                faults_pool=faults_pool,
                query=query,
                batch=batch,
                duration_s=duration_s,
                max_requests=max_requests,
                deadline=deadline,
                rng=random.Random(seed + 1 + i),
                report=worker_reports[i],
                stop=stop,
            )
        )
        for i in range(workers)
    ]
    try:
        await asyncio.gather(*tasks)
    finally:
        stop.set()
        for task in tasks:
            if not task.done():
                task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
    report.duration_s = time.perf_counter() - t0
    for wr in worker_reports:
        report.merge(wr)
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.traffic.loadgen HOST PORT`` — ad-hoc load."""
    import argparse
    import json

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("host")
    parser.add_argument("port", type=int)
    parser.add_argument("--query", default="connectivity",
                        choices=["connectivity", "distance", "route", "ping"])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--batch", type=int, default=1)
    parser.add_argument("--duration", type=float, default=2.0)
    parser.add_argument("--fault-size", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    async def go():
        client = await AsyncQueryClient.connect(args.host, args.port)
        try:
            stats = await client.stats()
        finally:
            await client.aclose()
        n = stats.get("n") or 0
        m = stats.get("m") or 0
        report = await run_load(
            args.host,
            args.port,
            n=n,
            m=m,
            query=args.query,
            workers=args.workers,
            batch=args.batch,
            duration_s=args.duration,
            fault_size=args.fault_size,
            seed=args.seed,
        )
        print(json.dumps(report.summary(), indent=2, sort_keys=True))

    asyncio.run(go())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
