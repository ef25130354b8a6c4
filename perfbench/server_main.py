"""The label server as its own process, for the socket workloads.

Usage: ``python3 perfbench/server_main.py SNAPSHOT SHARDS TRACED``.
Starts a :class:`repro.server.LabelServer` on an ephemeral port,
prints one JSON line ``{"port", "pid", "workers"}`` once it is bound,
and serves until its standard input closes.  ``TRACED=1`` keeps every
request's span timeline in the slow-query log (threshold 0).
"""

from __future__ import annotations

import asyncio
import json
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

#: slow-log capacity of a traced server: more than any run sends.
TRACE_CAPACITY = 400_000


async def _serve(snapshot: str, shards: int, traced: bool) -> None:
    from repro.server import LabelServer

    kw = {"slow_threshold_s": 0.0, "slow_log_capacity": TRACE_CAPACITY} if traced else {}
    server = LabelServer(snapshot=snapshot, num_shards=shards, **kw)
    await server.start()
    try:
        print(
            json.dumps(
                {"port": server.port, "pid": os.getpid(), "workers": server.worker_pids()}
            ),
            flush=True,
        )
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, sys.stdin.read)
    finally:
        await server.aclose()


def main() -> int:
    snapshot, shards, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    asyncio.run(_serve(snapshot, shards, traced))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
