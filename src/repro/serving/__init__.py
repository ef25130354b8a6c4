"""repro.serving — the fault-set-partition serving layer.

Production query serving on top of the immutable packed label stores
(see ``src/repro/serving/README.md`` and ``docs/ARCHITECTURE.md``):

* :mod:`repro.serving.partition_cache` — canonical fault-set keys and
  an LRU of memoized ``decode_partition`` results, so all same-fault
  queries in a stream cost one decode;
* :mod:`repro.serving.coalescer` — the asyncio request coalescer that
  groups single ``(s, t, F)`` queries into fault-set chunks for the
  network server;
* :mod:`repro.serving.shards` — a process-pool service that shares
  the packed stores with every worker (fork copy-on-write, or
  spawn-safe workers that mmap a :mod:`repro.store` snapshot) and fans
  chunks out by fault-set hash, with a :class:`ServiceStats` snapshot;
  its ``query_many`` groups, chunks and answers a whole stream in
  request order (``num_shards=0`` runs it in process).
"""

from repro.serving.coalescer import AsyncQueryCoalescer, ChunkStats
from repro.serving.partition_cache import (
    CacheStats,
    PartitionCache,
    canonical_fault_key,
    presentation_fault_key,
)
from repro.serving.shards import ServiceStats, ShardedQueryService, shard_of

__all__ = [
    "AsyncQueryCoalescer",
    "CacheStats",
    "ChunkStats",
    "PartitionCache",
    "ServiceStats",
    "ShardedQueryService",
    "canonical_fault_key",
    "presentation_fault_key",
    "shard_of",
]
