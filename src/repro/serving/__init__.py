"""repro.serving — the fault-set-partition serving layer.

Production query serving on top of the immutable packed label stores
(see ``src/repro/serving/README.md`` and ``docs/ARCHITECTURE.md``):

* :mod:`repro.serving.partition_cache` — canonical fault-set keys and
  an LRU of memoized ``decode_partition`` results, so all same-fault
  queries in a stream cost one decode;
* :mod:`repro.serving.shards` — a process-pool service whose workers
  all fork from one preloaded forkserver and mmap one
  :mod:`repro.store` snapshot (the caller's file, or a private
  temporary snapshot of a live scheme), and that fans queries out by
  fault-set hash, with a :class:`ServiceStats` snapshot.
  Its ``query_many`` groups, chunks and answers a whole stream in
  request order (``num_shards=0`` runs it in process); its ``submit``
  takes one request at a time from the network server's event loop and
  group-commits them per home shard: a request goes at once to an idle
  shard, and requests that arrive while it works go as one batch;
* :mod:`repro.serving.views` — numpy-free partition views and the one
  writer of sketch reply items, so the network server answers a fault
  set it has seen on its event loop.
"""

from repro.serving.partition_cache import (
    CacheStats,
    PartitionCache,
    canonical_fault_key,
    presentation_fault_key,
)
from repro.serving.shards import ServiceStats, ShardedQueryService, shard_of

__all__ = [
    "CacheStats",
    "PartitionCache",
    "ServiceStats",
    "ShardedQueryService",
    "canonical_fault_key",
    "presentation_fault_key",
    "shard_of",
]
