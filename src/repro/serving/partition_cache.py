"""Per-fault-set partition caching (the serving layer's hot core).

The paper frames decoding as *fault set -> connectivity partition*
reconstruction: everything the Section 3.2.2 Boruvka decoder (or the
forest interval decoder, or the Section 4 scale scan) computes that is
expensive depends only on the fault set, never on the queried pair.
Every scheme therefore exposes ``decode_partition(faults)`` (factored
out of its ``query_many``), and this module memoizes those partitions:

* fault sets are **canonicalized** — deduplicated, sorted edge-index
  tuples — so permutations and repeats of the same failure event share
  one cache entry;
* partitions are kept in an **LRU** of bounded capacity with hit /
  miss / eviction counters, because real fault workloads are bursty
  (the same few fault sets are queried thousands of times while they
  are live);
* misses are resolved in **one decode call** per lookup call:
  :meth:`PartitionCache.partitions` looks up a whole list of fault
  sets and hands every missed one to the scheme's
  ``decode_partitions(fault_lists)`` at once (the sketch scheme runs
  them through one batched Boruvka simulation; schemes with only
  ``decode_partition`` are looped), and ``cache.decode_seconds``
  records one sample per such call;
* :meth:`PartitionCache.query_many` keeps the scheme's batched API:
  queries are grouped by canonical fault set, all groups are resolved
  through one :meth:`~PartitionCache.partitions` call, each group is
  answered off its partition, and answers come back in request order
  with the scheme's native answer type (``SkDecodeResult`` for the
  sketch scheme, ``bool`` for forest/cycle-space, ``float`` for
  distance).

Answers are bit-identical to the underlying scheme's ``query_many``
with canonically ordered faults (asserted by ``tests/test_serving.py``
across the five generator families); verdicts agree for any fault
order.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

from repro.core._batch import normalize_faults
from repro.obs import MetricsRegistry

FaultKey = tuple[int, ...]


def canonical_fault_key(faults: Iterable[int]) -> FaultKey:
    """Canonical cache key of a fault set: sorted unique edge indices.

    Two fault iterables describe the same failure state iff their
    canonical keys are equal; partitions are pure functions of this key.
    """
    return tuple(sorted({int(ei) for ei in faults}))


def presentation_fault_key(faults: Iterable[int]) -> FaultKey:
    """Order-preserving cache key: unique edge indices, first-seen order.

    Connectivity *verdicts* are order-independent, but the succinct
    paths and merge records the sketch decoder emits depend on the
    order faults are presented in.  The packed routing engine therefore
    keys its retry-decode partitions by discovery order — exactly what
    the seed decoder was handed — so cached answers stay bit-identical
    to uncached ones (see ``PartitionCache(canonicalize=False)``).
    """
    return tuple(dict.fromkeys(int(ei) for ei in faults))


def group_by_canonical_key(
    per: Sequence[list[int]], key_of=None
) -> "OrderedDict[FaultKey, list[int]]":
    """Group query indices by the (canonical, by default) key of their
    fault list.

    ``per`` is the output of :func:`repro.core._batch.normalize_faults`;
    the shared-fault case aliases one list object across all queries,
    which this exploits to key it once.  ``key_of`` swaps the key
    function (:func:`presentation_fault_key` for the order-preserving
    cache mode).  The cache and the sharded service both group through
    here so the paths cannot drift.
    """
    if key_of is None:
        key_of = canonical_fault_key
    groups: "OrderedDict[FaultKey, list[int]]" = OrderedDict()
    prev = None
    prev_key: FaultKey = ()
    for qi, F in enumerate(per):
        if F is not prev:
            prev, prev_key = F, key_of(F)
        groups.setdefault(prev_key, []).append(qi)
    return groups


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/eviction counts of one :class:`PartitionCache`: a
    read-only view of its registry dump."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @classmethod
    def from_dump(cls, dump: dict) -> "CacheStats":
        """The ``cache.*`` counters of a registry wire dump."""
        counters = dump["counters"]
        return cls(
            *(counters.get(f"cache.{n}", 0) for n in ("hits", "misses", "evictions"))
        )

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 when nothing was looked up yet)."""
        n = self.lookups
        return self.hits / n if n else 0.0

    def snapshot(self) -> dict:
        """A JSON-ready copy."""
        return {**asdict(self), "hit_rate": round(self.hit_rate, 4)}


class _Pending:
    """LRU placeholder of a key whose decode is still due in the
    current :meth:`PartitionCache.partitions` call."""

    __slots__ = ("slot",)

    def __init__(self, slot: int):
        self.slot = slot


class PartitionCache:
    """LRU-memoized fault-set partitions under any labeling scheme.

    ``scheme`` exposes ``decode_partitions(fault_lists)`` — one
    partition per fault list, from one decode call (the sketch scheme's
    batched Boruvka engine) — or only ``decode_partition(faults)``,
    which the cache loops; each partition answers queries via
    ``answer_many(pairs, **kw)``.  All four scheme classes and both
    ``core.api`` facades qualify.  The cache makes a stream of
    same-fault queries cost one decode total instead of one decode per
    query; capacity bounds the number of live fault sets kept (each
    partition is small: a component forest, a union-find and the
    recorded merges — not a sketch tensor).
    """

    def __init__(
        self,
        scheme,
        capacity: int = 128,
        canonicalize: bool = True,
        obs=None,
    ):
        """``canonicalize=False`` keys entries by *presentation order*
        (:func:`presentation_fault_key`) instead of sorted order: needed
        when the cached partition's answers must be bit-identical to
        decoding the faults exactly as presented (the routing engine's
        retry decodes); sorted-order canonicalization shares entries
        across permutations and is right for everything else.

        ``obs`` is the :class:`~repro.obs.MetricsRegistry` the cache
        counts into, per *fault-set lookup* (never per query):
        ``cache.hits``, ``cache.misses`` (at lookup, before the decode),
        ``cache.evictions``, and a ``cache.decode_seconds`` histogram
        with one sample per resolving call — the wall time of the one
        decode call that resolves all of a :meth:`partitions` call's
        misses, however many there are.  The shard workers ship it to
        the serving parent.  ``None`` gives the cache a private
        registry; :attr:`stats` reads either."""
        decode = getattr(scheme, "decode_partitions", None)
        if decode is None:
            one = getattr(scheme, "decode_partition", None)
            if one is None:
                raise TypeError(
                    f"{type(scheme).__name__} does not expose decode_partition"
                )

            def decode(fault_lists):
                return [one(faults) for faults in fault_lists]

        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.scheme = scheme
        self.capacity = capacity
        self.canonicalize = canonicalize
        self.obs = MetricsRegistry() if obs is None else obs
        self._decode = decode
        self._key = canonical_fault_key if canonicalize else presentation_fault_key
        self._lru: "OrderedDict[FaultKey, object]" = OrderedDict()
        self._hits = self.obs.counter("cache.hits")
        self._misses = self.obs.counter("cache.misses")
        self._evictions = self.obs.counter("cache.evictions")

    @property
    def stats(self) -> CacheStats:
        """Hit/miss/eviction counts so far (a view of :attr:`obs`)."""
        return CacheStats.from_dump(self.obs.to_wire())

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, faults) -> bool:
        return self._key(faults) in self._lru

    def partition(self, faults: Iterable[int]):
        """The (memoized) partition for ``faults``: the batch of one of
        :meth:`partitions`."""
        return self.partitions([faults])[0]

    def partitions(self, fault_lists: Iterable[Iterable[int]]) -> list:
        """The (memoized) partition of every fault list, in order.

        Keys are looked up in order, and hits, misses, evictions and
        the LRU order come out exactly as the same sequence of
        :meth:`partition` calls would leave them: a key repeated within
        the call is a hit, unless the call's own misses evicted it
        first.  Every distinct missed key is then decoded in one
        ``decode_partitions`` call.  If that call raises, no missed key
        of this call stays cached.
        """
        lru = self._lru
        capacity = self.capacity
        out: list = []
        todo: dict[FaultKey, int] = {}  # missed key -> slot in the decode
        hits = misses = evictions = 0
        for faults in fault_lists:
            key = self._key(faults)
            part = lru.get(key)
            if part is not None:
                lru.move_to_end(key)
                hits += 1
                out.append(part)
                continue
            misses += 1
            lru[key] = pending = _Pending(todo.setdefault(key, len(todo)))
            out.append(pending)
            if len(lru) > capacity:
                lru.popitem(last=False)
                evictions += 1
        self._hits.inc(hits)
        if not todo:
            return out
        self._misses.inc(misses)
        self._evictions.inc(evictions)
        t0 = time.perf_counter()
        try:
            parts = self._decode([list(key) for key in todo])
        except BaseException:
            for key in todo:
                if type(lru.get(key)) is _Pending:
                    del lru[key]
            raise
        self.obs.histogram("cache.decode_seconds").observe(time.perf_counter() - t0)
        for key, slot in todo.items():
            if type(lru.get(key)) is _Pending:
                lru[key] = parts[slot]
        return [parts[p.slot] if type(p) is _Pending else p for p in out]

    def query(self, s: int, t: int, faults: Iterable[int] = (), **kw):
        """One query through the cache (native answer type)."""
        return self.partition(faults).answer_many([(s, t)], **kw)[0]

    def query_many(
        self, pairs: Sequence[tuple[int, int]], faults=(), **kw
    ) -> list:
        """Batched queries, answered off cached partitions.

        Same signature and answer list as the scheme's ``query_many``
        (``faults`` is one shared iterable or a per-pair sequence;
        ``**kw`` is forwarded to the partition — e.g. ``want_path`` for
        the sketch scheme).  Queries are grouped by canonical fault set
        so each distinct set is decoded at most once per call, then
        served from the LRU on every later call.
        """
        pairs = list(pairs)
        per = normalize_faults(pairs, faults)
        groups = group_by_canonical_key(per, key_of=self._key)
        results: list = [None] * len(pairs)
        for (key, qis), part in zip(groups.items(), self.partitions(groups)):
            answers = part.answer_many([pairs[qi] for qi in qis], **kw)
            for qi, ans in zip(qis, answers):
                results[qi] = ans
        return results

    def clear(self) -> None:
        """Drop every cached partition (stats are kept)."""
        self._lru.clear()
