"""Batched multi-message routing: ``route_many``.

The seed :class:`~repro.routing.engine.SegmentRouter` walks one
message at a time, re-reading per-vertex table dicts and bit-unpacking
tree labels on every hop.  This engine routes a batch in **rounds**
over the packed stores of :mod:`repro.routing.packed_tables`.  A round
first settles the decodes of every pending message in batches: the
messages are grouped by (instance, sketch copy) and each group's
partitions come from one cache lookup whose misses are decoded in one
batched Boruvka call; a message told "not connected here" moves to its
next scale and goes round again.  The round then follows every message
that got a path along it to its next event — delivery, or the first
faulty edge — and the messages that bounced are the next round's
pending set.

* **0-segments** (recovery edges) are one read of the global CSR port
  arrays (slot ``indptr[cur] + port_x``) and a fault-set check;
* **1-segments** (tree paths) are walked whole: the hop sequence of a
  1-segment is the unique tree path to the segment target (Fact 5.1),
  so :meth:`PackedTreeRouting.path` lists it at once — climb parent
  pointers to the LCA, descend the target's ancestor chain — and the
  instance's hop tables give each hop's global edge, neighbour and
  weight.  Hops are checked against the fault set and taken in order,
  so weighted lengths accumulate exactly as in the seed engine;
* **fault bounce-back** reproduces the Claim 5.6 protocol exactly —
  local label hit or Γ round trips in block order, the reversal charge
  of the forward prefix — and **retry decodes** are resolved through a
  shared :class:`~repro.serving.partition_cache.PartitionCache` per
  (instance, sketch copy): the partition for a discovered fault prefix
  is decoded once and reused by every message (and every batch) that
  reaches the same state, instead of one full Boruvka decode per
  retry, and the misses of one round's group share one decode call.
  Caches are keyed by *presentation order*
  (``canonicalize=False``) because succinct-path output depends on
  fault order: the cached answer is bit-identical to handing the seed
  decoder the labels in discovery order, which is what the reference
  engine does.

Route results — delivery status, hop sequences (traces), weighted
lengths, reversal charges, every telemetry counter — are bit-identical
to the retained seed engine (``FaultTolerantRouter(engine="reference")``),
asserted by ``tests/test_route_many.py`` across the generator families
including the high-diameter path and ring adversaries.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core._batch import normalize_faults
from repro.core.path_description import SuccinctPath
from repro.routing.network import RouteResult, Telemetry
from repro.routing.packed_tables import PackedInstanceTables, PackedRoutingPlane
from repro.serving.partition_cache import PartitionCache

_DECODE, _FOLLOW, _DONE = 0, 1, 2


class _CopyPartitions:
    """``decode_partitions`` facade pinning one sketch copy of one
    instance scheme (the serving cache protocol has no copy slot)."""

    __slots__ = ("scheme", "copy")

    def __init__(self, scheme, copy: int):
        self.scheme = scheme
        self.copy = copy

    def decode_partitions(self, fault_lists):
        return self.scheme.decode_partitions(fault_lists, copy=self.copy)


class _Message:
    """Mutable per-message routing state (one slot of the batch)."""

    __slots__ = (
        "s", "t", "faults", "status", "telemetry", "trace", "result",
        # phase machinery (Section 5.2 trial-and-error)
        "scale", "iteration", "known", "known_eids", "known_local",
        "known_ok", "known_bits", "key", "pack", "ls", "lt",
        # the in-flight path attempt
        "path", "seg_idx", "cur", "cur_local",
        "fwd_hops", "fwd_weight", "fwd_trace",
    )

    def __init__(self, s: int, t: int, faults: frozenset):
        self.s = s
        self.t = t
        #: the hidden fault set: edge ids, checked like the reference
        #: network's set (ids outside 0..m-1 never match an edge)
        self.faults = faults
        self.status = _DECODE
        self.telemetry = Telemetry()
        self.trace: list[int] = [s]
        self.result: Optional[RouteResult] = None
        self.scale = -1
        self.iteration = 0
        self.known: list = []
        self.known_eids: set[int] = set()
        self.known_local: list[int] = []
        self.known_ok = True
        #: sum of the known labels' bit lengths (header telemetry)
        self.known_bits = 0
        self.key = None
        self.pack: Optional[PackedInstanceTables] = None
        self.ls = -1
        self.lt = -1
        self.path: Optional[SuccinctPath] = None
        self.seg_idx = 0
        self.cur = s
        self.cur_local = -1
        self.fwd_hops = 0
        self.fwd_weight = 0.0
        self.fwd_trace: list[int] = []


class PackedRouteEngine:
    """Batched fault-tolerant routing over a :class:`PackedRoutingPlane`.

    Holds the global CSR port arrays, the plane, and the shared
    per-(instance, copy) partition caches; one engine serves any number
    of ``route_many`` batches (caches stay warm across calls).
    """

    def __init__(
        self,
        plane: PackedRoutingPlane,
        f: int,
        reuse_copy: bool = False,
        cache_capacity: int = 256,
    ):
        self.plane = plane
        self.scheme = plane.scheme
        self.graph = plane.scheme.graph
        self.f = f
        self.reuse_copy = reuse_copy
        self.cache_capacity = cache_capacity
        csr = self.graph.as_csr()
        self._indptr = csr.indptr
        self._nbr = csr.neighbors
        self._eids = csr.edge_ids
        self._w = csr.edge_weight
        #: (instance key, copy) -> presentation-order PartitionCache
        self._caches: dict[tuple, PartitionCache] = {}

    # ------------------------------------------------------------------
    # Shared partition caches (the retry-decode path)
    # ------------------------------------------------------------------
    def _cache(self, ck: tuple) -> PartitionCache:
        """The retry cache of ``ck = (instance key, copy)``."""
        cache = self._caches.get(ck)
        if cache is None:
            key, copy = ck
            cache = PartitionCache(
                _CopyPartitions(self.plane.instances[key].scheme, copy),
                capacity=self.cache_capacity,
                canonicalize=False,
            )
            self._caches[ck] = cache
        return cache

    def cache_stats(self) -> dict:
        """Aggregate hit/miss/size counters over every instance cache."""
        hits = misses = evictions = entries = 0
        for cache in self._caches.values():
            st = cache.stats  # one registry dump per cache
            hits += st.hits
            misses += st.misses
            evictions += st.evictions
            entries += len(cache)
        return {
            "caches": len(self._caches),
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "entries": entries,
        }

    # ------------------------------------------------------------------
    # Batch entry point
    # ------------------------------------------------------------------
    def route_many(
        self, requests: Sequence[tuple[int, int]], faults=()
    ) -> list[RouteResult]:
        """Route every (s, t) message under its (hidden) fault set.

        ``faults`` follows the batched-API convention: one shared
        iterable of edge indices, or a per-message sequence.  Results
        (status, traces, telemetry, lengths, scales) are bit-identical
        to looping the reference engine's ``route``.
        """
        pairs = [(int(s), int(t)) for s, t in requests]
        per = normalize_faults(pairs, faults)
        msgs = []
        prev: Optional[list[int]] = None
        for (s, t), F in zip(pairs, per):
            # A shared fault iterable is aliased across all messages by
            # normalize_faults; set it once.
            if F is not prev:
                prev, fs = F, frozenset(F)
            m = _Message(s, t, fs)
            if s == t:
                m.status = _DONE
                m.result = RouteResult(
                    delivered=True, s=s, t=t, telemetry=m.telemetry,
                    trace=m.trace,
                )
            msgs.append(m)
        # Rounds: settle the decodes of every pending message, follow
        # every message that got a path to its next event, and take the
        # ones that bounced as the next round's pending set.
        pending = [m for m in msgs if m.status == _DECODE]
        while pending:
            self._settle(pending)
            pending = [
                m for m in pending if m.status == _FOLLOW and self._follow(m)
            ]
        return [m.result for m in msgs]

    # ------------------------------------------------------------------
    # Phase machinery: scales, iterations, decodes
    # ------------------------------------------------------------------
    def _settle(self, pending: list[_Message]) -> None:
        """Run the Section 5.2 decode state machine of every pending
        message until each has a path to follow (→ FOLLOW) or is
        undeliverable (→ DONE).

        Each pass picks every message's next decode, groups the
        messages by (instance, sketch copy) and resolves each group
        through one :meth:`PartitionCache.partitions` call — one
        batched decode of the group's missed fault lists.  Messages
        told "not connected here" move to their next scale and go round
        again.  A partition is a pure function of its instance, copy
        and discovery-order fault list, so batching changes no answer.
        """
        while pending:
            groups: dict[tuple, list[_Message]] = {}
            answered: list[tuple[_Message, object]] = []
            for m in pending:
                copy = self._next_decode(m)
                if copy is None:
                    continue
                if m.known_ok:
                    groups.setdefault((m.key, copy), []).append(m)
                    continue
                # Labels that do not resolve against the store (the
                # defensive bare-EID fallback) take the label-level
                # decoder, like the reference engine.
                inst = m.pack.scheme
                answered.append((m, inst.decode(
                    inst.vertex_label(m.ls),
                    inst.vertex_label(m.lt),
                    m.known,
                    copy=copy,
                    want_path=True,
                )))
            for ck, group in groups.items():
                parts = self._cache(ck).partitions([m.known_local for m in group])
                answered += [
                    (m, part.answer(m.ls, m.lt, want_path=True))
                    for m, part in zip(group, parts)
                ]
            for m, result in answered:
                self._take(m, result)
            pending = [m for m, _ in answered if m.status == _DECODE]

    def _next_decode(self, m: _Message) -> Optional[int]:
        """Pick ``m``'s next retry decode: the scale search, the
        iteration budget, the sketch copy and the telemetry counts.

        Returns the copy to decode with, or None when no scale is left
        (the message is then DONE, undelivered).  The decode itself is
        keyed by the instance, the copy and the *discovery order* of
        the learned faults — exactly the label list the reference hands
        ``scheme.decode`` — so the cached answer (path included) is
        bit-identical.
        """
        if m.key is not None and m.iteration > self.f:
            m.key = None  # phase budget exhausted; next scale
        if m.key is None and not self._next_scale(m):
            return None
        tel = m.telemetry
        tel.iterations += 1
        tel.decode_calls += 1
        return 0 if self.reuse_copy else min(m.iteration, self.scheme.copies - 1)

    def _next_scale(self, m: _Message) -> bool:
        """Start the phase of the next scale whose home cluster holds
        both endpoints (the reference scans ``label_t.per_scale`` and the
        source's table entries the same way); False, with the message
        DONE, when no scale is left."""
        scheme = self.scheme
        vmem = scheme._vertex_membership
        i_star_t = scheme._i_star[m.t]
        vt, vs = vmem[m.t], vmem[m.s]
        for i in range(m.scale + 1, scheme.K + 1):
            j = i_star_t.get(i)
            if j is None:
                continue
            key = (i, j)
            lt = vt.get(key)
            if lt is None:
                continue
            ls = vs.get(key)
            if ls is None:
                continue
            m.scale = i
            m.key = key
            m.pack = self.plane.instances[key]
            m.ls = ls
            m.lt = lt
            m.iteration = 0
            m.known = []
            m.known_eids = set()
            m.known_local = []
            m.known_ok = True
            m.known_bits = 0
            m.telemetry.phases += 1
            return True
        tel = m.telemetry
        m.status = _DONE
        m.result = RouteResult(
            delivered=False, s=m.s, t=m.t, telemetry=tel,
            length=tel.weighted, trace=m.trace,
        )
        return False

    def _take(self, m: _Message, result) -> None:
        """Take a decode's answer: a path to follow (→ FOLLOW), or s, t
        disconnected here (w.h.p.), which moves the message on to its
        next scale (it stays pending)."""
        if not result.connected:
            m.key = None
            return
        path = result.path
        m.telemetry.note_header(path.bit_length(self.graph.n) + m.known_bits)
        m.path = path
        m.seg_idx = 0
        m.cur = path.s
        m.fwd_hops = 0
        m.fwd_weight = 0.0
        m.fwd_trace = []
        m.status = _FOLLOW

    # ------------------------------------------------------------------
    # Following a path
    # ------------------------------------------------------------------
    def _follow(self, m: _Message) -> bool:
        """Walk ``m``'s path from ``seg_idx`` to its next event.

        Returns True when the message bounced off a faulty edge (its
        label is learned and a retry decode is due), False when it was
        delivered.  A 1-segment is walked whole: its hops come from
        :meth:`PackedTreeRouting.path` and the instance's hop tables,
        and each is checked against the fault set in hop order.  Every
        fault-free hop goes through :meth:`_move`, so weighted lengths
        accumulate in hop order, as in the seed engine.
        """
        faults = m.faults
        segments = m.path.segments
        while m.seg_idx < len(segments):
            seg = segments[m.seg_idx]
            if seg.kind == "edge":
                if seg.port_x is None:
                    raise ValueError("path segment lacks port information")
                slot = int(self._indptr[m.cur]) + seg.port_x
                ei = int(self._eids[slot])
                if ei in faults:
                    self._bounce_nontree(m)
                    return True
                self._move(m, int(self._nbr[slot]), float(self._w[ei]))
            elif seg.kind == "tree":
                pack = m.pack
                up_ei, up_nbr, up_w, down_ei, down_nbr, down_w, down_port = (
                    pack.hop_tables()
                )
                climb, descent = pack.tree.path(
                    pack.local_of[m.cur], pack.local_of[seg.y]
                )
                for x in climb:  # x -> parent(x)
                    if up_ei[x] in faults:
                        m.cur_local = x
                        self._bounce_tree(m, x, int(pack.tree.parent_port[x]))
                        return True
                    self._move(m, up_nbr[x], up_w[x])
                for x in descent:  # parent(x) -> x
                    if down_ei[x] in faults:
                        m.cur_local = int(pack.tree.parent[x])
                        self._bounce_tree(m, x, down_port[x])
                        return True
                    self._move(m, down_nbr[x], down_w[x])
            else:
                raise ValueError(f"unknown segment kind {seg.kind!r}")
            m.seg_idx += 1
        if m.cur != m.path.t:  # pragma: no cover - defensive
            raise RuntimeError("path description did not terminate at t")
        m.status = _DONE
        tel = m.telemetry
        m.result = RouteResult(
            delivered=True, s=m.s, t=m.t, telemetry=tel,
            length=tel.weighted, scale=m.scale, trace=m.trace,
        )
        return False

    # ------------------------------------------------------------------
    # Moves, bounces, reversals (per message; identical charging to the
    # reference SegmentRouter)
    # ------------------------------------------------------------------
    def _move(self, m: _Message, v: int, w: float) -> None:
        tel = m.telemetry
        tel.hops += 1
        tel.weighted += w
        m.fwd_hops += 1
        m.fwd_weight += w
        m.fwd_trace.append(v)
        m.trace.append(v)
        m.cur = v

    def _reverse(self, m: _Message) -> None:
        """Retrace the forward prefix back to the source (Claim 5.6
        charging: forward hops re-walked; Γ round trips not included)."""
        tel = m.telemetry
        tel.weighted += m.fwd_weight
        tel.hops += m.fwd_hops
        tel.reversal_hops += m.fwd_hops
        tel.reversals += 1
        if m.fwd_trace:
            m.trace.extend(reversed(m.fwd_trace[:-1]))
            m.trace.append(m.path.s)

    def _bounce_nontree(self, m: _Message) -> None:
        """Fault on a 0-segment: the edge's label comes straight from
        the path description's EID (Section 5.2)."""
        seg = m.path.segments[m.seg_idx]
        pack = m.pack
        local_ei = pack.scheme.edge_for_eid(seg.eid)
        if local_ei is not None:
            label = pack.scheme.edge_label(local_ei)
        else:
            # Defensive bare-label fallback, as in the reference
            # engine's label_for_eid path.
            label = pack.scheme.label_for_eid(seg.eid, component=pack.component)
        self._reverse(m)
        self._learn(m, label, local_ei)

    def _bounce_tree(self, m: _Message, child: int, port: int) -> None:
        """Fault on a 1-segment edge: fetch the label locally or from a
        Γ member over a non-faulty port (round trips charged), then
        reverse — the exact reference ``_fetch_tree_edge_label`` flow."""
        pack = m.pack
        lu = m.cur_local
        if not pack.holds_label_locally(lu, child):
            gports, _members = pack.tree.gamma_row(child)
            u = int(pack.to_parent[lu])
            base = int(self._indptr[u])
            tel = m.telemetry
            found = False
            for gp in gports:
                if gp == port:
                    continue
                ei = int(self._eids[base + gp])
                if ei in m.faults:
                    continue
                tel.hops += 2
                tel.weighted += 2.0 * float(self._w[ei])
                tel.gamma_queries += 1
                found = True
                break
            if not found:
                raise RuntimeError("no Γ member reachable: fault bound exceeded")
        label = pack.tree_edge_label(child)
        local_ei = pack.parent_edge[child]
        self._reverse(m)
        self._learn(m, label, local_ei)

    def _learn(self, m: _Message, label, local_ei: Optional[int]) -> None:
        """Record a discovered fault label; schedule the next decode.

        A label already known carries no new information — the
        reference breaks to the next phase; otherwise it joins the
        known list (discovery order) and the next retry iteration runs.
        """
        if label is None or label.eid in m.known_eids:
            m.key = None  # defensive: no new information; next phase
        else:
            m.known.append(label)
            m.known_eids.add(label.eid)
            m.known_bits += label.bit_length()
            if local_ei is None:
                m.known_ok = False
            else:
                m.known_local.append(local_ei)
            m.iteration += 1
        m.status = _DECODE
