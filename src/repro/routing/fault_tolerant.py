"""Fault-tolerant routing — faulty edges unknown to the source
(Section 5.2, Theorems 5.5 and 5.8).

The protocol works in phases over the distance scales.  In phase ``i``
the source tries to reach ``t`` inside the cover tree ``T_{i,i*(t)}``
(whose cluster contains the 2^i-ball of ``t``), in at most ``|F|+1``
trial iterations:

* iteration ``l`` decodes the connectivity labels (using the fresh
  ``l``-th sketch copy — correlations between earlier routing choices
  and the sketch randomness are the reason for the f' = f+1 copies)
  against the currently known fault labels, producing a succinct path;
* the message follows the path; either it arrives, or it hits an
  unknown faulty edge, learns that edge's routing label (from the path
  description for non-tree edges, from the local table or a Γ_T(e)
  member for tree edges — Claim 5.6), and returns to ``s``.

``table_mode`` selects the storage layout:

* ``"simple"`` — every vertex stores the labels of all its incident
  tree edges (Theorem 5.5: global space Õ(f n^{1+1/k}), but a
  high-degree vertex pays Θ(deg) labels);
* ``"balanced"`` — Γ-block replication (Theorem 5.8: Õ(f^3 n^{1/k})
  bits per vertex, degree-independent).

``engine`` selects the execution plane:

* ``"packed"`` (default) — the array-native tables of
  :mod:`repro.routing.packed_tables` driven by the batched multi-
  message stepper of :mod:`repro.routing.packed_engine`;
  :meth:`route_many` advances whole message batches together and
  resolves retry decodes through shared partition caches;
* ``"reference"`` — the seed per-vertex table objects walked one
  message at a time by :class:`~repro.routing.engine.SegmentRouter`.

Both engines produce **bit-identical route traces** — delivery status,
hop sequences, weighted lengths, reversal charges and every telemetry
counter — asserted by ``tests/test_route_traces.py`` and
``tests/test_route_many.py``.

The measured route length is guaranteed (w.h.p.) to be at most
``32 k (|F|+1)^2 * dist(s, t; G \\ F)``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.core._batch import check_vertex_ids
from repro.core.distance_labels import DistanceLabelScheme
from repro.core.sketch_scheme import SkEdgeLabel
from repro.graph.graph import Graph
from repro.routing.engine import SegmentRouter
from repro.routing.network import (
    Network,
    RouteResult,
    Telemetry,
    scalar_route_many,
)
from repro.routing.packed_engine import PackedRouteEngine
from repro.routing.packed_tables import PackedRoutingPlane
from repro.routing.tables import (
    RoutingLabel,
    VertexRoutingTable,
    build_routing_label,
    build_routing_tables,
)


class FaultTolerantRouter:
    """Compact routing resilient to up to ``f`` unknown edge faults."""

    def __init__(
        self,
        graph: Graph,
        f: int,
        k: int,
        seed: int = 0,
        table_mode: str = "balanced",
        units: Optional[int] = None,
        reuse_copy: bool = False,
        engine: str = "packed",
        partition_cache_capacity: int = 256,
        id_space: Optional[int] = None,
        build_workers: int = 1,
    ):
        """``build_workers`` farms the independent per-copy sketch
        builds of every (scale, cluster) instance onto one shared
        process pool (bit-identical labels for every value; 1 = serial
        reference).

        ``reuse_copy=True`` is an *ablation switch*: it decodes every
        retry iteration with sketch copy 0 instead of a fresh copy,
        deliberately violating the independence requirement of Section
        5.2 (the routing choices become correlated with the sketch
        randomness).  Used by ``benchmarks/bench_ablations.py`` to show
        why the paper pays for f' = f+1 copies.

        ``partition_cache_capacity`` bounds each (instance, copy)
        retry-decode partition cache of the packed engine."""
        if f < 0:
            raise ValueError("fault bound f must be >= 0")
        if engine not in ("packed", "reference"):
            raise ValueError(f"unknown engine {engine!r}")
        if table_mode not in ("simple", "balanced"):
            # Both planes are built lazily, so validate here rather
            # than after the whole label scheme has been paid for.
            raise ValueError(f"unknown table mode {table_mode!r}")
        self.graph = graph
        self.f = f
        self.k = k
        self.table_mode = table_mode
        self.reuse_copy = reuse_copy
        self.engine = engine
        self.partition_cache_capacity = partition_cache_capacity
        copies = 1 if reuse_copy else f + 1
        gamma_f = f if table_mode == "balanced" else None
        self.scheme = DistanceLabelScheme(
            graph,
            f,
            k,
            seed=seed,
            base_scheme="sketch",
            copies=copies,
            routing=True,
            gamma_f=gamma_f,
            units=units,
            id_space=id_space,
            build_workers=build_workers,
        )
        # Both planes are built lazily: the reference per-vertex table
        # objects on first reference route / bit-accounting call, the
        # packed arrays + stepper on first packed route.
        self._tables: Optional[list[VertexRoutingTable]] = None
        self._packed: Optional[PackedRouteEngine] = None

    def __digest_hints__(self) -> dict[int, str]:
        """Construction-time segment digests, delegated to the label
        scheme (the router's snapshot payload is the scheme's)."""
        return self.scheme.__digest_hints__()

    @property
    def tables(self) -> list[VertexRoutingTable]:
        """The seed per-vertex routing tables (Eq. 9), built lazily.

        The reference engine walks these; the packed engine never
        touches them, but the wire-format bit accounting
        (:meth:`table_bits` etc.) is defined over them, so they stay
        available on every router.
        """
        if self._tables is None:
            self._tables = build_routing_tables(
                self.scheme, self.table_mode, self.f
            )
        return self._tables

    def packed_engine(self) -> PackedRouteEngine:
        """The batched stepper over the packed plane, built lazily."""
        if self._packed is None:
            plane = PackedRoutingPlane(self.scheme, self.table_mode, self.f)
            self._packed = PackedRouteEngine(
                plane,
                self.f,
                reuse_copy=self.reuse_copy,
                cache_capacity=self.partition_cache_capacity,
            )
        return self._packed

    # ------------------------------------------------------------------
    # Sizes and bounds
    # ------------------------------------------------------------------
    def routing_label(self, v: int) -> RoutingLabel:
        return build_routing_label(self.scheme, v)

    def stretch_bound(self, num_faults: int) -> float:
        """Theorem 5.5/5.8 guarantee with this construction's cover
        constant: ``(32k+40)(|F|+1)^2`` (paper: ``32k(|F|+1)^2``).

        Derivation as in Claim 5.4: per iteration the explored path is
        at most ``2((4k+3)(|F|+1) + (|F|+1)) 2^j = 2(4k+5)(|F|+1)2^j``
        (path + Γ detours, both directions); ``|F|+1`` iterations per
        phase and the geometric sum over phases give
        ``8(4k+5)(|F|+1)^2 dist``.
        """
        return (32 * self.k + 40) * (num_faults + 1) ** 2

    def table_bits(self, v: int) -> int:
        return self.tables[v].bit_length()

    def max_table_bits(self) -> int:
        return max((t.bit_length() for t in self.tables), default=0)

    def total_table_bits(self) -> int:
        return sum(t.bit_length() for t in self.tables)

    def max_label_bits(self) -> int:
        return max(
            (self.routing_label(v).bit_length() for v in self.graph.vertices()),
            default=0,
        )

    # ------------------------------------------------------------------
    # The routing protocol
    # ------------------------------------------------------------------
    def route(self, s: int, t: int, faults: Iterable[int]) -> RouteResult:
        """Deliver a message from ``s`` to ``t`` under the (hidden) fault
        set, given only ``L_route(t)`` and the routing tables.  Vertex
        ids outside ``0..n-1`` raise ``ValueError`` on both engines."""
        check_vertex_ids([(s, t)], self.graph.n)
        if self.engine == "packed":
            return self.packed_engine().route_many([(s, t)], list(faults))[0]
        return self._route_reference(s, t, faults)

    def route_many(
        self,
        requests: Sequence[tuple[int, int]],
        faults=(),
        engine: Optional[str] = None,
    ) -> list[RouteResult]:
        """Route a batch of messages under hidden faults.

        ``faults`` is one shared iterable of edge indices or a
        per-message sequence (the ``query_many`` convention).
        ``engine`` overrides the router's default for this call —
        ``"packed"`` advances all messages together through the array
        stepper; ``"reference"`` loops the seed engine (the benches and
        the trace-equivalence tests compare the two on one router).
        Vertex ids outside ``0..n-1`` raise ``ValueError`` on both
        engines, before any message is routed.
        """
        requests = list(requests)
        check_vertex_ids(requests, self.graph.n)
        engine = self.engine if engine is None else engine
        if engine == "packed":
            return self.packed_engine().route_many(requests, faults)
        if engine != "reference":
            raise ValueError(f"unknown engine {engine!r}")
        return scalar_route_many(self._route_reference, requests, faults)

    def _route_reference(
        self, s: int, t: int, faults: Iterable[int]
    ) -> RouteResult:
        """The seed scalar protocol over the per-vertex table objects."""
        fault_set = set(faults)
        telemetry = Telemetry()
        network = Network(self.graph, fault_set)
        trace: list[int] = [s]
        if s == t:
            return RouteResult(
                delivered=True, s=s, t=t, telemetry=telemetry, trace=trace
            )
        tables = self.tables
        label_t = self.routing_label(t)
        copies = self.scheme.copies
        for i in range(self.scheme.K + 1):
            scale_entry = label_t.per_scale.get(i)
            if scale_entry is None:
                continue
            j, t_conn = scale_entry
            key = (i, j)
            s_entry = tables[s].entries.get(key)
            if s_entry is None:
                continue  # s is not in T_{i, i*(t)}; try the next scale
            instance = self.scheme.instances[key]
            telemetry.phases += 1
            known: list[SkEdgeLabel] = []
            known_eids: set[int] = set()
            for iteration in range(self.f + 1):
                telemetry.iterations += 1
                telemetry.decode_calls += 1
                copy = 0 if self.reuse_copy else min(iteration, copies - 1)
                result = instance.scheme.decode(
                    s_entry.conn_label,
                    t_conn,
                    known,
                    copy=copy,
                    want_path=True,
                )
                if not result.connected:
                    break  # s, t disconnected here (w.h.p.); next phase
                path = result.path
                header_bits = path.bit_length(self.graph.n) + sum(
                    lab.bit_length() for lab in known
                )
                telemetry.note_header(header_bits)
                engine = SegmentRouter(
                    network, tables, key, instance, telemetry, trace=trace
                )
                outcome = engine.follow(path)
                if outcome.status == "delivered":
                    return RouteResult(
                        delivered=True,
                        s=s,
                        t=t,
                        telemetry=telemetry,
                        length=telemetry.weighted,
                        scale=i,
                        trace=trace,
                    )
                label = outcome.fault_label
                if label is None or label.eid in known_eids:
                    break  # defensive: no new information; next phase
                known.append(label)
                known_eids.add(label.eid)
        return RouteResult(
            delivered=False,
            s=s,
            t=t,
            telemetry=telemetry,
            length=telemetry.weighted,
            trace=trace,
        )
