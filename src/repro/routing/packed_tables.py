"""Packed routing-table stores (the array-native Section 5.2 tables).

The seed routing plane materializes one :class:`VertexRoutingTable`
per vertex — a dict of per-instance entries, each holding label
objects and a :class:`~repro.trees.tree_routing.TreeTable` — and the
engine re-reads those dicts on every hop.  This module replaces that
object forest with per-instance array stores built off the same
sources of truth:

* the tree-routing state (DFS intervals, parent/heavy/light-child
  ports, Γ_T(e) port blocks) comes from
  :meth:`TreeRoutingScheme.packed` — contiguous numpy arrays over the
  instance's local vertex ids, computed from the *same*
  ancestry/heavy-light decomposition the wire-format tables encode, so
  packed tree paths take the hops :meth:`TreeRoutingScheme.next_hop`
  takes; per-vertex hop tables map each tree edge onto its global edge
  id, neighbour and weight;
* edge routing labels are **not** materialized up front.  The seed
  tables eagerly build every tree edge's label (child-subtree sketches
  included) and replicate it over its Γ holders; the packed plane
  keeps only the holder *predicate* (mode, Γ membership, the
  small-degree ``stores_child`` flag of Claim 5.6) and materializes a
  label lazily, once, when a message actually bounces off that edge —
  the labels a route learns are identical objects to what
  ``build_routing_tables`` would have stored;
* global↔local translation reuses the instance's
  ``InducedSubgraph`` maps.

:class:`PackedRoutingPlane` is the whole-scheme store the batched
routing engine (:mod:`repro.routing.packed_engine`) walks; the seed
per-vertex tables remain available behind
``FaultTolerantRouter(engine="reference")`` and for the bit-accounting
APIs (``table_bits`` builds them lazily).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.distance_labels import DistanceLabelScheme, InstanceKey, LabelInstance
from repro.core.sketch_scheme import SkEdgeLabel
from repro.graph.csr import CsrGraph
from repro.trees.tree_routing import PackedTreeRouting


class PackedInstanceTables:
    """One (scale, cluster) instance's routing state, array-resident.

    Wraps the instance's :class:`PackedTreeRouting` arrays with the
    global↔local maps, the hop tables a tree-segment walk reads, and
    the lazy edge-label store the fault bounce-back needs.  ``simple``
    selects the Theorem 5.5 layout (every vertex holds all incident
    tree-edge labels) over the Γ-replicated Theorem 5.8 one.
    """

    __slots__ = (
        "key",
        "scheme",
        "tree",
        "to_parent",
        "local_of",
        "parent_edge",
        "component",
        "simple",
        "_csr",
        "_hops",
        "_labels",
    )

    def __init__(
        self, key: InstanceKey, inst: LabelInstance, simple: bool, csr: CsrGraph
    ):
        if inst.tree_routing is None:
            raise ValueError("instance lacks tree routing state")
        self.key = key
        self.scheme = inst.scheme
        self.tree: PackedTreeRouting = inst.tree_routing.packed()
        self.to_parent = np.asarray(inst.sub.vertex_to_parent, dtype=np.int64)
        #: global vertex id -> instance-local id
        self.local_of = inst.sub.vertex_from_parent
        #: local child vertex -> local edge index of its parent edge
        self.parent_edge = inst.tree.parent_edge
        self.component = int(inst.scheme.comp_of[inst.tree.root])
        self.simple = simple
        #: the global network's CSR port arrays
        self._csr = csr
        self._hops: Optional[tuple] = None
        self._labels: dict[int, SkEdgeLabel] = {}

    def hop_tables(self) -> tuple:
        """The global hops over each tree edge, as per-vertex lists.

        For every local vertex ``x`` below the root, the up hop
        ``x -> parent(x)`` is CSR slot ``indptr[to_parent[x]] +
        parent_port[x]``, and the down hop ``parent(x) -> x`` is the
        slot at the parent's global vertex plus ``x``'s ``child_port``:
        the edge and port the Fact 5.1 next-hop rule picks.  Returns
        ``(up_ei, up_nbr, up_w, down_ei, down_nbr, down_w, down_port)``
        — each hop's global edge id, neighbour and weight, and the down
        hop's port.  The root's entries are never read.  Derived on
        first use and never persisted.
        """
        hops = self._hops
        if hops is None:
            tree, csr = self.tree, self._csr
            n = tree.parent.size
            below = np.flatnonzero(tree.parent >= 0)
            down_port = np.full(n, -1, dtype=np.int64)
            down_port[tree.child_local] = tree.child_port
            hops = ()
            for at, port in (
                (self.to_parent[below], tree.parent_port[below]),
                (self.to_parent[tree.parent[below]], down_port[below]),
            ):
                slots = csr.indptr[at] + port
                ei = np.full(n, -1, dtype=np.int64)
                ei[below] = csr.edge_ids[slots]
                nbr = np.full(n, -1, dtype=np.int64)
                nbr[below] = csr.neighbors[slots]
                w = np.zeros(n, dtype=np.float64)
                w[below] = csr.edge_weight[ei[below]]
                hops += (ei.tolist(), nbr.tolist(), w.tolist())
            hops = self._hops = hops + (down_port.tolist(),)
        return hops

    def tree_edge_label(self, child: int) -> SkEdgeLabel:
        """The routing label of the tree edge (parent(child), child).

        Exactly the label the seed ``build_routing_tables`` replicates
        over the edge's holders (``inst.scheme.edge_label`` of the
        child's parent edge), materialized on first bounce and memoized.
        """
        label = self._labels.get(child)
        if label is None:
            label = self.scheme.edge_label(self.parent_edge[child])
            self._labels[child] = label
        return label

    def holds_label_locally(self, lu: int, child: int) -> bool:
        """Does the blocked vertex ``lu`` itself store the label of the
        faulty tree edge (parent(child), child)?

        Mirrors exactly which tables the seed layout populates: both
        endpoints in simple mode; in Γ mode the child endpoint always
        (it sits in its own block) and the parent endpoint iff its
        degree is small (Claim 5.6's ``stores_child_labels``).
        """
        if self.simple or child == lu:
            return True
        return bool(self.tree.stores_child[lu])


class PackedRoutingPlane:
    """Array-native routing tables for every instance of a scheme.

    Built from a routing-enabled :class:`DistanceLabelScheme` — the
    same input as the seed :func:`repro.routing.tables.build_routing_tables`
    — but holding per-instance arrays instead of per-vertex dicts.
    """

    def __init__(self, scheme: DistanceLabelScheme, mode: str, f: int):
        if mode not in ("simple", "balanced"):
            raise ValueError(f"unknown table mode {mode!r}")
        if not scheme.routing:
            raise ValueError("the distance scheme must be built with routing=True")
        self.scheme = scheme
        self.mode = mode
        self.f = f
        simple = mode == "simple"
        csr = scheme.graph.as_csr()
        self.instances: dict[InstanceKey, PackedInstanceTables] = {
            key: PackedInstanceTables(key, inst, simple, csr)
            for key, inst in scheme.instances.items()
        }

    def instance(self, key: InstanceKey) -> Optional[PackedInstanceTables]:
        return self.instances.get(key)
