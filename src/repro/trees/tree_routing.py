"""Tree routing (Fact 5.1 [TZ01]) and its Γ-augmented variant (Claim 5.6).

The scheme is the heavy-light variant of Thorup-Zwick tree routing:

* the *label* of ``t`` stores its DFS interval plus, for every light
  edge on the root-to-t path, the parent endpoint's id and the port of
  the edge at the parent;
* the *table* of ``u`` stores its DFS interval, the parent port, and
  the heavy child's id/port/interval.

Routing at ``u`` towards label ``L(t)``: if ``t`` is outside ``u``'s
subtree go to the parent; if it is inside the heavy child's subtree use
the heavy port; otherwise the first edge of the path is a light edge
``(u, c)`` which appears in ``L(t)`` — use its recorded port.

The Γ-augmented variant (Claim 5.6) additionally records, for each such
edge ``e``, the ports of the vertices in the block ``Γ_T(e)`` — the
``f+1`` (up to ``2f+1``) children of ``u`` that replicate the routing
label of ``e`` in the load-balanced tables of Theorem 5.8.

Because the trees of the tree cover live on *local* vertex sets while
messages travel the *global* network, the scheme accepts ``id_of`` /
``port_fn`` hooks translating local tree vertices to global ids and
global ports; DFS intervals stay local to the tree (they are only ever
compared with each other).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.graph.ancestry import AncestryLabeling
from repro.graph.spanning_tree import RootedTree
from repro.sizing.bits import bits_for_count, bits_for_id
from repro.trees.heavy_light import HeavyLightDecomposition


@dataclass(frozen=True)
class TreeRouteEntry:
    """One light edge (parent -> child) on the root-to-target path."""

    parent_id: int
    port: int
    gamma_ports: tuple[int, ...] = ()


@dataclass(frozen=True)
class TreeLabel:
    """Tree-routing label of a vertex: O(f log^2 n) bits in Γ mode."""

    vid: int
    tin: int
    tout: int
    entries: tuple[TreeRouteEntry, ...]


@dataclass(frozen=True)
class TreeTable:
    """Tree-routing table of a vertex: O(f log n) bits."""

    vid: int
    tin: int
    tout: int
    parent_port: int  # -1 at the root
    heavy_id: int  # -1 at leaves
    heavy_port: int
    heavy_tin: int
    heavy_tout: int
    heavy_gamma_ports: tuple[int, ...] = ()


class PackedTreeRouting:
    """Array-native view of one tree's routing state.

    Flattens everything :meth:`TreeRoutingScheme.next_hop` reads — DFS
    intervals, parent/heavy ports, per-child light-edge ports, and the
    Γ_T(e) port blocks of Claim 5.6 — into contiguous numpy arrays over
    the tree's (local) vertex ids, so a batched message stepper can
    compute next hops for many in-flight messages with gathers instead
    of per-hop table objects and label decoding.

    Layout (all indexed by local vertex id unless noted):

    * ``tin``/``tout`` — the same DFS intervals the wire-format tables
      carry (shared with the scheme's :class:`AncestryLabeling`, so
      packed decisions equal :meth:`TreeRoutingScheme.next_hop` bit for
      bit);
    * ``parent``/``parent_port`` — tree parent and the port towards it
      (-1 at the root);
    * ``heavy``/``heavy_port``/``heavy_tin``/``heavy_tout`` — the heavy
      child fields of :class:`TreeTable`;
    * ``child_indptr``/``child_local``/``child_tin``/``child_tout``/
      ``child_port`` — CSR rows of each vertex's children sorted by
      ``tin``: the child on the path towards a target inside the
      subtree is found by one ``searchsorted`` on its ``tin`` (packed
      stand-in for scanning the target label's light entries — same
      edge, same port, because light entries record exactly these
      (parent, child) ports);
    * ``gamma_indptr``/``gamma_port``/``gamma_member`` — CSR rows *per
      child* ``c``: the ports at ``parent(c)`` towards the Γ members of
      the edge (parent(c), c) and the members themselves, in the exact
      order :meth:`TreeRoutingScheme.gamma_members` reports (the fault
      bounce-back walks them in that order);
    * ``stores_child`` — per vertex, whether it holds its child-edge
      labels itself (the small-degree case of Claim 5.6; always true
      without Γ mode).
    """

    #: the slots persisted by the snapshot store; ``__slots__`` is
    #: derived from this plus the load-time-derived ``child_key``, so a
    #: new array field cannot silently miss the persisted set.
    _ARRAY_FIELDS = (
        "tin", "tout", "parent", "parent_port",
        "heavy", "heavy_port", "heavy_tin", "heavy_tout",
        "child_indptr", "child_local", "child_tin", "child_tout",
        "child_port",
        "gamma_indptr", "gamma_port", "gamma_member", "stores_child",
    )

    __slots__ = _ARRAY_FIELDS + ("child_key",)

    def __init__(self, scheme: "TreeRoutingScheme"):
        tree = scheme.tree
        n = tree.graph.n
        anc = scheme._anc
        hld = scheme._hld
        port_fn = scheme._port_fn
        tin, tout = anc.interval_arrays()
        tin = np.ascontiguousarray(tin, dtype=np.int64)
        tout = np.ascontiguousarray(tout, dtype=np.int64)
        self.tin = tin
        self.tout = tout
        arr = tree.arrays()
        parent = arr.parent
        self.parent = parent
        parent_port = np.full(n, -1, dtype=np.int64)
        for v in arr.order[1:].tolist():
            parent_port[v] = port_fn(v, int(parent[v]))
        self.parent_port = parent_port
        heavy, _ = hld.arrays()
        self.heavy = heavy
        heavy_port = np.full(n, -1, dtype=np.int64)
        heavy_tin = np.zeros(n, dtype=np.int64)
        heavy_tout = np.zeros(n, dtype=np.int64)
        hv = np.flatnonzero(heavy >= 0)
        for v in hv.tolist():
            h = int(heavy[v])
            heavy_port[v] = port_fn(v, h)
            heavy_tin[v] = tin[h]
            heavy_tout[v] = tout[h]
        self.heavy_port = heavy_port
        self.heavy_tin = heavy_tin
        self.heavy_tout = heavy_tout
        # Children CSR, sorted by tin within each parent (preorder
        # assigns tin in ascending child-id order, so this matches the
        # deterministic child order everywhere else).
        counts = np.zeros(n, dtype=np.int64)
        in_tree = np.flatnonzero(parent >= 0)
        np.add.at(counts, parent[in_tree], 1)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        order = np.argsort(
            parent[in_tree] * np.int64(2 * n + 2) + tin[in_tree], kind="stable"
        )
        child_local = in_tree[order]
        self.child_indptr = indptr
        self.child_local = child_local
        self.child_tin = tin[child_local]
        self.child_tout = tout[child_local]
        child_port = np.empty(child_local.size, dtype=np.int64)
        cl = child_local.tolist()
        pl = parent[child_local].tolist()
        for i, (c, p) in enumerate(zip(cl, pl)):
            child_port[i] = port_fn(p, c)
        self.child_port = child_port
        # Γ blocks per child, in gamma_members order; empty without Γ.
        gamma_indptr = np.zeros(n + 1, dtype=np.int64)
        gports: list[int] = []
        gmembers: list[int] = []
        if scheme.gamma_f is not None:
            gcounts = np.zeros(n, dtype=np.int64)
            per_child: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
            for c in cl:
                p = int(parent[c])
                members = scheme.gamma_members(c)
                ports = scheme._gamma_ports(p, c)
                per_child[c] = (members, ports)
                gcounts[c] = len(members)
            gamma_indptr = np.concatenate(([0], np.cumsum(gcounts)))
            for c in range(n):
                ent = per_child.get(c)
                if ent is not None:
                    gmembers.extend(ent[0])
                    gports.extend(ent[1])
        self.gamma_indptr = gamma_indptr
        self.gamma_port = np.asarray(gports, dtype=np.int64)
        self.gamma_member = np.asarray(gmembers, dtype=np.int64)
        self.stores_child = np.asarray(
            [scheme.stores_child_labels(v) for v in range(n)], dtype=bool
        )
        self._finalize()

    def _finalize(self) -> None:
        """Derive the composite search keys of the child CSR.

        ``child_key[i] = parent(child_i) * (2n+2) + tin(child_i)`` is
        globally ascending (slots are grouped by parent and tin-sorted
        within each group, and tin < 2n+2), so one ``searchsorted``
        over the whole array answers the per-row light-child lookup for
        every message at once (see :meth:`next_hop_many`).
        """
        big = np.int64(2 * self.tin.size + 2)
        self.child_key = self.parent[self.child_local] * big + self.child_tin

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.store)
    # ------------------------------------------------------------------
    def __arrays__(self) -> dict[str, np.ndarray]:
        """The persistable array set (the ``repro.store`` protocol)."""
        return {name: getattr(self, name) for name in self._ARRAY_FIELDS}

    @classmethod
    def from_arrays(cls, arrays: dict) -> "PackedTreeRouting":
        """Rebuild a packed view from :meth:`__arrays__` output.

        Accepts read-only (memory-mapped) arrays — every kernel on this
        class only reads them — and recomputes the derived search keys.
        """
        self = object.__new__(cls)
        for name in cls._ARRAY_FIELDS:
            setattr(self, name, arrays[name])
        self._finalize()
        return self

    def next_hop_many(
        self, lu: np.ndarray, lt: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`TreeRoutingScheme.next_hop` on local vertices.

        Returns ``(action, port, nxt)`` arrays: ``action`` is 0 when the
        message has arrived (``lu == lt``), 1 for a parent hop, 2 for a
        heavy-child hop, 3 for a light-child hop; ``port`` is the chosen
        port at ``lu`` (undefined for action 0) and ``nxt`` the local
        vertex it leads to.  Decisions are identical to the scalar
        table/label computation: the same interval containment tests in
        the same order, and the light child is the unique child whose
        interval contains the target's — the edge the target label's
        light entry records.
        """
        tin, tout = self.tin, self.tout
        action = np.zeros(lu.size, dtype=np.int64)
        port = np.full(lu.size, -1, dtype=np.int64)
        nxt = np.full(lu.size, -1, dtype=np.int64)
        moving = lu != lt
        if not moving.any():
            return action, port, nxt
        t_tin = tin[lt]
        t_tout = tout[lt]
        inside = (tin[lu] <= t_tin) & (t_tout <= tout[lu]) & moving
        up = moving & ~inside
        if up.any():
            if (self.parent[lu[up]] < 0).any():
                raise ValueError("target outside the tree")
            action[up] = 1
            port[up] = self.parent_port[lu[up]]
            nxt[up] = self.parent[lu[up]]
        hv = inside & (self.heavy[lu] >= 0) \
            & (self.heavy_tin[lu] <= t_tin) & (t_tout <= self.heavy_tout[lu])
        if hv.any():
            action[hv] = 2
            port[hv] = self.heavy_port[lu[hv]]
            nxt[hv] = self.heavy[lu[hv]]
        light = inside & ~hv
        if light.any():
            # One ragged searchsorted for every light-child lookup: the
            # composite keys make the per-parent CSR rows one globally
            # sorted array, so ``searchsorted(child_key, u*(2n+2)+t_tin,
            # "right") - 1`` lands on exactly the slot the per-row
            # search found (earlier rows' keys are < u*(2n+2), later
            # rows' are > any key of row u).
            li = np.flatnonzero(light)
            u = lu[li]
            tt = t_tin[li]
            big = np.int64(2 * tin.size + 2)
            pos = np.searchsorted(self.child_key, u * big + tt, side="right") - 1
            ok = pos >= self.child_indptr[u]
            pos = np.maximum(pos, 0)
            ok &= (self.child_tin[pos] <= tt) & (t_tout[li] <= self.child_tout[pos])
            if not ok.all():  # pragma: no cover - implies a corrupt tree label
                raise ValueError(
                    "inconsistent tree label: no light entry at this vertex"
                )
            action[li] = 3
            port[li] = self.child_port[pos]
            nxt[li] = self.child_local[pos]
        return action, port, nxt

    def gamma_row(self, child: int) -> tuple[list[int], list[int]]:
        """``(ports, members)`` of the Γ block replicating the label of
        the edge (parent(child), child), in Claim 5.6 order."""
        lo, hi = int(self.gamma_indptr[child]), int(self.gamma_indptr[child + 1])
        return self.gamma_port[lo:hi].tolist(), self.gamma_member[lo:hi].tolist()


class TreeRoutingScheme:
    """Labels + tables + next-hop computation for one rooted tree."""

    def __init__(
        self,
        tree: RootedTree,
        gamma_f: Optional[int] = None,
        id_of: Optional[Callable[[int], int]] = None,
        port_fn: Optional[Callable[[int, int], int]] = None,
        id_space: Optional[int] = None,
    ):
        self.tree = tree
        self.gamma_f = gamma_f
        graph = tree.graph
        self._id_of = id_of if id_of is not None else (lambda v: v)
        self._port_fn = port_fn if port_fn is not None else graph.port_of
        self.id_space = id_space if id_space is not None else graph.n
        self._anc = AncestryLabeling(tree)
        self._hld = HeavyLightDecomposition(tree)
        self._packed: Optional[PackedTreeRouting] = None
        #: local vertex -> ``encode_label(label(v))``, filled on demand
        self._encoded: dict[int, int] = {}
        # Γ blocks: for each tree child c of u, the list of children of u
        # replicating the label of the edge (u, c) (Claim 5.6).
        self._gamma: dict[int, tuple[int, ...]] = {}
        if gamma_f is not None:
            for u in tree.vertices:
                kids = tree.children[u]
                if len(kids) <= gamma_f + 1:
                    for c in kids:
                        self._gamma[c] = tuple(kids)
                    continue
                block_size = gamma_f + 1
                num_full = len(kids) // block_size
                for b in range(num_full):
                    start = b * block_size
                    end = start + block_size
                    if b == num_full - 1:
                        end = len(kids)  # last block absorbs the remainder
                    block = tuple(kids[start:end])
                    for c in block:
                        self._gamma[c] = block

    def packed(self) -> PackedTreeRouting:
        """The memoized :class:`PackedTreeRouting` array view."""
        if self._packed is None:
            self._packed = PackedTreeRouting(self)
        return self._packed

    # ------------------------------------------------------------------
    # Γ queries (Claim 5.6 / Section 5.2)
    # ------------------------------------------------------------------
    def gamma_members(self, child: int) -> tuple[int, ...]:
        """Local tree vertices storing the label of the edge
        (parent(child), child).

        In Γ mode with deg(parent) <= f+1 this is all children (plus the
        parent itself, which stores its child labels directly — see
        ``stores_child_labels``); otherwise it is the child's block.
        """
        if self.gamma_f is None:
            return (child,)
        return self._gamma.get(child, (child,))

    def stores_child_labels(self, u: int) -> bool:
        """True iff ``u`` itself stores the labels of its child edges
        (the small-degree case of Claim 5.6)."""
        if self.gamma_f is None:
            return True
        return len(self.tree.children[u]) <= self.gamma_f + 1

    def _gamma_ports(self, u: int, child: int) -> tuple[int, ...]:
        """Ports at ``u`` towards the Γ members of edge (u, child)."""
        if self.gamma_f is None:
            return ()
        return tuple(self._port_fn(u, w) for w in self.gamma_members(child))

    # ------------------------------------------------------------------
    # Labels and tables
    # ------------------------------------------------------------------
    def label(self, v: int) -> TreeLabel:
        tin, tout = self._anc.label(v)
        entries = []
        for parent, child in self._hld.light_edges_to(v):
            entries.append(
                TreeRouteEntry(
                    parent_id=self._id_of(parent),
                    port=self._port_fn(parent, child),
                    gamma_ports=self._gamma_ports(parent, child),
                )
            )
        return TreeLabel(vid=self._id_of(v), tin=tin, tout=tout, entries=tuple(entries))

    def table(self, v: int) -> TreeTable:
        tin, tout = self._anc.label(v)
        parent = self.tree.parent[v]
        parent_port = self._port_fn(v, parent) if parent >= 0 else -1
        heavy = self._hld.heavy_child[v]
        if heavy >= 0:
            h_tin, h_tout = self._anc.label(heavy)
            heavy_port = self._port_fn(v, heavy)
            heavy_gamma = self._gamma_ports(v, heavy)
            heavy_id = self._id_of(heavy)
        else:
            h_tin = h_tout = 0
            heavy_port = -1
            heavy_gamma = ()
            heavy_id = -1
        return TreeTable(
            vid=self._id_of(v),
            tin=tin,
            tout=tout,
            parent_port=parent_port,
            heavy_id=heavy_id,
            heavy_port=heavy_port,
            heavy_tin=h_tin,
            heavy_tout=h_tout,
            heavy_gamma_ports=heavy_gamma,
        )

    # ------------------------------------------------------------------
    # Next-hop computation (constant time, Fact 5.1)
    # ------------------------------------------------------------------
    @staticmethod
    def next_hop(table: TreeTable, target: TreeLabel) -> Optional[tuple[int, tuple[int, ...]]]:
        """Port (plus Γ ports of the chosen edge) from ``table``'s vertex
        towards ``target``; ``None`` when the message has arrived."""
        if table.vid == target.vid:
            return None
        inside = table.tin <= target.tin and target.tout <= table.tout
        if not inside:
            if table.parent_port < 0:
                raise ValueError("target outside the tree")
            return table.parent_port, ()
        if (
            table.heavy_id >= 0
            and table.heavy_tin <= target.tin
            and target.tout <= table.heavy_tout
        ):
            return table.heavy_port, table.heavy_gamma_ports
        for entry in target.entries:
            if entry.parent_id == table.vid:
                return entry.port, entry.gamma_ports
        raise ValueError("inconsistent tree label: no light entry at this vertex")

    # ------------------------------------------------------------------
    # Fixed-width integer encoding (for embedding labels into EIDs)
    # ------------------------------------------------------------------
    def _entry_widths(self) -> tuple[int, int, int, int]:
        id_bits = bits_for_id(max(self.id_space, 2))
        port_bits = id_bits
        gamma_max = 0 if self.gamma_f is None else 2 * self.gamma_f + 1
        gcount_bits = bits_for_count(max(gamma_max, 1))
        return id_bits, port_bits, gamma_max, gcount_bits

    def max_entries(self) -> int:
        return self._hld.max_light_depth()

    def encoded_label_bits(self) -> int:
        """Fixed encoded width of any label of this tree."""
        id_bits, port_bits, gamma_max, gcount_bits = self._entry_widths()
        time_bits = bits_for_count(2 * self.tree.graph.n + 1)
        entry_bits = id_bits + port_bits + gcount_bits + gamma_max * port_bits
        count_bits = bits_for_count(max(self.max_entries(), 1))
        return id_bits + 2 * time_bits + count_bits + self.max_entries() * entry_bits

    def encode_label(self, label: TreeLabel) -> int:
        """Pack a label into ``encoded_label_bits()`` bits."""
        id_bits, port_bits, gamma_max, gcount_bits = self._entry_widths()
        time_bits = bits_for_count(2 * self.tree.graph.n + 1)
        count_bits = bits_for_count(max(self.max_entries(), 1))
        out = label.vid
        out = (out << time_bits) | label.tin
        out = (out << time_bits) | label.tout
        out = (out << count_bits) | len(label.entries)
        for slot in range(self.max_entries()):
            if slot < len(label.entries):
                entry = label.entries[slot]
                out = (out << id_bits) | entry.parent_id
                out = (out << port_bits) | entry.port
                out = (out << gcount_bits) | len(entry.gamma_ports)
                for g in range(gamma_max):
                    port = entry.gamma_ports[g] if g < len(entry.gamma_ports) else 0
                    out = (out << port_bits) | port
            else:
                out <<= id_bits + port_bits + gcount_bits + gamma_max * port_bits
        return out

    def encoded_label(self, v: int) -> int:
        """``encode_label(label(v))``, memoized per vertex.

        The sketch scheme embeds this integer in the EIDs of Eq. (5) and
        in every succinct path it emits (Lemma 3.17), so the routing
        plane's retry decodes ask for the same few endpoints over and
        over; a label is a pure function of the tree, so caching it
        cannot change a bit.
        """
        enc = self._encoded.get(v)
        if enc is None:
            enc = self._encoded[v] = self.encode_label(self.label(v))
        return enc

    def decode_label(self, encoded: int) -> TreeLabel:
        """Inverse of :meth:`encode_label`."""
        id_bits, port_bits, gamma_max, gcount_bits = self._entry_widths()
        time_bits = bits_for_count(2 * self.tree.graph.n + 1)
        count_bits = bits_for_count(max(self.max_entries(), 1))
        entry_bits = id_bits + port_bits + gcount_bits + gamma_max * port_bits
        total = id_bits + 2 * time_bits + count_bits + self.max_entries() * entry_bits

        def take(width: int) -> int:
            nonlocal total
            total -= width
            return (encoded >> total) & ((1 << width) - 1)

        vid = take(id_bits)
        tin = take(time_bits)
        tout = take(time_bits)
        count = take(count_bits)
        entries = []
        for slot in range(self.max_entries()):
            parent_id = take(id_bits)
            port = take(port_bits)
            gcount = take(gcount_bits)
            gports = tuple(take(port_bits) for _ in range(gamma_max))[:gcount]
            if slot < count:
                entries.append(
                    TreeRouteEntry(parent_id=parent_id, port=port, gamma_ports=gports)
                )
        return TreeLabel(vid=vid, tin=tin, tout=tout, entries=tuple(entries))

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    def label_bits(self, v: int) -> int:
        """Actual (non-padded) label size of ``v`` in bits."""
        id_bits, port_bits, gamma_max, gcount_bits = self._entry_widths()
        time_bits = bits_for_count(2 * self.tree.graph.n + 1)
        lab = self.label(v)
        bits = id_bits + 2 * time_bits
        for entry in lab.entries:
            bits += id_bits + port_bits + len(entry.gamma_ports) * port_bits
        return bits

    def table_bits(self, v: int) -> int:
        id_bits, port_bits, _, _ = self._entry_widths()
        time_bits = bits_for_count(2 * self.tree.graph.n + 1)
        tab = self.table(v)
        return (
            id_bits
            + 2 * time_bits
            + 2 * port_bits
            + id_bits
            + 2 * time_bits
            + len(tab.heavy_gamma_ports) * port_bits
        )
