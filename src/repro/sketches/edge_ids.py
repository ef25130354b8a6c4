"""Unique and extended edge identifiers (Lemma 3.8, Equations (1)/(5)).

The sketch-based scheme XORs edge identifiers together and must be able
to tell "a single edge id" from "the XOR of two or more ids".  Lemma 3.8
achieves this with an ε-bias collection [NN93]; here the collection is
realized by a keyed BLAKE2b PRF truncated to ``uid_bits`` bits (a
standard substitution: any ε-bias family works; the PRF keeps labels
short and recomputable from the seed): given the seed ``S_ID`` and the two
endpoint ids, anyone can recompute ``UID(e)`` in O(1), and the XOR of
two or more UIDs equals the UID of the decoded endpoint pair with
probability ``2^-uid_bits`` per test — matching the ``<= 1/n^10``
guarantee of Lemma 3.8 at every scale we run.

The *extended* identifier ``EID_T(e)`` packs, at fixed per-instance
field widths::

    [UID(e), ID(u), ID(v), ANC_T(u), ANC_T(v)]                (Eq. 1)
    [... , port(u,v), port(v,u), L_T(u), L_T(v)]               (Eq. 5)

so that identifiers can be XOR-combined word-wise and any validated
XOR directly hands the decoder the routing information it needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro._util import prf_int, prf_int_pairs
from repro.graph.ancestry import AncLabel
from repro.graph.graph import Graph
from repro.sizing.bits import bits_for_count, bits_for_id


class UidScheme:
    """Seeded unique edge identifiers (the ``S_ID`` seed of Lemma 3.8)."""

    #: seed size in bits, counted as the paper's O(log^2 n)-bit S_ID.
    SEED_BITS = 128

    def __init__(self, seed: int, uid_bits: int = 64):
        self.seed = seed
        self.uid_bits = uid_bits
        self._frame_cache: dict = {}

    def uid(self, u: int, v: int) -> int:
        """UID of the edge {u, v} (order-insensitive)."""
        a, b = (u, v) if u < v else (v, u)
        return prf_int(self.seed, "uid", a, b, bits=self.uid_bits)

    def uid_batch(self, pairs: Iterable[tuple[int, int]]) -> list[int]:
        """UIDs of many edges in one pass, bit-identical to :meth:`uid`.

        Delegates to :func:`repro._util.prf_int_pairs`, which hoists the
        PRF key and salt framing out of the per-edge loop — the per-edge
        BLAKE2b hash is the only remaining work.
        """
        ordered = ((u, v) if u < v else (v, u) for u, v in pairs)
        return prf_int_pairs(
            self.seed,
            "uid",
            ordered,
            bits=self.uid_bits,
            frame_cache=self._frame_cache,
        )

    def matches(self, candidate_uid: int, u: int, v: int) -> bool:
        """Validity test of Lemma 3.10: does the uid belong to {u, v}?"""
        return candidate_uid == self.uid(u, v)


class EidCodec:
    """Fixed-width bit packer for extended edge identifiers.

    Fields are packed most-significant-first in the given order; the
    total width is the per-instance EID length (``O(log n)`` bits for
    connectivity, Eq. (1); larger for routing, Eq. (5), where the two
    embedded tree-routing labels dominate).
    """

    def __init__(self, fields: Sequence[tuple[str, int]]):
        self.fields = list(fields)
        self.total_bits = sum(w for _, w in fields)
        offsets = {}
        pos = self.total_bits
        for name, width in fields:
            pos -= width
            offsets[name] = (pos, width)
        self._offsets = offsets

    def pack(self, values: dict[str, int]) -> int:
        out = 0
        for name, width in self.fields:
            value = values[name]
            if value < 0 or value >= (1 << width):
                raise ValueError(f"field {name}={value} does not fit in {width} bits")
            out = (out << width) | value
        return out

    def unpack(self, eid: int) -> dict[str, int]:
        return {
            name: (eid >> pos) & ((1 << width) - 1)
            for name, (pos, width) in self._offsets.items()
        }

    @property
    def word_count(self) -> int:
        """Number of 64-bit words of the big-endian word layout."""
        return max(1, (self.total_bits + 63) // 64)

    def column(self, words: "np.ndarray", pos: int, width: int) -> "np.ndarray":
        """Bits ``pos .. pos + width - 1`` of every EID row of a
        ``(N, word_count)`` uint64 word matrix, as a uint64 column (the
        big-endian word layout of :meth:`pack_words_batch`)."""
        import numpy as np

        if width > 64:
            raise ValueError(f"a {width}-bit column is wider than a word")
        wi = words.shape[1] - 1 - pos // 64
        lo = pos % 64
        vals = words[:, wi] >> np.uint64(lo)
        if lo + width > 64:
            vals |= words[:, wi - 1] << np.uint64(64 - lo)
        if width < 64:
            vals &= np.uint64((1 << width) - 1)
        return vals

    def pack_words_batch(self, columns: dict[str, "np.ndarray"]) -> "np.ndarray":
        """Pack a batch of EIDs straight into big-endian uint64 words.

        ``columns[name]`` is a uint64 array of field values (each field
        must fit 64 bits, which holds for every Eq. (1)/(5) field except
        oversized routing tree labels — callers fall back to
        :meth:`pack` in that case).  Returns ``(E, word_count)``,
        bit-identical to ``eid_to_words(pack(...), word_count)``.
        """
        import numpy as np

        n_words = self.word_count
        some = next(iter(columns.values()))
        out = np.zeros((some.shape[0], n_words), dtype=np.uint64)
        for name, (pos, width) in self._offsets.items():
            if width > 64:
                raise ValueError(f"field {name} wider than a word")
            vals = columns[name].astype(np.uint64)
            if width < 64 and np.any(vals >> np.uint64(width)):
                bad = int(vals[np.argmax(vals >> np.uint64(width) != 0)])
                raise ValueError(f"field {name}={bad} does not fit in {width} bits")
            if width == 0:
                continue
            lo = pos % 64
            wi = n_words - 1 - pos // 64
            out[:, wi] |= (vals << np.uint64(lo)) if lo else vals
            if lo and lo + width > 64:
                out[:, wi - 1] |= vals >> np.uint64(64 - lo)
        return out


@dataclass(frozen=True)
class DecodedEid:
    """A validated single-edge identifier, with all Eq. (1)/(5) fields."""

    u: int
    v: int
    anc_u: AncLabel
    anc_v: AncLabel
    port_u: Optional[int] = None  # port at u of the edge (u, v)
    port_v: Optional[int] = None  # port at v of the edge (v, u)
    tlabel_u: Optional[int] = None  # encoded tree-routing label of u
    tlabel_v: Optional[int] = None  # encoded tree-routing label of v
    raw: int = 0  # the packed EID this record was decoded from

    def endpoint_info(self, x: int) -> tuple[AncLabel, Optional[int], Optional[int]]:
        """(ancestry label, outgoing port, tree label) for endpoint ``x``."""
        if x == self.u:
            return self.anc_u, self.port_u, self.tlabel_u
        if x == self.v:
            return self.anc_v, self.port_v, self.tlabel_v
        raise ValueError(f"{x} is not an endpoint")


class ExtendedEdgeIds:
    """Extended edge identifiers for one labeling instance.

    ``routing_fields`` switches between the Eq. (1) layout and the
    Eq. (5) layout.  Tree labels are supplied pre-encoded as integers of
    at most ``tlabel_bits`` bits by the caller (see
    ``repro.trees.tree_routing.TreeRoutingScheme.encoded_label``).
    """

    def __init__(
        self,
        graph: Graph,
        uid_scheme: UidScheme,
        anc_of: Callable[[int], AncLabel],
        port_bits: int = 0,
        tlabel_bits: int = 0,
        tlabel_of: Optional[Callable[[int], int]] = None,
        id_of: Optional[Callable[[int], int]] = None,
        id_space: Optional[int] = None,
        port_fn: Optional[Callable[[int, int], int]] = None,
        anc_arrays: Optional[tuple] = None,
    ):
        """``id_of``/``id_space``/``port_fn`` translate the instance's
        local vertices into globally meaningful ids and ports, so that
        identifiers extracted from sketches are directly routable even
        when the labeling instance lives on a tree-cover cluster.

        ``anc_arrays`` optionally supplies the full-n ``(tin, tout)``
        DFS-interval arrays (``repro.graph.ancestry.stitched_intervals``)
        so batch packing gathers timestamps with two numpy indexes
        instead of one ``anc_of`` call per touched vertex; values must
        agree with ``anc_of`` on every spanned vertex."""
        self.graph = graph
        self.uid_scheme = uid_scheme
        self._anc_of = anc_of
        self._anc_arrays = anc_arrays
        self._identity_ids = id_of is None
        self._id_of = id_of if id_of is not None else (lambda v: v)
        self.id_space = id_space if id_space is not None else graph.n
        self._port_fn = port_fn if port_fn is not None else graph.port_of
        n = graph.n
        time_bits = bits_for_count(2 * n + 1)
        id_bits = bits_for_id(max(self.id_space, 2))
        fields: list[tuple[str, int]] = [
            ("uid", uid_scheme.uid_bits),
            ("id_u", id_bits),
            ("id_v", id_bits),
            ("tin_u", time_bits),
            ("tout_u", time_bits),
            ("tin_v", time_bits),
            ("tout_v", time_bits),
        ]
        self.routing = port_bits > 0
        self.port_bits = port_bits
        self.tlabel_bits = tlabel_bits
        self._tlabel_of = tlabel_of
        if self.routing:
            fields.append(("port_u", port_bits))
            fields.append(("port_v", port_bits))
            fields.append(("tl_u", tlabel_bits))
            fields.append(("tl_v", tlabel_bits))
        self.codec = EidCodec(fields)

    def _field_values(
        self,
        e,
        uid: int,
        ids: Callable[[int], int],
        ancs: Callable[[int], AncLabel],
        tlabels: Optional[Callable[[int], int]],
    ) -> dict[str, int]:
        """The Eq. (1)/(5) field dict of one edge — the single owner of
        the field list shared by :meth:`eid` and :meth:`eid_batch` (the
        per-vertex accessors let batch callers pass cached lookups)."""
        anc_u = ancs(e.u)
        anc_v = ancs(e.v)
        values = {
            "uid": uid,
            "id_u": ids(e.u),
            "id_v": ids(e.v),
            "tin_u": anc_u[0],
            "tout_u": anc_u[1],
            "tin_v": anc_v[0],
            "tout_v": anc_v[1],
        }
        if self.routing:
            values["port_u"] = self._port_fn(e.u, e.v)
            values["port_v"] = self._port_fn(e.v, e.u)
            assert tlabels is not None
            values["tl_u"] = tlabels(e.u)
            values["tl_v"] = tlabels(e.v)
        return values

    def eid(self, edge_index: int) -> int:
        """The packed extended identifier of an edge."""
        e = self.graph.edge(edge_index)
        uid = self.uid_scheme.uid(self._id_of(e.u), self._id_of(e.v))
        return self.codec.pack(
            self._field_values(e, uid, self._id_of, self._anc_of, self._tlabel_of)
        )

    def eid_batch(self, edge_indices: Optional[Iterable[int]] = None) -> list[int]:
        """Packed EIDs for many edges, identical to per-edge :meth:`eid`.

        Per-vertex quantities (identifier-space ids, ancestry labels,
        encoded tree labels) are gathered once instead of once per
        incident edge, and UIDs go through :meth:`UidScheme.uid_batch`;
        only the fixed-width packing stays per edge.
        """
        graph = self.graph
        indices = list(range(graph.m)) if edge_indices is None else list(edge_indices)
        if not indices:
            return []
        edges = [graph.edge(ei) for ei in indices]
        used = sorted({v for e in edges for v in (e.u, e.v)})
        ids = {v: self._id_of(v) for v in used}
        ancs = {v: self._anc_of(v) for v in used}
        tlabels = None
        if self.routing:
            assert self._tlabel_of is not None
            tlabels = {v: self._tlabel_of(v) for v in used}
            tl_get = tlabels.__getitem__
        else:
            tl_get = None
        uids = self.uid_scheme.uid_batch((ids[e.u], ids[e.v]) for e in edges)
        pack = self.codec.pack
        ids_get, ancs_get = ids.__getitem__, ancs.__getitem__
        return [
            pack(self._field_values(e, uid, ids_get, ancs_get, tl_get))
            for e, uid in zip(edges, uids)
        ]

    @property
    def word_batchable(self) -> bool:
        """True when every EID field fits one 64-bit word, i.e. the
        vectorized column packer of :meth:`eid_words_batch` applies.
        Callers that also want the Python-int EIDs should check this
        and use :meth:`eid_batch` directly when it is False, avoiding a
        pack/unpack round trip through the word matrix."""
        return self.uid_scheme.uid_bits <= 64 and not (
            self.routing and self.tlabel_bits > 64
        )

    def eid_words_batch(self, edge_indices: Optional[Iterable[int]] = None):
        """Packed EIDs as a ``(E, word_count)`` uint64 word matrix.

        The fast path packs every field with vectorized word shifts
        (:meth:`EidCodec.pack_words_batch`); layouts with an oversized
        routing tree-label field fall back to the per-edge packer.  Rows
        equal ``eid_to_words(self.eid(ei), word_count)`` either way.
        """
        import numpy as np

        from repro.sketches.sketch import eids_to_word_matrix

        graph = self.graph
        indices = list(range(graph.m)) if edge_indices is None else list(edge_indices)
        n_words = self.codec.word_count
        if not indices:
            return np.zeros((0, n_words), dtype=np.uint64)
        if not self.word_batchable:
            return eids_to_word_matrix(self.eid_batch(indices), n_words)
        csr = graph.as_csr()
        idx = np.asarray(indices, dtype=np.int64)
        eu = csr.edge_u[idx]
        ev = csr.edge_v[idx]
        # Per-vertex quantities gathered once; vertices never touched by
        # an edge are skipped (they may carry no ancestry label).
        n = graph.n
        touched = np.zeros(n, dtype=bool)
        touched[eu] = True
        touched[ev] = True
        if self._identity_ids:
            # Identity mapping: every gather below reads ids[v] = v, so
            # one arange replaces the per-vertex Python loop (untouched
            # entries are never read either way).
            ids = np.arange(n, dtype=np.uint64)
        else:
            ids = np.zeros(n, dtype=np.uint64)
            id_of = self._id_of
            for v in np.flatnonzero(touched).tolist():
                ids[v] = id_of(v)
        if self._anc_arrays is not None:
            tin = self._anc_arrays[0].astype(np.uint64)
            tout = self._anc_arrays[1].astype(np.uint64)
        else:
            tin = np.zeros(n, dtype=np.uint64)
            tout = np.zeros(n, dtype=np.uint64)
            anc_of = self._anc_of
            for v in np.flatnonzero(touched).tolist():
                a = anc_of(v)
                tin[v] = a[0]
                tout[v] = a[1]
        gu = ids[eu].tolist()
        gv = ids[ev].tolist()
        cols = {
            "uid": np.array(
                self.uid_scheme.uid_batch(zip(gu, gv)), dtype=np.uint64
            ),
            "id_u": ids[eu],
            "id_v": ids[ev],
            "tin_u": tin[eu],
            "tout_u": tout[eu],
            "tin_v": tin[ev],
            "tout_v": tout[ev],
        }
        if self.routing:
            assert self._tlabel_of is not None
            tlabels = np.zeros(n, dtype=np.uint64)
            for v in np.flatnonzero(touched).tolist():
                tlabels[v] = self._tlabel_of(v)
            port_fn = self._port_fn
            ul, vl = eu.tolist(), ev.tolist()
            cols["port_u"] = np.array(
                [port_fn(u, v) for u, v in zip(ul, vl)], dtype=np.uint64
            )
            cols["port_v"] = np.array(
                [port_fn(v, u) for u, v in zip(ul, vl)], dtype=np.uint64
            )
            cols["tl_u"] = tlabels[eu]
            cols["tl_v"] = tlabels[ev]
        return self.codec.pack_words_batch(cols)

    def try_decode_words(
        self, words: "np.ndarray"
    ) -> tuple["np.ndarray", dict[int, DecodedEid]]:
        """Vectorized Lemma 3.10 over a ``(N, word_count)`` candidate matrix.

        Returns ``(valid, decoded)``: ``valid[i]`` iff row ``i`` is a
        single-edge EID (same test as :meth:`try_decode`), ``decoded``
        holding a :class:`DecodedEid` for every valid row.  Only two
        columns are sliced, as array ops: ``uid``, and ``id_u``/``id_v``
        as one adjacent pair (a field wider than a word raises
        ``ValueError``), so routing layouts whose tree-label fields
        exceed 64 bits validate in batch too — the wide fields are read
        only for the rows that pass.  One pass over the id pairs applies
        the id-range test and groups the plausible rows by unordered
        endpoint pair, so each distinct pair pays one (batched) PRF
        evaluation however many candidate rows carry it, and every row
        :meth:`try_decode` would test is tested.  Only valid rows
        materialize Python objects — that ratio is what makes the
        batched Boruvka decoder fast.
        """
        import numpy as np

        from repro.sketches.sketch import words_to_eid

        n_rows = words.shape[0]
        valid = np.zeros(n_rows, dtype=bool)
        decoded: dict[int, DecodedEid] = {}
        if n_rows == 0:
            return valid, decoded
        codec = self.codec
        pos, id_bits = codec._offsets["id_v"]
        # id_u sits right above id_v: one column holds both ids
        ids = codec.column(words, pos, 2 * id_bits).tolist()
        uids = codec.column(words, *codec._offsets["uid"]).tolist()
        id_mask = (1 << id_bits) - 1
        id_space = self.id_space
        # unordered endpoint pair (u < v), keyed u * id_space + v -> slot
        slot: dict[int, int] = {}
        rows: list[int] = []
        slots: list[int] = []
        for row, x in enumerate(ids):
            u = x >> id_bits
            v = x & id_mask
            # a zero row has u == v == 0
            if u < id_space and v < id_space and u != v:
                rows.append(row)
                key = u * id_space + v if u < v else v * id_space + u
                slots.append(slot.setdefault(key, len(slot)))
        if not rows:
            return valid, decoded
        expected = self.uid_scheme.uid_batch(divmod(key, id_space) for key in slot)
        unpack = codec.unpack
        for row, k in zip(rows, slots):
            if expected[k] == uids[row]:
                valid[row] = True
                eid = words_to_eid(words[row])
                decoded[row] = self._decoded(eid, unpack(eid))
        return valid, decoded

    def try_decode(self, candidate: int) -> Optional[DecodedEid]:
        """Lemma 3.10: decide whether ``candidate`` is a single-edge EID.

        Returns the decoded fields when the UID validates against the
        decoded endpoint ids (w.h.p. exactly the single-edge case), else
        ``None``.
        """
        if candidate == 0:
            return None
        fields = self.codec.unpack(candidate)
        u, v = fields["id_u"], fields["id_v"]
        if u >= self.id_space or v >= self.id_space or u == v:
            return None
        if not self.uid_scheme.matches(fields["uid"], u, v):
            return None
        return self._decoded(candidate, fields)

    def decode_issued(self, eid: int) -> DecodedEid:
        """The fields of an EID this instance issued (a stored edge's).

        Its uid is the PRF of its own endpoint ids by construction, so
        :meth:`try_decode` would accept it: the batched decoder uses
        this for rows it has already matched word for word against a
        stored edge.
        """
        return self._decoded(eid, self.codec.unpack(eid))

    @staticmethod
    def _decoded(candidate: int, fields: dict[str, int]) -> DecodedEid:
        """The :class:`DecodedEid` of a validated candidate's fields."""
        return DecodedEid(
            u=fields["id_u"],
            v=fields["id_v"],
            anc_u=(fields["tin_u"], fields["tout_u"]),
            anc_v=(fields["tin_v"], fields["tout_v"]),
            port_u=fields.get("port_u"),
            port_v=fields.get("port_v"),
            tlabel_u=fields.get("tl_u"),
            tlabel_v=fields.get("tl_v"),
            raw=candidate,
        )

    @property
    def total_bits(self) -> int:
        return self.codec.total_bits
