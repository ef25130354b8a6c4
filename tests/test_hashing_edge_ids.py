"""Tests for pairwise-independent hashing and extended edge identifiers."""

import numpy as np
import pytest

from repro.graph import generators
from repro.graph.ancestry import AncestryLabeling
from repro.graph.spanning_tree import RootedTree
from repro.sketches.edge_ids import EidCodec, ExtendedEdgeIds, UidScheme
from repro.sketches.hashing import MERSENNE_P, PairwiseHashFamily


class TestPairwiseHashFamily:
    def test_values_in_range(self):
        fam = PairwiseHashFamily(8, out_bits=10, seed=3)
        for i in range(8):
            for x in (0, 1, 12345, MERSENNE_P - 1):
                assert 0 <= fam.value(i, x) < (1 << 10)

    def test_all_values_matches_value(self):
        fam = PairwiseHashFamily(6, out_bits=12, seed=5)
        for x in (0, 7, 991, 100_000):
            vec = fam.all_values(x)
            assert list(vec) == [fam.value(i, x) for i in range(6)]

    def test_deterministic_per_seed(self):
        a = PairwiseHashFamily(4, 8, seed=1)
        b = PairwiseHashFamily(4, 8, seed=1)
        c = PairwiseHashFamily(4, 8, seed=2)
        assert a.value(0, 99) == b.value(0, 99)
        assert any(a.value(i, 99) != c.value(i, 99) for i in range(4))

    def test_distribution_roughly_uniform(self):
        fam = PairwiseHashFamily(1, out_bits=1, seed=9)
        ones = sum(fam.value(0, x) for x in range(2000))
        assert 800 < ones < 1200  # a fair coin over keys

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PairwiseHashFamily(0, 8, seed=1)
        with pytest.raises(ValueError):
            PairwiseHashFamily(4, 0, seed=1)
        with pytest.raises(ValueError):
            PairwiseHashFamily(4, 32, seed=1)

    def test_key_out_of_range_rejected(self):
        fam = PairwiseHashFamily(2, 8, seed=1)
        with pytest.raises(ValueError):
            fam.value(0, MERSENNE_P)

    def test_seed_bits_accounting(self):
        fam = PairwiseHashFamily(10, 8, seed=1)
        assert fam.seed_bits() == 10 * 62


class TestUidScheme:
    def test_order_insensitive(self):
        uid = UidScheme(seed=7)
        assert uid.uid(3, 9) == uid.uid(9, 3)

    def test_distinct_edges_distinct_uids(self):
        uid = UidScheme(seed=7)
        seen = {uid.uid(u, v) for u in range(30) for v in range(u + 1, 30)}
        assert len(seen) == 30 * 29 // 2  # no collisions at this scale

    def test_matches_validates_only_own_edge(self):
        uid = UidScheme(seed=7)
        value = uid.uid(2, 5)
        assert uid.matches(value, 2, 5)
        assert uid.matches(value, 5, 2)
        assert not uid.matches(value, 2, 6)

    def test_xor_of_two_uids_is_invalid(self):
        """Lemma 3.8: the XOR of >= 2 UIDs does not validate (w.h.p.)."""
        uid = UidScheme(seed=11)
        pairs = [(u, v) for u in range(20) for v in range(u + 1, 20)]
        for (a, b), (c, d) in zip(pairs, pairs[7:]):
            x = uid.uid(a, b) ^ uid.uid(c, d)
            for (p, q) in [(a, b), (c, d), (a, c)]:
                assert not uid.matches(x, p, q)


class TestEidCodec:
    def test_pack_unpack_roundtrip(self):
        codec = EidCodec([("a", 5), ("b", 12), ("c", 1)])
        values = {"a": 19, "b": 4000, "c": 1}
        assert codec.unpack(codec.pack(values)) == values
        assert codec.total_bits == 18

    def test_overflowing_field_rejected(self):
        codec = EidCodec([("a", 3)])
        with pytest.raises(ValueError):
            codec.pack({"a": 8})


class TestExtendedEdgeIds:
    def _make(self, routing=False):
        g = generators.random_connected_graph(20, extra_edges=20, seed=5)
        tree = RootedTree.bfs(g, root=0)
        anc = AncestryLabeling(tree)
        uid = UidScheme(seed=3)
        if routing:
            eids = ExtendedEdgeIds(
                g,
                uid,
                anc.label,
                port_bits=8,
                tlabel_bits=16,
                tlabel_of=lambda v: v * 2 + 1,
            )
        else:
            eids = ExtendedEdgeIds(g, uid, anc.label)
        return g, tree, anc, eids

    def test_eid_decodes_to_own_edge(self):
        g, _, anc, eids = self._make()
        for e in g.edges:
            d = eids.try_decode(eids.eid(e.index))
            assert d is not None
            assert {d.u, d.v} == {e.u, e.v}
            assert d.anc_u == anc.label(d.u)
            assert d.anc_v == anc.label(d.v)

    def test_routing_fields_roundtrip(self):
        g, _, _, eids = self._make(routing=True)
        for e in g.edges:
            d = eids.try_decode(eids.eid(e.index))
            x, y = d.u, d.v
            assert g.via_port(x, d.port_u)[0] == y
            assert g.via_port(y, d.port_v)[0] == x
            assert d.tlabel_u == x * 2 + 1
            assert d.tlabel_v == y * 2 + 1

    def test_xor_of_two_eids_rejected(self):
        g, _, _, eids = self._make()
        a = eids.eid(0)
        b = eids.eid(1)
        assert eids.try_decode(a ^ b) is None

    def test_zero_rejected(self):
        _, _, _, eids = self._make()
        assert eids.try_decode(0) is None

    def test_endpoint_info(self):
        g, _, _, eids = self._make(routing=True)
        d = eids.try_decode(eids.eid(0))
        anc_u, port_u, tl_u = d.endpoint_info(d.u)
        assert (anc_u, port_u, tl_u) == (d.anc_u, d.port_u, d.tlabel_u)
        with pytest.raises(ValueError):
            d.endpoint_info(10_000)

    def test_id_overrides(self):
        """Local instances embed global ids/ports via the hooks."""
        g = generators.grid_graph(3, 3)
        sub = g.induced_subgraph([0, 1, 3, 4])
        tree = RootedTree.bfs(sub.graph, root=0)
        anc = AncestryLabeling(tree)
        to_parent = sub.vertex_to_parent
        eids = ExtendedEdgeIds(
            sub.graph,
            UidScheme(seed=2),
            anc.label,
            id_of=lambda lv: to_parent[lv],
            id_space=g.n,
            port_bits=6,
            tlabel_bits=4,
            tlabel_of=lambda lv: lv,
            port_fn=lambda lu, lv: g.port_of(to_parent[lu], to_parent[lv]),
        )
        for le in range(sub.graph.m):
            d = eids.try_decode(eids.eid(le))
            assert d is not None
            e = g.edge(sub.edge_to_parent[le])
            assert {d.u, d.v} == {e.u, e.v}  # global ids embedded
            assert g.via_port(d.u, d.port_u)[0] == d.v  # global ports


class TestTryDecodeWords:
    """The batched Lemma 3.10 validator equals the scalar one row by row."""

    @staticmethod
    def _make(routing: bool):
        g = generators.random_connected_graph(20, extra_edges=20, seed=5)
        tree = RootedTree.bfs(g, root=0)
        anc = AncestryLabeling(tree)
        if not routing:
            return g, ExtendedEdgeIds(g, UidScheme(seed=3), anc.label)
        # Tree-label fields wider than a word, as in routing mode.
        return g, ExtendedEdgeIds(
            g,
            UidScheme(seed=3),
            anc.label,
            port_bits=8,
            tlabel_bits=100,
            tlabel_of=lambda v: (v + 1) << 80 | v,
        )

    @staticmethod
    def _rows(g, eids) -> list[int]:
        real = [eids.eid(ei) for ei in range(g.m)]
        rows = [0, 0] + real
        rows += [real[i] ^ real[i + 1] for i in range(0, g.m - 1, 2)]
        rows += [real[i] ^ real[i + 3] ^ real[i + 7] for i in range(g.m - 7)]
        codec, uid = eids.codec, eids.uid_scheme
        base = codec.unpack(real[0])
        big = (1 << dict(codec.fields)["id_u"]) - 1
        assert big >= eids.id_space
        for u, v in [(big, 1), (2, big), (4, 4), (0, 0)]:
            # correct uid for the pair: only the id checks can reject it
            rows.append(codec.pack({**base, "id_u": u, "id_v": v, "uid": uid.uid(u, v)}))
        # same endpoint pair as a real row, wrong uid: one PRF serves both
        rows.append(real[0] ^ 1 << (codec.total_bits - 1))
        rows += real[:3]  # repeated rows
        return rows

    @pytest.mark.parametrize("routing", [False, True], ids=["connectivity", "routing"])
    def test_matches_scalar_try_decode(self, routing, monkeypatch):
        from repro.sketches.sketch import eids_to_word_matrix

        g, eids = self._make(routing)
        if routing:
            assert eids.tlabel_bits > 64 and not eids.word_batchable
        rows = self._rows(g, eids)
        expected = [eids.try_decode(r) for r in rows]
        assert sum(d is not None for d in expected) == g.m + 3
        words = eids_to_word_matrix(rows, eids.codec.word_count)

        def scalar(_candidate):  # the batch path must not fall back to it
            raise AssertionError("per-row scalar decode")

        monkeypatch.setattr(eids, "try_decode", scalar)
        valid, decoded = eids.try_decode_words(words)
        assert valid.tolist() == [d is not None for d in expected]
        assert sorted(decoded) == [i for i, d in enumerate(expected) if d is not None]
        for i, d in decoded.items():
            assert d == expected[i]
        empty_valid, empty = eids.try_decode_words(words[:0])
        assert empty_valid.shape == (0,) and empty == {}
