"""Tests for the AGM-style linear graph sketches (Section 3.2.1)."""

import numpy as np

from repro.graph import generators
from repro.graph.ancestry import AncestryLabeling
from repro.graph.spanning_tree import RootedTree
from repro.sketches.edge_ids import ExtendedEdgeIds, UidScheme
from repro.sketches.hashing import PairwiseHashFamily
from repro.sketches.sketch import (
    SketchDims,
    VertexSketches,
    edge_key,
    eid_to_words,
    words_to_eid,
)


def _setup(n=24, extra=28, seed=3, units=14):
    g = generators.random_connected_graph(n, extra_edges=extra, seed=seed)
    tree = RootedTree.bfs(g, root=0)
    anc = AncestryLabeling(tree)
    eids = ExtendedEdgeIds(g, UidScheme(seed=seed + 1), anc.label)
    import math

    levels = max(1, math.ceil(math.log2(max(g.m, 2)))) + 1
    words = (eids.total_bits + 63) // 64
    dims = SketchDims(units=units, levels=levels, words=words)
    fam = PairwiseHashFamily(units, levels - 1, seed=seed + 2)
    vs = VertexSketches(g, dims, fam)
    cache = [eids.eid(i) for i in range(g.m)]
    arr = vs.build(lambda ei: cache[ei])
    return g, tree, eids, vs, arr, cache


class TestWordCodec:
    def test_roundtrip(self):
        for value in (0, 1, 1 << 64, (1 << 200) - 12345):
            assert words_to_eid(eid_to_words(value, 4)) == value

    def test_edge_key_canonical(self):
        assert edge_key(10, 7, 3) == edge_key(10, 3, 7) == 37


class TestSampling:
    def test_level_zero_contains_all_edges(self):
        g, _, _, vs, _, _ = _setup()
        for e in g.edges:
            mask = vs.membership_mask(e.u, e.v)
            assert mask[:, 0].all()

    def test_membership_is_prefix_closed(self):
        """e in E_{i,j} implies e in E_{i,j'} for j' < j (nested sampling)."""
        g, _, _, vs, _, _ = _setup()
        for e in g.edges[:20]:
            mask = vs.membership_mask(e.u, e.v)
            for i in range(mask.shape[0]):
                row = mask[i]
                # After the first False, everything is False.
                seen_false = False
                for val in row:
                    if seen_false:
                        assert not val
                    seen_false = seen_false or not val

    def test_sampling_rate_halves_per_level(self):
        g, _, _, vs, _, _ = _setup(n=60, extra=240, seed=9, units=10)
        counts = np.zeros(vs.dims.levels)
        for e in g.edges:
            counts += vs.membership_mask(e.u, e.v).sum(axis=0)
        # Level j should hold about units * m * 2^-j edges.
        total0 = counts[0]
        assert counts[1] < 0.75 * total0
        assert counts[2] < 0.45 * total0


class TestLinearity:
    def test_vertex_set_sketch_cancels_internal_edges(self):
        """The sketch of S only contains edges of the cut (S, V-S)."""
        g, tree, eids, vs, arr, cache = _setup()
        subtree = tree.subtree_vertices(tree.children[0][0])
        sketch = VertexSketches.xor_rows(arr, subtree)
        sset = set(subtree)
        outgoing = [
            e.index for e in g.edges if (e.u in sset) != (e.v in sset)
        ]
        # Rebuild the expected sketch from the outgoing edges directly.
        expected = vs.dims.zeros()
        for ei in outgoing:
            e = g.edge(ei)
            mask = vs.membership_mask(e.u, e.v)
            ew = eid_to_words(cache[ei], vs.dims.words)
            expected ^= np.where(mask[:, :, None], ew[None, None, :], np.uint64(0))
        assert (sketch == expected).all()

    def test_whole_graph_sketch_is_zero(self):
        _, _, _, _, arr, _ = _setup()
        total = VertexSketches.xor_rows(arr, list(range(arr.shape[0])))
        assert not total.any()

    def test_aggregate_subtrees(self):
        g, tree, _, vs, arr, _ = _setup()
        agg = VertexSketches.aggregate_subtrees(tree, arr)
        for v in [0, 1, 5, 9]:
            manual = VertexSketches.xor_rows(arr, tree.subtree_vertices(v))
            assert (agg[v] == manual).all()

    def test_cancel_edge_removes_contribution(self):
        g, tree, eids, vs, arr, cache = _setup()
        subtree = tree.subtree_vertices(tree.children[0][0])
        sset = set(subtree)
        sketch = VertexSketches.xor_rows(arr, subtree)
        outgoing = [e.index for e in g.edges if (e.u in sset) != (e.v in sset)]
        for ei in outgoing:
            e = g.edge(ei)
            vs.cancel_edge(sketch, e.u, e.v, cache[ei])
        assert not sketch.any()


class TestExtraction:
    def test_single_outgoing_edge_recovered(self):
        """Lemma 3.13 in the deterministic case: one outgoing edge."""
        # A degree-1 vertex's sketch holds its one edge: this instance
        # has two of them (vertices 8 and 16).
        g, tree, eids, vs, arr, cache = _setup(n=20, extra=10, seed=1)
        leaf = next((v for v in g.vertices() if g.degree(v) == 1), None)
        assert leaf is not None, "the instance has no degree-1 vertex"
        sketch = VertexSketches.xor_rows(arr, [leaf])
        found = 0
        for unit in range(vs.dims.units):
            d = VertexSketches.extract_outgoing(sketch, unit, eids)
            if d is not None:
                assert leaf in (d.u, d.v)
                found += 1
        assert found >= 1

    def test_extraction_from_cut_returns_cut_edge(self):
        g, tree, eids, vs, arr, cache = _setup(n=30, extra=40, seed=6)
        child = tree.children[0][0]
        subtree = tree.subtree_vertices(child)
        sset = set(subtree)
        sketch = VertexSketches.xor_rows(arr, subtree)
        outgoing = {
            frozenset((e.u, e.v))
            for e in g.edges
            if (e.u in sset) != (e.v in sset)
        }
        hits = 0
        for unit in range(vs.dims.units):
            d = VertexSketches.extract_outgoing(sketch, unit, eids)
            if d is not None:
                assert frozenset((d.u, d.v)) in outgoing
                hits += 1
        # With Theta(log n) units, a constant fraction succeed.
        assert hits >= 2

    def test_empty_set_yields_nothing(self):
        g, tree, eids, vs, arr, _ = _setup()
        zero = vs.dims.zeros()
        for unit in range(vs.dims.units):
            assert VertexSketches.extract_outgoing(zero, unit, eids) is None

    def test_dims_accounting(self):
        dims = SketchDims(units=5, levels=7, words=3)
        assert dims.cell_count() == 35
        assert dims.bit_length() == 35 * 3 * 64
        assert dims.zeros().shape == (5, 7, 3)
