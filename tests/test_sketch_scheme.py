"""Tests for the Section 3.2 sketch-based FT connectivity scheme."""

import random

import pytest
from hypothesis import given, settings

from repro.core.sketch_scheme import SketchConnectivityScheme
from repro.graph import generators
from repro.oracles import ConnectivityOracle
from repro.serving.partition_cache import PartitionCache
from tests.conftest import graphs_with_queries, random_fault_sets


class TestDecodeCorrectness:
    @settings(max_examples=30, deadline=None)
    @given(graphs_with_queries(max_faults=4, max_n=16))
    def test_matches_oracle(self, data):
        g, s, t, faults = data
        scheme = SketchConnectivityScheme(g, seed=5)
        oracle = ConnectivityOracle(g)
        res = scheme.query(s, t, faults)
        assert res.connected == oracle.connected(s, t, faults)

    def test_many_random_queries_large_faults(self):
        """The sketch scheme supports any |F| (labels independent of f)."""
        g = generators.random_connected_graph(48, extra_edges=60, seed=8)
        scheme = SketchConnectivityScheme(g, seed=2)
        oracle = ConnectivityOracle(g)
        rnd = random.Random(77)
        for faults in random_fault_sets(g, 60, 10, seed=66):
            s, t = rnd.sample(range(g.n), 2)
            res = scheme.query(s, t, faults)
            assert res.connected == oracle.connected(s, t, faults)

    def test_ring_of_cliques_bridge_faults(self):
        """Single-edge cuts everywhere — the adversarial family."""
        g = generators.ring_of_cliques(5, 4)
        scheme = SketchConnectivityScheme(g, seed=4)
        oracle = ConnectivityOracle(g)
        bridges = [
            e.index
            for e in g.edges
            if e.u // 4 != e.v // 4  # the ring edges
        ]
        assert len(bridges) == 5
        # Fail two ring edges: the ring splits in two arcs.
        for i in range(5):
            F = [bridges[i], bridges[(i + 2) % 5]]
            for s in (0, 4, 8, 12, 16):
                for t in (0, 4, 8, 12, 16):
                    res = scheme.query(s, t, F)
                    assert res.connected == oracle.connected(s, t, F)

    def test_s_equals_t(self, small_connected):
        scheme = SketchConnectivityScheme(small_connected, seed=1)
        res = scheme.query(3, 3, [0, 1])
        assert res.connected
        assert res.path is not None and res.path.segments == ()

    def test_disconnected_components(self):
        from repro.graph.graph import Graph

        g = Graph(7)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(3, 4)
        g.add_edge(4, 5)
        g.add_edge(5, 6)
        scheme = SketchConnectivityScheme(g, seed=3)
        assert not scheme.query(0, 4, []).connected
        assert scheme.query(3, 6, []).connected
        assert not scheme.query(3, 6, [2]).connected

    def test_duplicate_fault_labels(self):
        g = generators.cycle_graph(10)
        scheme = SketchConnectivityScheme(g, seed=6)
        oracle = ConnectivityOracle(g)
        assert (
            scheme.query(0, 5, [0, 0, 5, 5]).connected
            == oracle.connected(0, 5, [0, 5])
        )

    @pytest.mark.parametrize("bad", [-1, "m"])
    def test_out_of_range_fault_ids_rejected(self, bad):
        """An edge id outside 0..m-1 is an error, never a real edge.

        Python list indexing would wrap -1 onto the path's last edge and
        cut it; id m would raise a bare IndexError.
        """
        g = generators.grid_graph(1, 8)
        ei = g.m if bad == "m" else bad
        fast = SketchConnectivityScheme(g, seed=3)
        ref = SketchConnectivityScheme(g, seed=3, engine="reference")
        calls = [
            lambda: fast.query_many([(0, 7)], [ei]),
            lambda: fast.query_many([(0, 7)], [[ei]]),
            lambda: fast.query(0, 7, [ei]),
            lambda: fast.decode_partition([ei]),
            lambda: PartitionCache(fast).query_many([(0, 7)], [ei]),
            lambda: ref.query(0, 7, [ei]),
            lambda: ref.query_many([(0, 7)], [ei]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="out of range"):
                call()
        assert fast.query(0, 7, [g.m - 1]).connected is False


class TestPathOutput:
    def _check_path(self, g, scheme, s, t, faults):
        res = scheme.query(s, t, faults)
        if not res.connected:
            return False
        path = res.path
        assert path is not None
        tree = scheme.trees[scheme.comp_of[s]]
        vertices = path.expand(g, tree)
        assert vertices[0] == s and vertices[-1] == t
        fset = set(faults)
        for a, b in zip(vertices, vertices[1:]):
            ei = g.edge_index_between(a, b)
            assert ei is not None
            assert ei not in fset
        return True

    def test_paths_avoid_faults(self):
        """Lemma 3.17: the succinct path expands to a real fault-free walk."""
        rnd = random.Random(3)
        g = generators.random_connected_graph(36, extra_edges=50, seed=10)
        scheme = SketchConnectivityScheme(g, seed=9)
        connected_count = 0
        for faults in random_fault_sets(g, 80, 6, seed=30):
            s, t = rnd.sample(range(g.n), 2)
            if self._check_path(g, scheme, s, t, faults):
                connected_count += 1
        assert connected_count > 40

    def test_path_has_at_most_f_recovery_edges(self):
        rnd = random.Random(4)
        g = generators.random_connected_graph(30, extra_edges=40, seed=11)
        scheme = SketchConnectivityScheme(g, seed=12)
        for faults in random_fault_sets(g, 60, 5, seed=31):
            s, t = rnd.sample(range(g.n), 2)
            res = scheme.query(s, t, faults)
            if res.connected:
                assert len(res.path.recovery_edges()) <= len(faults)

    def test_recovery_edges_are_non_tree_surviving_edges(self):
        rnd = random.Random(5)
        g = generators.random_connected_graph(30, extra_edges=40, seed=13)
        scheme = SketchConnectivityScheme(g, seed=14)
        tree = scheme.trees[0]
        for faults in random_fault_sets(g, 60, 5, seed=32):
            s, t = rnd.sample(range(g.n), 2)
            res = scheme.query(s, t, faults)
            if not res.connected:
                continue
            for x, y in res.path.recovery_edges():
                ei = g.edge_index_between(x, y)
                assert ei not in set(faults)
                assert not tree.is_tree_edge(ei)


class TestCopies:
    def test_all_copies_decode_correctly(self):
        g = generators.random_connected_graph(28, extra_edges=36, seed=15)
        scheme = SketchConnectivityScheme(g, seed=16, copies=3)
        oracle = ConnectivityOracle(g)
        rnd = random.Random(8)
        for faults in random_fault_sets(g, 30, 4, seed=33):
            s, t = rnd.sample(range(g.n), 2)
            expected = oracle.connected(s, t, faults)
            for copy in range(3):
                assert scheme.query(s, t, faults, copy=copy).connected == expected

    def test_copies_share_eids(self):
        g = generators.random_connected_graph(20, extra_edges=20, seed=17)
        scheme = SketchConnectivityScheme(g, seed=18, copies=2)
        # The EID is the same in all copies (shared S_ID), Section 5.2.
        lab = scheme.edge_label(0)
        assert len(lab.context.sketchers) == 2
        assert lab.eid == scheme.edge_label(0).eid

    def test_rejects_zero_copies(self):
        import pytest

        with pytest.raises(ValueError):
            SketchConnectivityScheme(generators.cycle_graph(4), copies=0)


class TestSizes:
    def test_edge_label_bits_independent_of_fault_count(self):
        """Theorem 3.7: the label length does not depend on f."""
        g = generators.random_connected_graph(40, extra_edges=50, seed=19)
        scheme = SketchConnectivityScheme(g, seed=20)
        bits = scheme.max_edge_label_bits()
        assert bits > 0  # sketches dominate
        # Tree edges carry sketches, non-tree only EIDs.
        tree = scheme.trees[0]
        tree_edge = next(iter(tree.tree_edge_indices))
        non_tree = next(
            e.index for e in g.edges if not tree.is_tree_edge(e.index)
        )
        assert (
            scheme.edge_label(tree_edge).bit_length()
            > 50 * scheme.edge_label(non_tree).bit_length()
        )

    def test_vertex_label_is_small(self):
        g = generators.random_connected_graph(64, extra_edges=64, seed=21)
        scheme = SketchConnectivityScheme(g, seed=22)
        assert scheme.max_vertex_label_bits() < 100

    def test_phases_used_reported(self):
        g = generators.ring_of_cliques(4, 3)
        scheme = SketchConnectivityScheme(g, seed=23)
        ring = [e.index for e in g.edges if e.u // 3 != e.v // 3]
        res = scheme.query(0, 6, ring[:1] + ring[2:3])
        assert res.phases_used >= 1
