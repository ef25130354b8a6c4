"""Tests for connected components and the exact oracles, cross-checked
against networkx (an independent implementation)."""

import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.graph import generators
from repro.graph.components import connected_components, is_connected
from repro.oracles import ConnectivityOracle, DistanceOracle
from repro.oracles.distances import shortest_path, shortest_path_distance
from tests.conftest import graphs_with_queries


def _to_nx(g, faults=()):
    skip = set(faults)
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    for e in g.edges:
        if e.index not in skip:
            h.add_edge(e.u, e.v, weight=e.weight)
    return h


class TestComponents:
    @settings(max_examples=30, deadline=None)
    @given(graphs_with_queries(max_faults=5))
    def test_component_count_matches_networkx(self, data):
        g, _, _, faults = data
        labels, count = connected_components(g, faults)
        assert count == nx.number_connected_components(_to_nx(g, faults))
        assert len(set(labels)) == count

    def test_component_labels_are_consistent(self):
        g = generators.cycle_graph(8)
        labels, count = connected_components(g, [0, 4])
        assert count == 2
        for e in g.edges:
            if e.index not in (0, 4):
                assert labels[e.u] == labels[e.v]

    def test_is_connected_trivial(self):
        from repro.graph.graph import Graph

        assert is_connected(Graph(0))
        assert is_connected(Graph(1))
        assert not is_connected(Graph(2))


class TestConnectivityOracle:
    @settings(max_examples=30, deadline=None)
    @given(graphs_with_queries(max_faults=5))
    def test_matches_networkx(self, data):
        g, s, t, faults = data
        oracle = ConnectivityOracle(g)
        expected = nx.has_path(_to_nx(g, faults), s, t)
        assert oracle.connected(s, t, faults) == expected

    def test_component_of(self, small_connected):
        oracle = ConnectivityOracle(small_connected)
        comp = oracle.component_of(0)
        assert comp == set(range(small_connected.n))

    def test_is_induced_edge_cut_positive(self):
        g = generators.grid_graph(3, 3)
        # delta(S) for S = left column {0, 3, 6}.
        s_side = {0, 3, 6}
        cut = [
            e.index
            for e in g.edges
            if (e.u in s_side) != (e.v in s_side)
        ]
        assert ConnectivityOracle(g).is_induced_edge_cut(cut)

    def test_is_induced_edge_cut_negative(self):
        g = generators.grid_graph(3, 3)
        # A single internal edge of a cycle is not an induced cut.
        assert not ConnectivityOracle(g).is_induced_edge_cut([0])

    def test_empty_set_is_induced_cut(self, small_connected):
        assert ConnectivityOracle(small_connected).is_induced_edge_cut([])

    @pytest.mark.parametrize("bad", [-1, "m"])
    def test_out_of_range_fault_ids_rejected(self, bad):
        """Both query methods reject an id outside 0..m-1 alike (the
        batched one used to wrap -1 onto the last edge, the scalar one
        to ignore it)."""
        g = generators.grid_graph(1, 8)
        ei = g.m if bad == "m" else bad
        oracle = ConnectivityOracle(g)
        with pytest.raises(ValueError, match="out of range"):
            oracle.connected(0, 7, [ei])
        with pytest.raises(ValueError, match="out of range"):
            oracle.connected(3, 3, [ei])
        with pytest.raises(ValueError, match="out of range"):
            oracle.connected_many([(0, 7)], [ei])
        with pytest.raises(ValueError, match="out of range"):
            oracle.connected_many([(0, 7)], [[ei]])
        assert oracle.connected_many([(0, 7)], [g.m - 1]) == [False]

    def test_random_cuts_verified_both_ways(self):
        rnd = random.Random(11)
        g = generators.random_connected_graph(16, extra_edges=20, seed=5)
        oracle = ConnectivityOracle(g)
        for _ in range(20):
            side = {v for v in range(g.n) if rnd.random() < 0.5}
            cut = [
                e.index for e in g.edges if (e.u in side) != (e.v in side)
            ]
            assert oracle.is_induced_edge_cut(cut)


class TestDistanceOracle:
    @settings(max_examples=30, deadline=None)
    @given(graphs_with_queries(max_faults=4))
    def test_distance_matches_networkx(self, data):
        g, s, t, faults = data
        h = _to_nx(g, faults)
        try:
            expected = nx.dijkstra_path_length(h, s, t)
        except nx.NetworkXNoPath:
            expected = math.inf
        got = shortest_path_distance(g, s, t, faults)
        assert got == pytest.approx(expected)

    def test_path_is_consistent_with_distance(self, weighted_graph):
        g = weighted_graph
        for s, t in [(0, 5), (3, 17), (1, 30)]:
            p = shortest_path(g, s, t)
            d = shortest_path_distance(g, s, t)
            total = 0.0
            for a, b in zip(p, p[1:]):
                total += g.weight(g.edge_index_between(a, b))
            assert total == pytest.approx(d)

    def test_path_none_when_disconnected(self):
        g = generators.cycle_graph(6)
        assert shortest_path(g, 0, 3, faults=[0, 3]) is None

    def test_ball(self, grid_6x6):
        oracle = DistanceOracle(grid_6x6)
        ball = oracle.ball(0, 2.0)
        assert set(ball) == {0, 1, 2, 6, 7, 12}

    def test_eccentricity(self, grid_6x6):
        oracle = DistanceOracle(grid_6x6)
        assert oracle.eccentricity(0) == 10.0  # opposite corner
        assert oracle.eccentricity(14) < 10.0  # interior vertex
