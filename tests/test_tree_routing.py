"""Tests for Thorup-Zwick tree routing (Fact 5.1) and the Γ variant
(Claim 5.6)."""

import pytest

from repro.graph import generators
from repro.graph.graph import Graph
from repro.graph.spanning_tree import RootedTree
from repro.trees.tree_routing import TreeRoutingScheme


def _route(scheme, tables, labels, s, t, max_hops=1000):
    """Drive next_hop from s to t; returns the vertex path."""
    tree = scheme.tree
    current = s
    path = [s]
    for _ in range(max_hops):
        hop = TreeRoutingScheme.next_hop(tables[current], labels[t])
        if hop is None:
            return path
        port, _ = hop
        nxt, _ = tree.graph.via_port(current, port)
        current = nxt
        path.append(current)
    raise AssertionError("routing did not converge")


@pytest.fixture(params=[0, 1, 2])
def routed_tree(request):
    g = generators.random_connected_graph(30, extra_edges=35, seed=request.param)
    tree = RootedTree.bfs(g, root=0)
    scheme = TreeRoutingScheme(tree)
    tables = {v: scheme.table(v) for v in tree.vertices}
    labels = {v: scheme.label(v) for v in tree.vertices}
    return g, tree, scheme, tables, labels


class TestBasicRouting:
    def test_all_pairs_reach_target_along_tree_path(self, routed_tree):
        g, tree, scheme, tables, labels = routed_tree
        for s in range(0, g.n, 4):
            for t in range(0, g.n, 3):
                path = _route(scheme, tables, labels, s, t)
                assert path == tree.tree_path(s, t)

    def test_route_to_self(self, routed_tree):
        _, _, scheme, tables, labels = routed_tree
        assert _route(scheme, tables, labels, 7, 7) == [7]

    def test_label_entries_are_light_edges_only(self, routed_tree):
        g, tree, scheme, tables, labels = routed_tree
        from repro.trees.heavy_light import HeavyLightDecomposition

        hld = HeavyLightDecomposition(tree)
        for v in tree.vertices:
            assert len(labels[v].entries) == hld.light_depth[v]


class TestGammaVariant:
    def _star_tree(self, leaves=12):
        g = Graph(leaves + 2)
        for v in range(1, leaves + 1):
            g.add_edge(0, v)
        g.add_edge(1, leaves + 1)  # make vertex 1 internal
        return RootedTree.bfs(g, root=0)

    def test_blocks_have_bounded_size(self):
        tree = self._star_tree(13)
        f = 2
        scheme = TreeRoutingScheme(tree, gamma_f=f)
        for child in tree.children[0]:
            members = scheme.gamma_members(child)
            assert child in members
            assert f + 1 <= len(members) <= 2 * f + 1

    def test_small_degree_gamma_is_all_children(self):
        g = generators.random_tree(10, seed=3)
        tree = RootedTree.bfs(g, root=0)
        scheme = TreeRoutingScheme(tree, gamma_f=5)
        for u in tree.vertices:
            if 0 < len(tree.children[u]) <= 6:
                assert scheme.stores_child_labels(u)
                for c in tree.children[u]:
                    assert set(scheme.gamma_members(c)) == set(tree.children[u])

    def test_every_child_is_in_its_own_block(self):
        tree = self._star_tree(20)
        scheme = TreeRoutingScheme(tree, gamma_f=3)
        for child in tree.children[0]:
            assert child in scheme.gamma_members(child)

    def test_blocks_partition_children(self):
        tree = self._star_tree(17)
        scheme = TreeRoutingScheme(tree, gamma_f=3)
        seen = []
        blocks = {scheme.gamma_members(c) for c in tree.children[0]}
        for block in blocks:
            seen.extend(block)
        assert sorted(seen) == sorted(tree.children[0])

    def test_gamma_ports_returned_by_next_hop(self):
        tree = self._star_tree(12)
        scheme = TreeRoutingScheme(tree, gamma_f=2)
        tables = {v: scheme.table(v) for v in tree.vertices}
        labels = {v: scheme.label(v) for v in tree.vertices}
        # Route from root towards a light leaf: gamma ports must come back.
        for leaf in tree.children[0][1:]:
            port, gports = TreeRoutingScheme.next_hop(tables[0], labels[leaf])
            assert tree.graph.via_port(0, port)[0] == leaf
            members = scheme.gamma_members(leaf)
            assert len(gports) == len(members)
            for gp, w in zip(gports, members):
                assert tree.graph.via_port(0, gp)[0] == w

    def test_routing_still_correct_with_gamma(self):
        g = generators.random_connected_graph(25, extra_edges=30, seed=7)
        tree = RootedTree.bfs(g, root=0)
        scheme = TreeRoutingScheme(tree, gamma_f=2)
        tables = {v: scheme.table(v) for v in tree.vertices}
        labels = {v: scheme.label(v) for v in tree.vertices}
        for s in range(0, g.n, 3):
            for t in range(0, g.n, 5):
                assert _route(scheme, tables, labels, s, t) == tree.tree_path(s, t)


class TestEncoding:
    def test_encode_decode_roundtrip(self, routed_tree):
        _, tree, scheme, _, labels = routed_tree
        for v in tree.vertices:
            enc = scheme.encode_label(labels[v])
            assert enc < (1 << scheme.encoded_label_bits())
            dec = scheme.decode_label(enc)
            assert dec == labels[v]

    def test_encode_decode_with_gamma(self):
        g = generators.random_connected_graph(25, extra_edges=30, seed=8)
        tree = RootedTree.bfs(g, root=0)
        scheme = TreeRoutingScheme(tree, gamma_f=2)
        for v in tree.vertices:
            lab = scheme.label(v)
            assert scheme.decode_label(scheme.encode_label(lab)) == lab

    def test_global_id_hooks(self):
        g = generators.grid_graph(3, 3)
        sub = g.induced_subgraph([0, 1, 2, 4, 5])
        to_parent = sub.vertex_to_parent
        tree = RootedTree.bfs(sub.graph, root=0)
        scheme = TreeRoutingScheme(
            tree,
            id_of=lambda lv: to_parent[lv],
            port_fn=lambda lu, lv: g.port_of(to_parent[lu], to_parent[lv]),
            id_space=g.n,
        )
        for lv in range(sub.graph.n):
            lab = scheme.label(lv)
            assert lab.vid == to_parent[lv]  # global ids
            for entry in lab.entries:
                # Port is valid in the *global* graph.
                nxt, _ = g.via_port(entry.parent_id, entry.port)
                assert nxt in to_parent


class TestSizes:
    def test_label_bits_scale_with_light_depth(self, routed_tree):
        _, tree, scheme, _, _ = routed_tree
        from repro.trees.heavy_light import HeavyLightDecomposition

        hld = HeavyLightDecomposition(tree)
        shallow = min(tree.vertices, key=lambda v: hld.light_depth[v])
        deep = max(tree.vertices, key=lambda v: hld.light_depth[v])
        if hld.light_depth[deep] > hld.light_depth[shallow]:
            assert scheme.label_bits(deep) > scheme.label_bits(shallow)

    def test_table_bits_positive(self, routed_tree):
        _, tree, scheme, _, _ = routed_tree
        for v in tree.vertices:
            assert scheme.table_bits(v) > 0


def _path_hops(packed, u, t):
    """:meth:`PackedTreeRouting.path` as (vertex reached, port taken) hops."""
    climb, descent = packed.path(u, t)
    down_port = dict(zip(packed.child_local.tolist(), packed.child_port.tolist()))
    return [(int(packed.parent[x]), int(packed.parent_port[x])) for x in climb] + [
        (x, down_port[x]) for x in descent
    ]


class TestPackedNextHopMany:
    """The packed tree-path kernel vs iterating the scalar table/label
    next hop, and the snapshot array protocol.  The test names predate
    :meth:`PackedTreeRouting.path`, which replaced a batched one-hop
    kernel; each pair now checks its whole path."""

    @pytest.mark.parametrize("gamma_f", [None, 2])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_next_hop_many_matches_scalar_all_pairs(self, seed, gamma_f):
        g = generators.random_connected_graph(40, extra_edges=50, seed=seed)
        tree = RootedTree.bfs(g, root=0)
        scheme = TreeRoutingScheme(tree, gamma_f=gamma_f)
        packed = scheme.packed()
        tables = {v: scheme.table(v) for v in tree.vertices}
        labels = {v: scheme.label(v) for v in tree.vertices}
        for u in tree.vertices:
            for t in tree.vertices:
                expected = []
                cur = u
                for _ in range(g.n):
                    hop = TreeRoutingScheme.next_hop(tables[cur], labels[t])
                    if hop is None:
                        break
                    cur = g.via_port(cur, hop[0])[0]
                    expected.append((cur, hop[0]))
                else:
                    raise AssertionError("scalar next hops did not arrive")
                assert _path_hops(packed, u, t) == expected

    def test_next_hop_many_star_exercises_wide_light_rows(self):
        """A star root has n-1 light children — the path to each leaf
        must be one hop on exactly that leaf's port."""
        g = Graph(33)
        for v in range(1, 33):
            g.add_edge(0, v)
        tree = RootedTree.bfs(g, root=0)
        packed = TreeRoutingScheme(tree).packed()
        ports = []
        for leaf in range(1, 33):
            [(reached, port)] = _path_hops(packed, 0, leaf)
            assert reached == leaf
            assert g.via_port(0, port)[0] == leaf
            ports.append(port)
        assert sorted(ports) == list(range(32))

    def test_packed_arrays_round_trip(self):
        """__arrays__ / from_arrays rebuild an equivalent packed view."""
        from repro.trees.tree_routing import PackedTreeRouting

        g = generators.random_connected_graph(36, extra_edges=44, seed=3)
        tree = RootedTree.bfs(g, root=0)
        scheme = TreeRoutingScheme(tree, gamma_f=2)
        packed = scheme.packed()
        arrays = packed.__arrays__()
        assert set(arrays) == set(PackedTreeRouting._ARRAY_FIELDS)
        clone = PackedTreeRouting.from_arrays(arrays)
        for v in tree.vertices:
            for t in (tree.vertices[0], tree.vertices[-1]):
                assert clone.path(v, t) == packed.path(v, t)
        for child in range(g.n):
            assert packed.gamma_row(child) == clone.gamma_row(child)

    def test_corrupt_tree_raises_instead_of_looping(self):
        """Both halves of the path are bounded by the vertex count: a
        cyclic parent array raises, and so does a target the climb
        cannot reach."""
        from repro.trees.tree_routing import PackedTreeRouting

        g = generators.grid_graph(1, 6)  # the path 0-1-2-3-4-5
        tree = RootedTree.bfs(g, root=0)
        arrays = dict(TreeRoutingScheme(tree).packed().__arrays__())
        parent = arrays["parent"].copy()
        parent[1] = 2  # 1 <-> 2 is now a cycle cutting off the root
        arrays["parent"] = parent
        broken = PackedTreeRouting.from_arrays(arrays)
        with pytest.raises(RuntimeError):
            broken.path(5, 0)  # the climb circles 1 <-> 2
        with pytest.raises(RuntimeError):
            broken.path(0, 5)  # the descent never meets the root

        forest = Graph(5)
        for u, v in ((0, 1), (1, 2), (3, 4)):
            forest.add_edge(u, v)
        packed = TreeRoutingScheme(RootedTree.bfs(forest, root=0)).packed()
        with pytest.raises(ValueError, match="target outside the tree"):
            packed.path(1, 3)
