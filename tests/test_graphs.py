"""Graph construction, spanning trees, cycles, and subgraph operations."""
import pytest

from gensplines import build_graph, integers, spanning_tree, tree_path
from gensplines.graphs import (
    DisconnectedGraphError,
    GraphError,
    disjoint_union,
    erase_unit_edges,
    fundamental_cycles,
    induced_subgraph,
    keyed_by_edge,
    path_edges,
    path_order,
    restrict,
    spanning_subgraph,
    tree_edge_keys,
    tree_from_edges,
)
from gensplines.rings import Ideal, RingMismatchError, integers_mod

from conftest import make_graph, path_z, triangle_z

Z = integers()


class TestConstruction:
    def test_duplicate_vertex(self):
        with pytest.raises(GraphError, match="duplicate vertex"):
            make_graph(Z, ["a", "a"], [])

    def test_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            make_graph(Z, ["a", "b"], [("a", "a", 2)])

    def test_duplicate_edge(self):
        with pytest.raises(GraphError, match="duplicate edge"):
            make_graph(Z, ["a", "b"], [("a", "b", 2), ("b", "a", 3)])

    def test_unknown_endpoint(self):
        with pytest.raises(GraphError, match="not a declared vertex"):
            make_graph(Z, ["a", "b"], [("a", "c", 2)])

    def test_ring_mismatch(self):
        bad = Ideal([integers_mod(5).element(2)])
        with pytest.raises(RingMismatchError, match="edge 'a'-'b' labeled over Z/5, graph over Z$"):
            build_graph(Z, ["a", "b"], [("a", "b", bad)])
        # a ring equal to the label's but built apart is the same ring
        assert build_graph(integers_mod(5), ["a", "b"], [("a", "b", bad)]).labels[("a", "b")] is bad

    def test_edge_normalized_to_declaration_order(self):
        g = make_graph(Z, ["a", "b"], [("b", "a", 2)])
        assert g.edges == (("a", "b"),)
        assert g.edge_key("b", "a") == ("a", "b")

    def test_missing_edge_key(self):
        g = triangle_z()
        with pytest.raises(GraphError, match="no edge"):
            g.edge_key("v1", "v1")

    def test_keyed_by_edge(self):
        g = triangle_z()
        assert keyed_by_edge(g, None) == {}
        assert keyed_by_edge(g, {("v3", "v1"): 1, ("v1", "v2"): 2}) == {
            ("v1", "v3"): 1, ("v1", "v2"): 2}
        for keys in [("v1", "v2"), ("v2", "v1")], [("v2", "v1"), ("v1", "v2")]:
            with pytest.raises(GraphError, match="'v1'-'v2' is named twice"):
                keyed_by_edge(g, dict(zip(keys, [1, 2])))
        with pytest.raises(GraphError, match="no edge"):
            keyed_by_edge(path_z([2, 3]), {("v1", "v3"): 1})

    def test_neighbors_in_declaration_order(self):
        g = make_graph(Z, ["c", "a", "b"],
                       [("c", "b", 1), ("c", "a", 1)])
        assert g.neighbors("c") == ("a", "b")

    def test_label_lookup(self):
        g = triangle_z()
        assert g.label("v3", "v1").canonical == Z.element(5)


class TestConnectivity:
    def test_components(self):
        g = make_graph(Z, ["a", "b", "c", "d"], [("a", "b", 2), ("c", "d", 3)])
        assert g.components() == [["a", "b"], ["c", "d"]]
        assert not g.is_connected

    def test_spanning_tree_disconnected(self):
        g = make_graph(Z, ["a", "b", "c"], [("a", "b", 2)])
        with pytest.raises(DisconnectedGraphError) as info:
            spanning_tree(g)
        assert info.value.components == [["a", "b"], ["c"]]

    def test_disconnected_int_vertex_ids(self):
        g = build_graph(Z, [1, 2, 3], [(1, 2, [Z.element(2)])])
        with pytest.raises(DisconnectedGraphError,
                           match=r"components \{1, 2\}; \{3\}") as info:
            spanning_tree(g)
        assert info.value.components == [[1, 2], [3]]

    def test_empty_graph_has_no_spanning_tree(self):
        with pytest.raises(GraphError, match="empty graph has no spanning tree"):
            spanning_tree(make_graph(Z, [], []))

    def test_unknown_root_reported_before_disconnection(self):
        g = make_graph(Z, ["a", "b", "c"], [("a", "b", 2)])
        with pytest.raises(GraphError, match="root 'zz' is not a vertex"):
            spanning_tree(g, root="zz")

    def test_components_only_for_a_disconnected_graph(self, k4_graph, monkeypatch):
        calls = []
        original = type(k4_graph).components
        monkeypatch.setattr(type(k4_graph), "components",
                            lambda self: calls.append(1) or original(self))
        spanning_tree(k4_graph)
        assert calls == []
        with pytest.raises(DisconnectedGraphError):
            spanning_tree(make_graph(Z, ["a", "b"], []))
        assert calls == [1]

    def test_is_tree(self, k4_graph):
        assert make_graph(Z, ["a"], []).is_tree
        assert make_graph(Z, ["a", "b", "c"], [("a", "b", 2), ("a", "c", 3)]).is_tree
        assert not make_graph(Z, [], []).is_tree
        assert not make_graph(Z, ["a", "b"], []).is_tree
        assert not k4_graph.is_tree
        # n - 1 edges but a cycle plus an isolated vertex
        assert not make_graph(Z, ["a", "b", "c", "d"],
                              [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)]).is_tree


@pytest.mark.parametrize("call", [
    lambda g: g.index("zz"),
    lambda g: g.edge_key("v1", "zz"),
    lambda g: g.label("zz", "v2"),
    lambda g: g.neighbors("zz"),
    lambda g: restrict(g, g.vertices, [("v1", "zz")]),
    lambda g: spanning_subgraph(g, [("zz", "v2")]),
    lambda g: tree_from_edges(g, [("v1", "v2"), ("v1", "zz"), ("v1", "v4")]),
    lambda g: path_edges(g, ["v1", "v2", "zz"]),
], ids=["index", "edge_key", "label", "neighbors", "restrict", "spanning_subgraph",
        "tree_from_edges", "path_edges"])
def test_unknown_vertex_id_is_a_graph_error(k4_graph, call):
    with pytest.raises(GraphError, match="^'zz' is not a vertex$"):
        call(k4_graph)


class TestSpanningTree:
    def test_bfs_determinism_on_k4(self, k4_graph):
        t = spanning_tree(k4_graph)
        assert t.root == "v1"
        assert t.tree_edges == (("v1", "v2"), ("v1", "v3"), ("v1", "v4"))
        assert t.depth == {"v1": 0, "v2": 1, "v3": 1, "v4": 1}

    def test_explicit_root(self, k4_graph):
        t = spanning_tree(k4_graph, root="v3")
        assert t.root == "v3"
        assert t.depth["v3"] == 0
        with pytest.raises(GraphError):
            spanning_tree(k4_graph, root="nope")

    def test_tree_from_edges_star(self, k4_graph):
        t = tree_from_edges(
            k4_graph, [("v1", "v4"), ("v2", "v4"), ("v3", "v4")], root="v4")
        assert t.root == "v4"
        assert set(t.tree_edges) == {("v1", "v4"), ("v2", "v4"), ("v3", "v4")}
        assert all(t.depth[v] == 1 for v in ("v1", "v2", "v3"))

    def test_tree_from_edges_unknown_root(self, k4_graph):
        with pytest.raises(GraphError, match="root 'zz' is not a vertex"):
            tree_from_edges(k4_graph, [("v1", "v2"), ("v1", "v3"), ("v1", "v4")], root="zz")

    def test_tree_from_edges_repeated_edge_does_not_span(self, k4_graph):
        with pytest.raises(GraphError, match="does not span"):
            tree_from_edges(k4_graph, [("v1", "v2"), ("v2", "v1"), ("v1", "v3")])

    def test_tree_from_edges_rejects_nonspanning(self, k4_graph):
        with pytest.raises(GraphError):
            tree_from_edges(k4_graph, [("v1", "v2"), ("v1", "v3")])
        with pytest.raises(GraphError, match="does not span"):
            tree_from_edges(
                k4_graph, [("v1", "v2"), ("v1", "v3"), ("v2", "v3")])

    def test_tree_path(self, k4_graph):
        t = spanning_tree(k4_graph)
        assert tree_path(t, "v2", "v3") == ["v2", "v1", "v3"]
        assert tree_path(t, "v2", "v2") == ["v2"]
        assert tree_path(t, "v1", "v4") == ["v1", "v4"]
        with pytest.raises(GraphError, match="not in the tree"):
            tree_path(t, "v1", "zz")


class TestWalks:
    def test_path_order(self):
        g = make_graph(Z, ["c", "a", "d", "b"],
                       [("a", "b", 1), ("b", "c", 2), ("c", "d", 3)])
        assert path_order(g) == ["a", "b", "c", "d"]
        assert path_order(make_graph(Z, ["a"], [])) == ["a"]
        assert path_order(make_graph(Z, ["b", "a"], [("a", "b", 1)])) == ["b", "a"]

    @pytest.mark.parametrize("vertices, edges", [
        ([], []),
        (["a", "b"], []),
        (["a", "b", "c", "d"], [("a", "b", 1), ("a", "c", 1), ("a", "d", 1)]),
        (["a", "b", "c"], [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)]),
        (["a", "b", "c", "d"], [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)]),
    ], ids=["empty", "edgeless", "star", "cycle", "cycle-plus-vertex"])
    def test_path_order_rejects(self, vertices, edges):
        with pytest.raises(GraphError, match="not a path"):
            path_order(make_graph(Z, vertices, edges))

    def test_path_edges(self, k4_graph):
        assert path_edges(k4_graph, ("v3", "v1", "v4", "v2")) == [
            ("v1", "v3"), ("v1", "v4"), ("v2", "v4")]
        assert path_edges(k4_graph, ["v2"]) == []
        with pytest.raises(GraphError, match="no edge"):
            path_edges(triangle_z(), ["v1", "v1"])

    def test_foreign_tree_rejected(self, k4_graph):
        with pytest.raises(GraphError, match="tree does not span the graph"):
            fundamental_cycles(k4_graph, spanning_tree(triangle_z()))


class TestFundamentalCycles:
    def test_k4_bfs_cycles(self, k4_graph):
        t = spanning_tree(k4_graph)
        cycles = fundamental_cycles(k4_graph, t)
        chords = [c.chord for c in cycles]
        assert chords == [("v2", "v3"), ("v2", "v4"), ("v3", "v4")]
        first = cycles[0]
        assert first.vertex_sequence == ("v2", "v3", "v1", "v2")
        assert first.steps() == [("v2", "v3"), ("v3", "v1"), ("v1", "v2")]

    def test_tree_has_no_cycles(self):
        g = make_graph(Z, ["a", "b", "c"], [("a", "b", 2), ("b", "c", 3)])
        assert fundamental_cycles(g, spanning_tree(g)) == []

    def test_tree_of_the_graph_declared_in_another_order(self):
        # h is the Z triangle <2>, <3>, <5> declared v3, v2, v1: its tree
        # names the edges v3-v2 and v3-v1, which g keys as v2-v3, v1-v3
        g = triangle_z()
        h = make_graph(Z, ["v3", "v2", "v1"],
                       [("v1", "v2", 2), ("v2", "v3", 3), ("v1", "v3", 5)])
        tree = spanning_tree(h)
        assert tree.tree_edges == (("v3", "v2"), ("v3", "v1"))
        assert tree_edge_keys(g, tree) == (("v2", "v3"), ("v1", "v3"))
        (cycle,) = fundamental_cycles(g, tree)
        assert cycle.chord == ("v1", "v2")
        assert cycle.vertex_sequence == ("v1", "v2", "v3", "v1")

    def test_tree_edge_missing_from_the_graph(self):
        # same vertices, but the tree's edge v1-v3 is not an edge of g
        g = path_z([2, 3])
        other = make_graph(Z, ["v1", "v2", "v3"], [("v1", "v3", 2), ("v3", "v2", 3)])
        with pytest.raises(GraphError, match="no edge 'v1'-'v3'"):
            fundamental_cycles(g, spanning_tree(other))


class TestSubgraphs:
    def test_restrict(self, k4_graph):
        sub = restrict(k4_graph, ["v1", "v2", "v3"],
                       [("v1", "v2"), ("v2", "v3")])
        assert sub.vertices == ("v1", "v2", "v3")
        assert sub.edges == (("v1", "v2"), ("v2", "v3"))
        assert sub.label("v1", "v2") == k4_graph.label("v1", "v2")
        assert sub.is_subgraph_of(k4_graph)

    def test_restrict_rejects_outside_edge(self, k4_graph):
        with pytest.raises(GraphError, match="outside the vertex subset"):
            restrict(k4_graph, ["v1", "v2"], [("v1", "v3")])
        with pytest.raises(GraphError, match="unknown vertices"):
            restrict(k4_graph, ["v1", "zz"], [])

    def test_restrict_accepts_an_iterator(self):
        g = make_graph(Z, ["a", "b", "c"], [("a", "b", 2), ("b", "c", 3)])
        sub = restrict(g, (v for v in ["a", "b"]), [("a", "b")])
        assert sub.vertices == ("a", "b")
        assert sub.edges == (("a", "b"),)

    def test_induced(self, k4_graph):
        sub = induced_subgraph(k4_graph, ["v1", "v2", "v3"])
        assert set(sub.edges) == {("v1", "v2"), ("v1", "v3"), ("v2", "v3")}

    def test_spanning_subgraph(self, k4_graph):
        sub = spanning_subgraph(k4_graph, [("v1", "v2")])
        assert sub.vertices == k4_graph.vertices
        assert sub.edges == (("v1", "v2"),)

    def test_erase_unit_edges(self):
        g = make_graph(Z, ["a", "b", "c"], [("a", "b", 1), ("b", "c", 4)])
        out = erase_unit_edges(g)
        assert out.edges == (("b", "c"),)
        assert out.vertices == ("a", "b", "c")

    def test_is_subgraph_needs_every_vertex_and_edge(self):
        g = make_graph(Z, ["a", "b", "c"], [("a", "b", 2)])
        assert not make_graph(Z, ["a", "zz"], []).is_subgraph_of(g)
        assert not make_graph(Z, ["a", "b", "c"], [("b", "c", 2)]).is_subgraph_of(g)
        assert make_graph(Z, ["b", "a"], [("b", "a", 2)]).is_subgraph_of(g)

    def test_is_subgraph_label_sensitivity(self):
        g = make_graph(Z, ["a", "b"], [("a", "b", 2)])
        h = make_graph(Z, ["a", "b"], [("a", "b", 3)])
        assert not h.is_subgraph_of(g)


class TestDisjointUnion:
    def test_no_collision(self):
        g1 = make_graph(Z, ["a", "b"], [("a", "b", 2)])
        g2 = make_graph(Z, ["c", "d"], [("c", "d", 3)])
        u = disjoint_union(g1, g2)
        assert u.vertices == ("a", "b", "c", "d")
        assert len(u.edges) == 2
        assert not u.is_connected

    def test_collision_prefixes(self):
        g1 = make_graph(Z, ["a", "b"], [("a", "b", 2)])
        u = disjoint_union(g1, g1)
        assert u.vertices == ("0:a", "0:b", "1:a", "1:b")

    @pytest.mark.parametrize("first,second,expected", [
        (["a", "0:a"], ["a"], ("0:0:a", "0:a", "1:1:a")),
        (["a"], ["a", "1:a"], ("0:0:a", "1:1:a", "1:a")),
    ])
    def test_prefixed_ids_never_collide(self, first, second, expected):
        # one prefix would name two vertices "0:a" (or "1:a")
        u = disjoint_union(make_graph(Z, first, []), make_graph(Z, second, []))
        assert u.vertices == expected

    def test_ring_mismatch(self):
        g1 = make_graph(Z, ["a"], [])
        g2 = make_graph(integers_mod(3), ["b"], [])
        with pytest.raises(RingMismatchError):
            disjoint_union(g1, g2)
