"""Enumeration oracles and the decomposition certifiers."""
import pytest

from gensplines import analysis, integers, integers_mod, spanning_tree, verify
from gensplines.analysis import (
    BudgetExceededError,
    check_cycle_decomposition,
    check_triangular_family,
    check_union_decomposition,
    count_direct_sum,
    enumerate_splines,
    matrix_solution_set,
    random_member,
    reduced_solution_set,
    spanning_tree_cover,
)
from gensplines.construct import GeneratingFamily, flow_up_family, trivial_spline
from gensplines.gkm import build_gkm_matrix, reduce_via_tree
from gensplines.graphs import GraphError, spanning_subgraph
from gensplines.rings import UnsupportedRingError
from gensplines.splines import Spline

from conftest import make_graph, seeded

Z = integers()


def triangle_mod(m, labels=(1, 1, 1)):
    R = integers_mod(m)
    a, b, c = labels
    return make_graph(R, ["v1", "v2", "v3"],
                      [("v1", "v2", a), ("v2", "v3", b), ("v1", "v3", c)])


class TestEnumerate:
    def test_unit_labels_give_all_tuples(self):
        g = triangle_mod(2)
        out = enumerate_splines(g)
        assert len(out) == 8
        assert out.members[0] == (0, 0, 0)
        assert out.members == tuple(sorted(out.members))

    def test_triangle_mod4_label2(self):
        g = triangle_mod(4, (2, 2, 2))
        out = enumerate_splines(g)
        # v1 free, v2 and v3 congruent to it mod 2
        assert len(out) == 16
        assert all((a - b) % 2 == 0 and (b - c) % 2 == 0
                   for a, b, c in out.members)

    def test_zero_label_forces_equality(self):
        R = integers_mod(2)
        g = make_graph(R, ["a", "b"], [("a", "b", 0)])
        assert enumerate_splines(g).members == ((0, 0), (1, 1))

    def test_members_verify(self):
        g = triangle_mod(6, (2, 3, 0))
        out = enumerate_splines(g)
        for p in out.as_splines():
            assert verify(g, p).ok

    def test_budget(self):
        g = triangle_mod(5)
        with pytest.raises(BudgetExceededError):
            enumerate_splines(g, budget=100)

    def test_needs_finite_ring(self):
        g = make_graph(Z, ["a", "b"], [("a", "b", 2)])
        with pytest.raises(UnsupportedRingError):
            enumerate_splines(g)


class TestUnionDecomposition:
    def test_edge_by_edge_exhaustive(self):
        g = triangle_mod(6, (2, 3, 4))
        parts = [spanning_subgraph(g, [e]) for e in g.edges]
        report = check_union_decomposition(g, parts, claim="edge-by-edge")
        assert report.verdict and report.mode == "exhaustive"
        assert report.claim == "edge-by-edge"

    def test_cover_validation(self):
        g = triangle_mod(4)
        parts = [spanning_subgraph(g, [g.edges[0]])]
        with pytest.raises(GraphError, match="do not cover"):
            check_union_decomposition(g, parts)

    def test_sampled_mode_over_integers(self):
        g = make_graph(Z, ["a", "b", "c"],
                       [("a", "b", 2), ("b", "c", 3), ("a", "c", 5)])
        parts = [spanning_subgraph(g, [e]) for e in g.edges]
        report = check_union_decomposition(g, parts, seed=7, samples=5)
        assert report.verdict and report.mode == "sampled" and report.seed == 7


class TestSpanningTreeCover:
    def test_triangle_cover(self):
        g = triangle_mod(6, (2, 3, 4))
        trees = spanning_tree_cover(g)
        assert len(trees) == 2  # BFS tree plus one chord swap
        union = set()
        for t in trees:
            assert len(t.edges) == len(g.vertices) - 1
            assert t.is_connected
            union.update(t.edges)
        assert union == set(g.edges)
        report = check_union_decomposition(g, trees, claim="spanning-trees")
        assert report.verdict

    def test_cycle_decomposition(self):
        g = triangle_mod(6, (2, 3, 4))
        report = check_cycle_decomposition(g, spanning_tree(g))
        assert report.verdict and report.claim == "tree-plus-cycles"


class TestTriangularFamily:
    def test_flow_up_is_triangular(self):
        # needs an integral domain: over Z/6 the product 2*3*4 collapses
        g = triangle_mod(5, (2, 3, 4))
        assert check_triangular_family(flow_up_family(g))
        h = make_graph(Z, ["a", "b", "c"],
                       [("a", "b", 2), ("b", "c", 3), ("a", "c", 5)])
        assert check_triangular_family(flow_up_family(h))

    def test_broken_diagonal_detected(self):
        g = make_graph(Z, ["a", "b"], [("a", "b", 2)])
        zero = trivial_spline(g, Z.element(0))
        fam = GeneratingFamily(g, (zero, trivial_spline(g, Z.element(1))),
                               ("a", "b"), (Z.element(0), Z.element(1)))
        assert not check_triangular_family(fam)

    def test_size_mismatch_detected(self):
        g = make_graph(Z, ["a", "b"], [("a", "b", 2)])
        fam = GeneratingFamily(g, (trivial_spline(g, Z.element(1)),),
                               ("a", "b"), (Z.element(1),))
        assert not check_triangular_family(fam)


class TestDirectSumCount:
    def test_triangle_mod4(self):
        g = triangle_mod(4, (2, 2, 2))
        assert count_direct_sum(g, "v1") == (16, 4)

    def test_zero_edge_mod2(self):
        R = integers_mod(2)
        g = make_graph(R, ["a", "b"], [("a", "b", 0)])
        assert count_direct_sum(g, "a") == (2, 1)

    def test_requires_connected(self):
        R = integers_mod(2)
        g = make_graph(R, ["a", "b"], [])
        with pytest.raises(GraphError):
            count_direct_sum(g, "a")
        with pytest.raises(GraphError):
            count_direct_sum(triangle_mod(2), "zz")


class TestSolutionSets:
    def test_matrix_matches_enumeration(self):
        g = triangle_mod(6, (2, 3, 4))
        base = set(enumerate_splines(g).members)
        assert matrix_solution_set(build_gkm_matrix(g)) == base

    def test_orientation_invariance(self):
        g = triangle_mod(6, (2, 3, 4))
        base = matrix_solution_set(build_gkm_matrix(g))
        flipped = build_gkm_matrix(
            g, orientation={("v1", "v2"): ("v2", "v1"),
                            ("v1", "v3"): ("v3", "v1")})
        assert matrix_solution_set(flipped) == base

    def test_reduced_system_preserves_solutions(self):
        g = triangle_mod(6, (2, 3, 4))
        base = set(enumerate_splines(g).members)
        system = reduce_via_tree(build_gkm_matrix(g), spanning_tree(g))
        assert reduced_solution_set(system) == base


class TestRandomMember:
    def test_members_verify(self):
        rng = seeded(11)
        g = make_graph(Z, ["a", "b", "c", "d"],
                       [("a", "b", 2), ("b", "c", 3), ("a", "c", 5)])
        for _ in range(10):
            p = random_member(g, rng)
            assert verify(g, p).ok


class TestSampledFamilies:
    def test_one_flow_up_build_per_graph_component(self, k4_graph, monkeypatch):
        built = []

        def counting(graph, root=None):
            built.append(graph.vertices)
            return flow_up_family(graph, root)

        monkeypatch.setattr(analysis, "flow_up_family", counting)
        per_edge = [spanning_subgraph(k4_graph, [e]) for e in k4_graph.edges]
        for subgraphs in (per_edge, spanning_tree_cover(k4_graph)):
            built.clear()
            report = check_union_decomposition(k4_graph, subgraphs, seed=3, samples=20)
            assert report.verdict
            pairs = len(k4_graph.components()) + sum(
                len(sub.components()) for sub in subgraphs)
            assert len(built) <= pairs
