"""Constructive families: cycles, paths, trees, extension by zero, and
flow-up splines."""
import warnings

import pytest

from gensplines import integers, integers_mod, poly_rational, verify
from gensplines.construct import (
    cycle_generating_family,
    cycle_spline,
    excluded_edges,
    extend_by_zero,
    extend_by_zero_with_factor,
    flow_up_family,
    is_nontrivial_exists,
    lcm_scaling_factor,
    path_generating_family,
    tree_membership,
    trivial_spline,
)
from gensplines.graphs import (
    GraphError,
    restrict,
    spanning_subgraph,
    spanning_tree,
    tree_path,
)
from gensplines.rings import UnsupportedRingError
from gensplines.splines import Spline, is_nontrivial

from conftest import P, make_graph, path_z, triangle_z

Z = integers()


def zspline(graph, *ints):
    return Spline(graph, {v: Z.element(x)
                          for v, x in zip(graph.vertices, ints)})


class TestCycleSpline:
    def test_triangle_golden(self):
        g = triangle_z()
        p = cycle_spline(g, Z.element(0), Z.element(5),
                         [Z.element(2), Z.element(3)])
        assert p.as_tuple() == (Z.element(0), Z.element(10), Z.element(25))
        assert verify(g, p).ok

    def test_nonzero_base(self):
        g = triangle_z()
        p = cycle_spline(g, Z.element(7), Z.element(10),
                         [Z.element(4), Z.element(-3)])
        assert p.as_tuple() == (Z.element(7), Z.element(47), Z.element(17))
        assert verify(g, p).ok

    def test_choice_validation(self):
        g = triangle_z()
        with pytest.raises(ValueError, match="outside the ideal"):
            cycle_spline(g, Z.element(0), Z.element(1),
                         [Z.element(2), Z.element(3)])
        with pytest.raises(ValueError, match="step choices"):
            cycle_spline(g, Z.element(0), Z.element(5), [Z.element(2)])

    def test_requires_cycle(self):
        g = path_z([2, 3])
        with pytest.raises(GraphError, match="not a cycle"):
            cycle_spline(g, Z.element(0), Z.element(1), [Z.element(1), Z.element(1)])

    def test_declaration_order_must_trace_cycle(self):
        # edges form C4 but the declared order jumps across it
        g = make_graph(Z, ["a", "b", "c", "d"],
                       [("a", "c", 2), ("c", "b", 3), ("b", "d", 4), ("a", "d", 5)])
        with pytest.raises(GraphError, match="declaration order"):
            cycle_spline(g, Z.element(0), Z.element(5),
                         [Z.element(2), Z.element(3), Z.element(4)])


class TestCycleFamily:
    def test_triangle_defaults(self):
        g = triangle_z()
        fam = cycle_generating_family(g)
        assert fam.vertex_order == ("v3", "v2", "v1")
        tuples = [p.as_tuple() for p in fam.members]
        assert tuples[0] == (Z.element(0), Z.element(0), Z.element(15))
        assert tuples[1] == (Z.element(0), Z.element(10), Z.element(10))
        assert tuples[2] == (Z.element(1), Z.element(1), Z.element(1))
        assert fam.scaling_factors == (Z.element(15), Z.element(10), Z.element(1))
        for p in fam.members:
            assert verify(g, p).ok

    def test_zero_choice_rejected_over_domain(self):
        g = make_graph(Z, ["a", "b", "c"],
                       [("a", "b", 0), ("b", "c", 3), ("a", "c", 5)])
        with pytest.raises(ValueError, match="zero choices"):
            cycle_generating_family(g)


class TestPathFamily:
    def test_p3_defaults(self):
        g = path_z([3, 2])
        fam = path_generating_family(g)
        assert fam.vertex_order == ("v1", "v2", "v3")
        tuples = [p.as_tuple() for p in fam.members]
        assert tuples[0] == (Z.element(3), Z.element(0), Z.element(0))
        assert tuples[1] == (Z.element(2), Z.element(2), Z.element(0))
        assert tuples[2] == (Z.element(1), Z.element(1), Z.element(1))
        for p in fam.members:
            assert verify(g, p).ok

    def test_explicit_choices_checked(self):
        g = path_z([3, 2])
        with pytest.raises(ValueError, match="outside the ideal"):
            path_generating_family(g, choices=[Z.element(4), Z.element(2)])


class TestTreeMembership:
    def test_star_positive_with_witnesses(self):
        g = make_graph(Z, ["c", "a", "b"], [("c", "a", 2), ("c", "b", 3)])
        p = Spline(g, {"c": Z.element(0), "a": Z.element(4), "b": Z.element(9)})
        report = tree_membership(g, p)
        assert report.ok and not report.failures
        # each witness decomposes the difference along the path
        for (u, v), parts in report.witnesses.items():
            total = Z.element(0)
            for edge, summand in parts.items():
                assert g.labels[edge].contains(summand)
                total = total + summand
            assert total == p[v] - p[u]

    def test_agrees_with_verify_negative(self):
        g = path_z([2, 3])
        p = zspline(g, 0, 1, 1)
        report = tree_membership(g, p)
        assert not report.ok
        assert ("v1", "v2") in report.failures

    def test_mod_ring_witnesses(self):
        R = integers_mod(12)
        g = make_graph(R, ["a", "b", "c"], [("a", "b", 4), ("b", "c", 6)])
        p = Spline(g, {"a": R.element(0), "b": R.element(8), "c": R.element(2)})
        assert verify(g, p).ok
        report = tree_membership(g, p)
        assert report.ok
        for (u, v), parts in report.witnesses.items():
            total = R.element(0)
            for edge, summand in parts.items():
                assert g.labels[edge].contains(summand)
                total = total + summand
            assert total == p[v] - p[u]

    def test_rejects_non_tree(self):
        with pytest.raises(GraphError, match="not a tree"):
            tree_membership(triangle_z(), zspline(triangle_z(), 0, 0, 0))


class TestExtendByZero:
    def test_triangle_extension(self):
        g = triangle_z()
        sub = restrict(g, ["v1", "v2"], [("v1", "v2")])
        p = Spline(sub, {"v1": Z.element(2), "v2": Z.element(4)})
        out, factor = extend_by_zero_with_factor(g, sub, p)
        # excluded edges <3> and <5> contribute the factor 15
        assert factor == Z.element(15)
        assert out.as_tuple() == (Z.element(30), Z.element(60), Z.element(0))
        assert verify(g, out).ok

    def test_explicit_choices(self):
        g = triangle_z()
        sub = restrict(g, ["v1", "v2"], [("v1", "v2")])
        p = trivial_spline(sub, Z.element(1))
        out = extend_by_zero(g, sub, p, {("v2", "v3"): Z.element(6),
                                         ("v1", "v3"): Z.element(10)})
        assert out.as_tuple() == (Z.element(60), Z.element(60), Z.element(0))
        assert verify(g, out).ok

    def test_rejects_unverified_input(self):
        g = triangle_z()
        sub = restrict(g, ["v1", "v2"], [("v1", "v2")])
        bad = Spline(sub, {"v1": Z.element(0), "v2": Z.element(1)})
        with pytest.raises(ValueError, match="fails verification"):
            extend_by_zero(g, sub, bad)

    def test_zero_factor_warns(self):
        g = make_graph(Z, ["a", "b", "c"],
                       [("a", "b", 2), ("b", "c", 0), ("a", "c", 5)])
        sub = restrict(g, ["a", "b"], [("a", "b")])
        p = trivial_spline(sub, Z.element(1))
        with pytest.warns(UserWarning, match="zero factor"):
            out = extend_by_zero(g, sub, p)
        assert verify(g, out).ok

    def test_excluded_edges(self):
        g = triangle_z()
        sub = restrict(g, ["v1", "v2"], [("v1", "v2")])
        assert excluded_edges(g, sub) == [("v2", "v3"), ("v1", "v3")]


class TestLcmScaling:
    def test_triangle(self):
        g = make_graph(Z, ["a", "b", "c"],
                       [("a", "b", 2), ("b", "c", 4), ("a", "c", 6)])
        sub = restrict(g, ["a", "b"], [("a", "b")])
        assert lcm_scaling_factor(g, sub) == Z.element(12)

    def test_no_excluded_edges(self):
        g = triangle_z()
        assert lcm_scaling_factor(g, spanning_subgraph(g, g.edges)) == Z.element(1)

    def test_mod_unsupported(self):
        R = integers_mod(6)
        g = make_graph(R, ["a", "b"], [("a", "b", 2)])
        sub = restrict(g, ["a"], [])
        with pytest.raises(UnsupportedRingError):
            lcm_scaling_factor(g, sub)


class TestFlowUp:
    def test_p3_golden(self):
        g = path_z([3, 2])
        fam = flow_up_family(g)
        assert fam.vertex_order == ("v1", "v2", "v3")
        tuples = [p.as_tuple() for p in fam.members]
        assert tuples[0] == (Z.element(6), Z.element(0), Z.element(0))
        assert tuples[1] == (Z.element(2), Z.element(2), Z.element(0))
        assert tuples[2] == (Z.element(1), Z.element(1), Z.element(1))
        assert fam.scaling_factors == (Z.element(6), Z.element(2), Z.element(1))
        for p in fam.members:
            assert verify(g, p).ok

    def test_k4_members_verify_and_triangular(self, k4_graph):
        from gensplines.analysis import check_triangular_family
        fam = flow_up_family(k4_graph)
        assert fam.vertex_order == ("v1", "v2", "v3", "v4")
        for p in fam.members:
            assert verify(k4_graph, p).ok
        assert check_triangular_family(fam)

    def test_alternate_root(self):
        g = path_z([3, 2])
        fam = flow_up_family(g, root="v3")
        assert fam.vertex_order == ("v3", "v2", "v1")
        assert fam.members[0]["v3"] == Z.element(6)


def reference_flow_up(graph, root=None):
    """Flow-up by explicit extension by zero: restrict to the root-to-v
    tree path, take the unit spline there, and extend it."""
    skeleton = spanning_tree(graph, root)
    order = sorted(graph.vertices,
                   key=lambda v: (skeleton.depth[v], graph.index(v)))
    members, factors = [], []
    for v in order:
        path = tree_path(skeleton, skeleton.root, v)
        path_edges = [(path[k], path[k + 1]) for k in range(len(path) - 1)]
        sub = restrict(graph, path, path_edges)
        member, factor = extend_by_zero_with_factor(
            graph, sub, trivial_spline(sub, graph.ring.one))
        members.append(member)
        factors.append(factor)
    return members, tuple(order), tuple(factors)


def recorded_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [str(w.message) for w in caught]


class TestFlowUpClosedForm:
    """flow_up_family builds its members in closed form; they must equal
    the explicit extension-by-zero construction."""

    CASES = [
        make_graph(Z, ["a", "b", "c", "d"],
                   [("a", "b", 2), ("b", "c", 3), ("c", "d", 5),
                    ("a", "d", 7), ("a", "c", 0)]),
        make_graph(integers_mod(6), ["a", "b", "c", "d"],
                   [("a", "b", 2), ("b", "c", 3), ("c", "d", 4), ("b", "d", 1)]),
        make_graph(poly_rational(), ["a", "b", "c", "d", "e"],
                   [("a", "b", [P(0, 1)]), ("b", "c", [P(-1, 1)]),
                    ("c", "d", [P(1, 0, 1)]), ("d", "e", [P(2)]),
                    ("a", "e", [P(0, 0, 1)]), ("b", "d", [P(3, 1)])]),
    ]

    @pytest.mark.parametrize("graph", CASES, ids=["Z", "Z/6", "Q[x]"])
    @pytest.mark.parametrize("root", [None, "c"])
    def test_matches_extension_by_zero(self, graph, root):
        fam, fam_warnings = recorded_warnings(flow_up_family, graph, root)
        (members, order, factors), ref_warnings = recorded_warnings(
            reference_flow_up, graph, root)
        assert fam.vertex_order == order
        assert fam.scaling_factors == factors
        assert list(fam.members) == members
        assert fam_warnings == ref_warnings

    def test_zero_edge_warns_per_member(self):
        _, messages = recorded_warnings(flow_up_family, self.CASES[0])
        assert messages and all("('a', 'c') contributes a zero factor" in m
                                for m in messages)


class TestNontrivialExistence:
    def test_positive_on_triangle(self):
        g = triangle_z()
        flag, witness = is_nontrivial_exists(g)
        assert flag
        assert verify(g, witness).ok and is_nontrivial(witness)

    def test_negative_when_zero_edges_connect(self):
        g = make_graph(Z, ["a", "b", "c"],
                       [("a", "b", 0), ("b", "c", 0), ("a", "c", 5)])
        assert is_nontrivial_exists(g) == (False, None)

    def test_witness_respects_zero_component(self):
        g = make_graph(Z, ["a", "b", "c", "d"],
                       [("a", "b", 0), ("b", "c", 3), ("c", "d", 0)])
        flag, witness = is_nontrivial_exists(g)
        assert flag
        assert witness["a"] == witness["b"] == Z.element(3)
        assert witness["c"].is_zero and witness["d"].is_zero

    def test_single_vertex(self):
        g = make_graph(Z, ["a"], [])
        assert is_nontrivial_exists(g) == (False, None)

    def test_needs_domain(self):
        R = integers_mod(6)
        g = make_graph(R, ["a", "b"], [("a", "b", 2)])
        with pytest.raises(UnsupportedRingError):
            is_nontrivial_exists(g)
