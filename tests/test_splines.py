"""Verification against the worked K4 examples, plus the ring/module
structure of the spline set."""
import pytest

from gensplines import integers, integers_mod, poly_rational, verify
from gensplines.graphs import GraphError, restrict
from gensplines.rings import RingMismatchError
from gensplines.splines import (
    Spline,
    decompose_at_vertex,
    direct_sum_spline,
    is_nontrivial,
    restrict_spline,
    scalar_mul,
    scaled_labeling,
    spline_add,
    spline_mul,
    spline_neg,
    transport,
)

from conftest import P, make_graph, triangle_z

Z = integers()
QX = poly_rational()


def zspline(graph, *ints):
    return Spline(graph, {v: Z.element(x)
                          for v, x in zip(graph.vertices, ints)})


class TestSplineBasics:
    def test_total_map_required(self):
        g = triangle_z()
        with pytest.raises(GraphError, match="missing"):
            Spline(g, {"v1": Z.element(0)})
        with pytest.raises(GraphError, match="extra"):
            Spline(g, {"v1": Z.element(0), "v2": Z.element(0),
                       "v3": Z.element(0), "v4": Z.element(0)})

    def test_values_must_match_ring(self):
        g = triangle_z()
        with pytest.raises(RingMismatchError):
            Spline(g, {"v1": P(1), "v2": P(1), "v3": P(1)})

    def test_tuple_and_equality(self):
        g = triangle_z()
        p = zspline(g, 0, 10, 25)
        assert p.as_tuple() == (Z.element(0), Z.element(10), Z.element(25))
        assert p == zspline(g, 0, 10, 25)
        assert p != zspline(g, 0, 10, 24)


class TestWorkedK4Examples:
    def test_golden_spline_verifies(self, k4_graph, k4_spline):
        assert verify(k4_graph, k4_spline).ok

    def test_path_tuple_fails_off_its_path(self, k4_graph, k4_path_tuple):
        report = verify(k4_graph, k4_path_tuple)
        assert not report.ok
        bad = {edge for edge, _ in report.violations}
        assert bad == {("v1", "v3"), ("v1", "v4"), ("v2", "v4")}
        bold = restrict(k4_graph, ["v1", "v2", "v3", "v4"],
                        [("v1", "v2"), ("v2", "v3"), ("v3", "v4")])
        assert verify(bold, restrict_spline(k4_path_tuple, bold)).ok

    def test_cycle_tuple_fails_on_diagonals(self, k4_graph, k4_cycle_tuple):
        report = verify(k4_graph, k4_cycle_tuple)
        assert not report.ok
        bad = {edge for edge, _ in report.violations}
        assert bad == {("v1", "v3"), ("v2", "v4")}
        perimeter = restrict(k4_graph, ["v1", "v2", "v3", "v4"],
                             [("v1", "v2"), ("v2", "v3"),
                              ("v3", "v4"), ("v1", "v4")])
        assert verify(perimeter, restrict_spline(k4_cycle_tuple, perimeter)).ok

    def test_restriction_to_subpath(self, k4_graph, k4_path_tuple):
        sub = restrict(k4_graph, ["v1", "v2", "v3"],
                       [("v1", "v2"), ("v2", "v3")])
        assert verify(sub, restrict_spline(k4_path_tuple, sub)).ok

    def test_scalar_multiple_still_verifies(self, k4_graph, k4_path_tuple):
        bold = restrict(k4_graph, ["v1", "v2", "v3", "v4"],
                        [("v1", "v2"), ("v2", "v3"), ("v3", "v4")])
        p = restrict_spline(k4_path_tuple, bold)
        assert verify(bold, scalar_mul(P(0, 0, 0, 0, 1), p)).ok


class TestRingStructure:
    def test_closure_under_operations(self, k4_graph, k4_spline):
        p = k4_spline
        assert verify(k4_graph, spline_add(p, p)).ok
        assert verify(k4_graph, spline_mul(p, p)).ok
        assert verify(k4_graph, spline_neg(p)).ok
        assert verify(k4_graph, scalar_mul(P(2, 3), p)).ok

    def test_host_mismatch(self):
        g = triangle_z()
        h = make_graph(Z, ["a", "b", "c"], [("a", "b", 2)])
        with pytest.raises(GraphError):
            spline_add(zspline(g, 0, 0, 0), zspline(h, 0, 0, 0))
        with pytest.raises(GraphError, match="not defined on this graph's vertices"):
            verify(h, zspline(make_graph(Z, ["a", "b", "z"], []), 0, 0, 0))

    @pytest.mark.parametrize("op", [spline_add, spline_mul])
    def test_operations_refuse_another_ring(self, op):
        R = integers_mod(6)
        g = triangle_z()
        other = Spline(make_graph(R, g.vertices, []), {v: R.one for v in g.vertices})
        with pytest.raises(RingMismatchError):
            op(zspline(g, 1, 1, 1), other)

    def test_operations_on_the_vertices_declared_in_another_order(self):
        g = triangle_z()
        h = make_graph(Z, ["v3", "v1", "v2"], [])
        p, q = zspline(g, 1, 2, 3), zspline(h, 30, 10, 20)
        assert spline_add(p, q).as_tuple() == tuple(map(Z.element, (11, 22, 33)))
        assert spline_mul(p, q).as_tuple() == tuple(map(Z.element, (10, 40, 90)))

    def test_ring_mismatch_without_edges(self):
        # no edge ideal compares the rings here, so the host check must
        edgeless = make_graph(integers_mod(6), ["a", "b"], [])
        with pytest.raises(RingMismatchError):
            verify(edgeless, zspline(make_graph(Z, ["a", "b"], []), 1, 2))

    def test_restrict_spline_rejects_non_subgraph(self, k4_graph, k4_spline):
        other = triangle_z()
        with pytest.raises(GraphError):
            restrict_spline(k4_spline, other)


class TestDecomposeAtVertex:
    def test_split_and_reassemble(self):
        g = triangle_z()
        p = zspline(g, 7, 17, 32)  # constant 7 plus (0, 10, 25)
        r, part = decompose_at_vertex(g, p, "v1")
        assert r == Z.element(7)
        assert part["v1"].is_zero
        assert verify(g, part).ok
        back = spline_add(part, Spline(g, {v: r for v in g.vertices}))
        assert back == p

    def test_rejects_non_spline(self):
        g = triangle_z()
        with pytest.raises(ValueError, match="not a generalized spline"):
            decompose_at_vertex(g, zspline(g, 0, 1, 0), "v1")

    def test_rejects_disconnected(self):
        g = make_graph(Z, ["a", "b", "c"], [("a", "b", 2)])
        p = zspline(g, 0, 0, 0)
        with pytest.raises(GraphError):
            decompose_at_vertex(g, p, "a")
        with pytest.raises(GraphError):
            decompose_at_vertex(triangle_z(), zspline(triangle_z(), 0, 0, 0), "zz")


class TestTransport:
    def test_isomorphic_relabeling(self):
        g = triangle_z()
        h = make_graph(Z, ["x", "y", "z"],
                       [("x", "y", 2), ("y", "z", 3), ("x", "z", 5)])
        p = zspline(g, 0, 10, 25)
        q = transport(p, h, {"v1": "x", "v2": "y", "v3": "z"})
        assert q["y"] == Z.element(10)
        assert verify(h, q).ok

    def test_label_mismatch_rejected(self):
        g = triangle_z()
        h = make_graph(Z, ["x", "y", "z"],
                       [("x", "y", 2), ("y", "z", 3), ("x", "z", 7)])
        with pytest.raises(GraphError, match="label mismatch"):
            transport(zspline(g, 0, 0, 0), h, {"v1": "x", "v2": "y", "v3": "z"})
        path = make_graph(Z, ["x", "y", "z"], [("x", "y", 2), ("y", "z", 3)])
        with pytest.raises(GraphError, match="does not preserve edges"):
            transport(zspline(g, 0, 0, 0), path, {"v1": "x", "v2": "y", "v3": "z"})
        star = make_graph(Z, ["x", "y", "z"], [("x", "y", 2), ("x", "z", 3)])
        with pytest.raises(GraphError, match="image of edge 'y'-'z' is not an edge"):
            transport(zspline(path, 0, 0, 0), star, {"x": "x", "y": "y", "z": "z"})

    def test_non_bijection_rejected(self):
        g = triangle_z()
        with pytest.raises(GraphError):
            transport(zspline(g, 0, 0, 0), g,
                      {"v1": "v1", "v2": "v1", "v3": "v3"})
        with pytest.raises(GraphError, match="not defined on every source vertex"):
            transport(zspline(g, 0, 0, 0), g, {"v1": "v1", "v2": "v2"})


class TestDirectSumAndScaling:
    def test_direct_sum_verifies(self):
        g = triangle_z()
        p = zspline(g, 0, 10, 25)
        s = direct_sum_spline(p, p)
        assert len(s.graph.vertices) == 6
        assert verify(s.graph, s).ok
        assert s["0:v2"] == Z.element(10) and s["1:v3"] == Z.element(25)

    def test_direct_sum_over_a_prefixed_id_verifies(self):
        g = make_graph(Z, ["a", "0:a"], [("a", "0:a", 2)])
        h = make_graph(Z, ["a"], [])
        p = Spline(g, {"a": Z.element(1), "0:a": Z.element(3)})
        s = direct_sum_spline(p, Spline(h, {"a": Z.element(7)}))
        assert verify(s.graph, s).ok
        assert [s[v] for v in ("0:0:a", "0:a", "1:1:a")] == [Z.element(x) for x in (1, 3, 7)]

    def test_scaled_labeling_carries_scaled_splines(self):
        g = triangle_z()
        r = Z.element(4)
        scaled = scaled_labeling(g, r)
        assert scaled.label("v1", "v2").canonical == Z.element(8)
        p = zspline(g, 0, 10, 25)
        assert verify(scaled, scalar_mul(r, p)).ok
        # the unscaled spline generally fails on the scaled labeling
        assert not verify(scaled, p).ok

    def test_zero_scaling_warns(self):
        with pytest.warns(UserWarning, match="collapses"):
            scaled_labeling(triangle_z(), Z.element(0))

    def test_is_nontrivial(self):
        g = triangle_z()
        assert is_nontrivial(zspline(g, 0, 10, 25))
        assert not is_nontrivial(zspline(g, 3, 3, 3))
