"""JSON round-trips and schema diagnostics."""
from fractions import Fraction

import pytest

from gensplines import integers, integers_mod, poly_rational
from gensplines.serialize import (
    SchemaError,
    element_from_json,
    element_to_json,
    graph_from_json,
    graph_to_json,
    report_to_json,
    ring_from_json,
    ring_to_json,
    spline_from_json,
    spline_to_json,
)
from gensplines.splines import verify

from conftest import coefficients, load_fixture

QX = poly_rational()


class TestRings:
    def test_round_trip(self):
        for ring in (integers(), integers_mod(7), poly_rational()):
            assert ring_from_json(ring_to_json(ring)) == ring

    def test_bad_kind(self):
        with pytest.raises(SchemaError):
            ring_from_json({"kind": "bogus"})
        with pytest.raises(SchemaError):
            ring_from_json({"kind": "integers-mod", "modulus": 1})
        with pytest.raises(SchemaError):
            ring_from_json("integers")


class TestElements:
    def test_integer_round_trip(self):
        Z = integers()
        x = Z.element(-42)
        assert element_from_json(Z, element_to_json(x)) == x

    def test_poly_round_trip(self):
        p = QX.element(["1/2", 0, 1])
        encoded = element_to_json(p)
        assert encoded == ["1/2", "0", "1"]
        assert element_from_json(QX, encoded) == p

    def test_residue_range_enforced(self):
        R = integers_mod(5)
        assert element_from_json(R, "4") == R.element(4)
        with pytest.raises(SchemaError, match="outside"):
            element_from_json(R, "5")
        with pytest.raises(SchemaError, match="outside"):
            element_from_json(R, "-1")

    def test_bad_values(self):
        Z = integers()
        with pytest.raises(SchemaError):
            element_from_json(Z, "x")
        for data in (True, 1.5, ["1"]):
            with pytest.raises(SchemaError, match="expected a decimal string"):
                element_from_json(Z, data)
        with pytest.raises(SchemaError):
            element_from_json(QX, [["nested"]])
        with pytest.raises(SchemaError, match="zero denominator in '1/0'"):
            element_from_json(QX, ["1/0"])

    @pytest.mark.parametrize("coeff", ["1e100000000", "0.5", 1.5, "1/2/3", True,
                                       "1_000", " 3", "1/ 2", "\u0663"])
    def test_coefficient_grammar_rejects(self, coeff):
        with pytest.raises(SchemaError, match="spline.values"):
            element_from_json(QX, [coeff], "spline.values[v1]")

    def test_coefficient_grammar_accepts(self):
        assert coefficients(element_from_json(QX, ["1/2", "-3", 2])) == (
            Fraction(1, 2), Fraction(-3), Fraction(2))
        assert element_from_json(QX, "1/2") == QX.element([Fraction(1, 2)])


class TestGraphs:
    def test_k4_round_trip(self, k4_graph):
        doc = graph_to_json(k4_graph)
        back = graph_from_json(doc)
        assert back.vertices == k4_graph.vertices
        assert back.edges == k4_graph.edges
        assert all(back.labels[e] == k4_graph.labels[e] for e in back.edges)

    def test_edges_sorted_canonically(self, k4_graph):
        doc = graph_to_json(k4_graph)
        pairs = [(e["u"], e["v"]) for e in doc["edges"]]
        assert pairs == sorted(
            pairs, key=lambda p: (k4_graph.index(p[0]), k4_graph.index(p[1])))

    def test_missing_fields(self):
        with pytest.raises(SchemaError, match="missing field 'edges'"):
            graph_from_json({"ring": {"kind": "integers"}, "vertices": []})
        with pytest.raises(SchemaError, match="graph.edges\\[0\\]"):
            graph_from_json({"ring": {"kind": "integers"},
                             "vertices": ["a", "b"],
                             "edges": [{"u": "a"}]})
        with pytest.raises(SchemaError, match="ideal"):
            graph_from_json({"ring": {"kind": "integers"},
                             "vertices": ["a", "b"],
                             "edges": [{"u": "a", "v": "b", "ideal": []}]})

    def test_structural_errors_reported_as_schema(self):
        with pytest.raises(SchemaError, match="graph: expected an object"):
            graph_from_json([])
        with pytest.raises(SchemaError, match="graph.vertices: expected an array of id"):
            graph_from_json({"ring": {"kind": "integers"}, "vertices": [1, 2], "edges": []})
        with pytest.raises(SchemaError, match="self-loop"):
            graph_from_json({"ring": {"kind": "integers"},
                             "vertices": ["a"],
                             "edges": [{"u": "a", "v": "a", "ideal": ["2"]}]})


class TestSplines:
    def test_round_trip(self, k4_graph, k4_spline):
        doc = spline_to_json(k4_spline)
        assert spline_from_json(k4_graph, doc) == k4_spline

    def test_vertex_mismatch(self, k4_graph):
        with pytest.raises(SchemaError):
            spline_from_json(k4_graph, {"values": {"v1": ["0"]}})
        with pytest.raises(SchemaError):
            spline_from_json(k4_graph, {"wrong": {}})
        with pytest.raises(SchemaError, match="spline.values: expected an object"):
            spline_from_json(k4_graph, {"values": [["0"]] * 4})

    def test_value_path_in_error(self, k4_graph):
        doc = load_fixture("k4-spline.json")
        doc["values"]["v2"] = ["1/0"]
        with pytest.raises(SchemaError,
                           match="spline.values\\[v2\\]: zero denominator in '1/0'"):
            spline_from_json(k4_graph, doc)


class TestReports:
    def test_violation_encoding(self, k4_graph, k4_cycle_tuple):
        doc = report_to_json(verify(k4_graph, k4_cycle_tuple))
        assert doc["ok"] is False
        edges = [tuple(v["edge"]) for v in doc["violations"]]
        assert edges == [("v1", "v3"), ("v2", "v4")]
        assert all(isinstance(v["difference"], list) for v in doc["violations"])
