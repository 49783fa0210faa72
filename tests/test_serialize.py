"""JSON round-trips and schema diagnostics."""
import sys
from fractions import Fraction

import pytest

from gensplines import integers, integers_mod, poly_rational, serialize
from gensplines.construct import flow_up_family, tree_generating_family
from gensplines.serialize import (
    SchemaError,
    element_from_json,
    element_to_json,
    family_to_json,
    graph_from_json,
    graph_to_json,
    report_to_json,
    ring_from_json,
    ring_to_json,
    spline_from_json,
    spline_to_json,
)
from gensplines.splines import verify

from conftest import (coefficients, load_fixture, random_connected_graph, random_tree,
                      seeded)

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


@pytest.mark.parametrize("ring", [integers(), integers_mod(12), QX], ids=str)
def test_a_family_converts_each_value_object_once_per_member(ring, monkeypatch):
    # a member holds one factor object on its support and the ring's zero
    # elsewhere, so a member costs two conversions at most, not one per
    # vertex; the document is the one spline_to_json writes for each
    rng = seeded(3400)
    for _ in range(10):
        graph = random_connected_graph(ring, rng, n_max=9, e_max=14, nonzero=True)
        for family in (flow_up_family(graph), tree_generating_family(random_tree(ring, rng, 9))):
            expected = {"vertex_order": list(family.vertex_order),
                        "members": [spline_to_json(p) for p in family.members],
                        "scaling_factors": [element_to_json(x) for x in family.scaling_factors]}
            calls = []
            monkeypatch.setattr(serialize, "element_to_json",
                                lambda x: calls.append(x) or element_to_json(x))
            assert family_to_json(family) == expected
            monkeypatch.undo()
            per_member = calls[:len(calls) - len(family.scaling_factors)]
            distinct = [len({id(x) for x in p.values.values()}) for p in family.members]
            assert len(per_member) == sum(distinct) <= 2 * len(family.members)


Z_RING, Z5_RING, QX_RING = ({"kind": "integers"}, {"kind": "integers-mod", "modulus": 5},
                            {"kind": "poly-rational"})


def star(ring, *ideals):
    """A graph document whose edge k joins v0 and v{k + 1}, labeled ideals[k]."""
    return {"ring": ring, "vertices": [f"v{i}" for i in range(len(ideals) + 1)],
            "edges": [{"u": "v0", "v": f"v{k + 1}", "ideal": ideal}
                      for k, ideal in enumerate(ideals)]}


def graph_case(doc, message, id):
    return pytest.param(graph_from_json, (doc,), message, id="graph-" + id)


def spline_case(ring, values, message, id):
    return pytest.param(lambda doc: spline_from_json(graph_from_json(star(ring, ["2"], ["3"])),
                                                     doc),
                        (values,), message, id="spline-" + id)


def element_case(ring, data, message, id, *where):
    return pytest.param(element_from_json, (ring, data, *where), message, id="element-" + id)


Z, Z5 = integers(), integers_mod(5)
LONG = "1" * 1001  # past the 1,000-digit limit the battery runs under

# every SchemaError branch of the three readers, with its exact message; the
# star cases repeat equal and look-alike ideal arrays, so a reader that
# shares one ideal per distinct array must still refuse each bad entry where
# it stands: "2", 2, true and 1.0 are four different JSON values
LOADER_ERRORS = [
    graph_case([], "graph: expected an object", "not-an-object"),
    graph_case({"vertices": [], "edges": []}, "graph: missing field 'ring'", "no-ring"),
    graph_case({"ring": Z_RING, "edges": []}, "graph: missing field 'vertices'", "no-vertices"),
    graph_case({"ring": Z_RING, "vertices": []}, "graph: missing field 'edges'", "no-edges"),
    graph_case({**star(Z_RING), "ring": "integers"},
               "ring: expected an object with a 'kind' field", "ring-not-an-object"),
    graph_case({**star(Z_RING), "ring": {"kind": "integers-mod", "modulus": "4"}},
               "ring.modulus: expected an integer", "modulus-a-string"),
    graph_case({**star(Z_RING), "ring": {"kind": "integers-mod", "modulus": 1}},
               "ring: integers-mod requires a modulus >= 2", "modulus-one"),
    graph_case({**star(Z_RING), "ring": {"kind": "bogus"}},
               "ring: unknown ring kind: 'bogus'", "unknown-kind"),
    graph_case({**star(Z_RING), "ring": {"kind": "integers", "modulus": 4}},
               "ring: integers does not take a modulus", "modulus-over-z"),
    graph_case({**star(Z_RING), "vertices": "ab"},
               "graph.vertices: expected an array of id strings", "vertices-a-string"),
    graph_case({**star(Z_RING), "vertices": ["a", 2]},
               "graph.vertices: expected an array of id strings", "vertex-an-int"),
    graph_case({**star(Z_RING), "edges": {}}, "graph.edges: expected an array", "edges-an-object"),
    graph_case({**star(Z_RING, ["2"]), "edges": [["v0", "v1"]]},
               "graph.edges[0]: expected an object with u, v, ideal", "edge-an-array"),
    graph_case({**star(Z_RING, ["2"], ["2"]),
                "edges": [{"u": "v0", "v": "v1", "ideal": ["2"]}, {"u": "v0", "v": "v2"}]},
               "graph.edges[1]: expected an object with u, v, ideal", "edge-without-ideal"),
    graph_case({**star(Z_RING, ["2"]), "edges": [{"u": 0, "v": "v1", "ideal": ["2"]}]},
               "graph.edges[0]: u and v must be id strings", "endpoint-an-int"),
    graph_case(star(Z_RING, ["2"], []), "graph.edges[1].ideal: expected a nonempty array",
               "ideal-empty"),
    graph_case(star(Z_RING, ["2"], "2"), "graph.edges[1].ideal: expected a nonempty array",
               "ideal-a-string"),
    graph_case(star(Z_RING, ["2", "x"]),
               "graph.edges[0].ideal[1]: expected a decimal integer, got 'x'", "z-not-decimal"),
    graph_case(star(Z_RING, ["2"], ["2", LONG]),
               "graph.edges[1].ideal[1]: integer of 1001 digits is past the input bound of "
               "1000 digits", "z-past-the-limit"),
    graph_case(star(Z5_RING, ["2"], ["2"], ["5"]),
               "graph.edges[2].ideal[0]: residue 5 outside [0, 5)", "zm-residue-m"),
    graph_case(star(Z5_RING, ["2"], [2], [-1]),
               "graph.edges[2].ideal[0]: residue -1 outside [0, 5)", "zm-negative-int"),
    graph_case(star(QX_RING, [["1", "1"]], [1.5]),
               "graph.edges[1].ideal[0]: polynomial must be an array of coefficients",
               "qx-float"),
    graph_case(star(QX_RING, [["1", None]]),
               "graph.edges[0].ideal[0]: expected an integer or a 'p/q' coefficient string",
               "qx-null-coefficient"),
    graph_case(star(QX_RING, [["1"]], [["1/0"]]),
               "graph.edges[1].ideal[0]: zero denominator in '1/0'", "qx-zero-denominator"),
    graph_case(star(QX_RING, [["0.5"]]),
               "graph.edges[0].ideal[0]: expected a decimal integer, got '0.5'", "qx-decimal-point"),
    graph_case({**star(Z_RING, ["2"]), "vertices": ["v0", "v1", "v0"]},
               "graph: duplicate vertex id 'v0'", "duplicate-vertex"),
    graph_case({**star(Z_RING, ["2"]), "vertices": ["v0"]},
               "graph: edge endpoint 'v1' is not a declared vertex", "undeclared-endpoint"),
    graph_case({**star(Z_RING, ["2"]), "edges": [{"u": "v0", "v": "v0", "ideal": ["2"]}]},
               "graph: self-loop at 'v0'", "self-loop"),
    graph_case({**star(Z_RING, ["2"], ["2"]),
                "edges": [{"u": "v0", "v": "v1", "ideal": ["2"]},
                          {"u": "v1", "v": "v0", "ideal": ["2"]}]},
               "graph: duplicate edge 'v0'-'v1'", "duplicate-edge"),
    graph_case(star(Z_RING, ["2"], [2], [True]),
               "graph.edges[2].ideal[0]: expected a decimal string", "z-true-after-2"),
    graph_case(star(Z_RING, ["2"], [2], [1.0]),
               "graph.edges[2].ideal[0]: expected a decimal string", "z-float-after-2"),
    graph_case(star(Z_RING, [True], ["2"], [2]),
               "graph.edges[0].ideal[0]: expected a decimal string", "z-true-first"),
    graph_case(star(Z_RING, [1], [True]),
               "graph.edges[1].ideal[0]: expected a decimal string", "z-true-after-1"),
    graph_case(star(Z_RING, ["1"], [True]),
               "graph.edges[1].ideal[0]: expected a decimal string", "z-true-after-str-1"),
    graph_case(star(Z_RING, ["2"], ["2"], ["2", True]),
               "graph.edges[2].ideal[1]: expected a decimal string", "z-true-after-equal-arrays"),
    graph_case(star(Z_RING, ["2"], ["2"], [LONG]),
               "graph.edges[2].ideal[0]: integer of 1001 digits is past the input bound of "
               "1000 digits", "z-past-the-limit-after-equal-arrays"),
    graph_case(star(QX_RING, [[1]], [[True]]),
               "graph.edges[1].ideal[0]: expected an integer or a 'p/q' coefficient string",
               "qx-true-after-1"),
    graph_case(star(QX_RING, [["1"]], [[True]]),
               "graph.edges[1].ideal[0]: expected an integer or a 'p/q' coefficient string",
               "qx-true-after-str-1"),
    graph_case(star(QX_RING, [["1", "1"]], [("1", "1")]),
               "graph.edges[1].ideal[0]: polynomial must be an array of coefficients",
               "qx-tuple-after-equal-array"),
    graph_case(star(QX_RING, ["1"], [True]),
               "graph.edges[1].ideal[0]: expected an integer or a 'p/q' coefficient string",
               "qx-bare-true-after-bare-1"),
    spline_case(Z_RING, [], "spline: expected an object with a 'values' field", "not-an-object"),
    spline_case(Z_RING, {"value": {}}, "spline: expected an object with a 'values' field",
                "no-values"),
    spline_case(Z_RING, {"values": [["0"]] * 3},
                "spline.values: expected an object keyed by vertex id", "values-an-array"),
    spline_case(Z_RING, {"values": {"v0": "0", "v1": "x", "v2": "0"}},
                "spline.values[v1]: expected a decimal integer, got 'x'", "z-not-decimal"),
    spline_case(Z_RING, {"values": {"v0": "0", "v1": True}},
                "spline.values[v1]: expected a decimal string", "z-true-before-missing"),
    spline_case(Z5_RING, {"values": {"v0": "0", "v1": "4", "v2": "5"}},
                "spline.values[v2]: residue 5 outside [0, 5)", "zm-residue-m"),
    spline_case(QX_RING, {"values": {"v0": ["1/0"], "v1": "0", "v2": "0"}},
                "spline.values[v0]: zero denominator in '1/0'", "qx-zero-denominator"),
    spline_case(Z_RING, {"values": {"v0": "0", "v1": "0"}},
                "spline: spline does not match vertex set (missing ['v2'], extra [])",
                "missing-vertex"),
    spline_case(Z_RING, {"values": {"v0": "0", "v1": "0", "v2": "0", "w": "0"}},
                "spline: spline does not match vertex set (missing [], extra ['w'])",
                "extra-vertex"),
    spline_case(QX_RING, {"values": {"v2": [], "v1": [], "w": []}},
                "spline: spline does not match vertex set (missing ['v0'], extra ['w'])",
                "missing-and-extra-vertex"),
    element_case(Z, "x", "element: expected a decimal integer, got 'x'", "z-not-decimal"),
    element_case(Z, LONG, "element: integer of 1001 digits is past the input bound of 1000 "
                 "digits", "z-past-the-limit"),
    element_case(Z, True, "element: expected a decimal string", "z-true"),
    element_case(Z, 1.5, "element: expected a decimal string", "z-float"),
    element_case(Z, ["1"], "element: expected a decimal string", "z-array"),
    element_case(Z5, "5", "element: residue 5 outside [0, 5)", "zm-residue-m"),
    element_case(Z5, -1, "element: residue -1 outside [0, 5)", "zm-negative-int"),
    element_case(QX, 1.5, "element: polynomial must be an array of coefficients", "qx-float"),
    element_case(QX, None, "element: polynomial must be an array of coefficients", "qx-null"),
    element_case(QX, True, "element: expected an integer or a 'p/q' coefficient string",
                 "qx-true"),
    element_case(QX, [["nested"]], "element: expected an integer or a 'p/q' coefficient string",
                 "qx-nested"),
    element_case(QX, ["1/0"], "element: zero denominator in '1/0'", "qx-zero-denominator"),
    element_case(QX, ["1/2/3"], "element: expected a decimal integer, got '2/3'", "qx-two-slashes"),
    element_case(QX, ["0.5"], "spline.values[v1]: expected a decimal integer, got '0.5'",
                 "qx-decimal-point-at-a-location", "spline.values[v1]"),
]


@pytest.mark.parametrize("read, args, message", LOADER_ERRORS)
def test_each_loader_error_names_its_location(read, args, message):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        with pytest.raises(SchemaError) as caught:
            read(*args)
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(caught.value) == message
