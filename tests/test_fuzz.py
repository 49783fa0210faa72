"""Fuzz the CLI exit-code contract on mutated fixture documents.

Each example mutates the fixtures: it drops or retypes a field, changes a
scalar, or duplicates or deletes a vertex, an edge or any other array
entry.  Every command must then exit 0, 1 or 2 with no traceback, and
every graph document the parser accepts must round-trip through
graph_to_json.
"""
import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from gensplines.cli import main
from gensplines.serialize import SchemaError, graph_from_json, graph_to_json

from conftest import load_fixture

K4_SPLINES = ["k4-spline.json", "k4-path-tuple.json", "k4-cycle-tuple.json"]
# c3-z4.json has no spline fixture; this one verifies on it
C3_SPLINE = {"values": {"v1": "0", "v2": "2", "v3": "2"}}
BASES = [(load_fixture("k4.json"), load_fixture(name)) for name in K4_SPLINES]
BASES.append((load_fixture("c3-z4.json"), C3_SPLINE))

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 13),
    st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["", "0", "1", "2", "3", "-1", "1/2", "1/0", "0.5", "1e5",
                     "x", "v1", "v2", "v3", "v4", 'a"b', "c\\", "integers",
                     "integers-mod", "poly-rational", "1_000", " 3", "1/ 2", "\u0663"]),
)
KEYS = st.sampled_from(["ring", "kind", "modulus", "vertices", "edges", "u", "v",
                        "ideal", "values", "v1", "v2", "v3", "v4"])
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(KEYS, inner, max_size=3)),
    max_leaves=6,
)


def _paths(doc, prefix=()):
    """Every key or index path below the document root."""
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutate(data, doc):
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        op = data.draw(st.sampled_from(["drop", "duplicate", "set"]))
        if op == "drop":
            del parent[key]
        elif op == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = data.draw(JSON_VALUES)
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_round_trip(doc):
    try:
        graph = graph_from_json(doc)
    except SchemaError:
        return
    encoded = graph_to_json(graph)
    back = graph_from_json(json.loads(json.dumps(encoded)))
    assert graph_to_json(back) == encoded
    assert (back.ring, back.vertices, back.edges) == (graph.ring, graph.vertices, graph.edges)
    assert all(back.labels[e].generators == graph.labels[e].generators for e in graph.edges)


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_documents_keep_the_exit_contract(tmp_path_factory, data):
    graph_doc, spline_doc = data.draw(st.sampled_from(BASES))
    if data.draw(st.booleans()):
        graph_doc = _mutate(data, graph_doc)
    else:
        spline_doc = _mutate(data, spline_doc)
    folder = tmp_path_factory.mktemp("fuzz")
    graph, spline = str(folder / "graph.json"), str(folder / "spline.json")
    for path, doc in ((graph, graph_doc), (spline, spline_doc)):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    for argv in (["check", graph, spline], ["flowup", graph], ["matrix", graph],
                 ["matrix", graph, "--reduced"],
                 ["enumerate", graph, "--budget", "100000"],
                 ["decompose", graph, spline], ["dot", graph], ["dot", graph, spline]):
        code, out, err = _run(argv)
        assert code in (0, 1, 2), (argv[0], err)
        assert "Traceback" not in err
        if code == 2:
            assert out == "" and err.startswith("error: "), (argv[0], err)
    _assert_round_trip(graph_doc)
