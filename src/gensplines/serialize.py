"""JSON encoding of elements, graphs, splines, reports, and families.

Element text encoding: integers as optional-sign decimal strings;
residues as decimal strings in [0, m); polynomials as arrays of
coefficient strings "p/q" (or "p") in ascending degree.  Canonical graph
serialization sorts edges by endpoints in vertex declaration order.
"""
from __future__ import annotations

from .graphs import EdgeLabeledGraph, GraphError
from .rings import (
    POLY_RATIONAL,
    Ideal,
    RingElement,
    RingSpec,
    _coefficient_text,
    read_decimal,
)
from .splines import Spline, VerificationReport, _spline


class SchemaError(ValueError):
    """Raised when a JSON document does not match the expected shape."""


def _is_int(data) -> bool:
    """A JSON integer: bool is an int subclass in Python, not in JSON."""
    return isinstance(data, int) and not isinstance(data, bool)


def ring_to_json(ring: RingSpec) -> dict:
    out = {"kind": ring.kind}
    if ring.modulus is not None:
        out["modulus"] = ring.modulus
    return out


def ring_from_json(data) -> RingSpec:
    if not isinstance(data, dict) or "kind" not in data:
        raise SchemaError("ring: expected an object with a 'kind' field")
    kind = data["kind"]
    modulus = data.get("modulus")
    if modulus is not None and not _is_int(modulus):
        raise SchemaError("ring.modulus: expected an integer")
    try:
        return RingSpec(kind, modulus)
    except ValueError as exc:
        raise SchemaError(f"ring: {exc}") from exc


def element_to_json(x: RingElement):
    if x.ring.kind == POLY_RATIONAL:
        return [_coefficient_text(n, d) for n, d in x.payload.ratios()]
    return str(x.payload)


def element_from_json(ring: RingSpec, data, where: str = "element") -> RingElement:
    try:
        return _read_element(ring, data)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _read_element(ring: RingSpec, data) -> RingElement:
    """element_from_json's reader; its errors name no location, which callers add."""
    if ring.kind == POLY_RATIONAL:
        if isinstance(data, (str, int)):
            data = [data]
        if not isinstance(data, list):
            raise ValueError("polynomial must be an array of coefficients")
        if not all(_is_int(c) or isinstance(c, str) for c in data):
            raise ValueError("expected an integer or a 'p/q' coefficient string")
        return ring.element(data)
    if isinstance(data, str):
        data = read_decimal(data)
    elif type(data) is not int:
        raise ValueError("expected a decimal string")
    if ring.modulus is not None and not 0 <= data < ring.modulus:
        raise ValueError(f"residue {data} outside [0, {ring.modulus})")
    return RingElement(ring, data)


def graph_to_json(graph: EdgeLabeledGraph) -> dict:
    edges = sorted(graph.edges, key=lambda e: (graph._index[e[0]], graph._index[e[1]]))
    return {
        "ring": ring_to_json(graph.ring),
        "vertices": list(graph.vertices),
        "edges": [
            {
                "u": u,
                "v": v,
                "ideal": [element_to_json(g) for g in graph.labels[(u, v)].generators],
            }
            for u, v in edges
        ],
    }


def _text_key(gens) -> tuple | None:
    """An ideal array as a tuple, its arrays as tuples, if every leaf is a str:
    a key that tells "1", 1, true and 1.0 apart and turns no long int into text."""
    key = []
    for g in gens:
        if type(g) is list and {*map(type, g)} <= {str}:
            g = tuple(g)
        elif type(g) is not str:
            return None
        key.append(g)
    return tuple(key)


def graph_from_json(data) -> EdgeLabeledGraph:
    if not isinstance(data, dict):
        raise SchemaError("graph: expected an object")
    for field in ("ring", "vertices", "edges"):
        if field not in data:
            raise SchemaError(f"graph: missing field '{field}'")
    ring = ring_from_json(data["ring"])
    vertices = data["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise SchemaError("graph.vertices: expected an array of id strings")
    if not isinstance(data["edges"], list):
        raise SchemaError("graph.edges: expected an array")
    # ideals are immutable: one per distinct array of strings, as graph_to_json writes
    labeled, ideals = [], {}
    for k, entry in enumerate(data["edges"]):
        if not isinstance(entry, dict) or not {"u", "v", "ideal"} <= set(entry):
            raise SchemaError(f"graph.edges[{k}]: expected an object with u, v, ideal")
        if not isinstance(entry["u"], str) or not isinstance(entry["v"], str):
            raise SchemaError(f"graph.edges[{k}]: u and v must be id strings")
        gens = entry["ideal"]
        if not isinstance(gens, list) or not gens:
            raise SchemaError(f"graph.edges[{k}].ideal: expected a nonempty array")
        key = _text_key(gens)
        ideal = ideals.get(key)
        if ideal is None:
            elements = []
            try:
                for g in gens:
                    elements.append(_read_element(ring, g))
            except (ValueError, ZeroDivisionError) as exc:
                raise SchemaError(f"graph.edges[{k}].ideal[{len(elements)}]: {exc}") from exc
            ideal = Ideal(elements)
            if key is not None:
                ideals[key] = ideal
        labeled.append((entry["u"], entry["v"], ideal))
    try:
        return EdgeLabeledGraph(ring, vertices, labeled)
    except (GraphError, ValueError) as exc:
        raise SchemaError(f"graph: {exc}") from exc


def spline_to_json(spline: Spline) -> dict:
    return {
        "values": {v: element_to_json(spline[v]) for v in spline.graph.vertices}
    }


def spline_from_json(graph: EdgeLabeledGraph, data) -> Spline:
    if not isinstance(data, dict) or "values" not in data:
        raise SchemaError("spline: expected an object with a 'values' field")
    values = data["values"]
    if not isinstance(values, dict):
        raise SchemaError("spline.values: expected an object keyed by vertex id")
    # elements are immutable: one read per distinct string, which is what
    # spline_to_json writes over Z and Z/m
    ring, parsed, read = graph.ring, {}, {}
    try:
        for v, x in values.items():
            if type(x) is not str:
                element = _read_element(ring, x)
            elif (element := read.get(x)) is None:
                element = read[x] = _read_element(ring, x)
            parsed[v] = element
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"spline.values[{v}]: {exc}") from exc
    if parsed.keys() == graph._index.keys():
        return _spline(graph, parsed)
    try:
        return Spline(graph, parsed)
    except (GraphError, ValueError) as exc:
        raise SchemaError(f"spline: {exc}") from exc


def report_to_json(report: VerificationReport) -> dict:
    return {
        "ok": report.ok,
        "violations": [
            {"edge": [u, v], "difference": element_to_json(diff)}
            for (u, v), diff in report.violations
        ],
    }


def family_to_json(family) -> dict:
    members = []
    for p in family.members:  # one factor object and zero: each value converted once
        text = {id(x): element_to_json(x) for x in {id(x): x for x in p.values.values()}.values()}
        members.append({"values": {v: text[id(p[v])] for v in p.graph.vertices}})
    return {
        "vertex_order": list(family.vertex_order),
        "members": members,
        "scaling_factors": [element_to_json(x) for x in family.scaling_factors],
    }
