"""Splines on edge-labeled graphs: verification and ring/module structure.

A Spline is a candidate vertex labeling; membership in the spline ring
is checked by verify(), never assumed, with one divisibility test per edge
on payloads; p_u - p_v is built for a violated edge alone.  The spline
arithmetic computes on payloads, wraps each value once and builds its
result with _spline, the one constructor that skips Spline's vertex-set
and ring checks.
"""
from __future__ import annotations

import warnings

from .graphs import (
    DisconnectedGraphError,
    EdgeLabeledGraph,
    GraphError,
    disjoint_union,
)
from .rings import Record, RingElement, RingMismatchError, _element


class Spline(Record):
    """A total map from the host graph's vertices to ring elements."""

    __slots__ = ("graph", "values")

    def __init__(self, graph: EdgeLabeledGraph, values):
        values = dict(values)
        if set(values) != set(graph.vertices):
            missing = set(graph.vertices) - set(values)
            extra = set(values) - set(graph.vertices)
            raise GraphError(
                f"spline does not match vertex set (missing {sorted(map(str, missing))}, "
                f"extra {sorted(map(str, extra))})"
            )
        ring = graph.ring
        for v, x in values.items():
            if not isinstance(x, RingElement) or (x.ring is not ring and x.ring != ring):
                raise RingMismatchError(f"value at {v!r} is not over {ring}")
        self._set(graph, values)

    def __getitem__(self, v) -> RingElement:
        return self.values[v]

    def as_tuple(self) -> tuple:
        return tuple(self.values[v] for v in self.graph.vertices)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Spline)
            and self.graph.vertices == other.graph.vertices
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {x}" for v, x in
                          ((v, self.values[v]) for v in self.graph.vertices))
        return f"Spline({inner})"


def _spline(graph: EdgeLabeledGraph, values: dict) -> Spline:
    """A Spline of values the library computed on graph's vertices and ring, unchecked."""
    spline = object.__new__(Spline)
    spline._set(graph, values)
    return spline


class VerificationReport(Record):
    __slots__ = ("ok", "violations")  # violations: (edge, difference) pairs


def check_host(graph: EdgeLabeledGraph, spline: Spline) -> None:
    """Refuse a spline on another vertex set or over another ring."""
    if set(spline.values) != set(graph.vertices):
        raise GraphError("spline is not defined on this graph's vertices")
    ring = spline.graph.ring
    if ring is not graph.ring and ring != graph.ring:
        raise RingMismatchError(f"spline over {ring} on a graph over {graph.ring}")


def _failing_edges(graph: EdgeLabeledGraph, spline: Spline) -> list:
    """(edge index, p_u - p_v) on payloads for each edge (u, v) whose
    label refuses the difference, built for such an edge alone.  Over Z/m
    it is a difference of residues, which the label's divisor of m decides
    as it decides the residue."""
    values = spline.values
    failing = []
    for k, ((u, v), label) in enumerate(zip(graph.edges, graph.labels.values())):
        a, b = values[u].payload, values[v].payload
        if not label._holds(a, b):
            failing.append((k, a - b))
    return failing


def verify(graph: EdgeLabeledGraph, spline: Spline) -> VerificationReport:
    """Check the per-edge membership condition; report every violated edge."""
    check_host(graph, spline)
    violations = tuple((graph.edges[k], _element(graph.ring, diff))
                       for k, diff in _failing_edges(graph, spline))
    return VerificationReport(not violations, violations)


def spline_add(p: Spline, q: Spline) -> Spline:
    check_host(p.graph, q)
    return _pointwise(p.graph, p, lambda v, x: x + q[v].payload)


def spline_mul(p: Spline, q: Spline) -> Spline:
    check_host(p.graph, q)
    return _pointwise(p.graph, p, lambda v, x: x * q[v].payload)


def spline_neg(p: Spline) -> Spline:
    return _pointwise(p.graph, p, lambda v, x: -x)


def scalar_mul(r: RingElement, p: Spline) -> Spline:
    p.graph.ring.zero._check(r)
    return _pointwise(p.graph, p, lambda v, x: r.payload * x)


def _pointwise(graph: EdgeLabeledGraph, p: Spline, f) -> Spline:
    """The spline on graph, p's vertex set, with f(v, payload of p[v]) at v."""
    ring = graph.ring
    return _spline(graph, {v: _element(ring, f(v, p[v].payload)) for v in graph.vertices})


def restrict_spline(p: Spline, subgraph: EdgeLabeledGraph) -> Spline:
    if not subgraph.is_subgraph_of(p.graph):
        raise GraphError("target is not a subgraph of the spline's host")
    return Spline(subgraph, {v: p[v] for v in subgraph.vertices})


def decompose_at_vertex(graph: EdgeLabeledGraph, p: Spline, v):
    """Split p = r*1 + p_v_part with p_v_part vanishing at v (connected G)."""
    graph.index(v)
    if not graph.is_connected:
        raise DisconnectedGraphError(graph.components())
    report = verify(graph, p)
    if not report.ok:
        raise ValueError(f"not a generalized spline; {len(report.violations)} edge(s) violated")
    r = p[v]
    return r, _pointwise(graph, p, lambda w, x: x - r.payload)


def transport(p: Spline, target: EdgeLabeledGraph, vertex_map: dict) -> Spline:
    """Move p along an edge- and label-preserving vertex bijection."""
    source = p.graph
    if set(vertex_map) != set(source.vertices):
        raise GraphError("map is not defined on every source vertex")
    images = set(vertex_map.values())
    if len(images) != len(vertex_map) or images != set(target.vertices):
        raise GraphError("map is not a bijection onto the target's vertices")
    if len(source.edges) != len(target.edges):
        raise GraphError("map does not preserve edges")
    for u, v in source.edges:
        try:
            image_label = target.label(vertex_map[u], vertex_map[v])
        except GraphError:
            raise GraphError(f"image of edge {u!r}-{v!r} is not an edge") from None
        if image_label != source.labels[(u, v)]:
            raise GraphError(f"label mismatch on image of edge {u!r}-{v!r}")
    return Spline(target, {vertex_map[v]: p[v] for v in source.vertices})


def direct_sum_spline(p1: Spline, p2: Spline) -> Spline:
    """Concatenate splines across a disjoint union of their hosts."""
    union = disjoint_union(p1.graph, p2.graph)
    return Spline(union, zip(union.vertices, p1.as_tuple() + p2.as_tuple()))


def scaled_labeling(graph: EdgeLabeledGraph, r: RingElement) -> EdgeLabeledGraph:
    """Replace every edge label I by r*I."""
    if r.is_zero:
        warnings.warn(
            "scaling labels by zero collapses every ideal; only constant "
            "splines verify on a connected graph",
            stacklevel=2,
        )
    labeled = [(u, v, graph.labels[(u, v)].scaled(r)) for u, v in graph.edges]
    return EdgeLabeledGraph(graph.ring, graph.vertices, labeled)


def is_nontrivial(p: Spline) -> bool:
    """True iff p is not a constant multiple of the unit spline."""
    values = list(p.values.values())
    return any(x != values[0] for x in values[1:])
