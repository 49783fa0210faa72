"""The GKM matrix: signed incidence rows plus a symbolic last column.

Each row of the matrix encodes one edge condition p_tail - p_head = q_e
with q_e ranging over the edge's ideal.  The symbolic last column is
kept as a list of signed (coefficient slot, edge) terms so that
row reduction stays exact and reproducible.
"""
from __future__ import annotations

from .graphs import (EdgeLabeledGraph, GraphError, TreeSkeleton, fundamental_cycles,
                     keyed_by_edge, path_edges, path_order, tree_edge_keys)
from .rings import Record
from .splines import Spline, check_host


class GkmMatrix(Record):
    __slots__ = ("graph", "rows")  # rows: directed edges (tail, head), one per graph edge

    def __init__(self, graph: EdgeLabeledGraph, rows: tuple):
        self._set(graph, rows)

    def terms_by_edge(self) -> dict:
        """Each edge's signed incidence row by its two nonzero entries, in
        row order: {tail slot: +1, head slot: -1}.  A step (a, b) along the
        edge runs tail -> head exactly when the entry at a is +1."""
        graph = self.graph
        return {graph.edge_key(tail, head): {graph.index(tail): 1, graph.index(head): -1}
                for tail, head in self.rows}

    def rows_by_edge(self) -> dict:
        """The rows of terms_by_edge written out over every vertex slot."""
        n = len(self.graph.vertices)
        out = {}
        for edge, terms in self.terms_by_edge().items():
            row = [0] * n
            for k, c in terms.items():
                row[k] = c
            out[edge] = tuple(row)
        return out


def build_gkm_matrix(graph: EdgeLabeledGraph, orientation: dict | None = None) -> GkmMatrix:
    """Rows in edge declaration order, earlier declared vertex -> later by
    default; an orientation key may name its edge either way round, but
    only one key may name it.  Re-orienting an edge only negates its row,
    which never changes the solution set."""
    orientation = {e: tuple(ends) for e, ends in keyed_by_edge(graph, orientation).items()}
    for (u, v), (tail, head) in orientation.items():
        if {tail, head} != {u, v}:
            raise GraphError(f"orientation for edge {(u, v)} must use its endpoints")
    return GkmMatrix(graph, tuple(orientation.get(e, e) for e in graph.edges))


def _check_last_column(graph: EdgeLabeledGraph, q: dict) -> dict:
    """q re-keyed through edge_key, so a key names its edge either way
    round but only once; every edge needs an entry, and each must lie in
    its ideal."""
    q = keyed_by_edge(graph, q)
    for edge in graph.edges:
        if edge not in q:
            raise ValueError(f"missing q entry for edge {edge}")
        if not graph.labels[edge].contains(q[edge]):
            raise ValueError(f"q entry {q[edge]} is outside the ideal of edge {edge}")
    return q


def solves(matrix: GkmMatrix, p: Spline, q: dict) -> bool:
    """True iff M*p = q row by row; each q_e must lie in its edge ideal."""
    graph = matrix.graph
    check_host(graph, p)
    q = _check_last_column(graph, q)
    for tail, head in matrix.rows:
        edge = graph.edge_key(tail, head)
        if p[tail] - p[head] != q[edge]:
            return False
    return True


class SystemRow(Record):
    """One row of a (reduced) extended system.

    rhs is a sum of symbolic slots: (sign, edge) stands for
    sign * q_edge with q_edge ranging over the ideal of that edge.
    """

    __slots__ = ("edge", "coeffs", "rhs")

    def __init__(self, edge: tuple, coeffs: tuple, rhs: tuple):
        self._set(edge, coeffs, rhs)

    def __eq__(self, other) -> bool:
        return type(other) is SystemRow and (self.edge, self.coeffs, self.rhs) == (
            other.edge, other.coeffs, other.rhs)

    def __hash__(self) -> int:
        return hash((self.edge, self.coeffs, self.rhs))

    def rhs_text(self, graph: EdgeLabeledGraph) -> str:
        parts = []
        for sign, edge in self.rhs:
            gen = graph.labels[edge].canonical
            token = "q_{%s,%s}*(%s)" % (edge[0], edge[1], gen)
            if not parts:
                parts.append(("-" if sign < 0 else "") + token)
            else:
                parts.append(("- " if sign < 0 else "+ ") + token)
        return " ".join(parts) if parts else "0"


class ReducedSystem(Record):
    __slots__ = ("graph", "tree_rows", "cycle_rows", "transform_log")

    def __init__(self, graph: EdgeLabeledGraph, tree_rows: tuple, cycle_rows: tuple,
                 transform_log: tuple):
        self._set(graph, tree_rows, cycle_rows, transform_log)


def reduce_via_tree(matrix: GkmMatrix, tree: TreeSkeleton) -> ReducedSystem:
    """Eliminate the vertex columns of every chord row by adding signed
    tree rows around its fundamental cycle.  Tree rows are listed first
    (in tree-construction order) and left untouched; every operation is
    a row reorder or an addition of a +-1 multiple, hence invertible.
    Each row is read as matrix.rows holds it, +1 at its tail and -1 at
    its head, and a chord row's sum is kept on its cycle's vertices."""
    graph, n = matrix.graph, len(matrix.graph.vertices)
    cycles = fundamental_cycles(graph, tree)
    keys = {row: graph.edge_key(*row) for row in matrix.rows}  # (tail, head): edge
    tree_edges = tree_edge_keys(graph, tree)
    log = [("reorder", tree_edges)]
    tree_rows = []
    for e in tree_edges:
        tail, head = e if e in keys else e[::-1]
        row = [0] * n
        row[graph.index(tail)], row[graph.index(head)] = 1, -1
        tree_rows.append(SystemRow(e, tuple(row), ((1, e),)))
    cleared = (0,) * n
    cycle_rows = []
    for cycle in cycles:
        chord = cycle.chord
        steps = cycle.steps()
        tail, head = chord if chord in keys else chord[::-1]
        coeffs = {tail: 1, head: -1}  # the sum, kept on the cycle's vertices
        sign = coeffs[steps[0][0]]  # the chord's step runs tail -> head if +1
        rhs = [(1, chord)]
        for a, b in steps[1:]:
            tail, head, c = (a, b, sign) if (a, b) in keys else (b, a, -sign)
            coeffs[tail] = coeffs.get(tail, 0) + c
            coeffs[head] = coeffs.get(head, 0) - c
            edge = keys[(tail, head)]
            rhs.append((c, edge))
            log.append(("add", c, edge, chord))
        if any(coeffs.values()):
            raise AssertionError("cycle elimination failed to clear vertex columns")
        cycle_rows.append(SystemRow(chord, cleared, tuple(rhs)))
    return ReducedSystem(graph, tuple(tree_rows), tuple(cycle_rows), tuple(log))


def syzygy_check(graph: EdgeLabeledGraph, tree: TreeSkeleton, q: dict) -> bool:
    """True iff M*p = q has a solution p, which is the statement that each
    cycle row's signed sum of q's vanishes.  The tree rows fix p from
    p_root = 0 in one pass over the tree's parents, and every chord row
    must then hold, mod m over Z/m: one subtraction per edge on payloads."""
    q = {e: x.payload for e, x in _check_last_column(graph, q).items()}
    if set(tree.depth) != set(graph.vertices):
        raise GraphError("tree does not span the graph")
    p = {tree.root: graph.ring.zero.payload}
    tree_set = set()
    for child, up in tree.parent.items():  # BFS order: up is solved first
        edge = graph.edge_key(up, child)
        tree_set.add(edge)
        p[child] = p[up] - q[edge] if edge[0] == up else p[up] + q[edge]
    return all(graph.ring.same(p[tail] - p[head], q[(tail, head)])
               for tail, head in graph.edges if (tail, head) not in tree_set)


def path_reduced_form(matrix: GkmMatrix) -> ReducedSystem:
    """The cumulative suffix-sum form of a path's system: row i relates
    p_{v_i} and p_{v_n} through the sum of the edge slots between them."""
    graph = matrix.graph
    order = path_order(graph)
    edges = path_edges(graph, order)
    n = len(order)
    terms = matrix.terms_by_edge()
    slots = [(terms[e][graph.index(v)], e) for v, e in zip(order, edges)]
    out = []
    for i in range(n - 1):
        coeffs = [0] * n
        coeffs[graph.index(order[i])] = 1
        coeffs[graph.index(order[-1])] = -1
        out.append(SystemRow(edges[i], tuple(coeffs), tuple(slots[i:][::-1])))
    log = tuple(("add-suffix", row.edge) for row in out)
    return ReducedSystem(graph, tuple(out), (), log)
