"""The GKM matrix: signed incidence rows plus a symbolic last column.

Each row of the matrix encodes one edge condition p_tail - p_head = q_e
with q_e ranging over the edge's ideal.  The symbolic last column is
kept as a list of signed (coefficient slot, edge) terms so that
row reduction stays exact and reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import (EdgeLabeledGraph, GraphError, TreeSkeleton, fundamental_cycles,
                     keyed_by_edge, path_edges, path_order, tree_edge_keys)
from .splines import Spline, check_host


@dataclass(frozen=True)
class GkmMatrix:
    graph: EdgeLabeledGraph
    rows: tuple  # directed edges (tail, head), one per graph edge

    def rows_by_edge(self) -> dict:
        """Each edge's signed incidence row, in row order: +1 at the tail,
        -1 at the head.  A step (a, b) along the edge runs tail -> head
        exactly when the entry at a is +1."""
        graph = self.graph
        out = {}
        for tail, head in self.rows:
            row = [0] * len(graph.vertices)
            row[graph.index(tail)], row[graph.index(head)] = 1, -1
            out[graph.edge_key(tail, head)] = tuple(row)
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


@dataclass(frozen=True)
class SystemRow:
    """One row of a (reduced) extended system.

    rhs is a sum of symbolic slots: (sign, edge) stands for
    sign * q_edge with q_edge ranging over the ideal of that edge.
    """

    edge: tuple
    coeffs: tuple
    rhs: tuple

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


@dataclass(frozen=True)
class ReducedSystem:
    graph: EdgeLabeledGraph
    tree_rows: tuple
    cycle_rows: tuple
    transform_log: tuple


def reduce_via_tree(matrix: GkmMatrix, tree: TreeSkeleton) -> ReducedSystem:
    """Eliminate the vertex columns of every chord row by adding signed
    tree rows around its fundamental cycle.  Tree rows are listed first
    (in tree-construction order) and left untouched; every operation is
    a row reorder or an addition of a +-1 multiple, hence invertible."""
    graph = matrix.graph
    cycles = fundamental_cycles(graph, tree)
    rows = matrix.rows_by_edge()
    tree_edges = tree_edge_keys(graph, tree)
    log = [("reorder", tree_edges)]
    tree_rows = tuple(SystemRow(e, rows[e], ((1, e),)) for e in tree_edges)
    cycle_rows = []
    for cycle in cycles:
        chord = cycle.chord
        steps = cycle.steps()
        chord_step_sign = rows[chord][graph.index(steps[0][0])]
        coeffs = list(rows[chord])
        rhs = [(1, chord)]
        for a, b in steps[1:]:
            edge = graph.edge_key(a, b)
            row = rows[edge]
            c = chord_step_sign * row[graph.index(a)]
            for i in map(graph.index, edge):  # a row is zero off its endpoints
                coeffs[i] += c * row[i]
            rhs.append((c, edge))
            log.append(("add", c, edge, chord))
        if any(coeffs):
            raise AssertionError("cycle elimination failed to clear vertex columns")
        cycle_rows.append(SystemRow(chord, tuple(coeffs), tuple(rhs)))
    return ReducedSystem(graph, tree_rows, tuple(cycle_rows), tuple(log))


def syzygy_check(graph: EdgeLabeledGraph, tree: TreeSkeleton, q: dict) -> bool:
    """True iff M*p = q has a solution p, which is the statement that each
    cycle row's signed sum of q's vanishes.  The tree rows fix p from
    p_root = 0 in one pass over the tree's parents, and every chord row
    must then hold: one ring subtraction per edge, no reduction."""
    q = _check_last_column(graph, q)
    if set(tree.depth) != set(graph.vertices):
        raise GraphError("tree does not span the graph")
    p = {tree.root: graph.ring.zero}
    tree_set = set()
    for child, up in tree.parent.items():  # BFS order: up is solved first
        edge = graph.edge_key(up, child)
        tree_set.add(edge)
        p[child] = p[up] - q[edge] if edge[0] == up else p[up] + q[edge]
    return all(p[tail] - p[head] == q[(tail, head)]
               for tail, head in graph.edges if (tail, head) not in tree_set)


def path_reduced_form(matrix: GkmMatrix) -> ReducedSystem:
    """The cumulative suffix-sum form of a path's system: row i relates
    p_{v_i} and p_{v_n} through the sum of the edge slots between them."""
    graph = matrix.graph
    order = path_order(graph)
    edges = path_edges(graph, order)
    n = len(order)
    rows = matrix.rows_by_edge()
    out = []
    for i in range(n - 1):
        coeffs = [0] * n
        coeffs[graph.index(order[i])] = 1
        coeffs[graph.index(order[-1])] = -1
        rhs = tuple((rows[edges[k]][graph.index(order[k])], edges[k])
                    for k in range(n - 2, i - 1, -1))
        out.append(SystemRow(edges[i], tuple(coeffs), rhs))
    log = tuple(("add-suffix", row.edge) for row in out)
    return ReducedSystem(graph, tuple(out), (), log)
