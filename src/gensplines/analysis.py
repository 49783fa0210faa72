"""Exhaustive enumeration over finite rings and theorem-checking engines.

Over Z/m the ring of splines is a finite set, so the decomposition
theorems can be certified by brute force.  Over infinite rings the
checks fall back to seeded sampling of constructed splines.

What a decomposition verdict certifies: _check_cover accepts a cover
only when every part carries the host's labels and keeps every vertex,
and the parts together cover every edge, and raises GraphError on any
other before a certifier runs.  The edge conditions of an accepted
cover's parts are then exactly the host's, so R_G is the intersection
of the R_{G_i} by construction.  The Z/m search over the parts'
conditions, and the sampled draws, can only confirm that verdict: a false
one would be a fault in the library, not in the cover.  A spline
verifies on every part exactly when it verifies on G, so over Z and
Q[x] the draws are taken on G and verified on G, and only the cover
check reads the parts.  check_decompositions takes that side, and the
Z/m search over G's own conditions, once for all claims.

construct and gkm are imported where they run: construct by the draws
over Z and Q[x], gkm by the Z/m searches, so a command loads only what
its ring uses.
"""
from __future__ import annotations

import heapq
import random
from itertools import islice
from operator import itemgetter

from .graphs import (
    DisconnectedGraphError,
    EdgeLabeledGraph,
    GraphError,
    TreeSkeleton,
    _bfs,
    fundamental_cycles,
    path_edges,
    spanning_subgraph,
    spanning_tree,
)
from .rings import INTEGERS, INTEGERS_MOD, Record, UnsupportedRingError, _element
from .splines import Spline, _spline, verify

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(ValueError):
    pass


class SplineSet(Record):
    """All splines of a graph over Z/m, as residue tuples in vertex
    declaration order, lexicographically sorted."""

    __slots__ = ("graph", "members")

    def __len__(self) -> int:
        return len(self.members)

    def as_splines(self):
        ring = self.graph.ring
        for tup in self.members:
            yield Spline(self.graph, {
                v: ring.element(x) for v, x in zip(self.graph.vertices, tup)
            })


def _edge_divisors(graph: EdgeLabeledGraph, budget: int) -> dict:
    """Ring and m^n budget checks, then each edge's divisor of m: a
    residue lies in the edge's ideal iff the divisor divides it.  The
    count is multiplied up only until it passes the budget."""
    ring = graph.ring
    if ring.kind != INTEGERS_MOD:
        raise UnsupportedRingError("exhaustive enumeration needs a finite ring (Z/m)")
    m, n, tuples = ring.modulus, len(graph.vertices), 1
    for _ in range(n + 1):
        if tuples > budget:
            raise BudgetExceededError(f"{m}^{n} tuples exceed the budget of {budget}")
        tuples *= m
    return {edge: ideal.divisor for edge, ideal in graph.labels.items()}


def _residue_search(graph: EdgeLabeledGraph, forms) -> list:
    """Every x in (Z/m)^n, in lexicographic order and each once, with d
    dividing sum(c * x[k] for k, c in form.items()) for each (form, d) in
    forms.  A form keeps its terms that are nonzero mod d, and a repeated
    (terms, d) is tested once.  Slot by slot, the lowest sharing a form
    with a set slot first (else the lowest unset): a form is tested at its
    last slot.  Each level computes its prefixes' partial sums mod d one
    form at a time: a form with one other term c * x[k] reads them from a
    table of c * v % d over the m residues v, built once per level, and a
    form with more sums its terms.  Prefixes whose sums agree share one
    list of values for the slot, keyed by the sum itself when one form
    closes there and by the tuple of sums otherwise, and held as
    one-tuples; each prefix is extended in place, values ascending, so
    the level stays sorted."""
    m, n = graph.ring.modulus, len(graph.vertices)
    forms = dict.fromkeys((t, d) for form, d in forms
                          if (t := tuple((k, r) for k, c in form.items() if (r := c % d))))
    touching = [[] for _ in range(n)]  # slot -> the slots of the forms that read it
    for terms, _ in forms:
        slots = [k for k, _ in terms]
        for k in slots:
            touching[k] += slots
    at, queue = {}, list(range(n, 2 * n))  # slot -> its place in the search order; a heap
    while queue:  # holding k once slot k shares a form with a set slot, n + k before
        k = heapq.heappop(queue) % n
        if k not in at:
            at[k] = len(at)
            for j in touching[k]:
                if j not in at:
                    heapq.heappush(queue, j)
    back = [at[k] for k in range(n)]  # off declaration order, tuples map back through it
    closing = [[] for _ in range(n)]
    for terms, d in forms:
        terms = {back[k]: c for k, c in terms}
        last = max(terms)
        closing[last].append((terms.pop(last), tuple(terms.items()), d))
    level = [()]
    for checks in closing:
        sums = []  # per check, every prefix's partial sum mod d
        for _, terms, d in checks:
            if len(terms) == 1:
                (k, c), = terms
                table = [c * v % d for v in range(m)]
                sums.append(list(map(table.__getitem__, map(itemgetter(k), level))))
                continue
            s = [0] * len(level)
            for k, c in terms:
                s = [a + c * v for a, v in zip(s, map(itemgetter(k), level))]
            sums.append([a % d for a in s])
        # one key per prefix: the one check's residue, a tuple of several, () if none
        one = len(sums) == 1
        keys = sums[0] if one else list(zip(*sums)) or [()] * len(level)
        allowed = {}  # key -> the values left for the slot, as one-tuples
        for key in set(keys):
            values = range(m)
            for r, (c, _, d) in zip((key,) if one else key, checks):
                values = [x for x in values if (r + c * x) % d == 0]
            allowed[key] = [(x,) for x in values]
        level = [p + t for p, key in zip(level, keys) for t in allowed[key]]
    return level if back == sorted(back) else sorted(tuple(x[i] for i in back) for x in level)


def _row_search(matrix: GkmMatrix, divisors: dict, edges) -> list:
    """_residue_search over the two nonzero entries of each edge's GKM row:
    its value must lie in the edge's ideal, whatever the row's sign."""
    terms = matrix.terms_by_edge()
    return _residue_search(matrix.graph, [(terms[e], divisors[e]) for e in edges])


def enumerate_splines(graph: EdgeLabeledGraph,
                      budget: int = DEFAULT_BUDGET) -> SplineSet:
    """All verified residue tuples: x_u - x_v must lie in the ideal of
    each edge uv, read from the graph itself."""
    from .gkm import build_gkm_matrix
    divisors = _edge_divisors(graph, budget)
    return SplineSet(graph, tuple(_row_search(build_gkm_matrix(graph), divisors, graph.edges)))


class DecompositionReport(Record):
    """subgraphs holds the edge sets, for reference."""

    __slots__ = ("claim", "subgraphs", "verdict", "counterexample", "mode", "seed")

    def __init__(self, claim: str, subgraphs: tuple, verdict: bool, counterexample=None,
                 mode: str = "exhaustive", seed: int | None = None):
        self._set(claim, subgraphs, verdict, counterexample, mode, seed)


def _check_cover(graph: EdgeLabeledGraph, subgraphs) -> list:
    """Every subgraph's edges as host keys, once each is a subgraph of
    the host that keeps every vertex and together they cover its edges."""
    keys = []
    for sub in subgraphs:
        if not sub.is_subgraph_of(graph):
            raise GraphError("not a subgraph of the host")
        if len(sub.vertices) != len(graph.vertices):
            raise GraphError("decomposition subgraphs must keep every vertex")
        keys += [graph.edge_key(u, v) for u, v in sub.edges]
    if set(keys) != set(graph.edges):
        raise GraphError("subgraph edges do not cover the graph")
    return keys


def _least_difference(a: list, b: list):
    """min(set(a) ^ set(b)) for two sorted lists of distinct tuples, None
    when they are equal: the smaller entry at the first index where they
    differ, or, when one list is a prefix of the other, the longer list's
    next entry."""
    for x, y in zip(a, b):
        if x != y:
            return min(x, y)
    tail = a[len(b):] or b[len(a):]
    return tail[0] if tail else None


def random_member(graph: EdgeLabeledGraph, rng: random.Random) -> Spline:
    """A random verified spline: per component, the sum of its flow-up
    family's members, each times a random coefficient drawn in the
    family's vertex order.  No separate random constant is added, so a
    draw lies in the span of the flow-up members."""
    return next(_random_members(graph, rng))


def _random_members(graph: EdgeLabeledGraph, rng: random.Random):
    """Endless random_member draws.  Flow-up member v is N_v on the BFS
    path from its component's root to v, so a draw's value at w sums
    c_v * N_v over w's BFS subtree: c_v * N_v in the family's vertex
    order, then each vertex added into its parent, deepest first.  One
    BFS from each component's first declared vertex finds the component
    and gives its induced subgraph's tree; it and the N_v are taken once,
    at the first draw.  The sums run on payloads; each value is wrapped once."""
    from .construct import _flow_up_factors
    ring = graph.ring
    walks, edges = [], {}  # each component's BFS and edges; each vertex's edges
    for v in graph.vertices:
        if v not in edges:
            depth, parent = _bfs(graph._adj, v)
            walks.append((depth, parent, []))
            edges.update(dict.fromkeys(depth, walks[-1][2]))
    for e in graph.edges:
        edges[e[0]].append(e)
    trees = []
    for depth, parent, comp_edges in walks:
        _, steps = _flow_up_factors(graph, comp_edges, depth, parent)
        trees.append((depth, parent, [(v, factor.payload) for v, factor, _ in steps]))
    while True:
        values = {}
        for comp, parent, factors in trees:
            acc = {v: _random_element(ring, rng).payload * factor for v, factor in factors}
            for v, _ in reversed(factors[1:]):
                acc[parent[v]] += acc[v]
            values.update((v, _element(ring, acc[v])) for v in comp)
        yield _spline(graph, values)


def _random_element(ring, rng: random.Random):
    if ring.kind == INTEGERS_MOD:
        return ring.element(rng.randrange(ring.modulus))
    if ring.kind == INTEGERS:
        return ring.element(rng.randint(-5, 5))
    degree = rng.randint(0, 2)
    return ring.element([rng.randint(-3, 3) for _ in range(degree + 1)])


def check_decompositions(graph: EdgeLabeledGraph, covers: dict, *,
                         budget: int = DEFAULT_BUDGET,
                         seed: int = 0,
                         samples: int = 20) -> list[DecompositionReport]:
    """Certify R_G = intersection of the R_{G_i} for each claim's cover in
    covers (claim -> parts), one report per claim, in order; an accepted
    cover makes it hold (module docstring), and G's side is taken once.
    Over Z/m one GKM matrix of G serves a search over G's conditions and,
    per claim, one over every G_i's, dropped once compared; the
    counterexample is the least tuple in one sorted list and not the
    other.  Over Z and Q[x] samples draws of G from random.Random(seed)
    are verified on G; the first that fails refutes every claim."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    covers = {claim: list(parts) for claim, parts in covers.items()}
    keys = [_check_cover(graph, parts) for parts in covers.values()]
    if graph.ring.kind == INTEGERS_MOD:
        from .gkm import build_gkm_matrix
        matrix, divisors = build_gkm_matrix(graph), _edge_divisors(graph, budget)
        whole = _row_search(matrix, divisors, graph.edges)
        bad = [_least_difference(whole, _row_search(matrix, divisors, k)) for k in keys]
        options = {}
    else:
        draws = islice(_random_members(graph, random.Random(seed)), samples)
        bad = [next((p for p in draws if not verify(graph, p).ok), None)] * len(keys)
        options = {"mode": "sampled", "seed": seed}
    return [DecompositionReport(claim, tuple(tuple(sub.edges) for sub in parts), b is None,
                                counterexample=b, **options)
            for (claim, parts), b in zip(covers.items(), bad)]


def check_union_decomposition(graph: EdgeLabeledGraph, subgraphs, *,
                              claim: str = "union",
                              budget: int = DEFAULT_BUDGET,
                              seed: int = 0,
                              samples: int = 20) -> DecompositionReport:
    """check_decompositions for one cover."""
    return check_decompositions(graph, {claim: subgraphs}, budget=budget,
                                seed=seed, samples=samples)[0]


def spanning_tree_cover(graph: EdgeLabeledGraph) -> list[EdgeLabeledGraph]:
    """A BFS tree plus one chord-swapped tree per remaining edge; the
    union of their edge sets is the whole edge set."""
    base = spanning_tree(graph)
    trees = [spanning_subgraph(graph, base.tree_edges)]
    for cycle in fundamental_cycles(graph, base):
        swap_out = path_edges(graph, cycle.vertex_sequence)[1]
        edges = [e for e in base.tree_edges if e != swap_out] + [cycle.chord]
        trees.append(spanning_subgraph(graph, edges))
    return trees


def cycle_cover(graph: EdgeLabeledGraph, tree: TreeSkeleton) -> list[EdgeLabeledGraph]:
    """T, with tree.host's labels, and the fundamental-cycle subgraphs of
    graph, each padded with the remaining isolated vertices."""
    return [spanning_subgraph(tree.host, tree.tree_edges)] + [
        spanning_subgraph(graph, path_edges(graph, cycle.vertex_sequence))
        for cycle in fundamental_cycles(graph, tree)]


def check_cycle_decomposition(graph: EdgeLabeledGraph, tree: TreeSkeleton, *,
                              budget: int = DEFAULT_BUDGET,
                              seed: int = 0,
                              samples: int = 20) -> DecompositionReport:
    """R_G = R_T intersected with the fundamental-cycle subgraphs."""
    return check_union_decomposition(graph, cycle_cover(graph, tree), claim="tree-plus-cycles",
                                     budget=budget, seed=seed, samples=samples)


def check_triangular_family(family: GeneratingFamily) -> bool:
    """Upper-triangularity with nonzero diagonal of the evaluation
    matrix, per the linear-independence lemma."""
    members = family.members
    order = family.vertex_order
    if len(members) != len(order):
        return False
    for j, v in enumerate(order):
        for i, member in enumerate(members):
            entry = member[v]
            if j > i and not entry.is_zero:
                return False
            if j == i and entry.is_zero:
                return False
    return True


def count_direct_sum(graph: EdgeLabeledGraph, v, *,
                     budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """(|R_G|, number of splines vanishing at v); the direct-sum theorem
    forces total = m * anchored on connected graphs."""
    if not graph.is_connected:
        raise DisconnectedGraphError(graph.components())
    i = graph.index(v)
    spline_set = enumerate_splines(graph, budget)
    total = len(spline_set)
    anchored = sum(1 for tup in spline_set.members if tup[i] == 0)
    if total != graph.ring.modulus * anchored:
        raise AssertionError(
            f"direct-sum count identity failed: {total} != "
            f"{graph.ring.modulus} * {anchored}"
        )
    return total, anchored


def matrix_solution_set(matrix: GkmMatrix,
                        budget: int = DEFAULT_BUDGET) -> set:
    """All residue tuples solving the extended system for some valid
    last column, so orientation cannot matter."""
    divisors = _edge_divisors(matrix.graph, budget)
    return set(_row_search(matrix, divisors, matrix.graph.edges))


def reduced_solution_set(system: ReducedSystem,
                         budget: int = DEFAULT_BUDGET) -> set:
    """Honest evaluation over Z/m.  The row of edge e reads coeffs . x =
    sum of sign * q_f over its rhs; solved for q_e, with each other q_f
    from f's own row (rows are solved in dependency order, without
    recursion), q_e is a linear form in x that must lie in e's ideal."""
    divisors = _edge_divisors(system.graph, budget)
    rows = {row.edge: row for row in system.tree_rows + system.cycle_rows}
    waiting = {e: {f for _, f in row.rhs} - {e} for e, row in rows.items()}
    ready = [e for e, reads in waiting.items() if not reads]
    slots = {}  # edge -> q_edge as {vertex slot: coefficient}
    while ready:
        e = ready.pop()
        form, own = dict(rows[e].coeffs), 0
        for sign, f in rows[e].rhs:
            if f == e:
                own += sign
            else:
                for k, c in slots[f].items():
                    form[k] = form.get(k, 0) - sign * c
        if own not in (1, -1):
            raise ValueError(f"the row of edge {e} must carry q_e with sign +-1")
        slots[e] = {k: own * c for k, c in form.items() if c}
        for f, reads in waiting.items():
            if e in reads:
                reads.remove(e)
                if not reads:
                    ready.append(f)
    if len(slots) < len(system.tree_rows + system.cycle_rows):
        raise ValueError("every slot needs exactly one row that determines it")
    return set(_residue_search(system.graph, [(slots[e], divisors[e]) for e in rows]))
