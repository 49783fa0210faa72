"""Explicit spline constructions: paths, cycles, trees, extension by
zero, and flow-up families.

Every constructor returns splines that verify on their host graph;
"arbitrary" ideal elements default to the canonical generators so that
outputs are deterministic.  The families, the extension factor and the
tree witnesses compute on payloads, wrap each value once and build
splines with splines._spline.
"""
from __future__ import annotations

import warnings
from functools import cached_property

from .graphs import (
    EdgeLabeledGraph,
    GraphError,
    _bfs,
    keyed_by_edge,
    path_edges,
    spanning_subgraph,
    spanning_tree,
)
from .rings import (
    Record,
    RingElement,
    UnsupportedRingError,
    _element,
    _ext_gcd,
    lcm,
)
from .splines import Spline, _failing_edges, _spline, check_host, verify


class GeneratingFamily(Record):
    """An ordered family of verified splines, triangular under vertex_order.

    The matrix with (j, i) entry members[i](vertex_order[j]) is
    upper-triangular; over an integral domain a nonzero diagonal
    certifies linear independence (free rank-n submodule).
    """

    __slots__ = ("graph", "members", "vertex_order", "scaling_factors")


def trivial_spline(graph: EdgeLabeledGraph, r: RingElement) -> Spline:
    return Spline(graph, {v: r for v in graph.vertices})


def _cycle_order(graph: EdgeLabeledGraph) -> list:
    """Require the declared vertex order v1..vn to trace the cycle."""
    order = list(graph.vertices)
    n = len(order)
    if n < 3 or len(graph.edges) != n:
        raise GraphError("graph is not a cycle")
    try:
        path_edges(graph, order + order[:1])
    except GraphError:
        raise GraphError("graph is not a cycle in vertex declaration order") from None
    return order


def _checked_choice(graph, edge, choice):
    if not graph.labels[edge].contains(choice):
        raise ValueError(f"choice {choice} is outside the ideal of edge {edge}")
    return choice


def _step_choices(graph, edges, choices):
    """One element per edge, checked against that edge's ideal; the
    canonical generators when choices is None."""
    if choices is None:
        return [graph.labels[e].canonical for e in edges]
    choices = list(choices)
    if len(choices) != len(edges):
        raise ValueError(f"expected {len(edges)} step choices, got {len(choices)}")
    for edge, c in zip(edges, choices):
        _checked_choice(graph, edge, c)
    return choices


def cycle_spline(graph: EdgeLabeledGraph, base: RingElement,
                 chord_choice: RingElement, step_choices) -> Spline:
    """The cycle construction: vertex k gets
    base + chord_choice * (step_1 + ... + step_{k-1})."""
    order, ring = _cycle_order(graph), graph.ring
    chord = _checked_choice(graph, graph.edge_key(order[0], order[-1]), chord_choice).payload
    step_choices = _step_choices(graph, path_edges(graph, order), step_choices)
    ring.zero._check(base)
    values, acc = {order[0]: base}, ring.zero.payload
    for v, step in zip(order[1:], step_choices):
        acc += step.payload
        values[v] = _element(ring, base.payload + chord * acc)
    return _spline(graph, values)


def cycle_generating_family(graph: EdgeLabeledGraph,
                            chord_choice: RingElement | None = None,
                            step_choices=None) -> GeneratingFamily:
    """The n independent cycle splines: chord*step_i supported on the
    vertices after step i, plus the unit spline.  Members are ordered by
    increasing support so the family is upper-triangular under the
    reversed vertex order."""
    order = _cycle_order(graph)
    chord = graph.edge_key(order[0], order[-1])
    if chord_choice is None:
        chord_choice = graph.labels[chord].canonical
    _checked_choice(graph, chord, chord_choice)
    step_choices = _step_choices(graph, path_edges(graph, order), step_choices)
    zero_choice = chord_choice.is_zero or any(c.is_zero for c in step_choices)
    if zero_choice and graph.ring.is_integral_domain:
        raise ValueError("zero choices cannot give a nontrivial independent family")
    chord, order = chord_choice.payload, order[::-1]
    factors = [_element(graph.ring, chord * c.payload) for c in reversed(step_choices)]
    return _nested_family(graph, order, dict(zip(order, order[1:])), factors)


def tree_generating_family(graph: EdgeLabeledGraph, choices=None) -> GeneratingFamily:
    """The n generators of a tree's splines: for each non-root vertex its
    parent edge's choice on it and every vertex below it, then the unit
    spline.  The root is the vertex a BFS from the first declared leaf
    visits last; the vertex order is the reverse BFS from the root."""
    if not graph.is_tree:
        raise GraphError("graph is not a tree")
    leaf = next(v for v in graph.vertices if len(graph._adj[v]) <= 1)
    depth, parent = _bfs(graph._adj, list(_bfs(graph._adj, leaf)[0])[-1])
    order = list(depth)[::-1]
    edges = [graph.edge_key(v, parent[v]) for v in order[:-1]]
    return _nested_family(graph, order, parent, _step_choices(graph, edges, choices))


def _nested_family(graph, order, parent, factors) -> GeneratingFamily:
    """Member i is factors[i] on order[i] and every vertex below it under
    parent, then the unit spline.  Each vertex comes before its parent,
    so the family is upper-triangular under order, factors on the diagonal."""
    below = {v: {v} for v in order}
    members = []
    for v, factor in zip(order, factors):
        members.append(_member(graph, below[v], factor))
        below[parent[v]] |= below[v]
    members.append(trivial_spline(graph, graph.ring.one))
    return GeneratingFamily(graph, tuple(members), tuple(order),
                            tuple(factors) + (graph.ring.one,))


def _member(graph, support, factor) -> Spline:
    zero = graph.ring.zero
    return _spline(graph, {v: (factor if v in support else zero) for v in graph.vertices})


def _grown_pairs(graph, rooted, start, step):
    """Yield (u, v, state) for every pair, u declared before v.  Each
    source starts from start and grows along its paths to the later
    vertices, one step per vertex grown: a vertex's state is step(state
    of its neighbour toward u, edge).  rooted is the tree's one
    (depth, parent) BFS; a later vertex climbs it until it meets a grown
    vertex or u's ancestor chain, u's chain grows up to that meeting
    vertex, and the climb grows down from it."""
    depth, parent = rooted
    verts = graph.vertices
    for i, u in enumerate(verts[:-1]):
        grown = {u: start}
        top = u  # u's highest grown ancestor; every other grown vertex is deeper
        for v in verts[i + 1:]:
            climb, w = [], v
            while w not in grown:
                if depth[w] >= depth[top]:
                    climb.append(w)
                    w = parent[w]
                else:  # v's climb is above u's chain: grow the chain up to meet it
                    below, top = top, parent[top]
                    grown[top] = step(grown[below], graph.edge_key(below, top))
            for w in reversed(climb):
                grown[w] = step(grown[parent[w]], graph.edge_key(parent[w], w))
            yield u, v, grown[v]


class TreeMembershipReport(Record):
    """failures holds the vertex pairs with no decomposition."""

    __slots__ = ("ok", "failures", "graph", "spline", "__dict__")  # __dict__ holds witnesses
    _unshown = ("graph", "spline")

    @cached_property
    def witnesses(self) -> dict:
        """(u, v) -> {edge: summand} for every pair not in failures, built
        on first read, on payloads.  Each grown path holds its edges, the
        gcd d of their generators g_i and the Bezout terms t_i = x_i * g_i,
        which sum to d: one _ext_gcd(d, g) = (d', a, b) step gives the
        child's terms (a * t_1, ..., a * t_k, b * g).  The witness is
        t_i * (p_v - p_u) / d, each summand wrapped once.  Over Z/m each
        g_i divides m or is 0, so d | m and the residues' difference will do."""
        graph, p, ring = self.graph, self.spline, self.graph.ring
        quotient, zero = ring.ops.quotient, ring.zero.payload
        gens = {e: graph.labels[e].canonical.payload for e in graph.edges}

        def grow(state, edge):
            edges, d, terms = state
            d, a, b = _ext_gcd(ring, d, gens[edge])
            return edges + (edge,), d, tuple(a * t for t in terms) + (b * gens[edge],)

        failed = set(self.failures)
        witnesses = {}
        rooted = _bfs(graph._adj, graph.vertices[0])
        for u, v, (edges, d, terms) in _grown_pairs(graph, rooted, ((), zero, ()), grow):
            if (u, v) not in failed:
                scale = quotient(p[v].payload - p[u].payload, d) if d else zero
                witnesses[(u, v)] = {e: _element(ring, t * scale) for e, t in zip(edges, terms)}
        return witnesses


def tree_membership(graph: EdgeLabeledGraph, p: Spline) -> TreeMembershipReport:
    """Decide spline membership on a tree through pairwise path sums.

    Each pair's difference must lie in the sum of its path's edge ideals,
    generated by the gcd of their generators.  A path's difference is the
    sum of its edges' differences, so when the n - 1 edge tests of
    verify, one divisibility test each on payloads, all hold, every pair
    passes, no gcd is taken and levels is not loaded.  Otherwise
    levels.tree_failures reads the failing pairs from local levels: a
    coprime base q of the labels and, for each q, one union-find over the
    edges whose label q^(j+1) divides, visiting from the top down only
    the levels where an edge joins; a pair fails when it shares such a
    component and its values differ mod q^(j+1), or, joined by zero
    labels alone, differ at all.  No gcd is taken per pair, and all of
    it runs on payloads.  Witnesses are built on first read."""
    if not graph.is_tree:
        raise GraphError("graph is not a tree")
    check_host(graph, p)
    failures = ()
    if failing := _failing_edges(graph, p):
        from .levels import tree_failures
        failures = tree_failures(graph, p, failing)
    return TreeMembershipReport(not failures, failures, graph, p)


_ZERO_FACTOR = ("edge {} contributes a zero factor; the extension is "
                "the zero spline off its support")


def excluded_edges(graph: EdgeLabeledGraph, subgraph: EdgeLabeledGraph) -> list:
    """The host's edges outside a subgraph of it, in host order."""
    if not subgraph.is_subgraph_of(graph):
        raise GraphError("not a subgraph of the host")
    inner = {graph.edge_key(u, v) for u, v in subgraph.edges}
    return [e for e in graph.edges if e not in inner]


def extend_by_zero(graph: EdgeLabeledGraph, subgraph: EdgeLabeledGraph,
                   p: Spline, element_choices: dict | None = None) -> Spline:
    """Scale p by a product over the excluded edges and pad with zeros.

    The scaling factor is the product of one chosen element per edge of
    the host outside the subgraph (canonical generators by default; a key
    may name its edge either way round, but only one key may name it), so
    every mixed edge's difference lands in its ideal."""
    spline, _ = extend_by_zero_with_factor(graph, subgraph, p, element_choices)
    return spline


def extend_by_zero_with_factor(graph, subgraph, p, element_choices=None):
    excluded = excluded_edges(graph, subgraph)
    if not verify(subgraph, p).ok:
        raise ValueError("input spline fails verification on the subgraph")
    factor = _excluded_product(graph, excluded, element_choices)
    ring, inside = graph.ring, set(subgraph.vertices)
    values = {v: (_element(ring, factor.payload * p[v].payload) if v in inside else ring.zero)
              for v in graph.vertices}
    return _spline(graph, values), factor


def _excluded_product(graph, edges, element_choices=None):
    """Product of one chosen element (canonical by default) per excluded
    edge; the zero-factor warning names the public constructor's caller."""
    choices = keyed_by_edge(graph, element_choices)
    factors = []
    for edge in edges:
        if edge in choices:
            choice = _checked_choice(graph, edge, choices[edge])
        else:
            choice = graph.labels[edge].canonical
        if choice.is_zero:
            warnings.warn(_ZERO_FACTOR.format(edge), stacklevel=3)
        factors.append(choice.payload)
    return _element(graph.ring, _product(factors, graph.ring.one.payload))


def _product(factors: list, one):
    """The product of factors, one for none, multiplied pairwise:
    neighbours are multiplied until one is left (a product tree, von zur
    Gathen and Gerhard, Modern Computer Algebra, 10.1).  It makes the
    same len(factors) - 1 multiplications as a running product, but over
    Q[x] its partial products hold at most deg * ceil(log2 E) + E
    coefficients in all, E factors of total degree deg, not about
    deg * E / 2."""
    while len(factors) > 1:
        paired = [a * b for a, b in zip(factors[::2], factors[1::2])]
        factors = paired + factors[2 * len(paired):]
    return factors[0] if factors else one


def lcm_scaling_factor(graph: EdgeLabeledGraph, subgraph: EdgeLabeledGraph) -> RingElement:
    """lcm of the excluded edges' canonical generators (1 for none, 0 if one is 0)."""
    ring = graph.ring
    if not ring.is_euclidean:
        raise UnsupportedRingError("lcm scaling needs a UFD (Z or Q[x])")
    acc = ring.one
    for edge in excluded_edges(graph, subgraph):
        acc = acc if acc.is_zero else lcm(acc, graph.labels[edge].canonical)
    return acc


def flow_up_family(graph: EdgeLabeledGraph, root=None) -> GeneratingFamily:
    """Flow-up splines along a BFS tree: member i is N_i on the
    root-to-v_i tree path and zero elsewhere, N_i the product over every
    edge off the path (_flow_up_factors).  Vertices are ordered by
    nondecreasing tree distance (ties by declaration order), which makes
    the family upper-triangular with diagonal entries N_i.  Each zero
    label off a member's path warns once for that member."""
    skeleton = spanning_tree(graph, root)
    parent = skeleton.parent
    zero_edges, steps = _flow_up_factors(graph, graph.edges, skeleton.depth, parent)
    support = {}
    members = []
    for v, factor, zeros_on_path in steps:
        for e in zero_edges:
            if e not in zeros_on_path:
                warnings.warn(_ZERO_FACTOR.format(e), stacklevel=2)
        support[v] = (support[parent[v]] if v in parent else set()) | {v}
        members.append(_member(graph, support[v], factor))
    return GeneratingFamily(graph, tuple(members), tuple(v for v, _, _ in steps),
                            tuple(factor for _, factor, _ in steps))


def _flow_up_factors(graph, edges, depth, parent):
    """(zero_edges, steps) for the component with these edges and BFS
    tree (depth, parent): zero_edges are its zero-labeled edges, and
    steps lists (v, N_v, the zero-labeled edges on the root-to-v path)
    with vertices by nondecreasing depth, ties by declaration order.

    N_v is the product over every edge off the path, grown from the
    parent's: with P the product of the nonzero labels, multiplied
    pairwise (_product), N_v is P over the nonzero labels on the path,
    one exact division more than its parent, or zero when a zero label
    lies off the path.  It runs on the labels' canonical payloads (over Z/m
    their own lifts to Z) and wraps each N_v once, reduced mod m."""
    ring = graph.ring
    quotient_of = ring.ops.quotient
    gens = {e: graph.labels[e].canonical.payload for e in edges}
    zero_edges = [e for e in edges if not gens[e]]
    product = _product([g for g in gens.values() if g], ring.one.payload)
    grown = {}
    steps = []
    for v in sorted(depth, key=lambda v: (depth[v], graph.index(v))):
        if v in parent:
            edge = graph.edge_key(parent[v], v)
            zeros, quotient = grown[parent[v]]
            if gens[edge]:
                quotient = quotient_of(quotient, gens[edge])
            else:
                zeros = zeros | {edge}
        else:
            zeros, quotient = frozenset(), product
        grown[v] = zeros, quotient
        factor = ring.zero if len(zeros) < len(zero_edges) else _element(ring, quotient)
        steps.append((v, factor, zeros))
    return zero_edges, steps


def is_nontrivial_exists(graph: EdgeLabeledGraph):
    """Decide whether any nontrivial spline exists; return (flag, witness).

    Zero-labeled edges force equal endpoints, so we work on the
    components of the zero-labeled subgraph: if they connect every
    vertex the splines are all constant; otherwise the component of the
    first vertex supports an extension-by-zero witness."""
    if not graph.ring.is_integral_domain:
        raise UnsupportedRingError("existence argument needs an integral domain")
    if len(graph.vertices) < 2:
        return False, None
    zero_edges = [e for e in graph.edges if graph.labels[e].is_zero]
    support = set(spanning_subgraph(graph, zero_edges).components()[0])
    if len(support) == len(graph.vertices):
        return False, None
    factor = _excluded_product(
        graph, [(u, v) for u, v in graph.edges if (u in support) != (v in support)])
    witness = _member(graph, support, factor)
    if not verify(graph, witness).ok:
        raise AssertionError("extension-by-zero witness fails verification")
    return True, witness
