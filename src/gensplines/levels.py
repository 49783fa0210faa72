"""Local levels of an edge-labeled graph: a pairwise coprime base of its
labels and, for each base element q and level j, the components of the
edges whose label q^(j+1) divides.

The digit fact.  Write x in base q, x = x_0 + x_1 q + x_2 q^2 + ..., each
digit a remainder mod q.  Then q^a divides x - y exactly when the first a
digits of x and y agree, that is when x = y mod q^a; this needs no
primality.  So take pairwise coprime non-units q such that every nonzero
label is a unit times a product of their powers, g = u * prod q^(a_q).
Then g divides x - y exactly when every q^(a_q) does, and the gcd of some
labels takes each q at its least exponent.  Nothing is factored: the base
comes from gcds alone, by factor refinement (Bach, Driscoll and Shallit,
"Factor refinement", J. Algorithms 15, 1993).

Let H_{q,j} be the spanning subgraph of the edges with a_q > j.  On a tree
two vertices share a component of H_{q,j} exactly when every label on
their path has a_q > j, so the path's gcd divides p_v - p_u exactly when
p_u = p_v mod q^(j+1) at every q and j where u and v share a component.
A zero label over Z or Q[x] lies in every level, and a path of zero
labels alone asks for p_u = p_v.  Over Z/m, decomposed by prime powers in
Bowden and Tymoczko, "Splines mod m" (2015), a label stands for its
divisor d = gcd(g, m) of m, m for the zero ideal, and a value for its
lift to [0, m): every q^(j+1) met divides m, so residues mod it are well
defined.  One union-find per q takes the edges from the top level down,
read only at the levels where an edge joins: in between, nothing changes.

Everything works on payloads, through the ring's payload operations
(RingSpec.ops; Z/m's are Z's) and their normal form, nonnegative or
monic; payloads, canonical in every ring, key its dicts.  Which
associate of q a level uses does not matter: a remainder mod q is the
same for every associate of q.  A power q^a is divided out in O(log a)
divisions (valuation).
"""
from __future__ import annotations


def coprime_base(elements, ops) -> list:
    """Pairwise coprime normal non-units such that every nonzero element
    is a unit times a product of their powers (factor refinement).
    Each element, with every base element divided out, either is a unit
    or meets a base element b in a gcd g: if g is not a unit, b gives way
    to g, b / g and the element over g, the non-units among them, which
    lowers the number of prime factors held, so the loop ends."""
    gcd, quotient, is_unit = ops.gcd, ops.quotient, ops.is_unit
    todo = list(dict.fromkeys(a for a in map(ops.normal, elements)
                              if a and not is_unit(a)))[::-1]
    base = []
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            x = valuation(x, b, ops)[1]
            if is_unit(x):
                break
            g = gcd(x, b)
            if not is_unit(g):
                base[i] = base[-1]
                base.pop()
                todo += [y for y in (g, quotient(b, g), quotient(x, g)) if not is_unit(y)]
                break
        else:
            base.append(x)
    return base


def valuation(x, q, ops) -> tuple:
    """(a, x / q^a) for a the exponent of q in x, x nonzero and q not a
    unit, in O(log a) divisions: once q divides x, the exponent b of q^2
    in x / q gives a = 2b + 1, or 2b + 2 when q divides once more.  So x
    is divided by q, q^2, q^4, ... while each divides, then by the same
    powers from the largest down."""
    y = ops.quotient(x, q)
    if y is None:
        return 0, x
    b, y = valuation(y, q * q, ops)
    z = ops.quotient(y, q)
    return (2 * b + 1, y) if z is None else (2 * b + 2, z)


class Components:
    """Union-find over the vertices 0..n-1 that keeps the members of each
    component of two or more, merging the smaller list into the larger."""

    __slots__ = ("root", "members")

    def __init__(self, n: int):
        self.root = list(range(n))
        self.members = {}

    def find(self, v: int) -> int:
        root = self.root
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    def union(self, u: int, v: int) -> None:
        u, v = self.find(u), self.find(v)
        if u == v:
            return
        a = self.members.pop(u, None) or [u]
        b = self.members.pop(v, None) or [v]
        if len(a) < len(b):
            u, v, a, b = v, u, b, a
        self.root[v] = u
        a += b
        self.members[u] = a


def descend(n: int, edges, exponents):
    """Yield (j, components) at j = a - 1 for each distinct nonzero
    exponent a, from the top down, where components holds the edges
    (vertex index pairs) whose exponent exceeds j.  Between two such
    levels no edge joins, so every level from j down to the next
    exponent has these components; one union-find serves them all."""
    added = {}
    for e, a in zip(edges, exponents):
        if a:
            added.setdefault(a, []).append(e)
    components = Components(n)
    for a in sorted(added, reverse=True):
        for u, v in added[a]:
            components.union(u, v)
        yield a - 1, components


def _split(components, starts, key, pairs) -> None:
    """Add to pairs, as index pairs (i, j) with i < j, every two members
    of a start's component whose keys differ."""
    for root in {components.find(v) for v in starts}:
        groups = {}
        for v in components.members[root]:
            groups.setdefault(key(v), []).append(v)
        groups = list(groups.values())
        for i, a in enumerate(groups):
            for b in groups[i + 1:]:
                pairs.update((x, y) if x < y else (y, x) for x in a for y in b)


def tree_failures(graph, spline, failing) -> tuple:
    """The vertex pairs (u, v) of a tree, u declared before v, whose
    difference lies outside the sum of their path's edge ideals, ordered
    by the index of u, then of v; failing holds (edge index, difference)
    for each edge whose own label refuses its difference, at least one.

    The pairs come from the levels that descend yields, but only from
    the components that hold a failing edge whose difference q^(j+1)
    does not divide: every other component is joined by edges whose
    differences are 0 mod q^(j+1), so its values agree mod q^(j+1).  A
    level j that descend skips, below a yielded j* with no exponent in
    between, has the components of j*, and values that differ mod q^(j+1)
    differ mod q^(j*+1), so j* finds its pairs too."""
    ops = graph.ring.ops
    # each label's generator: over Z/m its divisor of m
    gens = [label.divisor or label.canonical.payload for label in graph.labels.values()]
    index = graph._index
    values = [spline.values[v].payload for v in graph.vertices]
    edges = [(index[u], index[v]) for u, v in graph.edges]
    n, pairs = len(values), set()
    starts = [edges[k][0] for k, _ in failing if not gens[k]]
    if starts:  # zero labels alone, as one level, ask for equal values
        for _, components in descend(n, edges, [0 if g else 1 for g in gens]):
            _split(components, starts, values.__getitem__, pairs)
    exponent = dict.fromkeys(g for g in gens if g)  # each nonzero label's a
    for q in coprime_base(exponent, ops):
        powers = {}  # q^a, a label over its q-free part
        for g in exponent:
            a, rest = valuation(g, q, ops)
            exponent[g], powers[a] = a, ops.quotient(g, rest)
        top = max(powers)
        exponents = [exponent[g] if g else top for g in gens]
        for j, components in descend(n, edges, exponents):
            m = powers[j + 1]
            starts = [edges[k][0] for k, diff in failing if exponents[k] > j and diff % m]
            if starts:
                _split(components, starts, lambda v: values[v] % m, pairs)
    verts = graph.vertices
    return tuple((verts[i], verts[j]) for i, j in sorted(pairs))
