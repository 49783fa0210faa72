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
defined.  One union-find per q takes the edges from the top level down.

Everything works on payloads: an int for Z and Z/m, a rings._Poly for
Q[x], whose keys are its canonical fields, never its hash, which builds
Fractions.
"""
from __future__ import annotations

import math

from .rings import POLY_RATIONAL, _Poly


class _Integers:
    """Payload arithmetic of Z, and of Z/m on divisors and lifts.  An
    associate is the absolute value."""

    gcd = staticmethod(math.gcd)
    associate = staticmethod(abs)

    @staticmethod
    def quotient(a, b):
        """a / b when b divides a, else None."""
        q, r = divmod(a, b)
        return None if r else q

    @staticmethod
    def is_unit(a) -> bool:
        return a in (1, -1)

    @staticmethod
    def key(a):
        return a


class _Polynomials:
    """Payload arithmetic of Q[x].  An associate is the primitive integer
    part with a positive leading coefficient."""

    @staticmethod
    def gcd(a, b):
        while b:
            a, b = b, a % b
        return _Poly(1, 1, a.prim)

    @staticmethod
    def associate(a):
        return _Poly(1, 1, a.prim)

    @staticmethod
    def quotient(a, b):
        return a.exact_quotient(b)

    @staticmethod
    def is_unit(a) -> bool:
        return len(a.prim) == 1

    @staticmethod
    def key(a):
        return a.num, a.den, a.prim


def arithmetic(ring):
    """The payload arithmetic of a ring; Z/m's is Z's."""
    return _Polynomials if ring.kind == POLY_RATIONAL else _Integers


def coprime_base(elements, ops) -> list:
    """Pairwise coprime non-unit associates such that every nonzero
    element is a unit times a product of their powers (factor refinement).
    Each element, with every base element divided out, either is a unit
    or meets a base element b in a gcd g: if g is not a unit, b gives way
    to g, b / g and the element over g, the non-units among them, which
    lowers the number of prime factors held, so the loop ends."""
    gcd, quotient, is_unit = ops.gcd, ops.quotient, ops.is_unit
    todo = list({ops.key(a): a for a in map(ops.associate, elements)
                 if a and not is_unit(a)}.values())[::-1]
    base = []
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            while (y := quotient(x, b)) is not None:
                x = y
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


def valuation(x, q, ops) -> int:
    """The exponent of q in x, nonzero."""
    a = 0
    while (x := ops.quotient(x, q)) is not None:
        a += 1
    return a


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
    """Yield (j, components) for j from the top level down to 0, where
    components holds the edges (vertex index pairs) whose exponent
    exceeds j; one union-find serves every level."""
    added = {}
    for e, a in zip(edges, exponents):
        if a:
            added.setdefault(a, []).append(e)
    components = Components(n)
    for j in range(max(added, default=0) - 1, -1, -1):
        for u, v in added.get(j + 1, ()):
            components.union(u, v)
        yield j, components


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


def tree_failures(graph, spline) -> tuple:
    """The vertex pairs (u, v) of a tree, u declared before v, whose
    difference lies outside the sum of their path's edge ideals, ordered
    by the index of u, then of v.

    The n - 1 edge tests come first, one division each; when every edge
    holds, so does every path, and no gcd is taken.  Otherwise the pairs
    come from the levels, but only from the components of H_{q,j} that
    hold a failing edge whose difference q^(j+1) does not divide: every
    other component is joined by edges whose differences are 0 mod
    q^(j+1), so its values agree mod q^(j+1)."""
    ops = arithmetic(graph.ring)
    gens = [label.canonical.payload if label.divisor is None else label.divisor
            for label in graph.labels.values()]
    value = {v: x.payload for v, x in spline.values.items()}
    failing = []
    for k, ((u, v), g) in enumerate(zip(graph.edges, gens)):
        diff = value[v] - value[u]
        if diff % g if g else diff:
            failing.append((k, diff))
    if not failing:
        return ()
    index = graph._index
    values = [value[v] for v in graph.vertices]
    edges = [(index[u], index[v]) for u, v in graph.edges]
    n, pairs = len(values), set()
    if any(not gens[k] for k, _ in failing):
        components = Components(n)
        for k, g in enumerate(gens):
            if not g:
                components.union(*edges[k])
        _split(components, [edges[k][0] for k, _ in failing if not gens[k]],
               lambda v: ops.key(values[v]), pairs)
    labels, keys = {}, []  # the labels' associates by key; each edge's key, None if zero
    for g in gens:
        key = None
        if g:
            a = ops.associate(g)
            key = ops.key(a)
            labels.setdefault(key, a)
        keys.append(key)
    for q in coprime_base(labels.values(), ops):
        exponent = {key: valuation(a, q, ops) for key, a in labels.items()}
        top = max(exponent.values())
        exponents = [top if key is None else exponent[key] for key in keys]
        powers = [q]
        while len(powers) < top:
            powers.append(powers[-1] * q)
        # (an end of a failing edge, low, a): q^(j+1) does not divide its
        # difference at the levels low <= j < a of its label's exponent a
        dirty = []
        for k, diff in failing:
            low, a = 0, exponents[k]
            while low < a and not diff % powers[low]:
                low += 1
            if low < a:
                dirty.append((edges[k][0], low, a))
        if not dirty:
            continue
        for j, components in descend(n, edges, exponents):
            starts = [v for v, low, a in dirty if low <= j < a]
            if starts:
                _split(components, starts,
                       lambda v, m=powers[j]: ops.key(values[v] % m), pairs)
    verts = graph.vertices
    return tuple((verts[i], verts[j]) for i, j in sorted(pairs))
