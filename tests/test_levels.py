"""The local levels: a coprime base by factor refinement, and one
union-find per base element that takes the edges from the top level down."""
import itertools
import math
import random
import time
from types import SimpleNamespace

import pytest

from gensplines import gcd, integers, levels, poly_rational
from gensplines.construct import tree_membership
from gensplines.rings import Ideal, _Poly
from gensplines.splines import Spline

from conftest import coefficients, make_graph

Z, QX = integers(), poly_rational()
PRIMES = [p for p in range(2, 2000) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def unfactored(x, base, ops):
    """x with every power of every base element divided out."""
    for q in base:
        while (y := ops.quotient(x, q)) is not None:
            x = y
    return x


def check_base(labels, ops):
    """The base is pairwise coprime, its elements normal non-units that
    divide a label, and every nonzero non-unit label a unit times a product
    of their powers."""
    base = levels.coprime_base(labels, ops)
    for q in base:
        assert q == ops.normal(q) and not ops.is_unit(q)
        assert any(ops.quotient(x, q) is not None for x in labels if x)
    for a, b in itertools.combinations(base, 2):
        assert ops.is_unit(ops.gcd(a, b))
    for x in labels:
        if x:
            assert ops.is_unit(unfactored(x, base, ops))
    return base


class TestCoprimeBase:
    @pytest.mark.parametrize("seed", range(4))
    def test_products_of_prime_powers(self, seed):
        # labels of up to six prime powers below 2,000, most primes shared
        # between labels, zero and units among them
        rng = random.Random(seed)
        primes = rng.sample(PRIMES, 40)
        labels = [math.prod(rng.choice(primes) ** rng.randint(1, 3)
                            for _ in range(rng.randint(1, 6))) * rng.choice((1, -1))
                  for _ in range(150)]
        base = check_base(labels + [0, 1, -1], Z.ops)
        # the base only ever splits the labels' primes: each prime of a
        # label divides exactly one base element
        for p in {p for p in primes if any(x % p == 0 for x in labels)}:
            assert sum(q % p == 0 for q in base) == 1

    def test_small_cases(self):
        ops = Z.ops
        assert levels.coprime_base([0, 1, -1], ops) == []
        assert levels.coprime_base([4, -4, 8, 2], ops) == [2]
        assert sorted(levels.coprime_base([12, 18], ops)) == [2, 3]
        assert sorted(levels.coprime_base([4, 6, 9], ops)) == [2, 3]
        # no primality is needed: 6 stays whole when nothing splits it
        assert sorted(levels.coprime_base([6, 36, 5], ops)) == [5, 6]

    @pytest.mark.parametrize("seed", range(4))
    def test_products_of_linear_factors(self, seed):
        # over Q[x]: products of (x - a)^k, a in {-1, 0, 1, 2}, times a
        # nonzero rational, with zero and units among them
        rng = random.Random(seed)
        labels = [QX.zero.payload, QX.element("2/3").payload]
        for _ in range(60):
            coeffs = [rng.choice((-3, -1, 1, 2))]
            for a in (-1, 0, 1, 2):
                for _ in range(rng.randint(0, 3)):
                    coeffs = [x - a * y for x, y in zip([0] + coeffs, coeffs + [0])]
            labels.append(QX.element([f"{c}/5" for c in coeffs]).payload)
        base = check_base(labels, QX.ops)
        assert 1 <= len(base) <= 4 and all(2 <= len(list(q.ratios())) <= 5 for q in base)


@pytest.mark.parametrize("seed", range(3))
def test_one_normal_form(seed):
    # the payload operations, the ring layer's gcd and ideals, and the
    # levels' coprime base share one normal form: nonnegative over Z, monic
    # over Q[x], drawn here from negative, non-monic and rational elements
    rng = random.Random(seed)

    def qx():
        return QX.element([f"{rng.randint(-9, 9)}/{rng.randint(1, 7)}"
                           for _ in range(rng.randint(1, 4))])

    for ring, draw in ((Z, lambda: Z.element(rng.randint(-60, 60))), (QX, qx)):
        ops = ring.ops
        labels = []
        for _ in range(40):
            c = draw()
            x, y = draw() * c, draw() * c
            labels.append(x.payload)
            normal = ops.normal(x.payload)
            assert normal == Ideal([x]).canonical.payload
            if ring is Z:
                assert normal == abs(x.payload)
            elif x.payload:
                lead = coefficients(x)[-1]
                assert normal == (x * QX.element(1 / lead)).payload
            assert ops.gcd(x.payload, y.payload) == gcd(x, y).payload
            assert gcd(x, y) == Ideal([x, y]).canonical
        base = levels.coprime_base(labels, ops)
        assert base and all(q == ops.normal(q) for q in base)
        if ring is QX:
            assert all(list(q.ratios())[-1] == (1, 1) for q in base)


class TestValuation:
    def test_exponent_and_rest(self):
        for a in range(200):
            assert levels.valuation(3 ** a * 10, 3, Z.ops) == (a, 10)
        q = x = QX.element([1, 1])
        rest = QX.element(["-2/3", "1/3"])
        for a in range(40):
            assert levels.valuation((x * rest).payload, q.payload, QX.ops) == (a + 1, rest.payload)
            x = x * q

    def test_logarithmic_divisions(self):
        # q, q^2, q^4, ... while each divides, then the same powers from
        # the largest down: 2 * bit_length(a + 1) - 1 divisions in all
        calls = []

        def quotient(a, b):
            calls.append(b)
            return Z.ops.quotient(a, b)

        for a in (0, 1, 2, 3, 1000, 4095, 4096):
            calls.clear()
            assert levels.valuation(2 ** a * 7, 2, SimpleNamespace(quotient=quotient)) == (a, 7)
            assert len(calls) == 2 * (a + 1).bit_length() - 1

    def test_a_high_power_label_takes_few_divisions(self):
        # the levels divide a label x^4000 by x, x^2, x^4, ..., not 4,000
        # times by x, which took 2.4 s on a 2-core x86_64 host
        tree = make_graph(QX, ["a", "b", "c"], [("a", "b", [[0, 1]]),
                                                ("b", "c", [[0] * 4000 + [1]])])
        p = Spline(tree, {"a": QX.zero, "b": QX.zero, "c": QX.one})
        start = time.perf_counter()
        failures = tree_membership(tree, p).failures
        assert time.perf_counter() - start < 0.5
        assert failures == (("a", "c"), ("b", "c"))


class TestComponents:
    def test_descend_adds_each_edge_at_its_exponent(self):
        # a path 0-1-2-3-4 with exponents 2, 0, 1, 2
        edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
        seen = []
        for j, components in levels.descend(5, edges, [2, 0, 1, 2]):
            seen.append((j, sorted(sorted(m) for m in components.members.values())))
        assert seen == [(1, [[0, 1], [3, 4]]), (0, [[0, 1], [2, 3, 4]])]
        assert list(levels.descend(3, [(0, 1), (1, 2)], [0, 0])) == []

    def test_union_find_keeps_members(self):
        components = levels.Components(6)
        for u, v in [(0, 1), (2, 3), (1, 3), (4, 5)]:
            components.union(u, v)
        components.union(0, 2)  # already joined
        assert components.find(0) == components.find(3) != components.find(4)
        assert sorted(sorted(m) for m in components.members.values()) == [[0, 1, 2, 3], [4, 5]]


def test_polynomial_decision_builds_no_fraction(monkeypatch):
    # Q[x] residues and labels are keyed by the payloads themselves, whose
    # hash reads their int fields; no coefficient is read
    def refused(*args):
        raise AssertionError("a Q[x] payload's coefficients were read")

    tree = make_graph(QX, ["a", "b", "c", "d"], [
        ("a", "b", [[0, 0, 1]]), ("b", "c", [[-1, 0, 1]]), ("c", "d", [0])])
    values = {"a": QX.zero, "b": QX.element([0, 1]), "c": QX.element([1, 1]),
              "d": QX.element([2])}
    monkeypatch.setattr(_Poly, "ratios", refused)
    failures = tree_membership(tree, Spline(tree, values)).failures
    assert failures == (("a", "b"), ("b", "c"), ("b", "d"), ("c", "d"))
