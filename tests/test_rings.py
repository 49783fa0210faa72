"""Ring arithmetic, gcd/lcm, and ideal canonicalization."""
import math
import operator
import os
import pathlib
import random
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import gensplines
from gensplines import build_graph, gcd, integers, integers_mod, lcm, poly_rational
from gensplines.rings import (
    Ideal,
    RingElement,
    RingMismatchError,
    RingSpec,
    UnsupportedRingError,
    _Poly,
    ext_gcd,
    read_decimal,
)
from gensplines.serialize import element_to_json

from conftest import coefficients

Z = integers()
QX = poly_rational()


def P(*coeffs):
    return QX.element(list(coeffs))


def fraction_str(coeffs):
    """A Q[x] value's text from its Fraction coefficients, ascending: the
    reference that str of a payload, which builds no Fraction, must equal."""
    text = ""
    for deg in range(len(coeffs) - 1, -1, -1):
        c = coeffs[deg]
        if c == 0:
            continue
        mag = abs(c)
        if deg == 0:
            body = str(mag)
        else:
            x = "x" if deg == 1 else f"x^{deg}"
            if mag == 1:
                body = x
            elif mag.denominator == 1:
                body = f"{mag}{x}"
            else:
                body = f"({mag}){x}"
        if text:
            text += " - " if c < 0 else " + "
        elif c < 0:
            text = "-"
        text += body
    return text or "0"


class TestRingSpec:
    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            integers_mod(1)
        with pytest.raises(ValueError):
            integers_mod(0)
        with pytest.raises(ValueError):
            RingSpec("integers", 5)
        with pytest.raises(ValueError):
            RingSpec("nonsense")
        # a residue's payload must stay an int
        for m in (2.5, 7.0, True, "7", Fraction(7)):
            with pytest.raises(ValueError, match="int modulus"):
                integers_mod(m)

    def test_integral_domain(self):
        assert Z.is_integral_domain
        assert QX.is_integral_domain
        assert integers_mod(7).is_integral_domain
        assert not integers_mod(6).is_integral_domain
        assert integers_mod(2).is_integral_domain

    def test_euclidean(self):
        assert Z.is_euclidean and QX.is_euclidean
        assert not integers_mod(5).is_euclidean


def _prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


class TestPrimality:
    def test_agrees_with_trial_division(self):
        for m in range(2, 20000):
            assert integers_mod(m).is_integral_domain == _prime_by_trial_division(m), m

    @pytest.mark.parametrize("m", [
        561, 1105, 41041, 825265, 3215031751,  # Carmichael numbers
        3825123056546413051,  # strong pseudoprime to the first 9 prime bases
        318665857834031151167461,  # strong pseudoprime to the first 12 prime bases
    ])
    def test_pseudoprimes_are_composite(self, m):
        assert not integers_mod(m).is_integral_domain

    def test_large_prime_at_once(self):
        start = time.perf_counter()
        assert integers_mod(2 ** 61 - 1).is_integral_domain
        assert time.perf_counter() - start < 1

    def test_refused_beyond_the_exact_bound(self):
        with pytest.raises(UnsupportedRingError, match="cannot decide"):
            integers_mod(2 ** 127 - 1).is_integral_domain


class TestCanonicalForms:
    def test_mod_addition_wraps(self):
        R = integers_mod(4)
        assert (R.element(3) + R.element(3)).payload == 2

    def test_zero_divisors_mod_six(self):
        R = integers_mod(6)
        assert (R.element(2) * R.element(3)).is_zero

    @pytest.mark.parametrize("m", [6, 7])
    def test_mod_operation_table(self, m):
        R = integers_mod(m)
        for a in range(m):
            x = R.element(a)
            assert (-x).payload == -a % m
            for b in range(m):
                y = R.element(b)
                for op in (operator.add, operator.sub, operator.mul):
                    z = op(x, y)
                    assert z.ring is R and z.payload == op(a, b) % m
                    assert 0 <= z.payload < m

    def test_residues_reduced_on_entry(self):
        R = integers_mod(5)
        assert R.element(12).payload == 2
        assert R.element(-1).payload == 4

    def test_trailing_zero_trim(self):
        assert coefficients(P(1, 2, 0, 0)) == (Fraction(1), Fraction(2))
        assert P(0, 0).is_zero

    def test_poly_fraction_coefficients(self):
        p = QX.element([Fraction(1, 2), 1])
        assert coefficients(p + p) == (Fraction(1), Fraction(2))

    @pytest.mark.parametrize("coeff", ["1e100000000", "0.5", "1/2/3", "x", "1/",
                                       "1_000", " 3", "1/ 2", "\u0663"])
    def test_coefficient_grammar_rejects(self, coeff):
        # the library takes the JSON grammar too: "p" or "p/q" decimal integers
        with pytest.raises(ValueError):
            QX.element([1, coeff])

    @pytest.mark.parametrize("ring, value", [
        (Z, 3.0), (Z, True), (integers_mod(5), False), (integers_mod(5), 2.0),
        (QX, 0.5), (QX, [0.5, 1]), (QX, True), (QX, [1, True]),
    ], ids=["z-float", "z-bool", "mod-bool", "mod-float", "qx-float", "qx-float-coeff",
            "qx-bool", "qx-bool-coeff"])
    def test_inexact_or_bool_values_rejected(self, ring, value):
        # a float is not exact and a bool payload prints as True
        with pytest.raises(TypeError):
            ring.element(value)

    @pytest.mark.parametrize("value, expected", [
        (7, (7,)),
        (Fraction(-3, 4), (Fraction(-3, 4),)),
        ("5/-10", (Fraction(-1, 2),)),
        ([1, Fraction(1, 2), "0", "2/3"], (1, Fraction(1, 2), 0, Fraction(2, 3))),
        ((c for c in (0, "-2/4", Fraction(2, 3))), (0, Fraction(-1, 2), Fraction(2, 3))),
        (range(3), (0, 1, 2)),
        (True, TypeError), (1.0, TypeError), (Decimal(1), TypeError), (None, TypeError),
        ([1, False], TypeError), ([1, 2.0], TypeError), ([Decimal("0.5")], TypeError),
    ], ids=["int", "fraction", "text", "list", "generator", "range", "bool", "float",
            "decimal", "none", "bool-coeff", "float-coeff", "decimal-coeff"])
    def test_element_input_contract(self, value, expected):
        if expected is TypeError:
            with pytest.raises(TypeError):
                QX.element(value)
        else:
            assert coefficients(QX.element(value)) == expected

    def test_string_is_one_coefficient(self):
        assert QX.element("12") == QX.element(12)
        assert coefficients(QX.element("1/2")) == (Fraction(1, 2),)
        for text in ("", "0.5"):
            with pytest.raises(ValueError):
                QX.element(text)

    def test_coefficient_grammar_accepts(self):
        assert coefficients(QX.element(["1/2", "-3", "1/-2", 4, Fraction(2, 3)])) == (
            Fraction(1, 2), Fraction(-3), Fraction(-1, 2), Fraction(4), Fraction(2, 3))
        with pytest.raises(ZeroDivisionError):
            QX.element(["1/0"])

    def test_structural_equality(self):
        assert P(1, 1) == P(1, 1)
        assert P(1, 1) != P(1, 2)
        assert Z.element(3) != integers_mod(5).element(3)

    def test_hashing_builds_no_fraction(self):
        # a payload's hash reads its int fields, so Q[x] elements in a set,
        # ideals as dict keys and a spline's hash leave fractions unloaded;
        # a fresh interpreter, since earlier tests have loaded it here
        script = """
import sys
from gensplines import build_graph, poly_rational
from gensplines.rings import Ideal
from gensplines.splines import Spline
QX = poly_rational()
x, y = QX.element([0, 1]), QX.element(["1/2", "-3", "2/7"])
values = {x, y, x * y, x - y, QX.zero}
ideals = {Ideal([x]): 1, Ideal([y, x * y]): 2}
graph = build_graph(QX, ["a", "b"], [("a", "b", Ideal([x]))])
hash(Spline(graph, {"a": x, "b": x * y}))
print(len(values), len(ideals), "fractions" in sys.modules)
"""
        src = pathlib.Path(gensplines.__file__).parents[1]
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=str(src)))
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout.split() == [b"5", b"2", b"False"]


class TestArithmetic:
    def test_poly_product(self):
        assert P(1, 1) * P(1, 0, 1) == P(1, 1, 1, 1)

    def test_subtraction(self):
        assert P(3, 1) - P(1, 1) == P(2)
        assert Z.element(4) - Z.element(7) == Z.element(-3)

    def test_mismatch_raises(self):
        pairs = [(Z.element(1), integers_mod(3).element(1)),
                 (P(1, 1), Z.element(2)),
                 (integers_mod(6).element(1), integers_mod(7).element(1))]
        ops = [operator.add, operator.sub, operator.mul,
               lambda a, b: a.exact_div(b), ext_gcd]
        for a, b in pairs:
            for op in ops:
                for x, y in ((a, b), (b, a)):
                    with pytest.raises(RingMismatchError):
                        op(x, y)

    def test_equal_rings_built_apart(self):
        # the ring check tests identity first, then equality
        for ring, other in ((integers_mod(6), integers_mod(6)), (Z, integers()),
                            (QX, poly_rational())):
            assert ring is not other
            a, b = ring.element(5), other.element(3)
            assert a + b == ring.element(8) and a - b == ring.element(2)
            assert a * b == ring.element(15) and a == other.element(5)
            assert Ideal([b]).contains(a * b)

    def test_units(self):
        assert Z.element(-1).is_unit and not Z.element(2).is_unit
        assert integers_mod(6).element(5).is_unit
        assert not integers_mod(6).element(3).is_unit
        assert P(Fraction(2, 3)).is_unit and not P(0, 1).is_unit

    def test_divides(self):
        assert Z.element(3).divides(Z.element(-9))
        assert not Z.element(4).divides(Z.element(6))
        assert Z.element(0).divides(Z.element(0))
        assert not Z.element(0).divides(Z.element(1))
        assert P(1, 1).divides(P(1, 0, 0, 1))  # x+1 | x^3+1
        # mod 6: <4> contains exactly the multiples of gcd(4, 6) = 2
        R = integers_mod(6)
        assert R.element(4).divides(R.element(2))
        assert not R.element(4).divides(R.element(3))

    def test_exact_div(self):
        assert Z.element(-12).exact_div(Z.element(4)) == Z.element(-3)
        assert P(1, 0, 0, 0, 0, 1).exact_div(P(1, 1)) == P(1, -1, 1, -1, 1)
        assert P(0, 0, 1, 2).exact_div(P(1, 2)) == P(0, 0, 1)
        assert P(2, 4).exact_div(P(Fraction(-2, 3))) == P(-3, -6)
        assert QX.zero.exact_div(P(1, 1)) == QX.zero
        with pytest.raises(ValueError):
            Z.element(5).exact_div(Z.element(2))
        # (2x + 1) * x^2 + 1 by 2x + 1, x^2 + 1 by x + 1 and 1 by x: every
        # quotient step divides, only the remainder does not
        for a, b in ((P(1, 0, 1, 2), P(1, 2)), (P(1, 0, 1), P(1, 1)), (P(1), P(0, 1))):
            assert not b.divides(a)
            with pytest.raises(ValueError, match="does not divide"):
                a.exact_div(b)
        with pytest.raises(UnsupportedRingError):
            integers_mod(4).element(2).exact_div(integers_mod(4).element(2))
        with pytest.raises(ZeroDivisionError):
            QX.element([1, 1]).exact_div(QX.zero)

    def test_str_rendering(self):
        assert str(P(2, 1, 1)) == "x^2 + x + 2"
        assert str(P(-1, 0, 1)) == "x^2 - 1"
        assert str(QX.element([Fraction(1, 2), Fraction(1, 2)])) == "(1/2)x + 1/2"
        assert str(P(0)) == "0"
        assert str(Z.element(-7)) == "-7"


class TestGcdLcm:
    def test_integer_goldens(self):
        assert gcd(Z.element(12), Z.element(-18)) == Z.element(6)
        assert lcm(Z.element(4), Z.element(6)) == Z.element(12)
        assert lcm(Z.element(-4), Z.element(6)) == Z.element(12)

    def test_poly_goldens(self):
        x5p1, x6p1 = P(1, 0, 0, 0, 0, 1), P(1, 0, 0, 0, 0, 0, 1)
        assert gcd(x5p1, x6p1) == P(1)
        assert lcm(x5p1, x6p1) == x5p1 * x6p1
        # gcd is monic even when inputs are not
        assert gcd(P(2, 2), P(-2, 0, 2)) == P(1, 1)

    def test_lcm_with_zero(self):
        assert lcm(Z.element(0), Z.element(5)) == Z.element(0)
        assert lcm(Z.element(-5), Z.element(0)) == Z.element(0)
        assert lcm(QX.zero, P(1, 1)) == QX.zero
        with pytest.raises(ValueError, match="lcm\\(0, 0\\) is undefined"):
            lcm(Z.element(0), Z.element(0))

    def test_lcm_checks_rings_before_zero_operands(self):
        """A zero operand decides no lcm before the rings are checked and
        Z/m is refused, as for gcd and ext_gcd."""
        Z6 = integers_mod(6)
        for a, b in ((Z.zero, Z6.one), (Z.element(2), Z6.element(3)), (Z6.zero, Z.element(5))):
            with pytest.raises(RingMismatchError):
                lcm(a, b)
        for a, b in ((Z6.zero, Z6.element(2)), (Z6.element(2), Z6.element(3)), (Z6.zero, Z6.zero)):
            with pytest.raises(UnsupportedRingError):
                lcm(a, b)

    def test_gcd_unsupported_mod(self):
        R = integers_mod(6)
        with pytest.raises(UnsupportedRingError):
            gcd(R.element(2), R.element(4))
        with pytest.raises(UnsupportedRingError):
            ext_gcd(R.element(2), R.element(4))

    @given(st.integers(-200, 200), st.integers(-200, 200))
    def test_ext_gcd_integers(self, a, b):
        x, y = Z.element(a), Z.element(b)
        g, s, t = ext_gcd(x, y)
        assert s * x + t * y == g
        assert g.payload >= 0
        if a or b:
            assert g.divides(x) and g.divides(y)

    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=4),
           st.lists(st.integers(-4, 4), min_size=1, max_size=4))
    @settings(max_examples=60)
    def test_ext_gcd_polys(self, ca, cb):
        a, b = QX.element(ca), QX.element(cb)
        g, s, t = ext_gcd(a, b)
        assert s * a + t * b == g
        if not g.is_zero:
            assert coefficients(g)[-1] == 1  # monic
            assert g.divides(a) and g.divides(b)


@st.composite
def ring_and_elements(draw, count):
    kind = draw(st.sampled_from(["z", "mod", "poly"]))
    if kind == "z":
        ring = Z
        make = lambda: ring.element(draw(st.integers(-30, 30)))
    elif kind == "mod":
        ring = integers_mod(draw(st.integers(2, 12)))
        make = lambda: ring.element(draw(st.integers(0, ring.modulus - 1)))
    else:
        ring = QX
        make = lambda: ring.element(
            draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3)))
    return ring, [make() for _ in range(count)]


class TestRingAxioms:
    @given(ring_and_elements(3))
    @settings(max_examples=80)
    def test_axioms(self, data):
        ring, (a, b, c) = data
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ring.zero == a
        assert a * ring.one == a
        assert a + (-a) == ring.zero

    @given(ring_and_elements(2))
    @settings(max_examples=60)
    def test_gcd_lcm_product(self, data):
        ring, (a, b) = data
        if ring.kind == "integers-mod" or a.is_zero or b.is_zero:
            return
        g, l = gcd(a, b), lcm(a, b)
        assert (a * b).exact_div(g * l).is_unit
        assert g.divides(a) and g.divides(b)
        assert a.divides(l) and b.divides(l)


class TestIdeals:
    def test_integer_canonicalization(self):
        ideal = Ideal([Z.element(4), Z.element(6)])
        assert ideal.canonical == Z.element(2)
        assert ideal.contains(Z.element(8))
        assert not ideal.contains(Z.element(3))

    def test_mod_canonicalization(self):
        R = integers_mod(12)
        ideal = Ideal([R.element(8)])
        assert ideal.canonical == R.element(4)  # gcd(8, 12)
        assert ideal.contains(R.element(8))
        assert not ideal.contains(R.element(2))

    def test_mod_membership_reads_the_divisor_of_m(self, monkeypatch):
        R = integers_mod(12)
        ideals = [(g, Ideal([R.element(g), R.element(0)])) for g in range(12)]

        def divides(self, other):
            raise AssertionError("Z/m membership recomputed gcd(canonical, m)")

        monkeypatch.setattr(RingElement, "divides", divides)
        for g, ideal in ideals:
            d = math.gcd(g, 12)  # 12 for the zero ideal
            assert ideal.divisor == d
            for r in range(-12, 24):
                assert ideal.contains(R.element(r)) == (r % d == 0)

    @pytest.mark.parametrize("m", [2, 6, 12, 30, 97])
    def test_divisor_is_the_gcd_with_m(self, m):
        R = integers_mod(m)
        for g in range(m):
            ideal = Ideal([R.element(g)])
            assert ideal.divisor == math.gcd(ideal.canonical.payload, m)
        assert Ideal([R.zero]).divisor == m
        with pytest.raises(AttributeError):
            ideal.divisor = 1

    def test_divisor_is_none_over_z_and_qx(self):
        assert Ideal([Z.element(6)]).divisor is None
        assert Ideal([P(2, 2)]).divisor is None

    def test_poly_canonicalization(self):
        ideal = Ideal([P(2, 2), P(-2, 0, 2)])
        assert ideal.canonical == P(1, 1)
        assert ideal.contains(P(1, 0, 0, 1))
        assert not ideal.contains(P(1, 0, 1))

    def test_zero_and_unit_ideals(self):
        zero = Ideal([Z.element(0)])
        assert zero.is_zero
        assert zero.contains(Z.element(0)) and not zero.contains(Z.element(1))
        unit = Ideal([Z.element(-1)])
        assert unit.is_unit and unit.contains(Z.element(17))
        # over Z/m the zero ideal contains only zero
        R = integers_mod(6)
        modzero = Ideal([R.element(0)])
        assert modzero.is_zero
        assert modzero.contains(R.element(0)) and not modzero.contains(R.element(3))

    def test_canonicalization_idempotent(self):
        ideal = Ideal([Z.element(4), Z.element(6)])
        assert Ideal([ideal.canonical]) == ideal

    def test_scaled(self):
        ideal = Ideal([Z.element(6)]).scaled(Z.element(-2))
        assert ideal.canonical == Z.element(12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Ideal([])

    def test_first_generator_must_be_a_ring_element(self):
        with pytest.raises(TypeError, match="expected RingElement, got 3"):
            Ideal([3])
        with pytest.raises(TypeError, match="expected RingElement, got 3"):
            build_graph(Z, ["a", "b"], [("a", "b", [3])])

    def test_equality_up_to_generators(self):
        assert Ideal([Z.element(2), Z.element(3)]) == Ideal([Z.element(1)])
        assert Ideal([Z.element(4)]) != Ideal([Z.element(2)])


class TestPolynomialsAgainstSympy:
    """Q[x] arithmetic checked against sympy's polynomials over QQ."""

    @staticmethod
    def random_polys(rng, count):
        big = 10 ** 25
        polys = [P(), P(0), P(1), P(Fraction(-3, 2)), P(Fraction(-1, big)),
                 P(Fraction(7, 3 * 10 ** 24), 0, 0, Fraction(-5, big - 1)),
                 P(0, Fraction(-2, 9), 0, Fraction(-4, big))]
        while len(polys) < count:
            degree = rng.randint(0, 6)
            polys.append(QX.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                     for _ in range(degree + 1)]))
        return polys

    @staticmethod
    def large_polys(rng):
        """Degrees 1, 3, 12 and 30, numerators and denominators up to
        10^20, and a negative leading coefficient that is not a unit, so
        that the divisor's leading numerator L and L^k in pseudo-division
        are large."""
        def coefficient():
            return Fraction(rng.randint(-10 ** 20, 10 ** 20), rng.randint(1, 10 ** 20))

        polys = []
        for degree in (1, 3, 12, 30):
            lead = -Fraction(rng.randint(2, 10 ** 20), rng.randint(1, 10 ** 20))
            polys.append(QX.element([coefficient() for _ in range(degree)] + [lead]))
        return polys

    @pytest.fixture
    def sympy_qq(self):
        """(sympy, to_sympy, from_sympy): the module and conversions
        between payloads and sympy polynomials over QQ."""
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def to_sympy(p):
            return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                               for c in reversed(coefficients(p))] or [0], x, domain="QQ")

        def from_sympy(poly):
            return QX.element([Fraction(int(c.p), int(c.q))
                               for c in reversed(poly.all_coeffs())])

        return sympy, to_sympy, from_sympy

    @staticmethod
    def canonical(*elements):
        """Every payload is a content times a primitive part: a tuple of
        ints with gcd 1, a positive last entry and no trailing zero, times
        a nonzero content num/den, both ints in lowest terms with den > 0,
        or 0/1 over ().  == and hash read those three fields, and
        ratios() gives each coefficient num * c / den in lowest terms."""
        for e in elements:
            p = e.payload
            num, den, prim = p.num, p.den, p.prim
            assert type(num) is int and type(den) is int
            assert den > 0 and math.gcd(num, den) == 1
            assert type(prim) is tuple and all(type(c) is int for c in prim)
            if prim:
                assert num != 0
                assert math.gcd(*prim) == 1 and prim[-1] > 0
            else:
                assert (num, den) == (0, 1)
            assert p == _Poly(num, den, prim) and hash(p) == hash((num, den, prim))
            assert bool(p) is bool(prim)
            ratios = list(p.ratios())
            assert [Fraction(n, d) for n, d in ratios] == [Fraction(num * c, den) for c in prim]
            for n, d in ratios:
                assert type(n) is int and type(d) is int
                assert d > 0 and math.gcd(n, d) == 1
        return True

    def test_one_form(self, monkeypatch):
        """A payload keeps its content and primitive part in slots, with no
        instance dict; * builds its result without the canonicalizer and +
        calls it once."""
        a, b = P(Fraction(1, 2), 3), P(Fraction(-2, 3), 0, Fraction(5, 4))
        q, r = divmod(b.payload, a.payload)
        for payload in (a.payload, (a + b).payload, (a * b).payload, (-a).payload, q, r,
                        b.payload % a.payload, QX.zero.payload):
            assert not hasattr(payload, "__dict__")
        calls = []
        canonical = _Poly._canonical
        monkeypatch.setattr(_Poly, "_canonical",
                            staticmethod(lambda *args: calls.append(args) or canonical(*args)))
        assert a.payload * b.payload == (a * b).payload and calls == []
        a.payload + b.payload
        assert len(calls) == 1

    @staticmethod
    def written(*elements):
        """JSON writes each coefficient as str of its Fraction, str equals
        fraction_str, and the ideal an element generates is monic."""
        for e in elements:
            assert element_to_json(e) == [str(c) for c in coefficients(e)]
            assert str(e) == fraction_str(coefficients(e))
            assert e.is_zero or coefficients(Ideal([e]).canonical)[-1] == 1
        return True

    def check_pair(self, sympy_qq, a, b, gcds=True):
        sympy, to_sympy, from_sympy = sympy_qq
        canonical, written = self.canonical, self.written
        assert canonical(a, b) and written(a, b)
        sa, sb = to_sympy(a), to_sympy(b)
        assert a + b == from_sympy(sa + sb) and canonical(a + b) and written(a + b)
        assert a - b == from_sympy(sa - sb) and canonical(a - b, -b) and written(a - b, -b)
        assert a * b == from_sympy(sa * sb) and canonical(a * b) and written(a * b)
        if gcds:
            g = gcd(a, b)
            assert g == from_sympy(sympy.gcd(sa, sb))
            eg, s, t = ext_gcd(a, b)
            assert eg == g and s * a + t * b == g and canonical(eg, s, t)
            assert g.is_zero or coefficients(g)[-1] == 1
            assert a.is_zero and b.is_zero or Ideal([a, b]).canonical == g
        if b.is_zero:
            assert b.divides(a) == a.is_zero
            return
        assert (a * b).exact_div(b) == a == from_sympy((sa * sb).exquo(sb))
        assert canonical((a * b).exact_div(b))
        sq, sr = sa.div(sb)
        assert b.divides(a) == sr.is_zero
        assert b.divides(a * b)
        if sr.is_zero:
            assert a.exact_div(b) == from_sympy(sq) and canonical(a.exact_div(b))
        else:
            with pytest.raises(ValueError, match="does not divide"):
                a.exact_div(b)
        q, r = (QX.element(c) for c in divmod(a.payload, b.payload))
        assert q == from_sympy(sq) and r == from_sympy(sr) and canonical(q, r)
        assert written(q, r)
        rem = QX.element(a.payload % b.payload)
        assert rem == r and canonical(rem)

    @staticmethod
    def near_multiples(rng, count):
        """(q * b + c * x^k, b) pairs with k < deg b, integer coefficients
        with gcd 1 and a positive lead, and b's lead above 1: long division
        of the primitive parts divides at every step, and only the final
        remainder shows that b does not divide."""
        pairs = []
        while len(pairs) < count:
            b = P(*(rng.randint(-9, 9) for _ in range(rng.randint(1, 5))), rng.randint(2, 9))
            q = P(*(rng.randint(-9, 9) for _ in range(rng.randint(0, 5))), rng.randint(1, 9))
            k = rng.randrange(len(coefficients(b)) - 1)
            a = q * b + P(*[0] * k, rng.choice((-3, -1, 1, 2)))
            if (a.payload.num, a.payload.den, b.payload.num, b.payload.den) == (1, 1, 1, 1):
                pairs.append((a, b))
        return pairs

    def test_matches_sympy(self, sympy_qq):
        rng = random.Random(20130604)
        polys = self.random_polys(rng, 27)
        for a in polys:
            for b in polys:
                self.check_pair(sympy_qq, a, b)
        for a, b in self.near_multiples(rng, 40):
            assert not b.divides(a)
            self.check_pair(sympy_qq, a, b)

    def test_division_by_constants(self, sympy_qq):
        """A nonzero constant's primitive part is (1,): the quotient keeps
        the dividend's primitive part and takes the contents' ratio.  It
        equals pseudo-division's quotient, with a zero remainder, and
        sympy's."""
        sympy, to_sympy, from_sympy = sympy_qq
        big = 10 ** 25
        constants = [P(c) for c in (1, -1, 3, -7, big, Fraction(-2, 3), Fraction(5, 9),
                                    Fraction(-1, big), Fraction(big + 1, -12))]
        for a in self.random_polys(random.Random(34), 27):
            for c in constants:
                assert c.payload.prim == (1,)
                q = a.payload.exact_quotient(c.payload)
                long_q, long_r = divmod(a.payload, c.payload)
                assert q == long_q and not long_r
                assert QX.element(q) == from_sympy(to_sympy(a).exquo(to_sympy(c)))
                assert self.canonical(QX.element(q))
                assert a.exact_div(c) * c == a

    def test_large_exact_division_at_once(self):
        # exact division of primitive parts needs no L^k scaling: with it,
        # these three divisions took about 0.4 s
        rng = random.Random(60)
        a, b = (p for p in self.large_polys(rng) + self.large_polys(rng)
                if len(coefficients(p)) == 31)
        product = a * b
        start = time.perf_counter()
        assert product.exact_div(b) == a and b.divides(product)
        assert not b.divides(product + QX.one)
        assert time.perf_counter() - start < 0.1

    def test_large_polynomials_match_sympy(self, sympy_qq):
        # Euclid over Q on two random degree-25 polynomials with 10^20
        # coefficients takes over a minute (the remainders' coefficients
        # grow to 10^5 bits), so gcd and ext_gcd pair each polynomial only
        # with the divisors of degree at most 3.
        polys = self.large_polys(random.Random(1306))
        for a in polys:
            for b in polys:
                self.check_pair(sympy_qq, a, b, gcds=len(coefficients(b)) <= 4)


def test_read_decimal_refuses_only_past_the_limit():
    """CPython refuses an int <-> str limit below 640 digits, but 0, which
    sets none: a decimal of up to 640 digits is read without asking for
    the limit, and at the lowest limit one more digit is refused."""
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ValueError):
        sys.set_int_max_str_digits(639)
    try:
        sys.set_int_max_str_digits(640)
        assert read_decimal("-" + "9" * 640) == 1 - 10 ** 640
        assert read_decimal("+" + "0" * 639 + "7") == 7
        with pytest.raises(ValueError, match="^integer of 641 digits is past the input bound "
                                             "of 640 digits$"):
            read_decimal("-" + "1" * 641)
        sys.set_int_max_str_digits(0)
        assert read_decimal("1" + "0" * 5000) == 10 ** 5000
    finally:
        sys.set_int_max_str_digits(limit)
