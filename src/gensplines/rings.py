"""Exact arithmetic for the three supported coefficient rings.

Supported rings: the integers, integers mod m (m >= 2), and univariate
polynomials with rational coefficients.  All values are immutable and
kept in canonical form, so structural equality decides ring equality:
residues live in [0, m), a polynomial is a rational content times a
primitive integer part, and ideal generators are collapsed to a single
normalized gcd generator.

RingElement has one arithmetic path for every ring: it combines payloads
with +, -, *, divmod and % and wraps the result through _element, which
only reduces mod m; RingSpec.element, which validates and converts
input, is for values from outside the ring layer.  int supplies the
payload arithmetic for Z and Z/m, and the private _Poly supplies it for
Q[x]: it is born and computed in its one form, and reads as a tuple of
Fractions that are built only when read.  The ring
kind is read only where the rings differ: canonical form, units,
divisibility mod m, the normalizing unit and the operations Z/m refuses.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

INTEGERS = "integers"
INTEGERS_MOD = "integers-mod"
POLY_RATIONAL = "poly-rational"


class RingMismatchError(ValueError):
    """Raised when operands belong to different rings."""


class UnsupportedRingError(ValueError):
    """Raised when an operation is not defined over the given ring."""


# Miller-Rabin on the first 13 prime bases is exact below this bound
# (Sorenson and Webster, 2015); at or above it no answer is guessed.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3317044064679887385961981


def read_decimal(text: str) -> int:
    """The int that text spells in ASCII decimal digits after an optional
    sign; int() also takes spaces, underscores and other digits.  An
    integer past the interpreter's int <-> str limit is refused in words a
    document's reader can act on, not with CPython's advice to raise it."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected a decimal integer, got {text[:40]!r}")
    n, limit = len(digits), sys.get_int_max_str_digits()
    if 0 < limit < n:
        raise ValueError(f"integer of {n} digits is past the input bound of {limit} digits")
    return int(text)


def _coefficient(c) -> tuple[int, int]:
    """A Q[x] coefficient's integer ratio from an int, a Fraction or a "p" or
    "p/q" string of decimal integers, not Fraction("1e100000000")'s 10^8 digits."""
    if type(c) in (int, Fraction):
        return c.as_integer_ratio()
    if not isinstance(c, str):
        raise TypeError(f"expected an int, a Fraction or a string coefficient, got {c!r}")
    num, slash, den = c.partition("/")
    n, d = read_decimal(num), read_decimal(den) if slash else 1
    if not d:
        raise ZeroDivisionError(f"zero denominator in {c!r}")
    return n, d


def _is_prime(n: int) -> bool:
    if n >= _PRIME_TEST_BOUND:
        raise UnsupportedRingError(
            f"cannot decide whether a modulus >= {_PRIME_TEST_BOUND} is prime")
    if n < 2 or any(n % p == 0 for p in _PRIME_BASES):
        return n in _PRIME_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        # n = 2^s * d + 1 is a strong probable prime to base a if
        # a^d = 1 or a^(2^r * d) = -1 (mod n) for some 0 <= r < s
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 2 ** r, n) != n - 1 for r in range(s)):
            return False
    return True


@dataclass(frozen=True)
class RingSpec:
    kind: str
    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (INTEGERS, INTEGERS_MOD, POLY_RATIONAL):
            raise ValueError(f"unknown ring kind: {self.kind!r}")
        if self.kind == INTEGERS_MOD:
            if self.modulus is not None and type(self.modulus) is not int:
                raise ValueError(f"integers-mod requires an int modulus, got {self.modulus!r}")
            if self.modulus is None or self.modulus < 2:
                raise ValueError("integers-mod requires a modulus >= 2")
        elif self.modulus is not None:
            raise ValueError(f"{self.kind} does not take a modulus")

    @property
    def is_euclidean(self) -> bool:
        return self.kind in (INTEGERS, POLY_RATIONAL)

    @property
    def is_integral_domain(self) -> bool:
        if self.kind == INTEGERS_MOD:
            return _is_prime(self.modulus)
        return True

    def element(self, value) -> "RingElement":
        """Build a canonical element of this ring.

        Integers and residues accept ints; residues are reduced mod m.
        Polynomials accept one coefficient or a sequence of coefficients
        in ascending degree; a coefficient is an int, a Fraction, or a "p"
        or "p/q" string of decimal integers.  A bool or a float is
        refused: one prints as True, the other is not exact.
        """
        if isinstance(value, RingElement):
            value = value.payload
        if self.kind == POLY_RATIONAL:
            if not isinstance(value, _Poly):
                coeffs = (value,) if isinstance(value, (int, float, Fraction, str)) else value
                ratios = [_coefficient(c) for c in coeffs]
                den = math.lcm(*[d for _, d in ratios])
                value = _Poly._canonical([n * (den // d) for n, d in ratios], 1, den)
        elif type(value) is not int:
            raise TypeError(f"expected an integer for {self.kind}, got {value!r}")
        return _element(self, value)

    @cached_property
    def zero(self) -> "RingElement":
        return self.element(0)

    @cached_property
    def one(self) -> "RingElement":
        return self.element(1)

    def __str__(self) -> str:
        if self.kind == INTEGERS_MOD:
            return f"Z/{self.modulus}"
        return "Z" if self.kind == INTEGERS else "Q[x]"


def integers() -> RingSpec:
    return RingSpec(INTEGERS)


def integers_mod(m: int) -> RingSpec:
    return RingSpec(INTEGERS_MOD, m)


def poly_rational() -> RingSpec:
    return RingSpec(POLY_RATIONAL)


class _Poly:
    """A Q[x] payload, content times primitive part, and the arithmetic
    that int has for Z and Z/m.  content is a Fraction with the sign, 0
    for the zero polynomial; prim holds ints in ascending degree with gcd
    1, a positive last entry and no trailing zero, () for zero.

    _canonical builds that form from integer coefficients: + and - take
    one gcd over the result, * none, since a product of primitive parts
    is primitive (Gauss's lemma; von zur Gathen and Gerhard, Modern
    Computer Algebra, 6.2).  divmod pseudo-divides the primitive parts:
    with L the divisor's last entry, the dividend's is scaled once by L^k,
    k = deg a - deg b + 1, so that every quotient step divides exactly.
    The payload reads as the tuple of its lowest-terms Fractions, built
    only when read: len, iteration, indexing, == and hash are its."""

    __slots__ = ("content", "prim")

    def __init__(self, content: Fraction, prim: tuple):
        self.content, self.prim = content, prim

    @staticmethod
    def _canonical(coeffs: list, num: int, den: int) -> "_Poly":
        """The _Poly with coefficients coeffs[i] * num / den, coeffs ints:
        their gcd, signed as the last nonzero one, joins the content."""
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        if not n:
            return _Poly(0, ())
        g = -math.gcd(*coeffs) if coeffs[n - 1] < 0 else math.gcd(*coeffs)
        return _Poly(Fraction(num * g, den), tuple(c // g for c in coeffs[:n]))

    def __len__(self) -> int:
        return len(self.prim)

    def __iter__(self):
        return (self.content * c for c in self.prim)

    def __getitem__(self, i: int) -> Fraction:
        return self.content * self.prim[i]

    def __eq__(self, other) -> bool:
        if type(other) is _Poly:
            return self.prim == other.prim and self.content == other.content
        return tuple(self) == other

    def __hash__(self) -> int:
        return hash(tuple(self))

    def _combine(self, other: "_Poly", sign: int) -> "_Poly":
        """self + sign * other, the contents' numerator gcd taken out."""
        (n, d), (m, e) = self.content.as_integer_ratio(), other.content.as_integer_ratio()
        h, den = math.gcd(n, m) or 1, math.lcm(d, e)
        sa, sb = n // h * (den // d), sign * (m // h) * (den // e)
        a, b = self.prim, other.prim
        out = [x * sa for x in a] + [0] * (len(b) - len(a))
        for i, y in enumerate(b):
            out[i] += y * sb
        return _Poly._canonical(out, h, den)

    def __add__(self, other: "_Poly") -> "_Poly":
        return self._combine(other, 1)

    def __sub__(self, other: "_Poly") -> "_Poly":
        return self._combine(other, -1)

    def __neg__(self) -> "_Poly":
        return _Poly(-self.content, self.prim)

    def __mul__(self, other: "_Poly") -> "_Poly":
        a, b = self.prim, other.prim
        if not a or not b:
            return self if not a else other
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for j, y in enumerate(b):
            if y:
                for i, x in enumerate(a, j):
                    out[i] += x * y
        return _Poly(self.content * other.content, tuple(out))

    def _pseudo_divide(self, other: "_Poly") -> tuple[list, list, int]:
        """(Q, R, L^k) with L^k * A = Q * B + R for the primitive parts A
        of self and B of other, Q and R integer lists and R shorter than B."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        a, b = self.prim, other.prim
        nb = len(b) - 1
        k = max(len(a) - nb, 0)
        lead = b[-1]
        scale = lead ** k
        rem = [x * scale for x in a]
        quot = [0] * k
        for i in range(len(a) - 1, nb - 1, -1):
            f = rem[i] // lead
            if f:
                quot[i - nb] = f
                for j in range(nb):
                    rem[i - nb + j] -= f * b[j]
        return quot, rem[:nb], scale

    def __divmod__(self, other: "_Poly") -> tuple["_Poly", "_Poly"]:
        quot, rem, scale = self._pseudo_divide(other)
        (n, d), (m, e) = self.content.as_integer_ratio(), other.content.as_integer_ratio()
        return _Poly._canonical(quot, n * e, d * m * scale), _Poly._canonical(rem, n, d * scale)

    def __mod__(self, other: "_Poly") -> "_Poly":
        _, rem, scale = self._pseudo_divide(other)
        n, d = self.content.as_integer_ratio()
        return _Poly._canonical(rem, n, d * scale)

    def __str__(self) -> str:
        text = ""
        for deg in range(len(self) - 1, -1, -1):
            c = self[deg]
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


class RingElement:
    """An exact, canonical element of one of the supported rings."""

    __slots__ = ("ring", "payload")

    def __init__(self, ring: RingSpec, payload):
        _SET_RING(self, ring)
        _SET_PAYLOAD(self, payload)

    def __setattr__(self, name, value):
        raise AttributeError("RingElement is immutable")

    def _check(self, other: "RingElement") -> None:
        if not isinstance(other, RingElement):
            raise TypeError(f"expected RingElement, got {other!r}")
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return _element(self.ring, self.payload + other.payload)

    def __neg__(self) -> "RingElement":
        return _element(self.ring, -self.payload)

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return _element(self.ring, self.payload - other.payload)

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return _element(self.ring, self.payload * other.payload)

    @property
    def is_zero(self) -> bool:
        return not self.payload

    @property
    def is_unit(self) -> bool:
        k = self.ring.kind
        if k == INTEGERS:
            return self.payload in (1, -1)
        if k == INTEGERS_MOD:
            return math.gcd(self.payload, self.ring.modulus) == 1
        return len(self.payload) == 1

    def divides(self, other: "RingElement") -> bool:
        """Exact divisibility; over Z/m, divisibility of residues by gcd(self, m)."""
        self._check(other)
        if self.ring.kind == INTEGERS_MOD:
            return other.payload % math.gcd(self.payload, self.ring.modulus) == 0
        if not self.payload:
            return not other.payload
        return not other.payload % self.payload

    def exact_div(self, other: "RingElement") -> "RingElement":
        """Return self / other, which must divide exactly (Euclidean rings)."""
        self._check(other)
        if not self.ring.is_euclidean:
            raise UnsupportedRingError("exact division is not defined mod m")
        q, r = divmod(self.payload, other.payload)
        if r:
            raise ValueError(f"{other} does not divide {self}")
        return _element(self.ring, q)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElement)
            and (self.ring is other.ring or self.ring == other.ring)
            and self.payload == other.payload
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.payload))

    def __str__(self) -> str:
        return str(self.payload)

    def __repr__(self) -> str:
        return f"<{self.ring}: {self}>"


# The slots' own setters, which __setattr__ does not reach.
_SET_RING = RingElement.ring.__set__
_SET_PAYLOAD = RingElement.payload.__set__


def _element(ring: RingSpec, payload) -> RingElement:
    """An element from a payload that ring arithmetic produced: an int,
    reduced here mod m, or a trimmed _Poly.  RingSpec.element's
    validation is skipped."""
    if ring.modulus is not None:
        payload %= ring.modulus
    return RingElement(ring, payload)


def _normalizing_unit(a: RingElement) -> RingElement | None:
    """The unit u with u * a nonnegative (integers) or monic (nonzero
    polynomials); None when u is one."""
    if a.ring.kind == POLY_RATIONAL:
        if a.payload and a.payload[-1] != 1:
            return _element(a.ring, _Poly(1 / a.payload[-1], (1,)))
    elif a.ring.kind == INTEGERS and a.payload < 0:
        return _element(a.ring, -1)
    return None


def _normalized(a: RingElement) -> RingElement:
    """Nonnegative for integers, monic for polynomials."""
    unit = _normalizing_unit(a)
    return a if unit is None else unit * a


def gcd(a: RingElement, b: RingElement) -> RingElement:
    a._check(b)
    if not a.ring.is_euclidean:
        raise UnsupportedRingError("gcd is not defined over Z/m")
    x, y = a.payload, b.payload
    while y:
        x, y = y, x % y
    return _normalized(_element(a.ring, x))


def lcm(a: RingElement, b: RingElement) -> RingElement:
    if a.is_zero and b.is_zero:
        raise ValueError("lcm(0, 0) is undefined")
    if a.is_zero or b.is_zero:
        return a.ring.zero
    g = gcd(a, b)
    return _normalized((a * b).exact_div(g))


def ext_gcd(a: RingElement, b: RingElement) -> tuple[RingElement, RingElement, RingElement]:
    """Return (g, x, y) with x*a + y*b = g, g the normalized gcd."""
    a._check(b)
    ring = a.ring
    if not ring.is_euclidean:
        raise UnsupportedRingError("extended gcd needs a Euclidean ring")
    zero, one = ring.zero.payload, ring.one.payload
    r0, r1 = a.payload, b.payload
    x0, x1 = one, zero
    y0, y1 = zero, one
    while r1:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    g, x, y = (_element(ring, c) for c in (r0, x0, y0))
    unit = _normalizing_unit(g)
    if unit is not None:
        # scale the cofactors to keep the Bezout identity for the
        # normalized gcd
        g, x, y = unit * g, unit * x, unit * y
    return g, x, y


class Ideal:
    """A finitely generated ideal with a canonical single generator.

    All supported rings are principal settings: in Z and Q[x] the
    canonical generator is the normalized gcd of the generators, and in
    Z/m it is gcd(generators, m) reduced mod m.  Over Z/m, divisor is
    that gcd before reduction (m for the zero ideal); it is None over Z
    and Q[x].
    """

    __slots__ = ("ring", "generators", "canonical", "divisor")

    def __init__(self, generators):
        generators = tuple(generators)
        if not generators:
            raise ValueError("an ideal needs at least one generator")
        for g in generators:  # the first too: it may not be a RingElement
            RingElement._check(generators[0], g)
        ring = generators[0].ring
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", generators)
        divisor = None
        if ring.kind == INTEGERS_MOD:
            divisor = math.gcd(ring.modulus, *(g.payload for g in generators))
            canonical = _element(ring, divisor)
        else:
            canonical = _normalized(generators[0])
            for g in generators[1:]:
                canonical = gcd(canonical, g)
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "divisor", divisor)

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable")

    def contains(self, a: RingElement) -> bool:
        """Over Z/m, a residue is in the ideal exactly when divisor
        divides it."""
        self.canonical._check(a)
        if self.divisor is not None:
            return a.payload % self.divisor == 0
        return self.canonical.divides(a)

    @property
    def is_zero(self) -> bool:
        return self.canonical.is_zero

    @property
    def is_unit(self) -> bool:
        return self.canonical.is_unit

    def scaled(self, r: RingElement) -> "Ideal":
        return Ideal(tuple(r * g for g in self.generators))

    def __eq__(self, other) -> bool:
        return isinstance(other, Ideal) and self.canonical == other.canonical

    def __hash__(self) -> int:
        return hash((self.ring, self.canonical))

    def __repr__(self) -> str:
        return f"<{self.canonical}>"
