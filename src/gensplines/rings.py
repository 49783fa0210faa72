"""Exact arithmetic for the three supported coefficient rings.

Supported rings: the integers, integers mod m (m >= 2), and univariate
polynomials with rational coefficients.  All values are immutable and
kept in canonical form, so structural equality decides ring equality:
residues live in [0, m), polynomial coefficient tuples carry no trailing
zeros, and ideal generators are collapsed to a single normalized gcd
generator.

RingElement has one arithmetic path for every ring: it combines payloads
with +, -, *, divmod and % and hands the result to RingSpec.element for
canonical form.  int supplies that arithmetic for Z and Z/m, and the
private _Poly tuple supplies it for Q[x].  The ring kind is read only
where the rings differ: canonical form, units, divisibility mod m, the
normalizing unit and the operations Z/m refuses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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


def _coefficient(c) -> Fraction:
    """A Q[x] coefficient from an int, a Fraction or a "p" or "p/q" string of
    decimal integers; Fraction("1e100000000") would build 10^8 digits."""
    if not isinstance(c, str):
        return Fraction(c)
    if c.count("/") > 1:
        raise ValueError("expected an integer or a 'p/q' coefficient string")
    return Fraction(*(int(part, 10) for part in c.split("/")))


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
        Polynomials accept an int, a Fraction, or a sequence of
        coefficients in ascending degree (ints, Fractions, or "p" and
        "p/q" strings of decimal integers).
        """
        if isinstance(value, RingElement):
            value = value.payload
        if self.kind == POLY_RATIONAL:
            if not isinstance(value, _Poly):
                coeffs = (value,) if isinstance(value, (int, Fraction)) else value
                value = _Poly.trimmed([_coefficient(c) for c in coeffs])
            return RingElement(self, value)
        if not isinstance(value, int):
            raise TypeError(f"expected an integer for {self.kind}, got {value!r}")
        if self.kind == INTEGERS_MOD:
            value %= self.modulus
        return RingElement(self, value)

    @property
    def zero(self) -> "RingElement":
        return self.element(0)

    @property
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


class _Poly(tuple):
    """A Q[x] payload: Fraction coefficients in ascending degree with no
    trailing zeros, and the arithmetic that int has for Z and Z/m."""

    __slots__ = ()

    @classmethod
    def trimmed(cls, coeffs: list) -> "_Poly":
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        del coeffs[n:]
        return cls(coeffs)

    def __add__(self, other: "_Poly") -> "_Poly":
        a, b = (self, other) if len(self) >= len(other) else (other, self)
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _Poly.trimmed(out)

    def __neg__(self) -> "_Poly":
        return _Poly(-c for c in self)

    def __mul__(self, other: "_Poly") -> "_Poly":
        if not self or not other:
            return _Poly()
        out = [Fraction(0)] * (len(self) + len(other) - 1)
        for i, ca in enumerate(self):
            if ca == 0:
                continue
            for j, cb in enumerate(other):
                out[i + j] += ca * cb
        return _Poly.trimmed(out)

    def __divmod__(self, other: "_Poly") -> tuple["_Poly", "_Poly"]:
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self)
        quot = [Fraction(0)] * max(len(self) - len(other) + 1, 0)
        lead = other[-1]
        db = len(other) - 1
        for i in range(len(rem) - 1, db - 1, -1):
            if rem[i] == 0:
                continue
            f = rem[i] / lead
            quot[i - db] = f
            for j, cb in enumerate(other):
                rem[i - db + j] -= f * cb
        return _Poly.trimmed(quot), _Poly.trimmed(rem)

    def __mod__(self, other: "_Poly") -> "_Poly":
        return divmod(self, other)[1]

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
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, name, value):
        raise AttributeError("RingElement is immutable")

    def _check(self, other: "RingElement") -> None:
        if not isinstance(other, RingElement):
            raise TypeError(f"expected RingElement, got {other!r}")
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return self.ring.element(self.payload + other.payload)

    def __neg__(self) -> "RingElement":
        return self.ring.element(-self.payload)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return self.ring.element(self.payload * other.payload)

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
        return RingElement(self.ring, q)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElement)
            and self.ring == other.ring
            and self.payload == other.payload
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.payload))

    def __str__(self) -> str:
        return str(self.payload)

    def __repr__(self) -> str:
        return f"<{self.ring}: {self}>"


def _normalizing_unit(a: RingElement) -> RingElement | None:
    """The unit u with u * a nonnegative (integers) or monic (nonzero
    polynomials); None when u is one."""
    if a.ring.kind == POLY_RATIONAL:
        if a.payload and a.payload[-1] != 1:
            return a.ring.element(1 / a.payload[-1])
    elif a.ring.kind == INTEGERS and a.payload < 0:
        return a.ring.element(-1)
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
    return _normalized(a.ring.element(x))


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
    r0, r1 = a, b
    x0, x1 = ring.one, ring.zero
    y0, y1 = ring.zero, ring.one
    while not r1.is_zero:
        q = RingElement(ring, divmod(r0.payload, r1.payload)[0])
        r0, r1 = r1, r0 - q * r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    unit = _normalizing_unit(r0)
    if unit is not None:
        # scale the cofactors to keep the Bezout identity for the
        # normalized gcd
        r0, x0, y0 = unit * r0, unit * x0, unit * y0
    return r0, x0, y0


class Ideal:
    """A finitely generated ideal with a canonical single generator.

    All supported rings are principal settings: in Z and Q[x] the
    canonical generator is the normalized gcd of the generators, and in
    Z/m it is gcd(generators, m) reduced mod m.
    """

    __slots__ = ("ring", "generators", "canonical")

    def __init__(self, generators):
        generators = tuple(generators)
        if not generators:
            raise ValueError("an ideal needs at least one generator")
        ring = generators[0].ring
        for g in generators[1:]:
            generators[0]._check(g)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", generators)
        if ring.kind == INTEGERS_MOD:
            canonical = ring.element(math.gcd(ring.modulus, *(g.payload for g in generators)))
        else:
            canonical = _normalized(generators[0])
            for g in generators[1:]:
                canonical = gcd(canonical, g)
        object.__setattr__(self, "canonical", canonical)

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable")

    def contains(self, a: RingElement) -> bool:
        """Over Z/m, divides tests against gcd(canonical, m), the ideal's
        divisor of m (m itself for a zero canonical generator)."""
        if a.ring != self.ring:
            raise RingMismatchError(f"{a.ring} vs {self.ring}")
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
        return (
            isinstance(other, Ideal)
            and self.ring == other.ring
            and self.canonical == other.canonical
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.canonical))

    def __repr__(self) -> str:
        return f"<{self.canonical}>"


def ideal_membership(a: RingElement, ideal: Ideal) -> bool:
    return ideal.contains(a)


def ideal_canonicalize(generators) -> Ideal:
    return Ideal(generators)
