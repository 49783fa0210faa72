"""Exact arithmetic for the three supported coefficient rings.

Supported rings: the integers, integers mod m (m >= 2), and univariate
polynomials with rational coefficients.  All values are immutable and
kept in canonical form, so structural equality decides ring equality:
residues live in [0, m), polynomial coefficient tuples carry no trailing
zeros, and ideal generators are collapsed to a single normalized gcd
generator.
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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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
        coefficients in ascending degree (ints, Fractions, or "p/q"
        strings).
        """
        if self.kind == POLY_RATIONAL:
            if isinstance(value, RingElement):
                value = value.payload
            if isinstance(value, (int, Fraction)):
                coeffs = (Fraction(value),)
            else:
                coeffs = tuple(Fraction(c) for c in value)
            return RingElement(self, _poly_trim(coeffs))
        if isinstance(value, RingElement):
            value = value.payload
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


# -- polynomial helpers (coefficient tuples, ascending degree) --

def _poly_trim(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


def _poly_add(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _poly_trim(tuple(out))


def _poly_neg(a: tuple) -> tuple:
    return tuple(-c for c in a)


def _poly_mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _poly_trim(tuple(out))


def _poly_divmod(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    db = len(b) - 1
    for i in range(len(rem) - 1, db - 1, -1):
        if rem[i] == 0:
            continue
        f = rem[i] / lead
        quot[i - db] = f
        for j, cb in enumerate(b):
            rem[i - db + j] -= f * cb
    return _poly_trim(tuple(quot)), _poly_trim(tuple(rem))


def _divmod(ring: RingSpec, a, b) -> tuple:
    """Euclidean quotient and remainder of two payloads."""
    if ring.kind == INTEGERS:
        return divmod(a, b)
    if ring.kind == POLY_RATIONAL:
        return _poly_divmod(a, b)
    raise UnsupportedRingError("exact division is not defined mod m")


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
        if self.ring.kind == POLY_RATIONAL:
            return RingElement(self.ring, _poly_add(self.payload, other.payload))
        return self.ring.element(self.payload + other.payload)

    def __neg__(self) -> "RingElement":
        if self.ring.kind == POLY_RATIONAL:
            return RingElement(self.ring, _poly_neg(self.payload))
        return self.ring.element(-self.payload)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        if self.ring.kind == POLY_RATIONAL:
            return RingElement(self.ring, _poly_mul(self.payload, other.payload))
        return self.ring.element(self.payload * other.payload)

    @property
    def is_zero(self) -> bool:
        return self.payload == 0 if isinstance(self.payload, int) else not self.payload

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
        k = self.ring.kind
        if k == POLY_RATIONAL:
            if self.is_zero:
                return other.is_zero
            return not _poly_divmod(other.payload, self.payload)[1]
        if k == INTEGERS_MOD:
            d = math.gcd(self.payload, self.ring.modulus)
            return other.payload % d == 0
        if self.payload == 0:
            return other.payload == 0
        return other.payload % self.payload == 0

    def exact_div(self, other: "RingElement") -> "RingElement":
        """Return self / other, which must divide exactly (Euclidean rings)."""
        self._check(other)
        q, r = _divmod(self.ring, self.payload, other.payload)
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
        if self.ring.kind != POLY_RATIONAL:
            return str(self.payload)
        if not self.payload:
            return "0"
        parts = []
        for deg in range(len(self.payload) - 1, -1, -1):
            c = self.payload[deg]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
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
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"<{self.ring}: {self}>"


def _normalizing_unit(a: RingElement) -> RingElement | None:
    """The unit u with u * a nonnegative (integers) or monic (nonzero
    polynomials); None when u is one."""
    if a.ring.kind == POLY_RATIONAL:
        if a.payload and a.payload[-1] != 1:
            return RingElement(a.ring, (1 / a.payload[-1],))
    elif a.ring.kind == INTEGERS and a.payload < 0:
        return RingElement(a.ring, -1)
    return None


def _normalized(a: RingElement) -> RingElement:
    """Nonnegative for integers, monic for polynomials."""
    unit = _normalizing_unit(a)
    return a if unit is None else unit * a


def gcd(a: RingElement, b: RingElement) -> RingElement:
    a._check(b)
    ring = a.ring
    if ring.kind == INTEGERS:
        return ring.element(math.gcd(a.payload, b.payload))
    if ring.kind == INTEGERS_MOD:
        raise UnsupportedRingError("gcd is not defined over Z/m")
    x, y = a.payload, b.payload
    while y:
        x, y = y, _divmod(ring, x, y)[1]
    return _normalized(RingElement(ring, x))


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
        q = RingElement(ring, _divmod(ring, r0.payload, r1.payload)[0])
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
