"""Exact arithmetic for the three supported coefficient rings.

Supported rings: the integers, integers mod m (m >= 2), and univariate
polynomials with rational coefficients.  All values are immutable and
kept in canonical form, so structural equality decides ring equality:
residues live in [0, m), a polynomial is a rational content, held as a
lowest-terms pair of ints, times a primitive integer part, and ideal
generators are collapsed to a single normal gcd generator.

RingElement has one arithmetic path for every ring: it combines payloads
with +, -, *, divmod and % and wraps the result through _element, which
only reduces mod m; RingSpec.element, which validates and converts
input, is for values from outside the ring layer.  That arithmetic is
for API callers: the library computes on payloads and wraps each value
it returns once, with _element.  int supplies the
payload arithmetic for Z and Z/m, and the private _Poly supplies it for
Q[x]: it is born and computed in its one form, with ints and math.gcd
alone, and its == and hash read those ints.  ratios() reads its
coefficients as integer pairs, and _coefficient_text writes one for str
and JSON.  Only _coefficient, given a Fraction as input, imports
fractions (which loads decimal and numbers), inside the function, so a
command given no Fraction does not load it.

Every test a principal ring needs reduces to a few payload operations,
which RingSpec.ops holds, one table per ring, picked once: the exact
quotient or None, the divisibility test (whether a nonzero d divides
a - b, with no difference built: the edge test), a gcd already in normal
form, the normal associate (nonnegative for Z, monic for Q[x]) and the
unit test.  Z/m uses Z's table on its divisors d = gcd(x, m) and on lifts
to [0, m): its units, divisibility and ideals are read mod m through d,
and it refuses exact division, gcd and lcm.  RingElement, gcd, lcm,
_ext_gcd (Euclid on payloads; ext_gcd wraps it), Ideal and
gensplines.levels all read this table.  The ring kind is read only by
RingSpec: to validate it, pick the table, build canonical input, compare
payloads mod m, print the ring and say which operations Z/m refuses.

The library's classes keep their fields immutable through Record, not
@dataclass(frozen=True), whose module imports inspect, which nothing else
in a CLI process loads.  A record names its fields once, in __slots__;
Record sets them, positionally, through setters bound once per class.
"""
from __future__ import annotations

import math
import sys
from functools import cached_property

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
    n = len(digits)  # CPython refuses an int <-> str limit below 640, but 0 (none)
    if n > 640 and 0 < (limit := sys.get_int_max_str_digits()) < n:
        raise ValueError(f"integer of {n} digits is past the input bound of {limit} digits")
    return int(text)


def _coefficient(c) -> tuple[int, int]:
    """A Q[x] coefficient's integer ratio from an int, a Fraction or a "p" or
    "p/q" string of decimal integers, not Fraction("1e100000000")'s 10^8 digits."""
    if type(c) is int:
        return c, 1
    if not isinstance(c, str):
        from fractions import Fraction
        if type(c) is not Fraction:
            raise TypeError(f"expected an int, a Fraction or a string coefficient, got {c!r}")
        return c.as_integer_ratio()
    num, slash, den = c.partition("/")
    n, d = read_decimal(num), read_decimal(den) if slash else 1
    if not d:
        raise ZeroDivisionError(f"zero denominator in {c!r}")
    return n, d


def _ratio(num: int, den: int) -> tuple[int, int]:
    """num/den, den nonzero, in lowest terms with den > 0."""
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _coefficient_text(num: int, den: int) -> str:
    """A Q[x] coefficient num/den, in lowest terms with den > 0, as str and
    JSON write it: "p", or "p/q" when den is not 1."""
    return f"{num}/{den}" if den != 1 else str(num)


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


class Record:
    """An immutable record whose fields are named once, in __slots__.

    Record(*values) checks that one value is given per field, then sets
    the fields in __slots__ order through the slots' own setters, bound
    once per class into _setters.  A class that validates or derives its
    input calls _set, the same check and setters, from its own __init__.
    __dict__, where a class caches derived values, is not a field.  The
    setters come from the class's own __slots__, so a record class is
    not subclassed again.  Assigning or deleting a field raises, and repr
    shows every field but the private ones and those named in _unshown.
    """

    __slots__ = ()
    _unshown = ()

    def __init_subclass__(cls):
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__
                             if name != "__dict__")

    def _set(self, *values) -> None:
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(f"{type(self).__name__} takes {len(setters)} fields, "
                            f"got {len(values)}")
        for setter, value in zip(setters, values):
            setter(self, value)

    __init__ = _set

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self.__slots__
                 if name[0] != "_" and name not in self._unshown)
        return f"{type(self).__name__}({', '.join(shown)})"


class RingSpec(Record):
    __slots__ = ("kind", "modulus", "__dict__")  # __dict__ holds ops, zero and one

    def __init__(self, kind: str, modulus: int | None = None):
        if kind not in (INTEGERS, INTEGERS_MOD, POLY_RATIONAL):
            raise ValueError(f"unknown ring kind: {kind!r}")
        if kind == INTEGERS_MOD:
            if modulus is not None and type(modulus) is not int:
                raise ValueError(f"integers-mod requires an int modulus, got {modulus!r}")
            if modulus is None or modulus < 2:
                raise ValueError("integers-mod requires a modulus >= 2")
        elif modulus is not None:
            raise ValueError(f"{kind} does not take a modulus")
        self._set(kind, modulus)

    def __eq__(self, other) -> bool:
        return (type(other) is RingSpec and self.kind == other.kind
                and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.kind, self.modulus))

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
                # a str is one coefficient; so is any other value with no
                # __iter__, which _coefficient takes or refuses
                iterable = hasattr(value, "__iter__") and not isinstance(value, str)
                coeffs = value if iterable else (value,)
                ratios = [_coefficient(c) for c in coeffs]
                den = math.lcm(*[d for _, d in ratios])
                value = _Poly._canonical([n * (den // d) for n, d in ratios], 1, den)
        elif type(value) is not int:
            raise TypeError(f"expected an integer for {self.kind}, got {value!r}")
        return _element(self, value)

    @cached_property
    def ops(self):
        """The payload operations of this ring; Z/m's are Z's."""
        return _PolyOps if self.kind == POLY_RATIONAL else _IntegerOps

    def same(self, a, b) -> bool:
        """Whether the payloads a and b are one element, mod m over Z/m."""
        return a == b if self.modulus is None else not (a - b) % self.modulus

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
    that int has for Z and Z/m.  The content is num/den in lowest terms,
    den > 0 and the sign on num, 0/1 for the zero polynomial; prim holds
    ints in ascending degree with gcd 1, a positive last entry and no
    trailing zero, () for zero.

    _canonical builds that form from integer coefficients: + and - take
    one gcd over the result, * none, since a product of primitive parts
    is primitive (Gauss's lemma; von zur Gathen and Gerhard, Modern
    Computer Algebra, 6.2).  exact_quotient divides the primitive parts
    exactly, with no scaling.  divmod and %, which gcd and ext_gcd need,
    pseudo-divide them: with L the divisor's last entry, the dividend's
    is scaled once by L^k, k = deg a - deg b + 1, so that every quotient
    step divides exactly.  Both run _long_division, as does the edge test.
    Schoolbook division and multiplication are the right algorithms at
    the library's sizes, but every edge label x - a, and most factors of
    a flow-up product tree, has at most three entries, where the general
    loops spend each step building an enumerate for one or two inner
    iterations.  So both take a one-pass form, chosen by operand length
    alone, for an operand of degree at most 2: division carries its two
    pending subtractions in locals, and * writes each product entry from
    the longer operand's entry and its two previous ones.  The contents
    are combined with ints and math.gcd alone.  A payload is a plain
    value: == and hash read num, den and prim, it is true when nonzero,
    and ratios() is the one reader of its coefficients."""

    __slots__ = ("num", "den", "prim")

    def __init__(self, num: int, den: int, prim: tuple):
        self.num, self.den, self.prim = num, den, prim

    @staticmethod
    def _canonical(coeffs: list, num: int, den: int) -> "_Poly":
        """The _Poly with coefficients coeffs[i] * num / den, coeffs ints
        and num, den nonzero: their gcd, signed as the last nonzero one,
        joins the content."""
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        if not n:
            return _Poly(0, 1, ())
        g = -math.gcd(*coeffs) if coeffs[n - 1] < 0 else math.gcd(*coeffs)
        num, den = _ratio(num * g, den)
        return _Poly(num, den, tuple(c // g for c in coeffs[:n]))

    def ratios(self):
        """The coefficients in ascending degree as lowest-terms
        (numerator, denominator) pairs, denominator > 0."""
        num, den = self.num, self.den
        return (_ratio(num * c, den) for c in self.prim)

    def __bool__(self) -> bool:
        return bool(self.prim)

    def __eq__(self, other) -> bool:
        return (type(other) is _Poly and self.prim == other.prim
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den, self.prim))

    def _combination(self, other: "_Poly", sign: int) -> tuple[list, int, int]:
        """(C, h, den) with self + sign * other = C * h / den, C an integer
        list and den the lcm of the contents' denominators."""
        n, d, m, e = self.num, self.den, other.num, other.den
        h, den = math.gcd(n, m) or 1, math.lcm(d, e)
        sa, sb = n // h * (den // d), sign * (m // h) * (den // e)
        a, b = self.prim, other.prim
        out = [x * sa for x in a] + [0] * (len(b) - len(a))
        for i, y in enumerate(b):
            out[i] += y * sb
        return out, h, den

    def __add__(self, other: "_Poly") -> "_Poly":
        return _Poly._canonical(*self._combination(other, 1))

    def __sub__(self, other: "_Poly") -> "_Poly":
        return _Poly._canonical(*self._combination(other, -1))

    def __neg__(self) -> "_Poly":
        return _Poly(-self.num, self.den, self.prim)

    def __mul__(self, other: "_Poly") -> "_Poly":
        a, b = self.prim, other.prim
        if not a or not b:
            return self if not a else other
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:  # a nonzero constant's primitive part is (1,)
            out = a
        elif len(b) < 4:  # one pass over a, its two previous entries in locals
            b0, b1, b2 = (*b, 0)[:3]
            out, p1, p2 = [], 0, 0
            for x in a:
                out.append(x * b0 + p1 * b1 + p2 * b2)
                p1, p2 = x, p1
            out += (p1 * b1 + p2 * b2, p1 * b2)[:len(b) - 1]
        else:
            out = [0] * (len(a) + len(b) - 1)
            for j, y in enumerate(b):
                if y:
                    for i, x in enumerate(a, j):
                        out[i] += x * y
        num, den = _ratio(self.num * other.num, self.den * other.den)
        return _Poly(num, den, tuple(out))

    def _pseudo_divide(self, other: "_Poly") -> tuple[list, list, int]:
        """(Q, R, L^k) with L^k * A = Q * B + R for the primitive parts A
        of self and B of other, Q and R integer lists and R shorter than B."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        a, b = self.prim, other.prim
        scale = b[-1] ** max(len(a) - len(b) + 1, 0)
        rem = [x * scale for x in a]
        return _long_division(rem, b), rem[:len(b) - 1], scale

    def __divmod__(self, other: "_Poly") -> tuple["_Poly", "_Poly"]:
        quot, rem, scale = self._pseudo_divide(other)
        n, d = self.num, self.den
        return (_Poly._canonical(quot, n * other.den, d * other.num * scale),
                _Poly._canonical(rem, n, d * scale))

    def __mod__(self, other: "_Poly") -> "_Poly":
        _, rem, scale = self._pseudo_divide(other)
        return _Poly._canonical(rem, self.num, self.den * scale)

    def exact_quotient(self, other: "_Poly") -> "_Poly | None":
        """self / other when other divides self, else None.  If B divides
        A, primitive parts, the quotient is primitive with a positive last
        entry (Gauss's lemma), so long division of A by B divides every step
        exactly: a step that does not, or a nonzero final remainder, shows
        that B does not divide A.  The quotient's content is the contents';
        a nonzero constant's primitive part is (1,), and its quotient's is A."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        a, b = self.prim, other.prim
        if len(b) == 1:
            return _Poly(*_ratio(self.num * other.den, self.den * other.num), a)
        rem = list(a)
        quot = _long_division(rem, b)
        if quot is None or any(rem[:len(b) - 1]):
            return None
        num, den = _ratio(self.num * other.den, self.den * other.num)
        return _Poly(num, den, tuple(quot))

    def __str__(self) -> str:
        text = ""
        for deg, (n, d) in reversed(list(enumerate(self.ratios()))):
            if not n:
                continue
            body = _coefficient_text(abs(n), d)
            if deg:
                x = "x" if deg == 1 else f"x^{deg}"
                body = x if body == "1" else f"{body}{x}" if d == 1 else f"({body}){x}"
            if text:
                text += " - " if n < 0 else " + "
            elif n < 0:
                text = "-"
            text += body
        return text or "0"


def _long_division(rem: list, b: tuple) -> list | None:
    """Long division of the integer list rem by b in place: the quotient,
    the remainder left in rem[:len(b) - 1], or None at the first step that
    b's last entry does not divide; rem[len(b) - 1:] is unspecified
    afterwards.  If b divides rem over Z, every step divides and the
    remainder is zero.

    A divisor of degree 1 or 2 takes the one-pass form (see _Poly): a
    step's subtractions from the next entry and the one after wait in c1
    and c0.  Longer divisors, such as Euclid's remainders, take the
    general loop."""
    nb, lead = len(b) - 1, b[-1]
    if 0 < nb < 3 and len(rem) > nb:
        b1, b0 = b[-2], b[0] if nb == 2 else 0
        quot, c1, c0 = [], 0, 0
        for x in rem[:nb - 1:-1]:  # rem[-1], ..., rem[nb]
            x -= c1
            f = x // lead
            if f * lead != x:
                return None
            quot.append(f)
            c1, c0 = c0 + f * b1, f * b0
        rem[nb - 1] -= c1
        if nb == 2:
            rem[0] -= c0
        quot.reverse()
        return quot
    low = b[:-1]
    quot = [0] * max(len(rem) - nb, 0)
    for i in range(len(rem) - 1, nb - 1, -1):
        x = rem[i]
        if x:
            f = x // lead
            if f * lead != x:
                return None
            quot[i - nb] = f
            for j, y in enumerate(low, i - nb):
                rem[j] -= f * y
    return quot


class _IntegerOps:
    """Payload operations of Z, which Z/m uses on its divisors and lifts.
    The normal associate is the absolute value."""

    gcd = staticmethod(math.gcd)
    normal = staticmethod(abs)

    @staticmethod
    def divides_difference(d: int, a: int, b: int) -> bool:
        """Whether d, nonzero, divides a - b."""
        return not (a - b) % d

    @staticmethod
    def quotient(a: int, b: int) -> int | None:
        """a / b when b divides a, else None; b is nonzero."""
        q, r = divmod(a, b)
        return None if r else q

    @staticmethod
    def is_unit(a: int) -> bool:
        return a in (1, -1)


class _PolyOps:
    """Payload operations of Q[x].  The normal associate is monic: the
    primitive part over its positive leading entry; gcd runs Euclid on %,
    which pseudo-divides primitive parts, and makes the result monic."""

    quotient = staticmethod(_Poly.exact_quotient)

    @staticmethod
    def divides_difference(d: _Poly, a: _Poly, b: _Poly) -> bool:
        """Whether d, nonzero, divides a - b: by Gauss's lemma, whether d's primitive
        part divides a's and b's integer combination; no gcd, no _Poly built."""
        rem, prim = a._combination(b, -1)[0] if b else list(a.prim), d.prim
        return _long_division(rem, prim) is not None and not any(rem[:len(prim) - 1])

    @staticmethod
    def normal(a: _Poly) -> _Poly:
        return _Poly(1, a.prim[-1], a.prim) if a.prim else a

    @staticmethod
    def gcd(a: _Poly, b: _Poly) -> _Poly:
        while b:
            a, b = b, a % b
        return _PolyOps.normal(a)

    @staticmethod
    def is_unit(a: _Poly) -> bool:
        return len(a.prim) == 1


def _divides(ops, d, a, b) -> bool:
    """Whether the payload d divides a - b, payloads; a zero d asks a == b."""
    return ops.divides_difference(d, a, b) if d else a == b


class RingElement(Record):
    """An exact, canonical element of one of the supported rings."""

    __slots__ = ("ring", "payload")

    def __init__(self, ring: RingSpec, payload):
        set_ring, set_payload = self._setters
        set_ring(self, ring)
        set_payload(self, payload)

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
        """Over Z/m, whether gcd(self, m) is one."""
        ring, x = self.ring, self.payload
        if ring.modulus is not None:
            x = math.gcd(x, ring.modulus)
        return ring.ops.is_unit(x)

    def divides(self, other: "RingElement") -> bool:
        """Exact divisibility; over Z/m, divisibility of residues by gcd(self, m)."""
        self._check(other)
        ring, d = self.ring, self.payload
        if ring.modulus is not None:
            d = math.gcd(d, ring.modulus)
        return _divides(ring.ops, d, other.payload, ring.zero.payload)

    def exact_div(self, other: "RingElement") -> "RingElement":
        """Return self / other, which must divide exactly (Euclidean rings)."""
        self._check(other)
        if not self.ring.is_euclidean:
            raise UnsupportedRingError("exact division is not defined mod m")
        q = self.ring.ops.quotient(self.payload, other.payload)
        if q is None:
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


def _element(ring: RingSpec, payload) -> RingElement:
    """An element from a payload that ring arithmetic produced: an int,
    reduced here mod m, or a trimmed _Poly.  RingSpec.element's
    validation is skipped."""
    if ring.modulus is not None:
        payload %= ring.modulus
    return RingElement(ring, payload)


def gcd(a: RingElement, b: RingElement) -> RingElement:
    """The normal gcd: nonnegative for integers, monic for polynomials."""
    a._check(b)
    ring = a.ring
    if not ring.is_euclidean:
        raise UnsupportedRingError("gcd is not defined over Z/m")
    return RingElement(ring, ring.ops.gcd(a.payload, b.payload))


def lcm(a: RingElement, b: RingElement) -> RingElement:
    """The normal lcm: nonnegative for integers, monic for polynomials."""
    g = gcd(a, b).payload  # gcd checks the rings and refuses Z/m first
    if not g:
        raise ValueError("lcm(0, 0) is undefined")
    ops = a.ring.ops  # a zero operand gives a zero quotient or product
    return RingElement(a.ring, ops.normal(ops.quotient(a.payload, g) * b.payload))


def ext_gcd(a: RingElement, b: RingElement) -> tuple[RingElement, RingElement, RingElement]:
    """Return (g, x, y) with x*a + y*b = g, g the normal gcd."""
    a._check(b)
    ring = a.ring
    if not ring.is_euclidean:
        raise UnsupportedRingError("extended gcd needs a Euclidean ring")
    return tuple(RingElement(ring, x) for x in _ext_gcd(ring, a.payload, b.payload))


def _ext_gcd(ring: RingSpec, r0, r1) -> tuple:
    """Payloads (g, x, y) with x*r0 + y*r1 = g, g the normal gcd: Euclid
    on the payloads r0 and r1, over Z/m on their lifts to Z."""
    zero, one = ring.zero.payload, ring.one.payload
    x0, x1 = one, zero
    y0, y1 = zero, one
    while r1:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    g = ring.ops.normal(r0)
    if g != r0:
        # scale the cofactors to keep the Bezout identity for the
        # normal gcd
        unit = ring.ops.quotient(g, r0)
        x0, y0 = unit * x0, unit * y0
    return g, x0, y0


class Ideal(Record):
    """A finitely generated ideal with a canonical single generator.

    All supported rings are principal settings: in Z and Q[x] the
    canonical generator is the normal gcd of the generators, and in
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
        if ring.modulus is None:
            divisor, ops = None, ring.ops
            g = ops.normal(generators[0].payload)
            for x in generators[1:]:
                g = ops.gcd(g, x.payload)
            canonical = RingElement(ring, g)
        else:
            divisor = math.gcd(ring.modulus, *(g.payload for g in generators))
            canonical = _element(ring, divisor)
        self._set(ring, generators, canonical, divisor)

    def _holds(self, a, b) -> bool:
        """Whether a - b, payloads, lies in the ideal; no difference is built.
        Over Z/m, a and b are residues, lifts to [0, m), and divisor, which
        divides m, decides their difference as it decides the residue."""
        return _divides(self.ring.ops, self.divisor or self.canonical.payload, a, b)

    def contains(self, a: RingElement) -> bool:
        self.canonical._check(a)
        return self._holds(a.payload, self.ring.zero.payload)

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
