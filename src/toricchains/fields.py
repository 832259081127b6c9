"""Exact coefficient fields: the rationals and prime fields F_p.

Every computation in this package is exact.  Rational arithmetic is done with
``fractions.Fraction``; prime-field elements are stored as canonical integer
representatives in ``range(p)``.  A field object carries the arithmetic so
that polynomial, orbit and chain code can stay field-agnostic.

Prime fields are restricted to p < 2**31; intermediate products are ordinary
Python integers, so reduction never overflows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Union

Element = Union[int, Fraction]

_PRIME_BOUND = 2**31
_TRIAL_DIVISOR_BOUND = 10**6


def _prime_factors(n: int) -> List[int]:
    """The distinct prime factors of n >= 1, by trial division up to the
    trial-division guard (it cannot trip for n < 2^31: sqrt(n) < 46341)."""
    out = []
    m = n
    d = 2
    while d * d <= m:
        if d > _TRIAL_DIVISOR_BOUND:
            raise ValueError(
                f"trial-division guard: n = {n} has a cofactor with no prime "
                f"factor up to the bound {_TRIAL_DIVISOR_BOUND}"
            )
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


def _is_prime_power(q: int) -> bool:
    return q >= 2 and len(_prime_factors(q)) == 1


class Field:
    """Common interface of RationalField and PrimeField."""

    name: str

    def of(self, value) -> Element:
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def is_zero(self, a) -> bool:
        return a == self.zero

    def sort_key(self, a):
        """Total order on elements, used for canonical forms and output."""
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    def parse(self, text: str) -> Element:
        """Parse ``a`` or ``a/b`` into an element."""
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return self.of(Fraction(int(num), int(den)))
        return self.of(int(text))


class RationalField(Field):
    """The field of rational numbers, elements are ``Fraction``s."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, value) -> Fraction:
        return Fraction(value)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / Fraction(a)

    def sort_key(self, a):
        return (a.numerator, a.denominator)

    def format(self, a) -> str:
        a = Fraction(a)
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    """The prime field F_p, elements are ints in ``range(p)``."""

    def __init__(self, p: int):
        if p >= _PRIME_BOUND:
            raise ValueError(f"prime field guard: p = {p} exceeds the bound 2^31")
        if _prime_factors(p) != [p]:
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def of(self, value) -> int:
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ValueError(
                    f"{value} has no image in F_{self.p}: {self.p} divides its denominator"
                )
            return self.div(value.numerator % self.p, value.denominator % self.p)
        return int(value) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def sort_key(self, a):
        return a

    def format(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def parse_field(tag: str) -> Field:
    """Parse a field tag: ``Q`` or ``Fp`` with p prime (e.g. ``F7``)."""
    tag = tag.strip()
    if tag == "Q":
        return QQ
    if tag.startswith("F") and tag[1:].isdigit():
        return GF(int(tag[1:]))
    raise ValueError(f"unknown field tag {tag!r} (expected 'Q' or 'F<p>')")
