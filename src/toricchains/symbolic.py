"""Sparse multivariate polynomials and formal rational expressions over Q
or a prime field.

Polynomials are dictionaries mapping exponent tuples to nonzero field
elements; the zero polynomial has no terms.  Rational expressions are
numerator/denominator pairs compared by cross-multiplication -- there is no
multivariate gcd here, and none is needed for zero-testing.

No library code calls this module: the identity checks in ``losev_manin``
run on exponent -> coefficient dicts.  It remains for the n!-chart oracles
in the tests and for the benchmark's tracer, which wraps ``MultiPoly``'s
``*`` and ``+`` and ``RationalExpr``'s ``*``, ``+`` and ``is_zero`` by name.
Once the library writes its own timing spans and the tracer reads them
(ROADMAP item 1), the module can go.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from .fields import Element, Field

Exponent = Tuple[int, ...]


@dataclass
class MultiPoly:
    """A sparse polynomial in ``num_vars`` variables over ``field``."""

    field: Field
    num_vars: int
    terms: Dict[Exponent, Element] = field(default_factory=dict)

    def __post_init__(self):
        for exp, coeff in self.terms.items():
            if len(exp) != self.num_vars:
                raise ValueError("exponent length does not match num_vars")
            if any(e < 0 for e in exp):
                raise ValueError("negative exponent in polynomial")
            if self.field.is_zero(coeff):
                raise ValueError("stored zero coefficient")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field: Field, num_vars: int) -> "MultiPoly":
        return MultiPoly(field, num_vars, {})

    @staticmethod
    def const(field: Field, num_vars: int, value) -> "MultiPoly":
        c = field.of(value)
        if field.is_zero(c):
            return MultiPoly.zero(field, num_vars)
        return MultiPoly(field, num_vars, {(0,) * num_vars: c})

    @staticmethod
    def variable(field: Field, num_vars: int, index: int) -> "MultiPoly":
        if not 0 <= index < num_vars:
            raise ValueError(f"variable index {index} out of range")
        exp = tuple(1 if i == index else 0 for i in range(num_vars))
        return MultiPoly(field, num_vars, {exp: field.one})

    @staticmethod
    def monomial(field: Field, exponents: Sequence[int], coeff=1) -> "MultiPoly":
        c = field.of(coeff)
        if field.is_zero(c):
            return MultiPoly.zero(field, len(exponents))
        return MultiPoly(field, len(exponents), {tuple(exponents): c})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and other.field == self.field
            and other.num_vars == self.num_vars
            and other.terms == self.terms
        )

    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.field != other.field:
            raise ValueError("coefficient fields differ")
        if self.num_vars != other.num_vars:
            raise ValueError("variable counts differ")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        f = self.field
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = f.add(out.get(exp, f.zero), c)
            if f.is_zero(s):
                out.pop(exp, None)
            else:
                out[exp] = s
        return MultiPoly(f, self.num_vars, out)

    def __neg__(self) -> "MultiPoly":
        f = self.field
        return MultiPoly(f, self.num_vars, {e: f.neg(c) for e, c in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        f = self.field
        out: Dict[Exponent, Element] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = f.add(out.get(exp, f.zero), f.mul(c1, c2))
                if f.is_zero(s):
                    out.pop(exp, None)
                else:
                    out[exp] = s
        return MultiPoly(f, self.num_vars, out)

@dataclass
class RationalExpr:
    """A formal fraction of polynomials; equality by cross-multiplication."""

    num: MultiPoly
    den: MultiPoly

    def __post_init__(self):
        if self.den.is_zero():
            raise ZeroDivisionError("zero denominator in rational expression")
        self.num._check_compatible(self.den)

    @staticmethod
    def from_poly(p: MultiPoly) -> "RationalExpr":
        return RationalExpr(p, MultiPoly.const(p.field, p.num_vars, 1))

    @staticmethod
    def const(field: Field, num_vars: int, value) -> "RationalExpr":
        return RationalExpr.from_poly(MultiPoly.const(field, num_vars, value))

    def __add__(self, other: "RationalExpr") -> "RationalExpr":
        return RationalExpr(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __mul__(self, other: "RationalExpr") -> "RationalExpr":
        return RationalExpr(self.num * other.num, self.den * other.den)

    def __neg__(self) -> "RationalExpr":
        return RationalExpr(-self.num, self.den)

    def is_zero(self) -> bool:
        return self.num.is_zero()
