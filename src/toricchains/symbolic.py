"""Sparse multivariate polynomials and formal rational expressions over Q
or a prime field.

Polynomials are dictionaries mapping exponent tuples to nonzero field
elements; the zero polynomial has no terms.  Rational expressions are
numerator/denominator pairs compared by cross-multiplication -- there is no
multivariate gcd here, and none is needed for zero-testing.

Term iteration and serialization use descending lexicographic order on
exponent tuples, so output is deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .fields import Element, Field, QQ

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

    def sorted_terms(self) -> List[Tuple[Exponent, Element]]:
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

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

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

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

    # -- serialization -----------------------------------------------------

    def serialize(self) -> str:
        """Deterministic literal: terms in descending lex order.

        Grammar (also accepted by :func:`parse_poly`)::

            poly   := term (('+' | '-') term)*
            term   := coeff | [coeff '*'] factor ('*' factor)*
            factor := 'x' INDEX ['^' EXP]        (INDEX is 1-based)
            coeff  := INT | INT '/' INT
        """
        if self.is_zero():
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            factors = [
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp)
                if e > 0
            ]
            cs = self.field.format(c)
            if not factors:
                parts.append(cs)
            elif cs == "1":
                parts.append("*".join(factors))
            elif cs == "-1":
                parts.append("-" + "*".join(factors))
            else:
                parts.append(cs + "*" + "*".join(factors))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


_TERM_SPLIT = re.compile(r"(?=[+-])")
_FACTOR = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_poly(text: str, num_vars: int, field: Field = QQ) -> MultiPoly:
    """Parse the polynomial literal format produced by ``serialize``."""
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty polynomial literal")
    if text == "0":
        return MultiPoly.zero(field, num_vars)
    out = MultiPoly.zero(field, num_vars)
    for chunk in _TERM_SPLIT.split(text):
        if not chunk:
            continue
        sign = 1
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = -1
            chunk = chunk[1:]
        if not chunk:
            raise ValueError("dangling sign in polynomial literal")
        coeff = field.of(sign)
        exp = [0] * num_vars
        for factor in chunk.split("*"):
            m = _FACTOR.match(factor)
            if m:
                idx = int(m.group(1)) - 1
                if not 0 <= idx < num_vars:
                    raise ValueError(f"variable x{idx + 1} out of range")
                exp[idx] += int(m.group(2) or 1)
            else:
                coeff = field.mul(coeff, field.parse(factor))
        out = out + MultiPoly.monomial(field, exp, coeff)
    return out


@dataclass
class RationalExpr:
    """A formal fraction of polynomials; equality by cross-multiplication."""

    num: MultiPoly
    den: MultiPoly

    def __post_init__(self):
        if self.den.is_zero():
            raise ZeroDivisionError("zero denominator in rational expression")
        self.num._check_compatible(self.den)

    @property
    def field(self) -> Field:
        return self.num.field

    @property
    def num_vars(self) -> int:
        return self.num.num_vars

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

    def __sub__(self, other: "RationalExpr") -> "RationalExpr":
        return RationalExpr(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __mul__(self, other: "RationalExpr") -> "RationalExpr":
        return RationalExpr(self.num * other.num, self.den * other.den)

    def __neg__(self) -> "RationalExpr":
        return RationalExpr(-self.num, self.den)

    def is_zero(self) -> bool:
        return self.num.is_zero()
