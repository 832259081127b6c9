"""Sparse polynomial and rational-expression arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricchains.fields import GF, QQ
from toricchains.symbolic import MultiPoly, RationalExpr


def _rand_poly(rng, field, num_vars=3, max_terms=4, max_exp=3):
    p = MultiPoly.zero(field, num_vars)
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in range(num_vars))
        p = p + MultiPoly.monomial(field, exp, field.of(rng.randint(-5, 5)))
    return p


coeffs = st.integers(-6, 6)
exps = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def polys(draw):
    terms = draw(st.lists(st.tuples(exps, coeffs), max_size=5))
    p = MultiPoly.zero(QQ, 2)
    for exp, c in terms:
        p = p + MultiPoly.monomial(QQ, exp, c)
    return p


class TestRingOps:
    def test_add_zero(self):
        p = MultiPoly.monomial(QQ, (2, 0)) + MultiPoly.monomial(QQ, (0, 1), 2)
        assert p + MultiPoly.zero(QQ, 2) == p

    def test_difference_of_squares(self):
        x1 = MultiPoly.variable(QQ, 2, 0)
        x2 = MultiPoly.variable(QQ, 2, 1)
        assert (x1 + x2) * (x1 + (-x2)) == x1 * x1 + (-(x2 * x2))

    def test_elementary_times_variable_coefficient(self):
        x1, x2, x3 = (MultiPoly.variable(QQ, 3, i) for i in range(3))
        e1 = x1 + x2 + x3
        prod = e1 * x1
        assert prod.terms[(2, 0, 0)] == Fraction(1)

    def test_mismatched_inputs_raise(self):
        with pytest.raises(ValueError):
            MultiPoly.zero(QQ, 2) + MultiPoly.zero(QQ, 3)
        with pytest.raises(ValueError):
            MultiPoly.zero(QQ, 2) + MultiPoly.zero(GF(5), 2)

    @given(polys(), polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    def test_prime_field_arithmetic(self):
        f = GF(7)
        p = MultiPoly.monomial(f, (1, 0), 3)
        q = MultiPoly.monomial(f, (1, 0), 4)
        assert (p + q).is_zero()


class TestRationalExpr:
    def test_zero_over_nonzero(self):
        x1 = MultiPoly.variable(QQ, 1, 0)
        assert RationalExpr(MultiPoly.zero(QQ, 1), x1).is_zero()

    def test_commutator(self):
        x1 = MultiPoly.variable(QQ, 2, 0)
        x2 = MultiPoly.variable(QQ, 2, 1)
        assert RationalExpr.from_poly(x1 * x2 + (-(x2 * x1))).is_zero()

    def test_common_denominator_identity(self):
        # (x1+x2)/x1 - 1 - x2/x1 == 0
        x1 = MultiPoly.variable(QQ, 2, 0)
        x2 = MultiPoly.variable(QQ, 2, 1)
        e = (
            RationalExpr(x1 + x2, x1)
            + (-RationalExpr.const(QQ, 2, 1))
            + (-RationalExpr(x2, x1))
        )
        assert e.is_zero()

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalExpr(MultiPoly.const(QQ, 1, 1), MultiPoly.zero(QQ, 1))

    def test_cross_multiplication_equality(self):
        x1 = MultiPoly.variable(QQ, 1, 0)
        one = MultiPoly.const(QQ, 1, 1)
        a = RationalExpr(x1 * x1, x1)  # x^2/x
        b = RationalExpr(x1, one)  # x
        assert (a + (-b)).is_zero()

    def test_difference_with_itself_is_zero(self):
        rng = random.Random(2)
        for _ in range(25):
            p = _rand_poly(rng, QQ)
            q = _rand_poly(rng, QQ)
            while q.is_zero():
                q = _rand_poly(rng, QQ)
            e = RationalExpr(p, q) + (-RationalExpr(p, q))
            assert e.is_zero()

