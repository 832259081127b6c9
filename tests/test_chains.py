"""Chain models, the polynomial direction, fibers of the forgetting map,
and the involutive variants."""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from toricchains import chains
from toricchains.chains import (
    ChainModel,
    _nth_roots,
    _reversal_related,
    _root_multiplicity,
    ExtendedPoint,
    _normalize_twists,
    b_point_embed,
    c_point_embed,
    chain_from_point,
    extended_from_standard,
    extended_weight_matrix,
    fiber_profile,
    fiber_profile_of_chain,
    involutive_chain_from_point,
    involutive_fiber_profile,
    involutive_polynomial,
    minus_embed,
    orbit_equal_extended,
    parity_component,
    point_from_polynomial,
    poly_from_roots,
    unit_root_multiplicities,
)
from toricchains.fields import GF, QQ
from toricchains.orbit_points import (
    GroupElement,
    act,
    is_nondegenerate,
    make_point,
    solve_units,
    stabilizer,
)
from toricchains.root_fans import FanFamily, build_upsilon, weight_matrix

F7, F11, F101 = GF(7), GF(11), GF(101)
A1 = build_upsilon(FanFamily("A", 1))
A2 = build_upsilon(FanFamily("A", 2))
C1 = build_upsilon(FanFamily("C", 1))
C2 = build_upsilon(FanFamily("C", 2))
B2 = build_upsilon(FanFamily("Bcan", 2))
Cm2 = build_upsilon(FanFamily("Cminus", 2))


# Field-generic univariate arithmetic, the ground of the oracles below: the
# library computes on int lists over Z/p instead.


def poly_trim(c, field):
    out = list(c)
    while out and field.is_zero(out[-1]):
        out.pop()
    return out


def poly_mul(a, b, field):
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if field.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return poly_trim(out, field)


def poly_divmod(num, den, field):
    den = poly_trim(den, field)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(num)
    deg_d = len(den) - 1
    lead_inv = field.inv(den[-1])
    quot = [field.zero] * max(0, len(rem) - deg_d)
    for i in range(len(rem) - 1, deg_d - 1, -1):
        coeff = field.mul(rem[i], lead_inv)
        if field.is_zero(coeff):
            continue
        quot[i - deg_d] = coeff
        for j, d in enumerate(den):
            rem[i - deg_d + j] = field.add(rem[i - deg_d + j], field.neg(field.mul(coeff, d)))
    return poly_trim(quot, field), poly_trim(rem, field)


def root_multiplicity(c, r, field):
    mult, cur = 0, poly_trim(c, field)
    while cur:
        quot, rem = poly_divmod(cur, [field.neg(r), field.one], field)
        if rem:
            break
        mult, cur = mult + 1, quot
    return mult


def fixed_root_multiplicities(c, field):
    return [root_multiplicity(c, r, field) for r in (field.one, field.neg(field.one))]


def parity_by_multiplicities(c, field):
    """The parity of an input that parity_component accepts, by its
    definition: ``+`` when the roots 1 and -1 both have even multiplicity."""
    return "+" if all(m % 2 == 0 for m in fixed_root_multiplicities(c, field)) else "-"


def _random_point(fan, field, rng, all_b_nonzero=False):
    k = fan.rank
    while True:
        a = [field.of(rng.randint(0, field.p - 1)) for _ in range(k)]
        lo = 1 if all_b_nonzero else 0
        b = [field.of(rng.randint(lo, field.p - 1)) for _ in range(k)]
        if is_nondegenerate(fan, a + b, field):
            return make_point(fan, field, a + b)


class TestChainFromPoint:
    def test_irreducible_quadratic(self):
        chain = chain_from_point(make_point(A1, QQ, [1, 1]))
        assert chain.component_degrees == (2,)
        assert chain.component_polys == ((Fraction(1), Fraction(1), Fraction(1)),)

    def test_reducible_splits(self):
        chain = chain_from_point(make_point(A1, QQ, [1, 0]))
        assert chain.component_degrees == (1, 1)
        for poly in chain.component_polys:
            assert poly == (Fraction(1), Fraction(1))

    def test_cube_root_configuration(self):
        chain = chain_from_point(make_point(A2, F7, [0, 0, 1, 1]))
        assert chain.component_degrees == (3,)
        assert chain.component_polys == ((1, 0, 0, 1),)

    def test_twist_monomials_satisfy_all_quadric_relations(self):
        # Independent check of the exponent bookkeeping: with beta_r the
        # twist monomial of the chart sections, the full system of quadric
        # relations requires beta_i beta_{j+1} = (b_{i+1}...b_j) beta_{i+1}
        # beta_j for all 0 <= i < j < n.  Verify the exponent identity.
        for n in range(2, 5):
            def beta_exp(r):
                # exponent vector of prod_{s<r} b_s^(r-s) over b_1..b_{n-1}
                return tuple(max(0, r - s) for s in range(1, n))

            for i in range(n):
                for j in range(i + 1, n):
                    lhs = [
                        x + y for x, y in zip(beta_exp(i), beta_exp(j + 1))
                    ]
                    step = [1 if i + 1 <= s <= j else 0 for s in range(1, n)]
                    rhs = [
                        x + y + z
                        for x, y, z in zip(beta_exp(i + 1), beta_exp(j), step)
                    ]
                    assert lhs == rhs, (n, i, j)

    def test_degenerate_rejected(self):
        from toricchains.orbit_points import FanPoint

        with pytest.raises(ValueError):
            chain_from_point(FanPoint(A2, F7, (0, 1, 0, 1)))

    def test_component_breaks_at_zero_twists(self):
        rng = random.Random(12)
        for _ in range(40):
            p = _random_point(A2, F7, rng)
            chain = chain_from_point(p)
            zeros = sum(1 for x in p.coords[2:] if x == 0)
            assert chain.num_components == zeros + 1
            assert sum(chain.component_degrees) == 3


class TestPointFromPolynomial:
    def test_already_normalized(self):
        e = point_from_polynomial([1, 4, 1, 1], F7)
        assert e.is_normalized()
        assert e.c == (1, 4, 1, 1) and e.b == (1, 1)
        p = e.to_standard()
        assert p.coords == (4, 1, 1, 1)

    def test_split_cubic_example(self):
        coeffs = poly_from_roots([F7.of(r) for r in (1, 2, 3)], F7)
        assert coeffs == [1, 4, 1, 1]

    def test_end_coefficient_zero_rejected(self):
        with pytest.raises(ValueError):
            point_from_polynomial([0, 1, 1], F7)

    def test_quadratic_matches_weighted_point(self):
        # roots (s1, s2): the class of (s1 + s2 : s1 s2) under weights (1, 2)
        rng = random.Random(5)
        for _ in range(25):
            s1, s2 = rng.randint(1, 10), rng.randint(1, 10)
            coeffs = poly_from_roots([F11.of(s1), F11.of(s2)], F11)
            e = point_from_polynomial(coeffs, F11)
            target = make_point(A1, F11, [(s1 + s2) % 11, (s1 * s2) % 11])
            assert orbit_equal_extended(e, extended_from_standard(target))

    def test_unnormalizable_representative_retained(self):
        # c_0/c_n = 2 has no 4th root mod 11, so both ends cannot be scaled
        # to 1 while keeping the twists trivial.
        coeffs = [2, 1, 1, 1, 1]
        e = point_from_polynomial(coeffs, F11)
        assert not e.is_normalized()
        assert e.b == (1, 1, 1)


def _translate(units, e):
    """The extended point e moved by the rank-(n+1) torus element ``units``:
    c_i scales by kappa_i and b_i by kappa_i^2 / (kappa_{i-1} kappa_{i+1})."""
    f, k = e.field, [e.field.of(u) for u in units]
    c = tuple(f.mul(x, u) for x, u in zip(e.c, k))
    b = tuple(f.mul(x, f.div(f.mul(k[i], k[i]), f.mul(k[i - 1], k[i + 1])))
              for i, x in enumerate(e.b, 1))
    return ExtendedPoint(e.n, f, c, b)


class TestExtendedOrbits:
    def test_weight_matrix_shape(self):
        w = extended_weight_matrix(3)
        assert (w.rows, w.cols) == (4, 6)
        # twist column i carries 2e_i - e_{i-1} - e_{i+1}
        assert w.col(4) == (-1, 2, -1, 0)

    def test_round_trip_small_fields(self):
        rng = random.Random(21)
        count = 0
        for _ in range(250):
            n = rng.randint(2, 5)
            fan = build_upsilon(FanFamily("A", n - 1))
            field = GF(rng.choice([5, 7, 11]))
            p = _random_point(fan, field, rng, all_b_nonzero=True)
            chain = chain_from_point(p)
            assert chain.num_components == 1
            e = point_from_polynomial(list(chain.component_polys[0]), field)
            assert orbit_equal_extended(e, extended_from_standard(p))
            count += 1
        assert count == 250

    def test_extended_action_consistency(self):
        e = point_from_polynomial([1, 3, 5, 1], F7)
        e2 = _translate((2, 3, 1, 5), e)
        assert e2 != e and orbit_equal_extended(e, e2)

    def test_coefficient_invariants(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(2, 4)
            c = [F11.of(rng.randint(1, 10)) for _ in range(n + 1)]
            raw = ExtendedPoint(n, F11, tuple(c), (F11.one,) * (n - 1))
            e = point_from_polynomial(c, F11)
            assert e.b == raw.b and orbit_equal_extended(raw, e)
            # geometric rescaling kappa_i = u * r^i fixes all twists
            u, r = rng.randint(1, 10), rng.randint(1, 10)
            units = [F11.mul(u, F11.pow(r, i)) for i in range(n + 1)]
            assert _translate(units, raw).b == raw.b

    def test_chain_orbit_invariance(self):
        # acting on the point permutes nothing: same degrees, roots scale by
        # one unit per component
        rng = random.Random(31)
        for _ in range(40):
            p = _random_point(A2, F11, rng)
            g = GroupElement((rng.randint(1, 10), rng.randint(1, 10)))
            c1 = chain_from_point(p)
            c2 = chain_from_point(act(g, p))
            assert c1.component_degrees == c2.component_degrees
            for poly1, poly2 in zip(c1.component_polys, c2.component_polys):
                r1 = unit_root_multiplicities(list(poly1), F11)
                r2 = unit_root_multiplicities(list(poly2), F11)
                assert sorted(r1.values()) == sorted(r2.values())
                if r1:
                    # a single unit u with roots(poly2) = u * roots(poly1)
                    candidates = [
                        F11.div(b, a) for a in r1 for b in r2
                    ]
                    assert any(
                        {F11.mul(a, u) for a in r1} == set(r2)
                        and all(
                            r1[a] == r2[F11.mul(a, u)] for a in r1
                        )
                        for u in candidates
                    )


class TestFiberProfile:
    def test_split_squarefree(self):
        e = point_from_polynomial(poly_from_roots([F7.of(r) for r in (1, 2, 3)], F7), F7)
        prof = fiber_profile(e.to_standard())
        assert prof.rational_ordered_preimages == 6
        assert not prof.is_ramified
        assert prof.multiplicity_profile == ((1, 1, 1),)

    def test_double_root(self):
        coeffs = poly_from_roots([F7.of(1), F7.of(1)], F7)
        e = point_from_polynomial(coeffs, F7)
        prof = fiber_profile(e.to_standard())
        assert prof.rational_ordered_preimages == 1
        assert prof.is_ramified
        assert prof.multiplicity_profile == ((2,),)

    @pytest.mark.parametrize(
        "poly, profile",
        [(poly_from_roots([F7.of(r) for r in (2, 2, 3)], F7), ((1, 2),)),
         ([F7.of(c) for c in (1, 0, 2, 0, 1)], ((),))],
        ids=["repeated-unit-root", "repeated-non-unit-factor"],
    )
    def test_repeated_factor_is_ramified(self, poly, profile):
        # (t - 2)^2 (t - 3), and (t^2 + 1)^2, which has no root in F_7
        chain = ChainModel(F7, len(poly) - 1, (len(poly) - 1,), (tuple(poly),))
        prof = fiber_profile_of_chain(chain)
        assert prof.is_ramified and prof.multiplicity_profile == profile

    def test_reducible_two_labels(self):
        prof = fiber_profile(make_point(A1, F7, [1, 0]))
        assert prof.rational_ordered_preimages == 2
        assert not prof.is_ramified

    def test_irrational_divisor_counts_zero(self):
        # t^2 + t + 3 has no roots mod 7 (disc = -11 = 3, nonresidue)
        p = make_point(A1, F7, [1, 3])
        prof = fiber_profile(p)
        assert prof.rational_ordered_preimages == 0
        assert not prof.is_ramified

    def test_bound_and_equality_condition(self):
        rng = random.Random(13)
        for _ in range(120):
            n = rng.randint(2, 4)
            fan = build_upsilon(FanFamily("A", n - 1))
            p = _random_point(fan, F11, rng)
            prof = fiber_profile(p)
            assert prof.rational_ordered_preimages <= math.factorial(n)
            full = prof.rational_ordered_preimages == math.factorial(n)
            split_simple = all(
                sum(m) == d and all(x == 1 for x in m)
                for m, d in zip(prof.multiplicity_profile, chain_from_point(p).component_degrees)
            )
            assert full == split_simple


class TestEmbeddings:
    def test_c_embed_pattern(self):
        p = make_point(C2, F7, [2, 3, 4, 5])
        assert c_point_embed(p).coords == (2, 3, 2, 4, 5, 4)

    def test_c_embed_rank_one(self):
        p = make_point(C1, F7, [3, 4])
        img = c_point_embed(p)
        assert img.fan.family == FanFamily("A", 1)
        assert img.coords == (3, 4)

    def test_b_embed_pattern(self):
        p = make_point(B2, F7, [2, 3, 4, 5])
        assert b_point_embed(p).coords == (2, 3, 3, 2, 4, 5, 5, 4)

    def test_b_embed_rank_one(self):
        fan = build_upsilon(FanFamily("Bcan", 1))
        p = make_point(fan, F7, [3, 4])
        img = b_point_embed(p)
        assert img.fan.family == FanFamily("A", 2)
        assert img.coords == (3, 3, 4, 4)

    def test_all_ones_fixed(self):
        p = make_point(C2, F7, [1, 1, 1, 1])
        assert c_point_embed(p).coords == (1,) * 6
        pb = make_point(B2, F7, [1, 1, 1, 1])
        assert b_point_embed(pb).coords == (1,) * 8

    def test_embeds_preserve_nondegeneracy(self):
        rng = random.Random(2)
        for _ in range(40):
            p = _random_point(C2, F7, rng)
            img = c_point_embed(p)
            assert is_nondegenerate(img.fan, img.coords, F7)

    def test_c_embed_equivariance(self):
        rng = random.Random(3)
        for _ in range(40):
            p = _random_point(C2, F7, rng)
            u = (rng.randint(1, 6), rng.randint(1, 6))
            left = c_point_embed(act(GroupElement(u), p))
            right = act(GroupElement((u[0], u[1], u[0])), c_point_embed(p))
            assert left.coords == right.coords

    def test_b_embed_equivariance(self):
        rng = random.Random(4)
        for _ in range(40):
            p = _random_point(B2, F7, rng)
            u = (rng.randint(1, 6), rng.randint(1, 6))
            left = b_point_embed(act(GroupElement(u), p))
            right = act(GroupElement((u[0], u[1], u[1], u[0])), b_point_embed(p))
            assert left.coords == right.coords

    def test_b_embed_stabilizer_versus_palindromic_subtorus(self):
        from toricchains.exact_linalg import IntMatrix, cokernel
        from toricchains.root_fans import weight_matrix

        A4 = build_upsilon(FanFamily("A", 4))
        W = weight_matrix(A4)
        rng = random.Random(5)
        for _ in range(40):
            p = _random_point(B2, F7, rng)
            img = b_point_embed(p)
            sup = img.support()
            # characters restricted to palindromic units (k1, k2, k2, k1)
            cols = IntMatrix.from_rows(
                [
                    [W[0, r] + W[3, r] for r in sup],
                    [W[1, r] + W[2, r] for r in sup],
                ]
            )
            sub = cokernel(cols)
            direct = stabilizer(p)
            assert (sub.free_rank, sub.torsion) == (direct.free_rank, direct.torsion)

    def test_minus_embed(self):
        p = make_point(Cm2, F7, [1, 1])
        img = minus_embed(p)
        assert img.coords == (1, 0, 1, 1)
        assert is_nondegenerate(img.fan, img.coords, F7)

    def test_minus_embed_stabilizer_contains_mu2(self):
        p = make_point(Cm2, F7, [0, 1])
        img = minus_embed(p)
        desc = stabilizer(img)
        assert desc.free_rank == 0
        assert desc.order % 2 == 0


class TestInvolutiveFibers:
    def test_rank_one_inverse_pair(self):
        # (y-2)(y-4) = y^2 + y + 1 over F_7: 2*4 = 1, an inverse pair
        p = make_point(C1, F7, [1, 1])
        assert involutive_polynomial(p) == [1, 1, 1]
        assert involutive_fiber_profile(p) == 2

    def test_rank_two_generic_split(self):
        coeffs = poly_from_roots([F11.of(r) for r in (2, 6, 3, 4)], F11)
        assert coeffs == coeffs[::-1]
        p = make_point(C2, F11, [coeffs[1], coeffs[2], 1, 1])
        assert involutive_fiber_profile(p) == 8

    def test_fixed_point_root_drops_count(self):
        coeffs = poly_from_roots([F11.of(r) for r in (1, 1, 3, 4)], F11)
        p = make_point(C2, F11, [coeffs[1], coeffs[2], 1, 1])
        assert involutive_fiber_profile(p) < 8

    def test_repeated_pair(self):
        # roots (2, 6, 2, 6): one inverse class with multiplicity 2
        coeffs = poly_from_roots([F11.of(r) for r in (2, 6, 2, 6)], F11)
        p = make_point(C2, F11, [coeffs[1], coeffs[2], 1, 1])
        # 2!/2! * 2^2 = 4 ordered tuples
        assert involutive_fiber_profile(p) == 4

    def test_reducible_rejected(self):
        p = make_point(C2, F11, [1, 1, 0, 1])
        with pytest.raises(ValueError):
            involutive_fiber_profile(p)

    def test_polynomial_is_constant_on_torus_orbits(self):
        # Every C_2 point over F_7 with all twists nonzero, under every unit
        # pair: the units fixing the twists send f(t) to f(-t), and the
        # lexicographically smaller of the two is returned.
        polys = {}
        for a1, a0, b1, b0 in itertools.product(range(7), range(7), range(1, 7), range(1, 7)):
            p = make_point(C2, F7, [a1, a0, b1, b0])
            try:
                polys[p.coords] = (p, involutive_polynomial(p))
            except ValueError:  # twists not normalizable over F_7
                polys[p.coords] = (p, None)
        assert polys[(1, 1, 1, 1)][1] == polys[(1, 2, 4, 4)][1] == [1, 1, 1, 1, 1]
        for p, poly in polys.values():
            for units in itertools.product(range(1, 7), repeat=2):
                assert polys[act(GroupElement(units), p).coords][1] == poly

    def test_polynomial_over_q_is_constant_on_torus_orbits(self):
        p = make_point(C2, QQ, [3, 5, 1, 1])
        assert involutive_polynomial(p) == [1, -3, 5, -3, 1]
        for units in [(1, -1), (-1, -1), (2, 1), (1, 2), (2, -3), (Fraction(1, 3), 5)]:
            units = tuple(Fraction(u) for u in units)
            assert involutive_polynomial(act(GroupElement(units), p)) == [1, -3, 5, -3, 1]

    def test_exhaustive_oracle_rank_one(self):
        # brute-force the tuple count over all irreducible rank-one points
        for a0 in range(11):
            p = make_point(C1, F11, [a0, 1])
            coeffs = [F11.one, F11.of(a0), F11.one]
            roots = unit_root_multiplicities(coeffs, F11)
            direct = 0
            for s in range(2, 10):  # units excluding the fixed points 1, -1
                inv = F11.inv(s)
                want = {s: 2} if s == inv else {s: 1, inv: 1}
                if roots == want:
                    direct += 1
            assert involutive_fiber_profile(p) == direct


def _normalize_twists_by_weights(p):
    """Twist normalization on the weight side: solve for the torus element on
    the b-columns of the weight matrix, then act with it."""
    f, w, k = p.field, weight_matrix(p.fan), p.fan.rank
    b_positions = range(k, 2 * k)
    if any(f.is_zero(p.coords[r]) for r in b_positions):
        raise ValueError("twist normalization requires all b nonzero")
    rows = [[w[j, r] for j in range(w.rows)] for r in b_positions]
    units = solve_units(rows, [f.inv(p.coords[r]) for r in b_positions], f)
    if units is None:
        raise ValueError("b-coordinates are not normalizable to 1 over this field")
    return act(GroupElement(tuple(f.of(u) for u in units)), p)


def _outcome(fn, p):
    try:
        return fn(p)
    except ValueError as exc:
        return str(exc)


class TestNormalizeTwists:
    @pytest.mark.parametrize("field", [GF(5), GF(7), GF(13), QQ], ids=str)
    def test_matches_the_weight_side(self, field):
        rng = random.Random(40)
        raised = moved = 0
        for _ in range(60):
            fan = build_upsilon(FanFamily("C", rng.randint(1, 3)))
            if field == QQ:
                p = make_point(fan, QQ, [Fraction(rng.choice([-3, -1, 1, 2, 4, 9]), rng.randint(1, 4))
                                         for _ in range(fan.num_rays)])
            else:
                p = _random_point(fan, field, rng)
            got = _outcome(_normalize_twists, p)
            assert got == _outcome(_normalize_twists_by_weights, p)
            if isinstance(got, str):
                raised += 1
            else:
                assert got.coords[fan.rank:] == (field.one,) * fan.rank
                moved += got != p
        assert raised and moved  # both branches ran


class TestParity:
    def test_no_fixed_roots(self):
        assert parity_component([1, 3, 1], QQ) == "+"

    def test_even_fixed_multiplicities(self):
        # (y-1)^2 (y+1)^2 = (y^2-1)^2
        assert parity_component([1, 0, -2, 0, 1], QQ) == "+"

    def test_odd_fixed_multiplicity(self):
        # (y^2 - 1)(y^2 + 3y + 1): anti-palindromic
        assert parity_component([-1, -3, 0, 3, 1], QQ) == "-"

    def test_palindrome_with_odd_fixed_roots(self):
        # (y-1)^2(y+1)^2 scaled is +; (y-1)(y+1)(y^2+1) ... use p = (y^2+1)^2
        assert parity_component([1, 0, 2, 0, 1], QQ) == "+"

    def test_prime_field(self):
        assert parity_component([F7.of(1), F7.of(3), F7.of(1)], F7) == "+"

    def test_characteristic_two_rejected(self):
        f2 = GF(2)
        with pytest.raises(ValueError):
            parity_component([1, 1, 1], f2)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            parity_component([1, 2, 3], QQ)

    @pytest.mark.parametrize("scale, factors, want, mults", [
        # (1/2)(t^2 - 1)^2
        (Fraction(1, 2), [[-1, 0, 1]] * 2, "+", [2, 2]),
        # -(5/6)(t^2 - 1)(t - 1)^2: anti-palindromic
        (Fraction(-5, 6), [[-1, 0, 1], [1, -2, 1]], "-", [3, 1]),
        # (10^30 + 1)/(10^20 + 3) (t - 1)^4 (t^2 + 3t + 1)
        (Fraction(10**30 + 1, 10**20 + 3), [[1, -2, 1]] * 2 + [[1, 3, 1]], "+", [4, 0]),
        # (7/12)(t^2 - 1)^3 (t + 1)^2 (t^2 - t/2 + 1)
        (Fraction(7, 12), [[-1, 0, 1]] * 3 + [[1, 2, 1], [1, Fraction(-1, 2), 1]], "-", [3, 5]),
    ])
    def test_rational_coefficients(self, scale, factors, want, mults):
        c = [scale]
        for factor in factors:
            c = poly_mul(c, [QQ.of(x) for x in factor], QQ)
        assert parity_component(c, QQ) == parity_by_multiplicities(c, QQ) == want
        assert fixed_root_multiplicities(c, QQ) == mults

    def test_numerators_alone_miscount(self):
        # The oracle counts over Q itself: (1/2)(t^2 - 1)^2 read by its
        # numerators is t^4 - t^2 + 1, which vanishes at neither 1 nor -1.
        c = poly_mul([QQ.of(Fraction(1, 2))], poly_mul([-1, 0, 1], [-1, 0, 1], QQ), QQ)
        assert fixed_root_multiplicities([QQ.of(x.numerator) for x in c], QQ) == [0, 0]
        assert fixed_root_multiplicities(c, QQ) == [2, 2]

    @staticmethod
    def _seeded_symmetric_products(field):
        """Palindromes times (t - 1)^2k (t + 1)^2l, half of them times the
        anti-palindrome t^2 - 1; over Q scaled by integers and rationals."""
        rng = random.Random(field.name)
        for _ in range(150):
            half = [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))] + [rng.randint(1, 4)]
            c = [field.of(x) for x in half + half[-2::-1]]
            for factor in [[1, -2, 1]] * rng.randint(0, 2) + [[1, 2, 1]] * rng.randint(0, 2):
                c = poly_mul(c, [field.of(x) for x in factor], field)
            if rng.random() < 0.5:
                c = poly_mul(c, [field.of(x) for x in (-1, 0, 1)], field)
            if field == QQ:
                scale = Fraction(rng.choice([1, -3, 10**25 + 7]), rng.choice([1, 2, 9, 10**18 + 9]))
                c = [x * scale for x in c]
            if len(c) >= 3 and not field.is_zero(c[0]):
                yield c

    @pytest.mark.parametrize("field", [QQ, GF(3), GF(7), F101], ids=lambda f: f.name)
    def test_seeded_symmetric_products_match_the_oracle(self, field):
        tags = set()
        for c in self._seeded_symmetric_products(field):
            tag = parity_component(c, field)
            assert tag == parity_by_multiplicities(c, field), (field, c)
            tags.add(tag)
        assert tags == {"+", "-"}

    @pytest.mark.parametrize("field", [QQ, GF(3), GF(7), F101], ids=lambda f: f.name)
    def test_a_constant_parity_fails_the_oracle(self, field):
        # negative control: "+" for every accepted input is refuted
        cases = list(self._seeded_symmetric_products(field))
        assert any(parity_by_multiplicities(c, field) != "+" for c in cases)

    def test_involutive_chain_model(self):
        coeffs = poly_from_roots([F11.of(r) for r in (2, 6, 3, 4)], F11)
        p = make_point(C2, F11, [coeffs[1], coeffs[2], 1, 1])
        model = involutive_chain_from_point(p)
        assert model.parity == "+"
        assert model.base.component_degrees == (4,)
        pb = make_point(B2, F7, [1, 1, 1, 1])
        model_b = involutive_chain_from_point(pb)
        assert model_b.parity is None
        assert model_b.base.total_degree == 5
        degrees = model_b.base.component_degrees
        assert degrees == tuple(reversed(degrees))



class TestReversalRelated:
    """q(t) = u * rev(p)(v t): v is one of the roots of the first constraint
    v^r = t_r and must meet every other."""

    @staticmethod
    def _image(p, u, v, field):
        rev = list(reversed(p))
        return [field.mul(u, field.mul(c, field.pow(v, r))) for r, c in enumerate(rev)]

    @pytest.mark.parametrize("field", [QQ, GF(7), GF(13)], ids=str)
    def test_exponents_two_and_three(self, field):
        # rev(p) = (1, 0, 2, 5): constraints v^2 and v^3
        p = [field.of(c) for c in (5, 2, 0, 1)]
        q = self._image(p, field.of(3), field.of(2), field)
        assert _reversal_related(p, q, field)
        q[3] = field.add(q[3], field.one)  # v^3 no longer the cube of v
        assert not _reversal_related(p, q, field)

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_matches_brute_force_over_units(self, p):
        # sparse supports make several roots of unity candidates for v
        field, rng = GF(p), random.Random(p)
        for _ in range(150):
            a = [rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(rng.randint(2, 7))]
            a[0], a[-1] = a[0] or 1, a[-1] or 1
            q = self._image(a, rng.randrange(1, p), rng.randrange(1, p), field)
            if rng.random() < 0.5:
                i = rng.randrange(len(q))
                q[i] = field.mul(q[i], rng.randrange(1, p))
            brute = any(
                self._image(a, u, v, field) == q for u in range(1, p) for v in range(1, p)
            )
            assert _reversal_related(a, q, field) == brute, (a, q)

    def test_exponents_two_and_four(self):
        # rev(p) = (1, 0, 1, 0, 1): constraints v^2 and v^4, roots +-3
        p = [QQ.of(c) for c in (1, 0, 1, 0, 1)]
        assert _reversal_related(p, self._image(p, QQ.of(4), QQ.of(3), QQ), QQ)
        # v^2 = 2, v^4 = 4 are consistent but 2 has no rational square root
        assert not _reversal_related(p, [QQ.of(c) for c in (1, 0, 2, 0, 4)], QQ)


def poly_eval(c, x, field):
    acc = field.zero
    for coeff in reversed(c):
        acc = field.add(field.mul(acc, x), coeff)
    return acc


def scan_unit_roots(c, field):
    """Oracle: try every unit of F_p, dividing out each root found."""
    out = {}
    cur = poly_trim(c, field)
    for r in range(1, field.p):
        m = 0
        while field.is_zero(poly_eval(cur, r, field)):
            cur, rem = poly_divmod(cur, [field.neg(r), field.one], field)
            assert not rem
            m += 1
        if m:
            out[r] = m
    return out


def poly_gcd(a, b, field):
    a, b = poly_trim(a, field), poly_trim(b, field)
    while b:
        a, b = b, poly_divmod(a, b, field)[1]
    if a:
        inv = field.inv(a[-1])
        a = [field.mul(x, inv) for x in a]
    return a


def poly_derivative(c, field):
    return poly_trim([field.mul(field.of(i), x) for i, x in enumerate(c)][1:], field)


def pow_minus_one(base, e, mod, field):
    """base**e - 1 modulo mod, by right-to-left squaring."""
    h = [field.one]
    while e:
        if e & 1:
            h = poly_divmod(poly_mul(h, base, field), mod, field)[1] or [field.zero]
        e >>= 1
        if e:
            base = poly_divmod(poly_mul(base, base, field), mod, field)[1]
    h[0] = field.add(h[0], field.neg(field.one))
    return poly_trim(h, field)


def split_roots(g, field):
    """The roots of a monic g that is a product of distinct t - r, r a unit:
    gcd(g, (t+a)^((p-1)/2) - 1) for a = 0, 1, 2, ... until one splits g."""
    if len(g) <= 2:
        return [field.neg(g[0])] if len(g) == 2 else []
    half = (field.p - 1) // 2
    for a in range(field.p):
        d = poly_gcd(g, pow_minus_one([a, field.one], half, g, field), field)
        if 1 < len(d) < len(g):
            rest, _ = poly_divmod(g, d, field)
            return split_roots(d, field) + split_roots(rest, field)
    raise AssertionError("no shift splits a product of distinct linear factors")


def cz_unit_roots(c, field):
    """Oracle: the Field-generic Cantor-Zassenhaus root finder, split from
    gcd(f, t^(p-1) - 1) with every product a poly_divmod."""
    f = poly_trim(c, field)
    g = poly_gcd(f, pow_minus_one([field.zero, field.one], field.p - 1, f, field), field)
    return {r: root_multiplicity(f, r, field) for r in sorted(split_roots(g, field))}


def irreducible_quadratic(rng, p):
    while True:
        b, c = rng.randrange(p), rng.randrange(1, p)
        if pow((b * b - 4 * c) % p, (p - 1) // 2, p) == p - 1:
            return [c, b, 1]


# Every prime field up to 10^4 that the tests and the benchmark use, and
# primes whose p - 1 has a high power of 2 (the longest Tonelli-Shanks
# loops): 17 = 2^4+1, 97 = 3*2^5+1, 257 = 2^8+1, 7681 = 15*2^9+1.
ORACLE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 97, 101, 257, 1009, 7681, 10007)


class TestRootKernel:
    """unit_root_multiplicities works on ints in range(p): one half-power
    h = t^((p-1)/2) mod f, then shifted powerings and square roots; the unit
    scan and the Field-generic Cantor-Zassenhaus finder are its oracles."""

    @pytest.mark.parametrize("p", ORACLE_PRIMES)
    def test_matches_scan_oracle(self, p):
        field, rng = GF(p), random.Random(p)
        for _ in range(8 if p > 5000 else 60 if p > 100 else 200):
            roots = [rng.randrange(p) for _ in range(rng.randint(0, 5))]
            cofactor = [rng.randrange(p) for _ in range(rng.randint(0, 3))] + [rng.randrange(1, p)]
            c = poly_mul(poly_from_roots(roots, field), cofactor, field)
            got = unit_root_multiplicities(c, field)
            assert list(got.items()) == list(scan_unit_roots(c, field).items()), (p, c)

    @pytest.mark.parametrize("p", ORACLE_PRIMES[:6])
    def test_nth_roots_match_scan(self, p):
        field = GF(p)
        for n in range(1, 7):
            for v in range(1, p):
                want = [r for r in range(1, p) if field.pow(r, n) == v]
                assert _nth_roots(v, n, field) == want, (p, n, v)

    def test_irreducible_quadratic_factor(self):
        # t^2 - 3 is irreducible over F_7 (3 is a nonsquare): only 2 and 5 remain
        c = poly_mul([F7.of(-3), 0, 1], poly_from_roots([2, 5], F7), F7)
        assert unit_root_multiplicities(c, F7) == {2: 1, 5: 1}
        assert unit_root_multiplicities([F7.of(-3), 0, 1], F7) == {}

    def test_repeated_roots(self):
        c = poly_from_roots([F11.of(r) for r in (9, 3, 3, 9, 3, 1)], F11)
        assert list(unit_root_multiplicities(c, F11).items()) == [(1, 1), (3, 3), (9, 2)]

    def test_root_at_zero_is_not_a_unit(self):
        c = poly_from_roots([0, 0, 4, 6], F7)
        assert unit_root_multiplicities(c, F7) == {4: 1, 6: 1}

    def test_every_unit_a_root(self):
        # t^(p-1) - 1 vanishes on all of F_p^*, the largest split g
        for p in (2, 3, 13):
            field = GF(p)
            c = [field.of(-1)] + [0] * (p - 2) + [1]
            assert unit_root_multiplicities(c, field) == dict.fromkeys(range(1, p), 1)

    def test_zero_polynomial_raises(self):
        for c in ([], [0], [0, 0]):
            with pytest.raises(ValueError, match="zero polynomial"):
                unit_root_multiplicities(c, F7)

    def test_large_prime(self):
        field = GF(2**31 - 1)
        roots = [field.of(r) for r in (2, 2**30, 2**30, 10**9 + 7)]
        # p = 3 mod 4, so -1 is a nonsquare and t^2 + 1 is irreducible
        c = poly_mul(poly_from_roots(roots, field), [1, 0, 1], field)
        got = unit_root_multiplicities(c, field)
        assert list(got.items()) == [(2, 1), (10**9 + 7, 1), (2**30, 2)]

    @pytest.mark.parametrize("p", [2**31 - 1, 998244353])
    def test_matches_cantor_zassenhaus_on_built_polynomials(self, p):
        # 998244353 = 119 * 2^23 + 1: the longest Tonelli-Shanks loop below
        # the 2^31 prime field guard
        field, rng = GF(p), random.Random(p)
        for _ in range(12):
            roots = [rng.randrange(1, p) for _ in range(rng.randint(0, 4))]
            roots += rng.sample(roots, min(len(roots), rng.randint(0, 2)))
            c = poly_from_roots(roots, field)
            for _ in range(rng.randint(0, 2)):
                c = poly_mul(c, irreducible_quadratic(rng, p), field)
            c = poly_mul(c, [rng.randrange(1, p)], field)
            want = cz_unit_roots(c, field)
            assert want == {r: roots.count(r) for r in sorted(set(roots))}
            assert list(unit_root_multiplicities(c, field).items()) == list(want.items())

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 97])
    def test_is_ramified_is_a_common_factor_with_the_derivative(self, p):
        # Over F_p, t^p - a has derivative 0 and is a p-th power.
        field, rng = GF(p), random.Random(p)
        cases = [[field.neg(a)] + [0] * (p - 1) + [1] for a in range(1, p)]
        for _ in range(80):
            c = poly_from_roots([rng.randrange(1, p) for _ in range(rng.randint(0, 3))], field)
            factor = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(rng.randint(0, 2))]
            c = poly_mul(poly_mul(c, factor, field), factor if rng.random() < 0.4 else [1], field)
            if len(c) > 1 and c[0]:
                cases.append(c)
        for c in cases:
            chain = ChainModel(field, len(c) - 1, (len(c) - 1,), (tuple(c),))
            repeated = len(poly_gcd(c, poly_derivative(c, field), field)) > 1
            assert fiber_profile_of_chain(chain).is_ramified == repeated, (p, c)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 2**31 - 1])
    def test_root_multiplicity_matches_the_field_generic_oracle(self, p):
        # (t - 1)^a (t + 1)^b times a random cofactor
        field, rng = GF(p), random.Random(p)
        for _ in range(120):
            a, b = rng.randint(0, 4), rng.randint(0, 4)
            c = [field.of(rng.randint(-9, 9)) for _ in range(rng.randint(0, 3))]
            c = poly_trim(c + [field.of(rng.choice([-2, 1, 3]))], field) or [field.one]
            for factor in [[-1, 1]] * a + [[1, 1]] * b:
                c = poly_mul(c, [field.of(x) for x in factor], field)
            ints = [int(x) for x in c]
            for r in (1, -1, 2, -3, 0):
                want = root_multiplicity(c, field.of(r), field)
                assert _root_multiplicity(ints, r, p) == want, (p, c, r)
            assert _root_multiplicity(ints, 1, p) >= a and _root_multiplicity(ints, -1, p) >= b

    @staticmethod
    def _count_powerings(monkeypatch):
        calls = []
        power = chains._power
        monkeypatch.setattr(
            chains, "_power", lambda *args: calls.append(args[0]) or power(*args)
        )
        return calls

    def test_two_unit_roots_cost_one_powering(self, monkeypatch):
        # (t - 2)^2 (t - 3) (t^2 + 2) over F_101: 2 and 3 are nonsquares, so
        # the half-power h gives gcd(f, h + 1) = (t - 2)(t - 3), which one
        # square root splits.
        calls = self._count_powerings(monkeypatch)
        c = poly_mul(poly_from_roots([2, 2, 3], F101), [2, 0, 1], F101)
        assert unit_root_multiplicities(c, F101) == {2: 2, 3: 1}
        assert calls == [0]

    def test_fourth_roots_of_unity_cost_four_powerings(self, monkeypatch):
        # t^4 - 1 over F_1009 (p = 1 mod 8): all four roots are squares, so
        # the half-power h gives gcd(f, h - 1) = f; shift 1 splits off one root,
        # shift 2 leaves the cubic whole, shift 3 splits it into a root and
        # a quadratic.
        calls = self._count_powerings(monkeypatch)
        field = GF(1009)
        assert list(unit_root_multiplicities([1008, 0, 0, 0, 1], field)) == [1, 469, 540, 1008]
        assert calls == [0, 1, 2, 3]


def test_chain_model_validation():
    with pytest.raises(ValueError):
        ChainModel(F7, 2, (1, 1), ((1, 1),))  # one poly missing
    with pytest.raises(ValueError):
        ChainModel(F7, 2, (2,), ((0, 1, 1),))  # subscheme hits a pole


@pytest.mark.parametrize("poly, slot", [((1, 1, 7), "component_polys[0][2] = 7"),
                                        ((1, -1, 1), "component_polys[0][1] = -1")])
def test_chain_model_refuses_non_canonical_coefficients(poly, slot):
    # 7 is 0 in F_7: this chain would meet a node
    with pytest.raises(ValueError, match=re.escape(slot)):
        ChainModel(F7, 2, (2,), (poly,))


@pytest.mark.parametrize("c, b, slot", [((1, 3, 8), (1,), "c[2] = 8"),
                                        ((1, 3, 1), (7,), "b[0] = 7")])
def test_extended_point_refuses_non_canonical_coefficients(c, b, slot):
    with pytest.raises(ValueError, match=re.escape(slot)):
        ExtendedPoint(2, F7, c, b)
