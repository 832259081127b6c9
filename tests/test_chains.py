"""Chain models, the polynomial direction, fibers of the forgetting map,
and the involutive variants."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from toricchains.chains import (
    ChainModel,
    _nth_roots,
    _reversal_related,
    ExtendedPoint,
    act_extended,
    b_point_embed,
    c_point_embed,
    chain_from_point,
    extended_from_standard,
    extended_weight_matrix,
    fiber_profile,
    involutive_chain_from_point,
    involutive_fiber_profile,
    involutive_polynomial,
    minus_embed,
    orbit_equal_extended,
    parity_component,
    point_from_polynomial,
    poly_divmod,
    poly_eval,
    poly_from_roots,
    poly_mul,
    poly_trim,
    polynomial_orbit_invariants,
    unit_root_multiplicities,
)
from toricchains.fields import GF, QQ
from toricchains.orbit_points import (
    GroupElement,
    act,
    is_nondegenerate,
    make_point,
    stabilizer,
)
from toricchains.root_fans import FanFamily, build_upsilon

F7, F11 = GF(7), GF(11)
A1 = build_upsilon(FanFamily("A", 1))
A2 = build_upsilon(FanFamily("A", 2))
C1 = build_upsilon(FanFamily("C", 1))
C2 = build_upsilon(FanFamily("C", 2))
B2 = build_upsilon(FanFamily("Bcan", 2))
Cm2 = build_upsilon(FanFamily("Cminus", 2))


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
            assert chain.is_irreducible()
            e = point_from_polynomial(list(chain.component_polys[0]), field)
            assert orbit_equal_extended(e, extended_from_standard(p))
            count += 1
        assert count == 250

    def test_extended_action_consistency(self):
        e = point_from_polynomial([1, 3, 5, 1], F7)
        units = (2, 3, 1, 5)
        e2 = act_extended(units, e)
        assert orbit_equal_extended(e, e2)

    def test_coefficient_invariants(self):
        # c_{k-1} c_{k+1} / c_k^2 is constant along twist-fixing orbits
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(2, 4)
            c = [F11.of(rng.randint(1, 10)) for _ in range(n + 1)]
            e = ExtendedPoint(n, F11, tuple(c), (F11.one,) * (n - 1))
            inv = polynomial_orbit_invariants(e.c, F11)
            # geometric rescaling kappa_i = u * r^i fixes all twists
            u, r = rng.randint(1, 10), rng.randint(1, 10)
            units = [F11.mul(u, F11.pow(r, i)) for i in range(n + 1)]
            e2 = act_extended(units, e)
            assert polynomial_orbit_invariants(e2.c, F11) == inv

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


# Every prime field up to 10^4 that the tests and the benchmark use.
ORACLE_PRIMES = (2, 3, 5, 7, 11, 13, 101, 1009)


class TestRootKernel:
    """unit_root_multiplicities splits gcd(f, t^(p-1) - 1) by Cantor-Zassenhaus;
    the unit scan is its oracle."""

    @pytest.mark.parametrize("p", ORACLE_PRIMES)
    def test_matches_scan_oracle(self, p):
        field, rng = GF(p), random.Random(p)
        for _ in range(60 if p > 100 else 200):
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


def test_chain_model_validation():
    with pytest.raises(ValueError):
        ChainModel(F7, 2, (1, 1), ((1, 1),))  # one poly missing
    with pytest.raises(ValueError):
        ChainModel(F7, 2, (2,), ((0, 1, 1),))  # subscheme hits a pole
