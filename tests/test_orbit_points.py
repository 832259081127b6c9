"""Torus orbits of field-valued points: action, equality, canonical forms,
stabilizers and counts."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from toricchains import orbit_points
from toricchains.exact_linalg import FinDiagGroupDesc, IntMatrix, cokernel, hnf, snf, solve_mod
from toricchains.fields import GF, QQ
from toricchains.orbit_points import (
    _rational_factor_data,
    FanPoint,
    GroupElement,
    act,
    canonical_form,
    count_coarse_points,
    enumerate_orbits,
    is_nondegenerate,
    make_point,
    orbit_equal,
    solve_units,
    stabilizer,
    stabilizer_order,
)
from toricchains.root_fans import (
    FanFamily,
    build_sigma_A,
    build_upsilon,
    dg_group,
    fan_faces,
    weight_matrix,
)

F3, F5, F7, F11 = GF(3), GF(5), GF(7), GF(11)
A1 = build_upsilon(FanFamily("A", 1))
A2 = build_upsilon(FanFamily("A", 2))
C2 = build_upsilon(FanFamily("C", 2))
BCAN2 = build_upsilon(FanFamily("Bcan", 2))
SIGMA3 = build_sigma_A(3)


def _nondeg_points(fan, field):
    for coords in itertools.product(range(field.p), repeat=fan.num_rays):
        if is_nondegenerate(fan, coords, field):
            yield FanPoint(fan, field, coords)


# Brute-force oracle: the whole torus (F_p^*)^f, one character value per ray.


def _torus_characters(fan, p):
    w = weight_matrix(fan)
    return [
        tuple(
            math.prod(pow(u, w[k, r], p) for k, u in enumerate(units)) % p
            for r in range(fan.num_rays)
        )
        for units in itertools.product(range(1, p), repeat=w.rows)
    ]


def _orbit(chars, coords, p):
    return {tuple(c * x % p for c, x in zip(ch, coords)) for ch in chars}


def _canonical_mismatches(fan, field, points, canon):
    """Points whose image under ``canon`` is not the least of their orbit."""
    chars = _torus_characters(fan, field.p)
    return [
        pt.coords for pt in points
        if canon(pt).coords != min(_orbit(chars, pt.coords, field.p))
    ]


def _partition_problems(fan, field, orbits):
    """Differences between an enumeration and the brute-force partition of
    the nondegenerate points into orbits, each named by its least point."""
    chars = _torus_characters(fan, field.p)
    least = sorted({min(_orbit(chars, pt.coords, field.p)) for pt in _nondeg_points(fan, field)})
    problems = []
    reps = [pt.coords for pt, _ in orbits]
    if reps != least:
        problems.append(f"{len(reps)} representatives for {len(least)} orbits")
    problems += [
        f"{pt.coords}: stabilizer order {order}"
        for pt, order in orbits if order != stabilizer_order(pt)
    ]
    return problems


def _point_with_zero_set(fan, face):
    return make_point(fan, F7, [0 if r in face else 1 for r in range(fan.num_rays)])


def _weight_side_stabilizer(p):
    """The stabilizer as the cokernel of the support's weight columns: the
    path the face's rays replaced, defined only for a torsion-free group."""
    w = weight_matrix(p.fan)
    return cokernel(IntMatrix.from_rows([[w[k, r] for r in p.support()] for k in range(w.rows)]))


def orbit_witness(p, q):
    """A torus element carrying p to q, or None when their orbits differ:
    the weight-side solve that :func:`orbit_equal` replaced, defined only
    for a torsion-free group."""
    if p.fan != q.fan or p.field != q.field:
        raise ValueError("points live on different fans or fields")
    for pt in (p, q):
        if not is_nondegenerate(pt.fan, pt.coords, pt.field):
            raise ValueError("orbit comparison requires nondegenerate points")
    support, f, w = p.support(), p.field, weight_matrix(p.fan)
    if support != q.support():
        return None
    rows = [[w[k, r] for k in range(w.rows)] for r in support]
    units = solve_units(rows, [f.div(q.coords[r], p.coords[r]) for r in support], f)
    return None if units is None else GroupElement(tuple(f.of(u) for u in units))


def weight_side_basis(fan, face, modulus):
    """The stratum basis as the Hermite form of the rows of W_S mod
    ``modulus`` and ``modulus`` Z^S: the path the face's rays replaced."""
    w = weight_matrix(fan)
    support = [r for r in range(fan.num_rays) if r not in face]
    rows = [[w[k, r] % modulus for r in support] for k in range(w.rows)]
    rows += [[modulus * (i == j) for j in range(len(support))] for i in range(len(support))]
    return hnf(IntMatrix.from_rows(rows))[0].to_rows()[: len(support)]


def kernel_orbit_minima(fan, p):
    """Brute force under G(F_p) = {x in (Z/(p-1))^rays : beta x = 0}, torsion
    included: each nondegenerate F_p point mapped to the least point of its
    orbit."""
    m = p - 1
    g = next(g for g in range(1, p) if len({pow(g, e, p) for e in range(m)}) == m)
    beta = fan.beta.to_rows()
    group = [
        tuple(pow(g, e, p) for e in x)
        for x in itertools.product(range(m), repeat=fan.num_rays)
        if all(sum(b * e for b, e in zip(row, x)) % m == 0 for row in beta)
    ]
    least = {}
    for coords in itertools.product(range(p), repeat=fan.num_rays):
        if coords not in least and is_nondegenerate(fan, coords, GF(p)):
            for x in group:  # coords comes first in its orbit, so it is least
                least[tuple(c * u % p for c, u in zip(coords, x))] = coords
    return least


class TestNondegeneracy:
    def test_boundary_point_exists(self):
        assert is_nondegenerate(A1, (0, 1), F7)

    def test_origin_is_degenerate(self):
        assert not is_nondegenerate(A1, (0, 0), F7)

    def test_deep_stratum(self):
        assert is_nondegenerate(A2, (0, 0, 1, 1), F7)
        assert not is_nondegenerate(A2, (0, 1, 0, 1), F7)

    def test_make_point_rejects_degenerate(self):
        with pytest.raises(ValueError):
            make_point(A1, F7, [0, 0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_nondegenerate(A1, (1,), F7)


class TestAction:
    def test_identity_action(self):
        p = make_point(A2, F7, [1, 2, 3, 4])
        g = GroupElement((1, 1))
        assert act(g, p).coords == p.coords

    def test_weighted_projective_action(self):
        p = make_point(A1, F7, [1, 1])
        assert act(GroupElement((2,)), p).coords == (2, 4)

    def test_rational_action(self):
        p = make_point(A2, QQ, [1, 1, 1, 1])
        g = GroupElement((Fraction(2), Fraction(1)))
        assert act(g, p).coords == (
            Fraction(2),
            Fraction(1),
            Fraction(4),
            Fraction(1, 2),
        )

    def test_action_preserves_nondegeneracy(self):
        p = make_point(A2, F5, [0, 1, 1, 0])
        q = act(GroupElement((3, 2)), p)
        assert is_nondegenerate(A2, q.coords, F5)
        assert q.support() == p.support()

    def test_noninvertible_unit_rejected(self):
        p = make_point(A1, F7, [1, 1])
        with pytest.raises(ValueError):
            act(GroupElement((0,)), p)

    def test_unit_zero_mod_p_rejected(self):
        # 5 is 0 in F_5: on A_1 it would give the degenerate point (0, 0),
        # on A_2 its negative weights would divide by zero.
        with pytest.raises(ValueError):
            act(GroupElement((5,)), make_point(A1, F5, [1, 1]))
        with pytest.raises(ValueError):
            act(GroupElement((5, 1)), make_point(A2, F5, [1, 1, 1, 1]))
        with pytest.raises(ValueError):
            act(GroupElement((1, 10)), make_point(A2, F5, [1, 1, 1, 1]))

    def test_fraction_with_denominator_divisible_by_p_rejected(self):
        # 1/5 has no image in F_5: a ValueError naming the value and p, not a
        # ZeroDivisionError from inverting the reduced denominator
        with pytest.raises(ValueError, match=r"1/5 .*F_5"):
            F5.of(Fraction(1, 5))
        with pytest.raises(ValueError, match=r"1/5 .*F_5"):
            act(GroupElement((Fraction(1, 5),)), make_point(A1, F5, [1, 1]))
        assert F5.of(Fraction(10, 3)) == 0  # only the denominator is checked
        assert F5.of(Fraction(2, 3)) == F5.div(2, 3)
        assert F5.parse("2/3") == F5.div(2, 3)

    def test_units_reduced_mod_p(self):
        p = make_point(A1, F7, [1, 1])
        assert act(GroupElement((9,)), p).coords == act(GroupElement((2,)), p).coords


class TestOrbitEqual:
    def test_reflexive(self):
        p = make_point(A1, F7, [3, 5])
        assert orbit_equal(p, p)

    def test_from_action(self):
        p = make_point(A1, F7, [1, 1])
        assert orbit_equal(p, make_point(A1, F7, [2, 4]))

    def test_support_mismatch(self):
        p = make_point(A1, F7, [1, 1])
        assert not orbit_equal(p, make_point(A1, F7, [0, 1]))

    def test_over_f2_the_orbit_is_the_point(self):
        # F_2^* is trivial, so two points share an orbit exactly when equal
        F2 = GF(2)
        for fan in (A1, A2, C2):
            pts = list(_nondeg_points(fan, F2))
            for p, q in itertools.product(pts, repeat=2):
                assert orbit_equal(p, q) == (p.coords == q.coords)

    def test_equivalence_relation_exhaustive(self):
        # full boolean relation matrix: reflexive, symmetric, transitive
        for fan, field in ((A1, F3), (A1, F5), (A2, F3)):
            pts = list(_nondeg_points(fan, field))
            m = len(pts)
            rel = [[False] * m for _ in range(m)]
            for i in range(m):
                rel[i][i] = orbit_equal(pts[i], pts[i])
                assert rel[i][i]
                for j in range(i + 1, m):
                    rel[i][j] = orbit_equal(pts[i], pts[j])
                    rel[j][i] = orbit_equal(pts[j], pts[i])
                    assert rel[i][j] == rel[j][i]
            for i in range(m):
                for j in range(m):
                    if not rel[i][j]:
                        continue
                    for k in range(m):
                        if rel[j][k]:
                            assert rel[i][k], (pts[i], pts[j], pts[k])

    def test_rational_orbits(self):
        p = make_point(A1, QQ, [Fraction(2, 3), Fraction(5)])
        g = GroupElement((Fraction(-7, 2),))
        q = act(g, p)
        assert orbit_equal(p, q)
        w = orbit_witness(p, q)
        assert act(w, p).coords == q.coords

    def test_rational_square_obstruction(self):
        # (1, 1) -> (1, b) needs kappa = 1, so b must stay 1.
        p = make_point(A1, QQ, [1, 1])
        assert not orbit_equal(p, make_point(A1, QQ, [1, 2]))
        # (1, 1) -> (2, 4) via kappa = 2.
        assert orbit_equal(p, make_point(A1, QQ, [2, 4]))
        # sign system: (1, 1) ~ (-1, 1) via kappa = -1.
        assert orbit_equal(p, make_point(A1, QQ, [-1, 1]))

    def test_field_mismatch(self):
        with pytest.raises(ValueError):
            orbit_equal(make_point(A1, F7, [1, 1]), make_point(A1, F5, [1, 1]))

    # The witness tests keep the weight-side oracle honest, and hold
    # orbit_equal to the same answers and the same refusals.

    def test_witness_carries_p_to_q(self):
        p = make_point(A2, F7, [1, 2, 3, 4])
        q = act(GroupElement((3, 5)), p)
        assert act(orbit_witness(p, q), p) == q and orbit_equal(p, q)
        off = make_point(A2, F7, [0, 2, 3, 4])
        assert orbit_witness(p, off) is None and not orbit_equal(p, off)

    def test_witness_rejects_field_mismatch(self):
        for decide in (orbit_witness, orbit_equal):
            with pytest.raises(ValueError):
                decide(make_point(A1, F5, [1, 1]), make_point(A1, F7, [1, 1]))

    def test_witness_rejects_fan_mismatch(self):
        for decide in (orbit_witness, orbit_equal):
            with pytest.raises(ValueError):
                decide(make_point(A2, F5, [1, 1, 1, 1]), make_point(C2, F5, [1, 1, 1, 1]))

    def test_witness_rejects_degenerate_point(self):
        origin = FanPoint(A1, F5, (0, 0))
        for decide in (orbit_witness, orbit_equal):
            with pytest.raises(ValueError):
                decide(origin, origin)
            with pytest.raises(ValueError):
                decide(make_point(A1, F5, [1, 1]), origin)


class TestCanonicalForm:
    def test_idempotent(self):
        rng = random.Random(4)
        for _ in range(100):
            coords = tuple(rng.randint(0, 4) for _ in range(4))
            if not is_nondegenerate(A2, coords, F5):
                continue
            c = canonical_form(FanPoint(A2, F5, coords))
            assert canonical_form(c).coords == c.coords

    def test_least_representative_is_fixed(self):
        p = make_point(A1, F5, [1, 1])
        orbit = [act(GroupElement((u,)), p).coords for u in range(1, 5)]
        least = min(orbit)
        assert canonical_form(p).coords == least

    def test_separates_orbits_exhaustively(self):
        for fan, field in ((A1, F5), (A1, F7), (A2, F3)):
            pts = list(_nondeg_points(fan, field))
            canon = {p.coords: canonical_form(p).coords for p in pts}
            rng = random.Random(1)
            for _ in range(200):
                p, q = rng.choice(pts), rng.choice(pts)
                assert orbit_equal(p, q) == (canon[p.coords] == canon[q.coords])

    def test_invariant_under_action(self):
        for coords in itertools.product(range(5), repeat=2):
            if not is_nondegenerate(A1, coords, F5):
                continue
            p = FanPoint(A1, F5, coords)
            base = canonical_form(p).coords
            for u in range(1, 5):
                assert canonical_form(act(GroupElement((u,)), p)).coords == base

    def test_matches_torus_minimum(self):
        for fan, field in ((A1, F7), (A2, F5), (C2, F5), (BCAN2, F5), (SIGMA3, F3)):
            points = list(_nondeg_points(fan, field))
            assert _canonical_mismatches(fan, field, points, canonical_form) == []

    def test_matches_torus_minimum_large_field(self):
        field, rng = GF(101), random.Random(11)
        faces = fan_faces(A2)
        points = []
        for _ in range(20):
            face = rng.choice(faces)
            coords = [0 if r in face else rng.randint(1, 100) for r in range(A2.num_rays)]
            points.append(make_point(A2, field, coords))
        assert _canonical_mismatches(A2, field, points, canonical_form) == []

    def test_oracle_rejects_non_least_element(self):
        # negative control: a fixed torus translate of the least point
        moved = lambda p: act(GroupElement((2, 1)), canonical_form(p))
        points = list(_nondeg_points(A2, F5))
        assert _canonical_mismatches(A2, F5, points, moved)

    def test_rational_field_rejected(self):
        with pytest.raises(ValueError):
            canonical_form(make_point(A1, QQ, [1, 1]))

    def test_discrete_log_guard_names_itself_and_its_bound(self):
        message = "discrete-log guard: p = 1000003 exceeds the bound _DLOG_TABLE_BOUND = 200003"
        with pytest.raises(ValueError, match=message):
            canonical_form(make_point(A1, GF(1000003), [1, 2]))


STRATUM_FANS = [
    build_upsilon(FanFamily(t, n)) for t in ("A", "B", "Bcan", "C") for n in range(1, 5)
] + [SIGMA3, build_sigma_A(4)]
STRATUM_IDS = [f"{t}{n}" for t in ("A", "B", "Bcan", "C") for n in range(1, 5)] + [
    "SigmaA3", "SigmaA4"
]
STRATUM_PRIMES = (2, 3, 5, 7, 13)


def _random_unit(rng, field):
    if field is QQ:
        numerator = rng.choice([-1, 1]) * rng.choice([1, 2, 3, 4, 6, 9])
        return Fraction(numerator, rng.choice([1, 2, 3, 8]))
    return rng.randint(1, field.p - 1)


class TestRaySide:
    """The face's rays against the weight-side presentation they replaced:
    the stratum lattice, and orbit equality over F_p and Q."""

    @pytest.mark.parametrize("fan", STRATUM_FANS, ids=STRATUM_IDS)
    def test_stratum_basis_matches_the_weight_side(self, fan):
        for face, p in itertools.product(fan_faces(fan), STRATUM_PRIMES):
            got = orbit_points._stratum_basis(fan, face, p - 1)
            assert got == weight_side_basis(fan, face, p - 1), (face, p)

    def test_the_comparison_covers_every_case(self):
        faces = sum(len(fan_faces(fan)) for fan in STRATUM_FANS)
        assert faces * len(STRATUM_PRIMES) == 2840

    def test_support_rays_give_another_basis(self):
        # negative control: the Smith form of the support's rays in place of
        # the face's
        wrong = [
            (face, p)
            for fan in (A2, C2) for face in fan_faces(fan) for p in STRATUM_PRIMES
            if orbit_points._stratum_basis(
                fan, face, p - 1,
                orbit_points._face_form(fan, [r for r in range(fan.num_rays) if r not in face]),
            ) != weight_side_basis(fan, face, p - 1)
        ]
        assert wrong

    @pytest.mark.parametrize("field", [GF(2), F3, F5, F7, GF(13), QQ], ids=str)
    def test_orbit_equal_matches_the_weight_side_solve(self, field):
        rng = random.Random(str(field))
        seen = set()
        for fan in (A1, A2, C2, BCAN2, SIGMA3, build_upsilon(FanFamily("B", 3))):
            faces = fan_faces(fan)
            for _ in range(40):
                face = rng.choice(faces)
                coords = [0 if r in face else _random_unit(rng, field) for r in range(fan.num_rays)]
                p = make_point(fan, field, coords)
                units = [_random_unit(rng, field) for _ in range(fan.num_rays - fan.rank)]
                q = act(GroupElement(tuple(units)), p)
                if rng.random() < 0.5:
                    r = rng.choice(p.support())
                    moved = list(q.coords)
                    moved[r] = field.mul(moved[r], field.of(_random_unit(rng, field)))
                    q = make_point(fan, field, moved)
                want = orbit_witness(p, q) is not None
                assert orbit_equal(p, q) == want, (p.coords, q.coords)
                seen.add(want)
        assert seen == {True, False} or field == GF(2)

    def test_orbit_questions_read_no_weights(self, monkeypatch):
        def refuse(fan):
            raise AssertionError("weights read")

        monkeypatch.setattr(orbit_points, "_weights", refuse)
        p = make_point(A2, F7, [3, 5, 2, 6])
        assert canonical_form(p).coords == (1, 1, 5, 1)
        assert orbit_equal(p, make_point(A2, F7, [1, 1, 5, 1]))
        assert len(enumerate_orbits(A2, 13)) == 200
        with pytest.raises(AssertionError, match="weights read"):  # the patch bites
            act(GroupElement((1, 1)), p)


CMINUS_ORBITS = [
    (n, p, count)
    for (n, p), count in zip(
        itertools.product((2, 3, 4), (3, 5, 7)), (3, 4, 5, 13, 25, 41, 49, 139, 307)
    )
]


class TestTorsion:
    """Cminus: the acting group ker(beta) has torsion (2,), so there is no
    weight matrix; the orbit questions match brute force under
    ker(beta) mod (p-1)."""

    @pytest.mark.parametrize(
        "n, p, count", CMINUS_ORBITS, ids=[f"Cminus{n}-F{p}" for n, p, _ in CMINUS_ORBITS]
    )
    def test_matches_brute_force(self, n, p, count):
        fan, field = build_upsilon(FanFamily("Cminus", n)), GF(p)
        least = kernel_orbit_minima(fan, p)
        orbits = enumerate_orbits(fan, p)
        assert [pt.coords for pt, _ in orbits] == sorted(set(least.values()))
        assert len(orbits) == count
        assert all(order == stabilizer_order(pt) for pt, order in orbits)
        members, strata = {}, {}
        for coords, rep in least.items():
            members.setdefault(rep, []).append(coords)
            strata.setdefault(FanPoint(fan, field, coords).zero_set(), []).append(coords)
        rng = random.Random(f"{n}/{p}")
        for coords in rng.sample(sorted(least), min(150, len(least))):
            pt = FanPoint(fan, field, coords)
            assert canonical_form(pt).coords == least[coords]
            for other in (rng.choice(members[least[coords]]), rng.choice(strata[pt.zero_set()])):
                same = least[other] == least[coords]
                assert orbit_equal(pt, FanPoint(fan, field, other)) == same, (coords, other)

    def test_brute_force_sees_the_torsion(self):
        # negative control: the identity component alone, ker(beta) over Z
        # taken mod p-1, leaves more orbits than ker(beta) mod p-1
        fan, p, g = build_upsilon(FanFamily("Cminus", 3)), 5, 2
        form = snf(fan.beta)
        kernel = [form.V.col(j) for j in range(fan.rank, fan.num_rays)]
        logs = (
            [sum(a * k[r] for a, k in zip(coeffs, kernel)) for r in range(fan.num_rays)]
            for coeffs in itertools.product(range(p - 1), repeat=len(kernel))
        )
        group = {tuple(pow(g, e, p) for e in x) for x in logs}
        orbits = {
            min(tuple(c * u % p for c, u in zip(coords, x)) for x in group)
            for coords in kernel_orbit_minima(fan, p)
        }
        assert len(orbits) > len(enumerate_orbits(fan, p)) == 25


def _det(m):
    """Leibniz determinant, for the small minors of the mass formula."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        total += sign * math.prod(m[i][j] for i, j in enumerate(perm))
    return total


def _invariant_factors(columns, rank):
    """d_1 | d_2 | ... of the matrix with these columns, from its
    determinantal divisors D_k, the gcd of its k x k minors."""
    divisors = [1]
    for k in range(1, len(columns) + 1):
        divisors.append(math.gcd(*(
            _det([[columns[c][r] for c in cols] for r in rows])
            for rows in itertools.combinations(range(rank), k)
            for cols in itertools.combinations(range(len(columns)), k)
        )))
    return [b // a for a, b in zip(divisors, divisors[1:])]


def _mass(fan, face, p, gcd=math.gcd):
    """(p-1)^(rank - |tau|) prod_j gcd(d_j, p-1): the orbits on the stratum
    of ``face`` when the acting group is a torus, so that beta is onto."""
    factors = _invariant_factors([fan.rays[r] for r in face], fan.rank)
    return (p - 1) ** (fan.rank - len(face)) * math.prod(gcd(d, p - 1) for d in factors)


def _stratum_counts(fan, p):
    counts = {}
    for pt, _ in enumerate_orbits(fan, p):
        counts[pt.zero_set()] = counts.get(pt.zero_set(), 0) + 1
    return counts


MASS_CASES = [("A", 3, 7), ("C", 3, 7), ("B", 3, 5), ("Bcan", 3, 13), ("SigmaA", 4, 5)]


class TestMassFormula:
    @pytest.mark.parametrize(
        "tag, n, p", MASS_CASES, ids=[f"{t}{n}-F{p}" for t, n, p in MASS_CASES]
    )
    def test_orbits_per_stratum(self, tag, n, p):
        fan = build_sigma_A(n) if tag == "SigmaA" else build_upsilon(FanFamily(tag, n))
        assert _stratum_counts(fan, p) == {face: _mass(fan, face, p) for face in fan_faces(fan)}

    def test_dropping_the_gcd_miscounts(self):
        fan = build_upsilon(FanFamily("A", 3))
        counts = _stratum_counts(fan, 7)
        wrong = [
            face for face in fan_faces(fan)
            if counts[face] != _mass(fan, face, 7, gcd=lambda d, m: d)
        ]
        assert wrong


class TestLeastUnit:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 101])
    def test_matches_brute_force(self, p):
        # the least v with log v = residue (mod d), for every d | p - 1
        ctx = orbit_points._dlog_context(GF(p))
        for d in (d for d in range(1, p) if (p - 1) % d == 0):
            for residue in range(d):
                least = min(v for v in range(1, p) if ctx.log(v) % d == residue)
                assert orbit_points._least_unit(ctx, residue, d) == least


class TestStabilizer:
    def test_mu_n_at_deep_stratum(self):
        for n in range(2, 9):
            fan = build_upsilon(FanFamily("A", n - 1))
            p = make_point(fan, F11, [0] * (n - 1) + [1] * (n - 1))
            desc = stabilizer(p)
            assert desc.free_rank == 0 and desc.torsion == (n,)

    def test_a2_boundary_strata(self):
        assert stabilizer(make_point(A2, F7, [0, 1, 1, 0])).torsion == (2,)
        assert stabilizer(make_point(A2, F7, [0, 0, 1, 1])).torsion == (3,)
        assert stabilizer(make_point(A2, F7, [1, 0, 0, 1])).torsion == (2,)

    def test_generic_point_trivial(self):
        assert stabilizer(make_point(A2, F7, [1, 1, 1, 1])) == FinDiagGroupDesc(0, ())

    def test_c2_strata(self):
        # labeled strata of the rank-2 type-C fan all carry mu_2
        for coords in ((0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 1, 1)):
            assert stabilizer(make_point(C2, F7, coords)).torsion == (2,)
        for coords in ((1, 1, 0, 1), (1, 0, 1, 1), (1, 1, 1, 0), (1, 1, 0, 0)):
            assert stabilizer(make_point(C2, F7, coords)) == FinDiagGroupDesc(0, ())

    def test_field_independent(self):
        for field in (F3, F7, QQ):
            p = make_point(A2, field, [0, 0, 1, 1])
            assert stabilizer(p).torsion == (3,)

    @pytest.mark.parametrize(
        "fan",
        [build_upsilon(FanFamily(t, n)) for t in ("A", "B", "Bcan", "C") for n in range(1, 5)]
        + [SIGMA3, build_sigma_A(4)],
        ids=[f"{t}{n}" for t in ("A", "B", "Bcan", "C") for n in range(1, 5)]
        + ["SigmaA3", "SigmaA4"],
    )
    def test_face_rays_match_the_weight_side_cokernel(self, fan):
        for face in fan_faces(fan):
            p = _point_with_zero_set(fan, face)
            assert stabilizer(p) == _weight_side_stabilizer(p), face

    def test_weight_side_oracle_rejects_the_support(self):
        # negative control: the rays of the support, not of the zero set
        wrong = [
            face for face in fan_faces(A2)
            if _weight_side_stabilizer(_point_with_zero_set(A2, face))
            != orbit_points._face_group(A2, [r for r in range(4) if r not in face])
        ]
        assert wrong

    @pytest.mark.parametrize("n", range(2, 5))
    def test_cminus_matches_sympy_invariant_factors(self, n):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        fan = build_upsilon(FanFamily("Cminus", n))
        for face in fan_faces(fan)[1:]:
            factors = invariant_factors(sympy.Matrix([fan.rays[r] for r in face]))
            torsion = tuple(abs(int(x)) for x in factors if abs(int(x)) > 1)
            assert stabilizer(_point_with_zero_set(fan, face)) == FinDiagGroupDesc(0, torsion)
        assert stabilizer(_point_with_zero_set(fan, ())) == FinDiagGroupDesc(0, ())

    def test_invariant_along_orbit(self):
        rng = random.Random(6)
        for _ in range(40):
            coords = tuple(rng.randint(0, 6) for _ in range(4))
            if not is_nondegenerate(A2, coords, F7):
                continue
            p = FanPoint(A2, F7, coords)
            order = stabilizer_order(p)
            g = GroupElement((rng.randint(1, 6), rng.randint(1, 6)))
            assert stabilizer_order(act(g, p)) == order


class TestCounts:
    def test_weighted_projective_line(self):
        for q in (3, 5, 7, 11):
            assert count_coarse_points(A1, q) == q + 1
            # independent oracle: (q^2 - 1)/(q - 1)
            assert count_coarse_points(A1, q) == (q * q - 1) // (q - 1)

    def test_a2_count(self):
        for q in (3, 4, 5):
            assert count_coarse_points(A2, q) == (q + 1) ** 2

    def test_q2_counts_cones(self):
        fan = build_upsilon(FanFamily("C", 2))
        # (q-1) = 1, so the count equals the number of faces: 3^n
        assert count_coarse_points(fan, 2) == 9

    def test_sigma_fan_count(self):
        # the rank-2 permutohedral variety has q^2 + 4q + 1 points
        fan = build_sigma_A(3)
        for q in (2, 3, 5):
            assert count_coarse_points(fan, q) == q * q + 4 * q + 1

    def test_prime_power_validation(self):
        with pytest.raises(ValueError):
            count_coarse_points(A1, 6)


class TestEnumerate:
    def test_a1_p3(self):
        orbits = enumerate_orbits(A1, 3)
        coords = [pt.coords for pt, _ in orbits]
        orders = {pt.coords: o for pt, o in orbits}
        assert (0, 1) in coords and orders[(0, 1)] == 2
        assert all(
            orders[c] == 1 for c in coords if c[0] != 0
        )

    def test_a1_p2_every_tuple_fixed(self):
        orbits = enumerate_orbits(A1, 2)
        assert [pt.coords for pt, _ in orbits] == [(0, 1), (1, 0), (1, 1)]

    def test_partition_matches_orbit_equal(self):
        for p in (3, 5):
            orbits = enumerate_orbits(A1, p)
            field = GF(p)
            reps = [pt for pt, _ in orbits]
            # distinct representatives are pairwise inequivalent
            for a, b in itertools.combinations(reps, 2):
                assert not orbit_equal(a, b)
            # and every nondegenerate tuple matches exactly one of them
            total = 0
            for coords in itertools.product(range(p), repeat=2):
                if not is_nondegenerate(A1, coords, field):
                    continue
                matches = [
                    r for r in reps if orbit_equal(FanPoint(A1, field, coords), r)
                ]
                assert len(matches) == 1
                total += 1
            assert total >= len(reps)

    def test_free_locus_matches_coarse_count(self):
        # Over a finite field the free orbits biject with the free-stratum
        # coarse points (Lang's theorem kills the torsor obstruction).
        q = 3
        orbits = enumerate_orbits(A2, q)
        free = sum(1 for _, order in orbits if order == 1)
        expected = 0
        for face in fan_faces(A2):
            if _weight_side_stabilizer(_point_with_zero_set(A2, face)) == FinDiagGroupDesc(0, ()):
                expected += (q - 1) ** (A2.rank - len(face))
        assert free == expected == 13

    def test_matches_brute_force_partition(self):
        for fan in (A2, C2):
            assert _partition_problems(fan, F5, enumerate_orbits(fan, 5)) == []

    def test_oracle_rejects_dropped_orbit(self):
        orbits = enumerate_orbits(A2, 5)
        assert _partition_problems(A2, F5, orbits[:7] + orbits[8:])

    def test_orbit_counts(self):
        assert len(enumerate_orbits(A2, 13)) == 200
        assert len(enumerate_orbits(build_upsilon(FanFamily("A", 3)), 7)) == 541

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_orbits(build_upsilon(FanFamily("A", 5)), 11)


def test_free_rank_matches_weights():
    for fan, rank in ((A2, 2), (SIGMA3, 4)):
        assert dg_group(fan).free_rank == weight_matrix(fan).rows == rank


def _character_values(units, rows):
    return [math.prod((u**e for u, e in zip(units, row)), start=Fraction(1)) for row in rows]


class TestSolveUnitsOverQ:
    """Over Q, solve_units takes one Smith form and back-substitutes the
    valuation system of every prime and the sign system mod 2."""

    @staticmethod
    def per_prime(rows, targets):
        a = IntMatrix.from_rows(rows)
        primes, vals, signs = _rational_factor_data([Fraction(t) for t in targets])
        exps = [snf(a).solve(vals[q]) for q in primes]
        s = solve_mod(a, signs, 2)
        if s is None or None in exps:
            return None
        return [
            (-1) ** s[k] * math.prod((Fraction(q) ** e[k] for q, e in zip(primes, exps)), start=1)
            for k in range(a.cols)
        ]

    def test_against_per_prime_solves(self, monkeypatch):
        rng = random.Random(31)
        calls = []
        real = orbit_points.snf
        monkeypatch.setattr(orbit_points, "snf", lambda a: calls.append(a) or real(a))
        solvable = unsolvable = 0
        for _ in range(200):
            r, c = rng.randint(1, 3), rng.randint(1, 3)
            rows = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
            if rng.random() < 0.5:
                units = [
                    Fraction(rng.choice([-1, 1, 2, -3, 5, 6]), rng.choice([1, 2, 7]))
                    for _ in range(c)
                ]
                targets = _character_values(units, rows)
            else:
                targets = [
                    Fraction(rng.choice([-12, -3, -1, 1, 2, 5, 9]), rng.choice([1, 4, 7]))
                    for _ in range(r)
                ]
            calls.clear()
            got = solve_units(rows, targets, QQ)
            assert len(calls) == 1
            assert got == self.per_prime(rows, targets)
            if got is None:
                unsolvable += 1
            else:
                solvable += 1
                assert _character_values(got, rows) == targets
        assert solvable > 50 and unsolvable > 20
