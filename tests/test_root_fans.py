"""Fan constructions, validation, group data and morphisms."""

import itertools
import json
import math
import random
from fractions import Fraction
from typing import Dict, List, Tuple

import pytest

from toricchains import root_fans
from toricchains.exact_linalg import IntMatrix, hnf, invert_rational, solve_rational
from toricchains.root_fans import (
    FanFamily,
    FanReport,
    StackyFan,
    WeightTorsionError,
    build_sigma_A,
    build_upsilon,
    canonical_stack,
    cartan_matrix,
    check_fan,
    cone_contains,
    dg_group,
    fan_faces,
    fan_from_json,
    fan_morphism_check,
    standard_fan_map,
    upsilon_beta,
    weight_matrix,
    _dot,
    _facet_functionals,
    _in_cone,
    _walk,
)


class TestCartanMatrices:
    def test_rank_one(self):
        for tag in ("A", "B", "C"):
            assert cartan_matrix(tag, 1).to_rows() == [[2]]

    def test_a2(self):
        assert cartan_matrix("A", 2).to_rows() == [[2, -1], [-1, 2]]

    def test_c2(self):
        assert cartan_matrix("C", 2).to_rows() == [[2, -1], [-2, 2]]

    def test_b_is_transpose_of_c(self):
        for n in range(1, 6):
            assert cartan_matrix("B", n).to_rows() == cartan_matrix("C", n).T.to_rows()

    def test_determinants(self):
        # det C(A_n) = n+1; det C(B_n) = det C(C_n) = 2 for n >= 2
        for n in range(1, 7):
            assert cartan_matrix("A", n).det() == n + 1
        for n in range(2, 7):
            assert cartan_matrix("B", n).det() == 2
            assert cartan_matrix("C", n).det() == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            cartan_matrix("A", 0)
        with pytest.raises(ValueError):
            cartan_matrix("D", 3)


class TestBlockMatrices:
    def test_a1(self):
        assert upsilon_beta(FanFamily("A", 1)).to_rows() == [[-2, 1]]

    def test_a2(self):
        assert upsilon_beta(FanFamily("A", 2)).to_rows() == [[-2, 1, 1, 0], [1, -2, 0, 1]]

    def test_c2(self):
        assert upsilon_beta(FanFamily("C", 2)).to_rows() == [[-2, 1, 1, 0], [2, -2, 0, 1]]

    def test_bcan2(self):
        assert upsilon_beta(FanFamily("Bcan", 2)).to_rows() == [[-2, 1, 1, 0], [1, -1, 0, 1]]

    def test_bcan1_is_projective_line(self):
        fan = build_upsilon(FanFamily("Bcan", 1))
        assert fan.rays == ((-1,), (1,))

    def test_cminus2(self):
        assert upsilon_beta(FanFamily("Cminus", 2)).to_rows() == [[-2, 2]]

    def test_cminus_needs_n_at_least_two(self):
        with pytest.raises(ValueError):
            FanFamily("Cminus", 1)

    def test_sigma_has_no_block_matrix(self):
        with pytest.raises(ValueError):
            upsilon_beta(FanFamily("SigmaA", 3))


class TestBuildUpsilon:
    def test_a2_cones(self):
        fan = build_upsilon(FanFamily("A", 2))
        assert fan.num_rays == 4
        assert set(fan.max_cones) == {(0, 1), (0, 3), (1, 2), (2, 3)}
        assert fan.ray_labels == ("rho_1", "rho_2", "tau_1", "tau_2")

    def test_cone_counts(self):
        for n in range(1, 9):
            fan = build_upsilon(FanFamily("A", n))
            assert fan.num_rays == 2 * n
            assert len(fan.max_cones) == 2**n

    def test_beta_columns_are_rays(self):
        fan = build_upsilon(FanFamily("C", 3))
        beta = fan.beta
        for i, ray in enumerate(fan.rays):
            assert beta.col(i) == ray

    def test_no_forbidden_pairs(self):
        fan = build_upsilon(FanFamily("B", 3))
        for cone in fan.max_cones:
            for i in range(3):
                assert not ({i, i + 3} <= set(cone))

    def test_check_fan_all_families_up_to_six(self):
        for tag in ("A", "B", "Bcan", "C"):
            for n in range(1, 7):
                fan = build_upsilon(FanFamily(tag, n))
                assert fan.num_rays == 2 * n
                assert len(fan.max_cones) == 2**n
                assert check_fan(fan).all_ok, (tag, n)
        for n in range(2, 7):
            fan = build_upsilon(FanFamily("Cminus", n))
            assert fan.num_rays == 2 * (n - 1)
            assert len(fan.max_cones) == 2 ** (n - 1)
            assert check_fan(fan).all_ok, ("Cminus", n)

    def test_wall_condition_negative_control(self):
        fan = build_upsilon(FanFamily("A", 2))
        broken = StackyFan(fan.rank, fan.rays, fan.ray_labels, fan.max_cones[:-1])
        report = check_fan(broken)
        assert not report.wall_condition

    def test_every_one_cone_drop_is_incomplete(self):
        # The wall walk gives the per-cone eliminations' functionals and
        # report on every drop.
        for tag, n in (("A", 4), ("A", 6), ("B", 4), ("C", 5), ("C", 6), ("Cminus", 5),
                       ("SigmaA", 4), ("SigmaA", 5)):
            fan = _family_fan(tag, n)
            for k in range(len(fan.max_cones)):
                cones = fan.max_cones[:k] + fan.max_cones[k + 1 :]
                broken = StackyFan(fan.rank, fan.rays, fan.ray_labels, cones)
                assert _walk(broken)[1] == per_cone_functionals(broken), (tag, n, k)
                report = check_fan(broken)
                assert report == oracle_check_fan(broken), (tag, n, k)
                assert not report.complete and not report.all_ok, (tag, n, k)

    def test_double_cover_is_rejected(self):
        # Every wall lies in two cones, on opposite sides, yet every point
        # lies in two cones.
        report = check_fan(_double_cover())
        assert report.wall_condition
        assert not report.complete and not report.all_ok

    def test_fold_is_rejected(self):
        # The cones (0,-1)(-1,0) and (0,-1)(-1,-1) lie on the same side of
        # their common wall, while the point the certificate samples lies in
        # one cone only.
        report = check_fan(_fold())
        assert not report.wall_condition and not report.all_ok

    def test_pairwise_face_intersections(self):
        # check_fan agrees with the Fourier-Motzkin face oracle.
        for tag, n in (("A", 2), ("A", 3), ("B", 2), ("Bcan", 2), ("C", 2), ("C", 3)):
            fan = build_upsilon(FanFamily(tag, n))
            assert cones_pairwise_faces(fan) and check_fan(fan).all_ok, (tag, n)
        for fan in (_double_cover(), _fold()):
            assert not cones_pairwise_faces(fan) and not check_fan(fan).all_ok


def _double_cover():
    """Eight rays at 45 degrees, cones {i, i+2 mod 8}: the plane twice."""
    rays = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
    cones = tuple(sorted(tuple(sorted((i, (i + 2) % 8))) for i in range(8)))
    return StackyFan(2, rays, tuple(f"r{i}" for i in range(8)), cones)


def _fold():
    """A cycle of five 2-cones turning through 0, 90, 180, 270, 225 and 360
    degrees: every ray lies in two cones, and the wedge from 225 to 270
    degrees is covered three times."""
    rays = ((1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1))
    cones = ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
    return StackyFan(2, rays, tuple("abcdf"), cones)


# ---------------------------------------------------------------------------
# Oracles: the code paths the facet-functional kernel replaced
# ---------------------------------------------------------------------------


def per_cone_functionals(fan: StackyFan) -> dict:
    """One elimination of [B | I] for every maximal cone; None for
    dependent rays."""
    out = {}
    for cone in fan.max_cones:
        try:
            out[cone] = _facet_functionals(fan, cone)
        except ValueError:
            out[cone] = None
    return out


def oracle_check_fan(fan: StackyFan) -> FanReport:
    """check_fan with one elimination per cone in place of the wall walk;
    the walls, the opposite-side test and the Cauchy point are the same."""
    functionals = {cone: f and f[0] for cone, f in per_cone_functionals(fan).items()}
    simplicial = all(f is not None for f in functionals.values())
    pure = all(len(cone) == fan.rank for cone in fan.max_cones)
    walls: Dict[Tuple[int, ...], List[Tuple[Tuple[int, ...], int]]] = {}
    for cone in fan.max_cones:
        for pos in range(len(cone)):
            walls.setdefault(cone[:pos] + cone[pos + 1 :], []).append((cone, pos))

    def opposite(sides) -> bool:
        (c1, i1), (c2, i2) = sides
        return _dot(functionals[c1][i1], fan.rays[c2[i2]]) < 0

    wall = pure and simplicial and all(
        len(sides) == 2 and opposite(sides) for sides in walls.values()
    )
    complete = False
    if wall:
        M = 1 + max((abs(a) for us in functionals.values() for u in us for a in u), default=0)
        x = [M**i for i in range(fan.rank)]
        inside = sum(all(_dot(u, x) > 0 for u in us) for us in functionals.values())
        complete = inside == 1
    return FanReport(simplicial, pure, wall, complete)


def oracle_morphism_check(src: StackyFan, dst: StackyFan, L: IntMatrix) -> bool:
    """The all-images loop: one elimination per target cone, and every
    image ray tested on every target cone, with no prefilter."""
    functionals = [_facet_functionals(dst, dcone) for dcone in dst.max_cones]
    for cone in src.max_cones:
        images = [L.mul_vector(list(src.rays[i])) for i in cone]
        if not any(all(_in_cone(f, img) for img in images) for f in functionals):
            return False
    return True


def cones_pairwise_faces(fan: StackyFan) -> bool:
    """Exact check that every pairwise intersection of maximal cones is the
    cone on the shared rays (hence a common face).  Cost grows quickly with
    the number of cones; intended for desk-scale fans."""
    inverses: Dict[Tuple[int, ...], List[List[Fraction]]] = {}
    for cone in fan.max_cones:
        if len(cone) != fan.rank:
            raise ValueError("pairwise face check requires a pure fan")
        rows = [[fan.rays[j][i] for j in cone] for i in range(fan.rank)]
        inverses[tuple(cone)] = invert_rational(rows)
    for c1, c2 in itertools.combinations(fan.max_cones, 2):
        shared = set(c1) & set(c2)
        inv2 = inverses[tuple(c2)]
        rays1 = [fan.rays[i] for i in c1]
        # M columns: coordinates of c1's rays in c2's ray basis.
        m = [
            [sum(inv2[i][k] * Fraction(rays1[j][k]) for k in range(fan.rank))
             for j in range(fan.rank)]
            for i in range(fan.rank)
        ]
        for pos, ray_idx in enumerate(c1):
            if ray_idx in shared:
                continue
            # Is there a point of cone(c1) inside cone(c2) using ray `pos`?
            ineqs = []
            for i in range(fan.rank):
                row = [Fraction(0)] * fan.rank
                row[i] = Fraction(1)
                ineqs.append((row, Fraction(0)))
            for i in range(fan.rank):
                ineqs.append((list(m[i]), Fraction(0)))
            strict = [Fraction(0)] * fan.rank
            strict[pos] = Fraction(1)
            ineqs.append((strict, Fraction(1)))
            if _fm_feasible(ineqs):
                return False
    return True


def _fm_feasible(ineqs: List[Tuple[List[Fraction], Fraction]]) -> bool:
    """Fourier-Motzkin feasibility of the system {row . x >= rhs}."""

    def normalize(row, rhs):
        # Scale rows to a canonical form for deduplication only.
        nz = [abs(x) for x in row if x != 0]
        if nz:
            m = max(nz)
            row = [x / m for x in row]
            rhs = rhs / m
        return tuple(row), rhs

    nvars = len(ineqs[0][0]) if ineqs else 0
    system = ineqs
    for var in range(nvars):
        pos, neg, zero = [], [], []
        for row, rhs in system:
            c = row[var]
            if c > 0:
                pos.append((row, rhs))
            elif c < 0:
                neg.append((row, rhs))
            else:
                zero.append((row, rhs))
        new = {normalize(r, b) for r, b in zero}
        for rp, bp in pos:
            cp = rp[var]
            for rn, bn in neg:
                cn = rn[var]
                # Eliminate: cp > 0 >= needs x >= (bp - rest)/cp; cn < 0 gives
                # upper bound; combine to a var-free inequality.
                row = [a / cp - b / cn for a, b in zip(rp, rn)]
                rhs = bp / cp - bn / cn
                row[var] = Fraction(0)
                new.add(normalize(row, rhs))
        system = [(list(r), b) for r, b in new]
    return all(rhs <= 0 for _, rhs in system)


def _ray_rows(fan: StackyFan, cone) -> List[List[int]]:
    return [[fan.rays[j][i] for j in cone] for i in range(fan.rank)]


def solve_contains(fan: StackyFan, cone, vector) -> bool:
    """Membership read off one solution of B x = v: exact when the rays are
    independent, since the solution is then unique."""
    sol = solve_rational(_ray_rows(fan, cone), list(vector))
    return sol is not None and all(x >= 0 for x in sol)


def solve_morphism_check(src: StackyFan, dst: StackyFan, L: IntMatrix) -> bool:
    """The per-pair loop: one solve per (image ray, target cone)."""
    for cone in src.max_cones:
        images = [L.mul_vector(list(src.rays[i])) for i in cone]
        if not any(
            all(solve_contains(dst, dcone, img) for img in images)
            for dcone in dst.max_cones
        ):
            return False
    return True


def _membership_queries(fan: StackyFan, face, rng: random.Random):
    """Seeded vectors of four kinds for one face: nonnegative combinations of
    its rays, combinations with one negative coefficient, integer vectors in
    its span and integer vectors off it."""
    rays = [fan.rays[j] for j in face]

    def combo(coeffs):
        return [sum(c * r[i] for c, r in zip(coeffs, rays)) for i in range(fan.rank)]

    queries = []
    for _ in range(3):
        queries.append(("nonnegative", combo([rng.randint(0, 3) for _ in rays])))
        if rays:
            coeffs = [rng.randint(0, 3) for _ in rays]
            coeffs[rng.randrange(len(rays))] = -rng.randint(1, 3)
            queries.append(("one negative", combo(coeffs)))
        queries.append(("span", combo([rng.randint(-3, 3) for _ in rays])))
        if len(face) < fan.rank:
            while True:
                v = [rng.randint(-3, 3) for _ in range(fan.rank)]
                if solve_rational(_ray_rows(fan, face), v) is None:
                    break
            queries.append(("off span", v))
    return queries


class TestSigmaFan:
    def test_counts(self):
        for n, rays, cones in ((2, 2, 2), (3, 6, 6), (4, 14, 24)):
            fan = build_sigma_A(n)
            assert fan.num_rays == rays == 2**n - 2
            assert len(fan.max_cones) == cones == math.factorial(n)

    def test_n2_is_projective_line(self):
        fan = build_sigma_A(2)
        assert sorted(fan.rays) == [(-1,), (1,)]

    def test_smooth(self):
        # every maximal cone is unimodular
        for n in (2, 3, 4):
            fan = build_sigma_A(n)
            for cone in fan.max_cones:
                rows = [[fan.rays[j][i] for j in cone] for i in range(fan.rank)]
                assert abs(IntMatrix.from_rows(rows).det()) == 1

    def test_check_and_faces(self):
        for n in (2, 3, 4):
            assert check_fan(build_sigma_A(n)).all_ok
        assert cones_pairwise_faces(build_sigma_A(4))

    def test_check_fan_n5_and_n6(self):
        assert check_fan(build_sigma_A(5)).all_ok
        assert check_fan(build_sigma_A(6)).all_ok


class TestConeMembership:
    @pytest.mark.parametrize(
        "fan",
        [
            build_upsilon(FanFamily("A", 3)),
            build_upsilon(FanFamily("B", 3)),
            build_upsilon(FanFamily("C", 3)),
            build_sigma_A(4),
        ],
        ids=["A3", "B3", "C3", "SigmaA4"],
    )
    def test_agrees_with_solve_oracle_on_every_face(self, fan):
        rng = random.Random(f"cone_contains/{fan.family}")
        kinds = set()
        for face in fan_faces(fan):
            for kind, v in _membership_queries(fan, face, rng):
                expected = solve_contains(fan, face, v)
                assert cone_contains(fan, face, v) == expected, (face, kind, v)
                if kind in ("nonnegative", "one negative", "off span"):
                    assert expected == (kind == "nonnegative"), (face, kind, v)
                kinds.add(kind)
        assert kinds == {"nonnegative", "one negative", "span", "off span"}

    def test_dependent_rays_raise(self):
        # The solve oracle answers from one arbitrary solution and says
        # False, yet (0, 1) is the third ray.
        fan = StackyFan(2, ((1, 0), (1, 1), (0, 1)), ("a", "b", "c"), ((0, 1, 2),))
        assert not solve_contains(fan, (0, 1, 2), (0, 1))
        with pytest.raises(ValueError, match="dependent"):
            cone_contains(fan, (0, 1, 2), (0, 1))
        with pytest.raises(ValueError, match="dependent"):
            fan_morphism_check(build_upsilon(FanFamily("A", 2)), fan, IntMatrix.identity(2))
        # check_fan reports them in its flag instead.
        report = check_fan(StackyFan(2, ((1, 0), (2, 0)), ("a", "b"), ((0, 1),)))
        assert not report.simplicial and report.pure


class TestFanMapsAgainstOracle:
    @pytest.mark.parametrize("tag, n", [(t, n) for t in ("C", "B") for n in range(1, 5)])
    def test_standard_map_and_negation(self, tag, n):
        L, src, dst = standard_fan_map(tag, n)
        minus = IntMatrix(L.rows, L.cols, tuple(-x for x in L.entries))
        assert fan_morphism_check(src, dst, L) and solve_morphism_check(src, dst, L)
        assert oracle_morphism_check(src, dst, L)
        assert fan_morphism_check(src, dst, minus) == solve_morphism_check(src, dst, minus)
        assert fan_morphism_check(src, dst, minus) == oracle_morphism_check(src, dst, minus)
        # At n = 1 the source is a line, and -1 swaps its two cones.
        assert fan_morphism_check(src, dst, minus) == (n == 1)

    def test_one_cone_across_a_wall(self):
        fan = build_upsilon(FanFamily("A", 2))
        L = IntMatrix.from_rows([[-2, 0], [1, 2]])
        mapped = [
            any(
                all(cone_contains(fan, d, L.mul_vector(list(fan.rays[i]))) for i in cone)
                for d in fan.max_cones
            )
            for cone in fan.max_cones
        ]
        assert sorted(mapped) == [False, True, True, True]
        assert not fan_morphism_check(fan, fan, L)
        assert not solve_morphism_check(fan, fan, L)


def _family_fan(tag: str, n: int) -> StackyFan:
    return build_sigma_A(n) if tag == "SigmaA" else build_upsilon(FanFamily(tag, n))


def _record_seeds(monkeypatch) -> List[Tuple[int, ...]]:
    """The cones that get a fresh elimination, in order."""
    seeds = []

    def spy(fan, cone):
        seeds.append(tuple(cone))
        return _facet_functionals(fan, cone)

    monkeypatch.setattr(root_fans, "_facet_functionals", spy)
    return seeds


def _plane(rays, cones) -> StackyFan:
    return StackyFan(2, tuple(rays), tuple(f"r{i}" for i in range(len(rays))), tuple(cones))


def _a2_with(cones) -> StackyFan:
    fan = build_upsilon(FanFamily("A", 2))
    return StackyFan(fan.rank, fan.rays, fan.ray_labels, fan.max_cones + tuple(cones))


# Rays (1,0), (0,1), (2,0), (0,-1): the walk reaches (0, 2) from (0, 1) by
# one exchange with piv = 0, and (2, 3), beyond it, needs a second seed.
_EXCHANGE_DEPENDENT = _plane(((1, 0), (0, 1), (2, 0), (0, -1)), ((0, 1), (0, 2), (2, 3)))

# Two cones with no common facet: two pieces of the wall graph.
_TWO_PIECES = _plane(((1, 0), (0, 1), (-1, 0), (0, -1)), ((0, 1), (2, 3)))

WALK_FANS = (
    [(t, n) for t in ("A", "B", "Bcan", "C") for n in range(1, 7)]
    + [("Cminus", n) for n in range(2, 8)]
    + [("SigmaA", n) for n in range(3, 6)]
)

NEGATIVE_CONTROLS = {
    "double-cover": _double_cover(),
    "fold": _fold(),
    "duplicated-cone": _a2_with([(0, 1)]),
    "non-pure-facet": _a2_with([(0,)]),
    "non-pure-three-rays": _a2_with([(0, 1, 2)]),
    "exchange-dependent": _EXCHANGE_DEPENDENT,
    "two-pieces": _TWO_PIECES,
}


class TestWallWalk:
    @pytest.mark.parametrize("tag, n", WALK_FANS, ids=[f"{t}{n}" for t, n in WALK_FANS])
    def test_functionals_match_one_elimination_per_cone(self, tag, n, monkeypatch):
        fan = _family_fan(tag, n)
        seeds = _record_seeds(monkeypatch)
        walked = _walk(fan)[1]
        # The wall graph of a fan is connected: one elimination in all.
        assert seeds == [fan.max_cones[0]]
        # Equal lists: the same signs and the same scale, cone by cone.
        assert walked == per_cone_functionals(fan)
        assert check_fan(fan) == oracle_check_fan(fan) == FanReport(True, True, True, True)

    @pytest.mark.parametrize("name", sorted(NEGATIVE_CONTROLS))
    def test_negative_controls_match_oracle(self, name):
        fan = NEGATIVE_CONTROLS[name]
        assert _walk(fan)[1] == per_cone_functionals(fan)
        report = check_fan(fan)
        assert report == oracle_check_fan(fan) and not report.all_ok

    def test_negative_control_flags(self):
        assert check_fan(_double_cover()) == FanReport(True, True, True, False)
        assert check_fan(_a2_with([(0, 1)])) == FanReport(True, True, False, False)
        assert check_fan(_a2_with([(0,)])) == FanReport(True, False, False, False)
        assert check_fan(_a2_with([(0, 1, 2)])) == FanReport(False, False, False, False)
        assert check_fan(_EXCHANGE_DEPENDENT) == FanReport(False, True, False, False)
        assert check_fan(_TWO_PIECES) == FanReport(True, True, False, False)

    def test_dependent_cone_reached_by_exchange(self, monkeypatch):
        seeds = _record_seeds(monkeypatch)
        walked = _walk(_EXCHANGE_DEPENDENT)[1]
        assert walked[(0, 2)] is None
        # (0, 2) got no elimination of its own, and the walk did not pass it.
        assert seeds == [(0, 1), (2, 3)]

    @pytest.mark.parametrize("name", ["double-cover", "two-pieces"])
    def test_one_seed_per_piece(self, name, monkeypatch):
        seeds = _record_seeds(monkeypatch)
        _walk(NEGATIVE_CONTROLS[name])
        assert len(seeds) == 2

    @pytest.mark.parametrize("tag, n", [("A", 3), ("SigmaA", 4), ("C", 3)])
    def test_random_rays_match_oracle(self, tag, n):
        # The cones of a fan on random rays: dependent cones, walls on the
        # wrong side and covers of every multiplicity.
        fan = _family_fan(tag, n)
        rng = random.Random(f"walk/{tag}{n}")
        reports = set()
        for _ in range(100):
            rays = []
            while len(rays) < fan.num_rays:
                v = tuple(rng.randint(-2, 2) for _ in range(fan.rank))
                if any(v):
                    rays.append(v)
            moved = StackyFan(fan.rank, tuple(rays), fan.ray_labels, fan.max_cones)
            assert _walk(moved)[1] == per_cone_functionals(moved)
            report = check_fan(moved)
            assert report == oracle_check_fan(moved)
            reports.add(report)
        assert FanReport(False, True, False, False) in reports
        assert FanReport(True, True, False, False) in reports


class TestFanMapPrefilter:
    @pytest.mark.parametrize(
        "dst",
        [build_upsilon(FanFamily("A", 2)), build_upsilon(FanFamily("C", 2)), build_sigma_A(3),
         _double_cover(), _fold(), _a2_with([(0,)]), _TWO_PIECES],
        ids=["A2", "C2", "SigmaA3", "double-cover", "fold", "non-pure", "two-pieces"],
    )
    def test_random_maps_match_oracle(self, dst):
        # The sum of the images goes first; the answer must not change, also
        # when the target is not a fan.
        rng = random.Random(f"prefilter/{dst.max_cones}")
        answers = set()
        for src in (build_upsilon(FanFamily("A", 2)), build_upsilon(FanFamily("B", 2)),
                    build_sigma_A(3)):
            for _ in range(40):
                L = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
                expected = oracle_morphism_check(src, dst, L)
                assert fan_morphism_check(src, dst, L) == expected, (src.max_cones, L)
                answers.add(expected)
        assert True in answers and False in answers

    def test_dependent_target_raises_like_the_oracle(self):
        src = build_upsilon(FanFamily("A", 2))
        for dst, cone in ((_EXCHANGE_DEPENDENT, r"\(0, 2\)"), (_a2_with([(0, 1, 2)]), r"\(0, 1, 2\)")):
            for check in (fan_morphism_check, oracle_morphism_check):
                with pytest.raises(ValueError, match=f"cone {cone} has linearly dependent rays"):
                    check(src, dst, IntMatrix.identity(2))


class TestConeCountGuard:
    def test_largest_admitted_fans_build(self):
        assert len(build_upsilon(FanFamily("A", 14)).max_cones) == 2**14
        assert len(build_sigma_A(7).max_cones) == math.factorial(7)

    def test_guard_trips_before_building(self):
        with pytest.raises(ValueError, match=r"cone-count guard: A_15 has 2\^15 = 32768 "
                           r"maximal cones, above the bound _CONE_GUARD = 16384"):
            build_upsilon(FanFamily("A", 15))
        with pytest.raises(ValueError, match="SigmaA_8 has 8! = 40320 maximal cones"):
            build_sigma_A(8)
        with pytest.raises(ValueError, match="cone-count guard: A_16"):
            standard_fan_map("B", 8)

    def test_infer_family_skips_guarded_candidates(self):
        # Rank 7 with 2^8 - 2 rays makes SigmaA_8 a candidate, past the guard.
        rays = tuple((i + 1,) + (0,) * 6 for i in range(254))
        fan = StackyFan(7, rays, tuple(f"r{i}" for i in range(254)), ((0,),))
        assert fan_from_json(fan.to_json()).family is None


class TestGroupData:
    def test_dg_free_for_a(self):
        for n in range(1, 9):
            desc = dg_group(build_upsilon(FanFamily("A", n)))
            assert desc.free_rank == n and desc.torsion == ()

    def test_dg_free_for_c(self):
        for n in range(1, 6):
            desc = dg_group(build_upsilon(FanFamily("C", n)))
            assert desc.free_rank == n and desc.torsion == ()

    def test_dg_torsion_on_minus_fan(self):
        # The doubled generator makes the ray matrix non-surjective: a mu_2
        # factor appears in the acting group.
        for n in (2, 3, 4):
            desc = dg_group(build_upsilon(FanFamily("Cminus", n)))
            assert desc.free_rank == n - 1 and desc.torsion == (2,)

    def test_dg_b_family_stays_free(self):
        # The non-primitive type-B ray does not produce torsion: the block
        # matrix still surjects thanks to its identity block.  Stackiness
        # shows up in stabilizers, not in the acting group.
        desc = dg_group(build_upsilon(FanFamily("B", 2)))
        assert desc.free_rank == 2 and desc.torsion == ()

    def test_weight_matrix_examples(self):
        assert weight_matrix(build_upsilon(FanFamily("A", 1))).to_rows() == [[1, 2]]
        assert weight_matrix(build_upsilon(FanFamily("A", 2))).to_rows() == [
            [1, 0, 2, -1],
            [0, 1, -1, 2],
        ]
        w = weight_matrix(build_upsilon(FanFamily("C", 2)))
        assert w.to_rows() == [[1, 0, 2, -2], [0, 1, -1, 2]]

    def test_weights_kill_beta(self):
        for tag in ("A", "B", "Bcan", "C"):
            fan = build_upsilon(FanFamily(tag, 3))
            prod = weight_matrix(fan) * fan.beta.T
            assert all(x == 0 for x in prod.entries)

    def test_weights_fast_path_matches_general(self):
        # The (I | C^T) block presents the same character lattice as the
        # unimodular-transform construction: identical row lattices.
        fan = build_upsilon(FanFamily("C", 3))
        w_fast = weight_matrix(fan)
        general = StackyFan(fan.rank, fan.rays, fan.ray_labels, fan.max_cones)
        w_gen = weight_matrix(general)
        assert hnf(w_fast)[0].to_rows() == hnf(w_gen)[0].to_rows()

    def test_weight_torsion_error(self):
        with pytest.raises(WeightTorsionError):
            weight_matrix(build_upsilon(FanFamily("Cminus", 2)))

    def test_sigma_fan_weights(self):
        fan = build_sigma_A(3)
        desc = dg_group(fan)
        assert desc.torsion == ()
        w = weight_matrix(fan)
        assert w.rows == fan.num_rays - fan.rank
        prod = w * fan.beta.T
        assert all(x == 0 for x in prod.entries)


    def test_sigma_fan_weights_pinned(self):
        """The rows of the SigmaA weights are what a GroupElement's units
        mean to act on SigmaA fans, so they are pinned, not just a basis."""
        assert weight_matrix(build_sigma_A(3)).to_rows() == [
            [1, 1, 1, 0, 0, 0],
            [-1, -1, 0, 1, 0, 0],
            [0, 1, 0, 0, 1, 0],
            [1, 0, 0, 0, 0, 1],
        ]

    def test_group_errors(self):
        flat = StackyFan(2, ((1, 0), (2, 0)), ("x", "y"), ((0,), (1,)))
        for fn in (dg_group, weight_matrix):
            with pytest.raises(ValueError, match="^rays do not span the ambient space$"):
                fn(flat)
        torsion = StackyFan(1, ((2,), (-2,)), ("x", "y"), ((0,), (1,)))
        assert dg_group(torsion).to_dict() == {"free_rank": 1, "torsion": [2]}
        with pytest.raises(
            WeightTorsionError, match=r"^acting group has torsion \(2,\); no split weight matrix$"
        ):
            weight_matrix(torsion)


class TestMorphismsAndCanonicalStack:
    def test_identity_map(self):
        fan = build_upsilon(FanFamily("A", 2))
        assert fan_morphism_check(fan, fan, IntMatrix.identity(2))

    def test_negated_identity_fails(self):
        fan = build_upsilon(FanFamily("A", 2))
        neg = IntMatrix.from_rows([[-1, 0], [0, -1]])
        assert not fan_morphism_check(fan, fan, neg)

    def test_c_to_a_map(self):
        for n in (2, 3):
            L, src, dst = standard_fan_map("C", n)
            assert fan_morphism_check(src, dst, L)

    def test_b_to_a_map(self):
        for n in (1, 2, 3):
            L, src, dst = standard_fan_map("B", n)
            assert fan_morphism_check(src, dst, L)

    def test_c_map_ray_images(self):
        # tau generators map to sums of tau generators; the middle one to e_n
        L, src, dst = standard_fan_map("C", 2)
        assert L.mul_vector([1, 0]) == [1, 0, 1]
        assert L.mul_vector([0, 1]) == [0, 1, 0]

    def test_canonical_stack_b(self):
        for n in (2, 3, 4):
            can = canonical_stack(build_upsilon(FanFamily("B", n)))
            assert can.rays == build_upsilon(FanFamily("Bcan", n)).rays

    def test_canonical_stack_fixes_a(self):
        fan = build_upsilon(FanFamily("A", 3))
        assert canonical_stack(fan).rays == fan.rays

    def test_canonical_stack_idempotent(self):
        fan = build_upsilon(FanFamily("B", 3))
        once = canonical_stack(fan)
        assert canonical_stack(once).rays == once.rays

    def test_dimension_mismatch(self):
        fan2 = build_upsilon(FanFamily("A", 2))
        fan3 = build_upsilon(FanFamily("A", 3))
        with pytest.raises(ValueError):
            fan_morphism_check(fan2, fan3, IntMatrix.identity(2))


class TestJson:
    def test_round_trip(self):
        fan = build_upsilon(FanFamily("C", 2))
        data = json.loads(fan.to_json())
        assert set(data) == {"rank", "ray_labels", "rays", "max_cones"}
        back = fan_from_json(fan.to_json())
        assert back.rays == fan.rays
        assert back.max_cones == fan.max_cones
        assert back.family == FanFamily("C", 2)

    def test_round_trip_keeps_other_labels(self):
        data = json.loads(build_upsilon(FanFamily("Cminus", 3)).to_json())
        data["ray_labels"] = list("abcd")
        back = fan_from_json(json.dumps(data))
        assert back.family == FanFamily("Cminus", 3) and back.ray_labels == tuple("abcd")

    def test_rays_of_another_dimension_are_rejected(self):
        # 2 * rank rays, but of dimension 1: no candidate is built
        text = json.dumps({"rank": 300, "rays": [[1]] * 600, "ray_labels": ["r"] * 600,
                           "max_cones": []})
        with pytest.raises(ValueError, match="ray dimension mismatch"):
            fan_from_json(text)

    def test_sigma_round_trip(self):
        fan = build_sigma_A(3)
        back = fan_from_json(fan.to_json())
        assert back.family == FanFamily("SigmaA", 3)

    def test_deterministic(self):
        a = build_upsilon(FanFamily("A", 3)).to_json()
        b = build_upsilon(FanFamily("A", 3)).to_json()
        assert a == b
