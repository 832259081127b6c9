"""Permutohedral polytopes, chart sections, the symbolic identities, and the
point-level forgetting map."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from toricchains import losev_manin
from toricchains.chains import (
    orbit_equal_extended,
    point_from_polynomial,
    poly_from_roots,
    sigma_forget,
    sigma_section_values,
)
from toricchains.fields import GF, QQ
from toricchains.losev_manin import (
    ChartData,
    LatticePolytope,
    chart_certificate,
    chart_data,
    chart_section,
    delta_j,
    extreme_points,
    minkowski_sum,
    minkowski_sum_all,
    permutohedron,
    root_segment,
    s_n_generators,
    section_numerators,
    verify_a_data_cocycle,
    verify_cd_disjoint,
    verify_divisor_relation,
    verify_minkowski,
    verify_section_hyperplane,
)
from toricchains.orbit_points import FanPoint, is_nondegenerate, make_point, orbit_equal
from toricchains.root_fans import FanFamily, build_sigma_A, build_upsilon, sigma_subsets
from toricchains.symbolic import MultiPoly, RationalExpr

F11 = GF(11)


def _in_hull(v, pts):
    """Exact test v in conv(pts) by a phase-1 simplex over the rationals."""
    if not pts:
        return False
    d = len(v)
    m = len(pts)
    rows = d + 1
    A = [[Fraction(p[i]) for p in pts] for i in range(d)]
    A.append([Fraction(1)] * m)
    b = [Fraction(x) for x in v] + [Fraction(1)]
    for i in range(rows):
        if b[i] < 0:
            A[i] = [-x for x in A[i]]
            b[i] = -b[i]
    ncols = m + rows
    tableau = [
        A[i] + [Fraction(1 if j == i else 0) for j in range(rows)] + [b[i]]
        for i in range(rows)
    ]
    basis = list(range(m, m + rows))
    while True:
        w = sum(tableau[i][ncols] for i in range(rows) if basis[i] >= m)
        if w == 0:
            return True
        # Reduced costs for minimizing the sum of artificial variables.
        # Artificial columns never re-enter (standard phase-1), which keeps
        # Bland's anti-cycling guarantee intact.
        cost = [Fraction(0)] * m
        for i in range(rows):
            if basis[i] >= m:
                for j in range(m):
                    cost[j] += tableau[i][j]
        entering = None
        for j in range(m):
            if j in basis:
                continue
            if cost[j] > 0:
                entering = j  # Bland: smallest index
                break
        if entering is None:
            return False
        pivot_row = None
        best = None
        for i in range(rows):
            if tableau[i][entering] > 0:
                ratio = tableau[i][ncols] / tableau[i][entering]
                key = (ratio, basis[i])
                if best is None or key < best:
                    best = key
                    pivot_row = i
        if pivot_row is None:
            raise AssertionError("phase-1 simplex unbounded")
        piv = tableau[pivot_row][entering]
        tableau[pivot_row] = [x / piv for x in tableau[pivot_row]]
        for i in range(rows):
            if i != pivot_row and tableau[i][entering] != 0:
                f = tableau[i][entering]
                tableau[i] = [
                    x - f * y for x, y in zip(tableau[i], tableau[pivot_row])
                ]
        basis[pivot_row] = entering


def oracle_vertices(points):
    """The points outside the hull of the others: the vertex set, by LP."""
    pts = sorted(set(map(tuple, points)))
    return [p for p in pts if not _in_hull(p, [q for q in pts if q != p])]


def braid_vertices(dim, points):
    """The vertices by the braid-chamber certificate: the maximizer v_w of
    each permuted weight w of (n, ..., 1) must be unique; maximizers across
    a wall (adjacent values w_a = w_b + 1 swapped) must differ by
    c (u_a - u_b) with c >= 0; and every cut functional 1_S must have the
    same maximum over the points as over the v_w.  Raises ValueError
    otherwise."""
    pts = list({tuple(p) for p in points})
    n = dim + 1
    weights = list(itertools.permutations(range(n, 0, -1)))
    chamber = {}
    for w in weights:
        values = [sum((x - w[-1]) * c for x, c in zip(w, p)) for p in pts]
        top = max(values)
        if values.count(top) > 1:
            raise ValueError(f"{values.count(top)} points maximize the weight {w}")
        chamber[w] = pts[values.index(top)]
    for w in weights:
        for k in range(1, n):
            a, b = w.index(k + 1), w.index(k)
            swapped = list(w)
            swapped[a], swapped[b] = k, k + 1
            d = [x - y for x, y in zip(chamber[w], chamber[tuple(swapped)])]
            d.append(-sum(d))
            c = d[a]
            d[a], d[b] = 0, d[b] + c
            if c < 0 or any(d):
                raise ValueError(f"maximizers of {w} and {tuple(swapped)} differ by no multiple")
    vertices = sorted(set(chamber.values()))
    for mask in range(1, 2**n - 1):
        f = [((mask >> i) & 1) - (mask >> dim) for i in range(dim)]
        top = [max(sum(x * y for x, y in zip(f, p)) for p in ps) for ps in (pts, vertices)]
        if top[0] > top[1]:
            raise ValueError(f"a point exceeds the vertices' maximum of the cut functional {mask}")
    return vertices


def is_submodular(n, z):
    """z(S + a) + z(S + b) >= z(S) + z(S + a + b) for all S and a, b outside S."""
    return all(
        z[S | 1 << a] + z[S | 1 << b] >= z[S] + z[S | 1 << a | 1 << b]
        for S in range(2**n)
        for a, b in itertools.combinations(range(n), 2)
        if not (S >> a) & 1 and not (S >> b) & 1
    )


def root_coords(full):
    """sum_i x_i u_i with sum x_i = 0, in the basis u_i - u_n."""
    assert sum(full) == 0
    return tuple(full[:-1])


def permutohedron_points(n):
    """sum_k (n-1-k) u_sigma(k), less the identity ordering's point."""
    base = [n - 1 - k for k in range(n)]
    return [
        root_coords([base[sigma.index(i)] - base[i] for i in range(n)])
        for sigma in itertools.permutations(range(n))
    ]


def hypersimplex_points(n, j, shift=None):
    """sum_{i in J} u_i - (u_1 + ... + u_j) over |J| = j, plus a shift."""
    shift = shift or (0,) * (n - 1)
    out = []
    for J in itertools.combinations(range(n), j):
        full = [(i in J) - (i < j) for i in range(n)]
        out.append(tuple(a + s for a, s in zip(root_coords(full), shift)))
    return out


def segment_points(n, i, j):
    full = [(k == i) - (k == j) for k in range(n)]
    return [(0,) * (n - 1), root_coords(full)]


def sum_points(P, Q):
    return [tuple(map(sum, zip(p, q))) for p in P for q in Q]


def chart_section_oracle(n, sigma, j):
    """The chart section summed monomial by monomial, positions read off
    sigma for each subset I of values."""
    position = {v: i + 1 for i, v in enumerate(sigma)}
    poly = MultiPoly.zero(QQ, n - 1)
    for I in itertools.combinations(range(1, n + 1), j):
        positions = sorted(position[v] for v in I)
        exp = tuple(sum(1 for m in positions if m > i) - max(0, j - i) for i in range(1, n))
        poly = poly + MultiPoly.monomial(QQ, exp)
    return poly


def cd_disjoint_oracle(n, negative_control=False):
    """verify_cd_disjoint checked in each of the n! charts."""
    one = MultiPoly.const(QQ, n - 1, 1)
    for sigma in itertools.permutations(range(1, n + 1)):
        for j in range(1, n):
            section = chart_section_oracle(n, sigma, j)
            if negative_control:
                section = MultiPoly.variable(QQ, n - 1, j - 1) * section
            restricted = {e: c for e, c in section.terms.items() if e[j - 1] == 0}
            if MultiPoly(QQ, n - 1, restricted) != one:
                return False
    return True


def section_hyperplane_oracle(n, flip_signs=False):
    """verify_section_hyperplane checked in each of the n! charts, with
    rational expressions compared by cross-multiplication."""
    for sigma in itertools.permutations(range(1, n + 1)):
        sections = []
        for k in range(n + 1):
            num = MultiPoly.zero(QQ, n)
            for I in itertools.combinations(range(1, n + 1), k):
                num = num + MultiPoly.monomial(QQ, tuple(int(i + 1 in I) for i in range(n)))
            den_exp = [0] * n
            for l in range(1, k + 1):
                den_exp[sigma[l - 1] - 1] += 1
            sections.append(RationalExpr(num, MultiPoly.monomial(QQ, den_exp)))
        for i in range(1, n + 1):
            total = RationalExpr.const(QQ, n, 0)
            for k in range(n + 1):
                exp = [0] * n
                exp[sigma[i - 1] - 1] += i - k
                for l in range(1, k + 1):
                    exp[sigma[l - 1] - 1] += 1
                for l in range(1, i + 1):
                    exp[sigma[l - 1] - 1] -= 1
                # x^exp as a fraction, the negative exponents below the line
                monomial = RationalExpr(
                    MultiPoly.monomial(QQ, [max(e, 0) for e in exp]),
                    MultiPoly.monomial(QQ, [max(-e, 0) for e in exp]),
                )
                term = sections[k] * monomial
                if not flip_signs and k % 2:
                    term = -term
                total = total + term
            if not total.is_zero():
                return False
    return True


def min_intersection_oracle(n, J, k):
    """min over |I| = k of |I & J|, by direct enumeration."""
    if k == 0:
        return 0
    if k == n:
        return len(J)
    return min(len(J & frozenset(I)) for I in itertools.combinations(range(1, n + 1), k))


def divisor_relation_oracle(n, negative_control=False):
    """verify_divisor_relation on every ray subset J, ord_J by enumeration,
    with the closed form of its second difference asserted alongside."""
    for size in range(1, n):
        for J in itertools.combinations(range(1, n + 1), size):
            J = frozenset(J)
            for j in range(1, n):
                lhs = (
                    min_intersection_oracle(n, J, j - 1)
                    + min_intersection_oracle(n, J, j + 1)
                    - 2 * min_intersection_oracle(n, J, j)
                )
                d = j + size - n
                if lhs != max(0, d - 1) + max(0, d + 1) - 2 * max(0, d):
                    return False
                target = size == n - j + (1 if negative_control else 0)
                if lhs != (1 if target else 0):
                    return False
    return True


def cocycle_oracle(n, negative_control=False):
    """verify_a_data_cocycle with t_{ij} listed as a dict over all 2^n - 2
    subsets and the products merged dict by dict."""
    subsets = [frozenset(s) for s in sigma_subsets(n)]

    def t(i, j):
        return {I: 1 for I in subsets if i in I and j not in I}

    def merge(*dicts):
        out = {}
        for d in dicts:
            for key, e in d.items():
                out[key] = out.get(key, 0) + e
        return {k: v for k, v in out.items() if v}

    for i, j, k in itertools.permutations(range(1, n + 1), 3):
        if negative_control:
            lhs = merge(t(i, j), t(j, k), t(i, k))
            rhs = merge(t(j, i), t(k, j), t(k, i))
        else:
            lhs = merge(t(i, j), t(j, k), t(k, i))
            rhs = merge(t(j, i), t(k, j), t(i, k))
        if lhs != rhs:
            return False
    return True


class TestPolytopes:
    def test_permutohedron_counts(self):
        for n in (2, 3, 4, 5):
            assert permutohedron(n).num_vertices == math.factorial(n)

    def test_permutohedron_n2_is_segment(self):
        p = permutohedron(2)
        assert p.vertices in (((-1,), (0,)), ((0,), (1,)))
        # lattice length one through the chosen base vertex
        assert (0,) in p.vertices

    def test_delta_counts(self):
        for n in (3, 4, 5):
            for j in range(1, n):
                assert delta_j(n, j).num_vertices == math.comb(n, j)

    def test_delta_32_triangle(self):
        assert delta_j(3, 2).num_vertices == 3

    def test_delta_42_octahedron(self):
        assert delta_j(4, 2).num_vertices == 6

    def test_minkowski_with_origin(self):
        p = delta_j(3, 1)
        origin = LatticePolytope.from_points(2, [(0, 0)])
        assert minkowski_sum(p, origin).vertices == p.vertices

    def test_hypersimplex_decomposition(self):
        for n in (2, 3, 4):
            total = minkowski_sum_all([delta_j(n, j) for j in range(1, n)])
            assert total.vertices == permutohedron(n).vertices

    def test_segment_decomposition(self):
        for n in (2, 3, 4):
            segs = [
                root_segment(n, j, k)
                for j in range(1, n + 1)
                for k in range(1, j)
            ]
            assert len(segs) == math.comb(n, 2)
            assert minkowski_sum_all(segs).vertices == permutohedron(n).vertices

    def test_verify_minkowski(self):
        for n in (2, 3, 4, 5):
            assert verify_minkowski(n)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            minkowski_sum(permutohedron(3), permutohedron(4))

    def test_translate_length_mismatch_raises(self):
        # a longer translation is an error, not cut to the ambient dimension
        message = r"\(5, 6, 7\) has length 3, expected the ambient dimension 2"
        with pytest.raises(ValueError, match=message):
            permutohedron(3).translate((5, 6, 7))

    def test_short_points_raise(self):
        message = r"\(0,\) has length 1, expected the ambient dimension 2"
        with pytest.raises(ValueError, match=message):
            extreme_points(2, [(0,), (1,)])

    def test_long_points_raise(self):
        # not "not a generalized permutohedron": the length is named first
        message = r"\(0, 0, 7\) has length 3, expected the ambient dimension 2"
        with pytest.raises(ValueError, match=message):
            extreme_points(2, [(0, 0, 7), (1, 0, 7)])

    def test_translate_adds_the_shift_to_every_vertex(self):
        p = delta_j(4, 2)
        moved = p.translate((1, -2, 5))
        assert moved.vertices == tuple(sorted((a + 1, b - 2, c + 5) for a, b, c in p.vertices))
        assert moved.translate((-1, 2, -5)) == p

    def test_extreme_points_interior(self):
        assert extreme_points(2, [(0, 0), (3, 0), (0, 3), (1, 1)]) == [
            (0, 0),
            (0, 3),
            (3, 0),
        ]

    def test_extreme_points_collinear(self):
        assert extreme_points(1, [(0,), (1,), (2,), (5,)]) == [(0,), (5,)]

    def test_vertex_invariant_stored(self):
        # from_points never stores interior or duplicate points
        p = LatticePolytope.from_points(2, [(0, 0), (2, 0), (0, 2), (1, 0), (2, 0)])
        assert p.vertices == ((0, 0), (0, 2), (2, 0))



class TestVertexCertificate:
    """extreme_points and the closed-form cut vectors against two oracles,
    the simplex and the braid-chamber certificate, and negative controls
    for the greedy leg."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_constructors_match_oracle(self, n):
        cases = [(permutohedron(n), permutohedron_points(n))]
        cases += [(delta_j(n, j), hypersimplex_points(n, j)) for j in range(1, n)]
        cases += [
            (root_segment(n, i + 1, j + 1), segment_points(n, i, j))
            for i, j in itertools.permutations(range(n), 2)
        ]
        for polytope, points in cases:
            vertices = oracle_vertices(points)
            assert braid_vertices(n - 1, points) == vertices
            assert extreme_points(n - 1, points) == vertices
            assert list(polytope.vertices) == vertices

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_closed_form_cuts_match_from_points(self, n):
        cases = [(permutohedron(n), permutohedron_points(n))]
        cases += [(delta_j(n, j), hypersimplex_points(n, j)) for j in range(1, n)]
        cases += [
            (root_segment(n, i + 1, j + 1), segment_points(n, i, j))
            for i, j in itertools.permutations(range(n), 2)
        ]
        for polytope, points in cases:
            assert polytope.cuts == LatticePolytope.from_points(n - 1, points).cuts
            assert is_submodular(n, polytope.cuts)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_sums_match_oracle(self, seed):
        # sums of root segments and hypersimplex translates, summed both as
        # point sets (checked by the oracle) and by minkowski_sum
        rng = random.Random(seed)
        n = rng.randint(3, 5)
        points = [(0,) * (n - 1)]
        polytope = LatticePolytope.from_points(n - 1, [(0,) * (n - 1)])
        for _ in range(rng.randint(2, 3)):
            if rng.random() < 0.6:
                i, j = rng.sample(range(n), 2)
                summand, term = segment_points(n, i, j), root_segment(n, i + 1, j + 1)
            else:
                j = rng.randint(1, n - 1)
                shift = tuple(rng.randint(-3, 3) for _ in range(n - 1))
                summand, term = hypersimplex_points(n, j, shift), delta_j(n, j).translate(shift)
            points = sum_points(points, summand)
            polytope = minkowski_sum(polytope, term)
        vertices = oracle_vertices(points)
        assert braid_vertices(n - 1, points) == vertices
        assert extreme_points(n - 1, points) == vertices
        assert list(polytope.vertices) == vertices
        assert polytope == LatticePolytope.from_points(n - 1, points)

    def test_arbitrary_point_sets_raise_or_match_oracle(self):
        rng = random.Random(3)
        outcomes = set()
        for _ in range(150):
            points = [
                (rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(1, 6))
            ]
            try:
                vertices = extreme_points(2, points)
            except ValueError as exc:
                assert "not a generalized permutohedron" in str(exc)
                with pytest.raises(ValueError):
                    braid_vertices(2, points)
                outcomes.add("raised")
            else:
                assert vertices == oracle_vertices(points) == braid_vertices(2, points)
                assert is_submodular(3, LatticePolytope.from_points(2, points).cuts)
                outcomes.add("answered")
        assert outcomes == {"raised", "answered"}

    def test_tie_raises(self):
        # (1, 0) and (0, 2) both take the maximum 2 of the weight (3, 2, 1);
        # the greedy vector (1, 1) of the order 1, 2, 3 is not a point
        points = [(0, 0), (1, 0), (0, 2)]
        with pytest.raises(ValueError, match="2 points maximize the weight"):
            braid_vertices(2, points)
        with pytest.raises(ValueError, match=r"greedy vector \(1, 1\) .* not one of the points"):
            extreme_points(2, points)

    def test_off_root_edge_raises(self):
        # unique maximizers, but the edge from (0, 0) to (2, 1) is not along
        # a root; the greedy vector (0, 2) of the order 2, 3, 1 is not a point
        points = [(0, 0), (2, 1), (1, 2)]
        with pytest.raises(ValueError, match="differ by no multiple"):
            braid_vertices(2, points)
        with pytest.raises(ValueError, match=r"greedy vector \(0, 2\) .* not one of the points"):
            extreme_points(2, points)

    def test_cut_only_raises(self):
        # (-18, 5) maximizes no permuted weight, so the maximizers pass the
        # first two braid legs, yet it is a vertex of the hull: only the cut
        # inequalities see it.  It raises z({2, 3}) from 16 to 18, so the
        # greedy vectors (-18, 8) and (-18, 2) of the orders 2, 3, 1 and
        # 3, 2, 1 are not points
        points = [tuple(8 * x for x in v) for v in permutohedron(3).vertices] + [(-18, 5)]
        assert (-18, 5) in oracle_vertices(points)
        with pytest.raises(ValueError, match="cut functional"):
            braid_vertices(2, points)
        with pytest.raises(ValueError, match=r"greedy vector \(-18, 2\) .* not one of the points"):
            extreme_points(2, points)

    def test_dimension_guard(self):
        message = "dimension guard: ambient dimension 7 exceeds the bound 6"
        with pytest.raises(ValueError, match=message):
            extreme_points(7, [(0,) * 7])
        for build, args in ((permutohedron, (8,)), (delta_j, (8, 3)), (root_segment, (8, 1, 2))):
            with pytest.raises(ValueError, match=message):
                build(*args)


class TestChartSections:
    def test_n2(self):
        assert chart_section(2, (1, 2), 1) == {(1,): 1, (0,): 1}  # t_1 + 1

    def test_n3(self):
        # t_1 t_2 + t_1 + 1
        assert chart_section(3, (1, 2, 3), 1) == {(1, 1): 1, (1, 0): 1, (0, 0): 1}

    def test_constant_term_and_unit_coefficients(self):
        for n in (2, 3, 4):
            for sigma in itertools.permutations(range(1, n + 1)):
                for j in range(1, n):
                    poly = chart_section(n, sigma, j)
                    assert poly[(0,) * (n - 1)] == 1
                    assert all(c == 1 for c in poly.values())
                    assert len(poly) == math.comb(n, j)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            chart_section(3, (1, 2, 2), 1)
        with pytest.raises(ValueError):
            chart_section(3, (1, 2, 3), 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_oracle_in_every_chart(self, n):
        for sigma in itertools.permutations(range(1, n + 1)):
            for j in range(1, n):
                assert chart_section(n, sigma, j) == chart_section_oracle(n, sigma, j).terms


class TestChartCertificate:
    @staticmethod
    def parts(n):
        identity = chart_data(n, tuple(range(1, n + 1)))
        generators = {g: chart_data(n, g) for g in s_n_generators(n)}
        return list(section_numerators(n)), identity, generators

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_accepts_built_data(self, n):
        assert chart_certificate(*self.parts(n))

    def test_chart_data_is_the_relabelling_for_every_sigma(self):
        for n in (2, 3, 4, 5):
            identity = chart_data(n, tuple(range(1, n + 1)))
            for sigma in itertools.permutations(range(1, n + 1)):
                assert chart_data(n, sigma) == identity.relabel(sigma)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rejects_numerator_with_a_subset_dropped(self, n):
        for k in range(1, n):
            for drop in range(math.comb(n, k)):
                numerators, identity, generators = self.parts(n)
                numerators[k] = numerators[k][:drop] + numerators[k][drop + 1:]
                assert not chart_certificate(numerators, identity, generators)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rejects_chart_with_a_y_index_moved(self, n):
        for g in s_n_generators(n):
            for i, k in itertools.product(range(n), range(n + 1)):
                numerators, identity, generators = self.parts(n)
                data = generators[g]
                e = list(data.y[i][k])
                a = next((t for t in range(n) if e[t]), 0)
                e[a] -= 1
                e[(a + 1) % n] += 1
                row = data.y[i][:k] + (tuple(e),) + data.y[i][k + 1:]
                y = data.y[:i] + (row,) + data.y[i + 1:]
                generators[g] = ChartData(data.denominators, data.coordinates, y)
                assert not chart_certificate(numerators, identity, generators)


class TestIdentities:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cd_disjoint_matches_oracle(self, n):
        assert verify_cd_disjoint(n) is cd_disjoint_oracle(n) is True
        assert verify_cd_disjoint(n, negative_control=True) is False
        assert cd_disjoint_oracle(n, negative_control=True) is False

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_hyperplane_matches_oracle(self, n):
        assert verify_section_hyperplane(n) is section_hyperplane_oracle(n) is True
        assert verify_section_hyperplane(n, flip_signs=True) is False
        assert section_hyperplane_oracle(n, flip_signs=True) is False

    def test_identities_beyond_the_oracle(self):
        for n in range(6, 11):
            assert verify_cd_disjoint(n) and verify_section_hyperplane(n)
            assert not verify_cd_disjoint(n, negative_control=True)
            assert not verify_section_hyperplane(n, flip_signs=True)

    def test_chart_size_guard(self):
        message = r"chart-size guard: n = 15 gives 2\^15 = 32768 subset monomials, above the bound 16384"
        for check in (verify_cd_disjoint, verify_section_hyperplane):
            with pytest.raises(ValueError, match=message):
                check(15)
        with pytest.raises(ValueError, match=message):
            chart_section(15, tuple(range(1, 16)), 1)

    def test_cd_disjoint(self):
        for n in (2, 3, 4, 5):
            assert verify_cd_disjoint(n)

    def test_cd_disjoint_negative(self):
        assert not verify_cd_disjoint(3, negative_control=True)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_min_intersection_closed_form(self, n):
        for size in range(n + 1):
            for J in itertools.combinations(range(1, n + 1), size):
                for k in range(n + 1):
                    expected = min_intersection_oracle(n, frozenset(J), k)
                    assert losev_manin._min_intersection_size(n, size, k) == expected

    @pytest.mark.parametrize("n", range(2, 9))
    def test_off_by_one_closed_form_disagrees(self, n, monkeypatch):
        def shifted(n, size, k):
            return max(0, k + size - n + 1)

        assert any(
            shifted(n, size, k) != min_intersection_oracle(n, frozenset(range(1, size + 1)), k)
            for size in range(n + 1) for k in range(n + 1)
        )
        monkeypatch.setattr(losev_manin, "_min_intersection_size", shifted)
        assert not verify_divisor_relation(n)

    @pytest.mark.parametrize("negative_control", [False, True])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_divisor_relation_matches_oracle(self, n, negative_control):
        expected = not negative_control
        assert verify_divisor_relation(n, negative_control) is expected
        assert divisor_relation_oracle(n, negative_control) is expected

    def test_hyperplane(self):
        for n in (2, 3, 4):
            assert verify_section_hyperplane(n)

    def test_hyperplane_negative(self):
        assert not verify_section_hyperplane(3, flip_signs=True)

    @pytest.mark.parametrize("negative_control", [False, True])
    @pytest.mark.parametrize("n", range(3, 8))
    def test_cocycle_matches_oracle(self, n, negative_control):
        expected = not negative_control
        assert verify_a_data_cocycle(n, negative_control) is expected
        assert cocycle_oracle(n, negative_control) is expected

    @pytest.mark.parametrize("n", range(3, 9))
    def test_traces_are_the_enumerated_traces(self, n):
        for triple in itertools.permutations(range(1, n + 1), 3):
            traces = {tuple(int(v in I) for v in triple) for I in sigma_subsets(n)}
            assert traces == set(losev_manin._cocycle_traces(n)), triple

    def test_trace_set_decides_the_negative_control(self, monkeypatch):
        # The control's sides differ exactly on the traces that split i from
        # k.  Without all four of them the control passes; any one of them
        # left in, (1, 0, 0) included, makes it fail.
        split = {(1, 0, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)}
        full = losev_manin._cocycle_traces(4)
        monkeypatch.setattr(losev_manin, "_cocycle_traces",
                            lambda n: [p for p in full if p not in split])
        assert verify_a_data_cocycle(4, negative_control=True)
        for kept in split:
            monkeypatch.setattr(losev_manin, "_cocycle_traces",
                                lambda n, kept=kept: [p for p in full if p not in split - {kept}])
            assert not verify_a_data_cocycle(4, negative_control=True), kept

    def test_certificates_beyond_the_oracle(self):
        # Sizes past the oracles' reach: 2^40 - 2 ray subsets J, and six
        # subset dicts of 4094 entries for each of 1320 triples.
        assert verify_divisor_relation(40)
        assert not verify_divisor_relation(40, negative_control=True)
        assert verify_a_data_cocycle(12)
        assert not verify_a_data_cocycle(12, negative_control=True)


def _sigma_point(n, field, values):
    """The point of the SigmaA fan with the value values[I] on the ray of I."""
    return make_point(build_sigma_A(n), field, [values[frozenset(s)] for s in sigma_subsets(n)])


def _relabel(p, perm):
    """The S_n action on a point of the SigmaA fan: the value on the ray of I
    moves to the ray of perm(I)."""
    subsets = [frozenset(s) for s in sigma_subsets(p.fan.family.n)]
    index = {s: i for i, s in enumerate(subsets)}
    new = [None] * len(subsets)
    for s, val in zip(subsets, p.coords):
        new[index[frozenset(perm[i] for i in s)]] = val
    return FanPoint(p.fan, p.field, tuple(new))


class TestSigmaForget:
    def test_all_ones(self):
        n = 3
        subsets = sigma_subsets(n)
        e = sigma_forget(_sigma_point(n, F11, {frozenset(s): 1 for s in subsets}))
        assert e.c == (1, 3, 3, 1)  # binomial coefficients
        assert e.b == (1, 1)

    def test_n2_weighted_map(self):
        p = _sigma_point(2, QQ, {frozenset({1}): Fraction(5), frozenset({2}): Fraction(7)})
        e = sigma_forget(p)
        assert e.c == (Fraction(1), Fraction(12), Fraction(1))
        assert e.b == (Fraction(35),)

    def test_degenerate_rejected(self):
        n = 3
        fan = build_sigma_A(n)
        p = FanPoint(fan, F11, (F11.zero,) * fan.num_rays)
        with pytest.raises(ValueError, match="degenerate collection"):
            sigma_forget(p)

    def test_other_fans_rejected(self):
        p = make_point(build_upsilon(FanFamily("A", 2)), F11, [1, 1, 1, 1])
        for forget in (sigma_forget, sigma_section_values):
            with pytest.raises(ValueError, match="a point of the SigmaA fan"):
                forget(p)

    def test_torus_consistency_oracle(self):
        # on the torus locus the image agrees with the polynomial whose
        # roots are the section values
        rng = random.Random(9)
        for _ in range(25):
            n = 3
            subsets = sigma_subsets(n)
            p = _sigma_point(n, F11, {frozenset(s): rng.randint(1, 10) for s in subsets})
            e = sigma_forget(p)
            xs = sigma_section_values(p)
            e2 = point_from_polynomial(poly_from_roots(xs, F11), F11)
            assert orbit_equal_extended(e, e2)

    def test_relabeling_invariance(self):
        # permuting the label set fixes the image exactly, hence up to orbit
        rng = random.Random(10)
        n = 3
        fan = build_sigma_A(n)
        for _ in range(15):
            p = FanPoint(fan, F11, tuple(F11.of(rng.randint(0, 10)) for _ in sigma_subsets(n)))
            if not is_nondegenerate(p.fan, p.coords, p.field):
                continue
            for perm in itertools.permutations(range(1, n + 1)):
                relabeled = _relabel(p, {i + 1: perm[i] for i in range(n)})
                e1, e2 = sigma_forget(p), sigma_forget(relabeled)
                assert e1.c == e2.c and e1.b == e2.b
                assert orbit_equal_extended(e1, e2)

    def test_boundary_image_nondegenerate(self):
        # flag-degenerate inputs still push to nondegenerate chain data
        n = 3
        subsets = sigma_subsets(n)
        values = {frozenset(s): 1 for s in subsets}
        values[frozenset({1})] = 0
        values[frozenset({1, 2})] = 0
        p = _sigma_point(n, F11, values)
        assert is_nondegenerate(p.fan, p.coords, p.field)
        e = sigma_forget(p)  # constructor validates nondegeneracy
        std = e.to_standard()
        assert std.fan.family.tag == "A"

    def test_fan_point_view(self):
        # sigma_forget reads the value w_I off the ray of I: the rays of the
        # SigmaA fan are the vectors sum_{i in I} e_i, e_n = -(e_1 + ... +
        # e_{n-1}), in sigma_subsets order
        n = 3
        e = [(1, 0), (0, 1), (-1, -1)]
        rays = [tuple(map(sum, zip(*(e[i - 1] for i in s)))) for s in sigma_subsets(n)]
        assert list(build_sigma_A(n).rays) == rays

    def test_chart_values_match_forgetting_image(self):
        # Numerically tie three descriptions together on the torus locus:
        # the chart sections evaluated at t_i = x_{i+1}/x_i equal the ratios
        # (sum_{|I|=j} x_I)/x_{1..j}, and the (flipped) tuple of those chart
        # values is the forgetting image of the collection.
        rng = random.Random(14)
        for n in (3, 4):
            subsets = sigma_subsets(n)
            fan = build_upsilon(FanFamily("A", n - 1))
            for _ in range(10):
                p = _sigma_point(n, F11, {frozenset(s): rng.randint(1, 10) for s in subsets})
                xs = sigma_section_values(p)
                ts = [F11.div(xs[i + 1], xs[i]) for i in range(n - 1)]
                chart_a = []
                for j in range(1, n):
                    section = chart_section(n, tuple(range(1, n + 1)), j)
                    val = F11.zero
                    for exp in section:  # every coefficient is 1
                        term = F11.one
                        for t, e in zip(ts, exp):
                            term = F11.mul(term, F11.pow(t, e))
                        val = F11.add(val, term)
                    prefix = F11.one
                    for i in range(j):
                        prefix = F11.mul(prefix, xs[i])
                    esym = F11.zero
                    for I in itertools.combinations(range(n), j):
                        term = F11.one
                        for i in I:
                            term = F11.mul(term, xs[i])
                        esym = F11.add(esym, term)
                    assert val == F11.div(esym, prefix)
                    chart_a.append(val)
                chart_b = ts
                flipped = list(reversed(chart_a)) + list(reversed(chart_b))
                q = sigma_forget(p).to_standard()
                assert orbit_equal(make_point(fan, F11, flipped), q)
