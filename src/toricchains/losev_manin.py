"""Permutohedral geometry and the section identities of the label-forgetting
map.

Lattice polytopes live in the root-lattice coordinates obtained by dropping
the last basis vector of Z^n (so a point sum_i a_i u_i with sum a_i = 0 is
stored as (a_1, ..., a_{n-1})).  Every polytope here (the permutohedron,
the hypersimplices, the root segments and their Minkowski sums) is a
generalized permutohedron: its normal fan coarsens the braid fan (Postnikov,
"Permutohedra, associahedra, and beyond").  Its vertices are therefore the
maximizers of the n! permuted weights, and extreme_points reads them off
with an exact certificate (unique maximizers, root-direction edges, cut
inequalities) that raises instead of answering for any other point set.
No linear program is solved.  A dimension guard, checked before any point
is built, bounds the n! passes.

The symbolic checks verify the divisor valuation identity, the disjointness
of the section and boundary divisors, the three-term cocycle of root-indexed
sections, and the telescoping hyperplane identity behind the degree-n!
covering.  The chart sections (sum_{|I|=j} x_I)/x_{sigma(1..j)} live on the
n! charts of the permutohedral variety, with coordinates
t_i = x_{sigma(i+1)}/x_{sigma(i)}.  The identities are checked on the
identity chart only, as exponent -> coefficient dicts over the integers: the
disjointness on chart_section, the hyperplane identity as one Laurent
polynomial per marked index.  chart_certificate carries them to the other
charts: the numerators are fixed by the generators (1 2) and (1 2 ... n) of
S_n, and each generator's chart data is its relabelling x_t -> x_{sigma(t)}
of the identity chart's data.  A chart-size guard bounds the 2^n subsets
that the checks list.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from operator import add, mul, sub
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .chains import ExtendedPoint
from .fields import Element, Field, QQ
from .orbit_points import is_nondegenerate
from .root_fans import StackyFan, build_sigma_A, sigma_subsets
from .symbolic import Exponent, MultiPoly

_DIM_GUARD = 6
_CHART_GUARD = 2**14


# ---------------------------------------------------------------------------
# Generalized permutohedra
# ---------------------------------------------------------------------------


def _check_dim(dim: int) -> None:
    """The certificate costs (dim+1)! passes over the points."""
    if dim > _DIM_GUARD:
        raise ValueError(
            f"polytope dimension guard: ambient dimension {dim} exceeds the bound {_DIM_GUARD}"
        )


@functools.lru_cache(maxsize=None)
def _braid_chambers(n: int):
    """The permuted weights w of (n, ..., 1), their functionals w_i - w_n in
    root coordinates, and the walls between them: (i, j, a, b) when weight j
    is weight i with its values w_a = w_b + 1 swapped."""
    weights = list(itertools.permutations(range(n, 0, -1)))
    index = {w: i for i, w in enumerate(weights)}
    walls = []
    for i, w in enumerate(weights):
        for k in range(1, n):
            a, b = w.index(k + 1), w.index(k)
            swapped = list(w)
            swapped[a], swapped[b] = k, k + 1
            walls.append((i, index[tuple(swapped)], a, b))
    functionals = [tuple(x - w[-1] for x in w[:-1]) for w in weights]
    return weights, functionals, walls


def extreme_points(dim: int, points: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
    """The vertices of conv(points), for a hull whose normal fan coarsens the
    braid fan (a generalized permutohedron), by an exact certificate.

    With n = dim + 1, let v_w be the maximizer over the points of each
    permuted weight w of (n, ..., 1), read in root coordinates as the
    functional w_i - w_n.  The points pass when
      1. every v_w is the unique maximizer of w;
      2. for w' = w with the adjacent values w_a = w_b + 1 swapped,
         v_w - v_w' = c (u_a - u_b) with c >= 0 (the edge condition of
         Postnikov-Reiner-Williams, "Faces of generalized permutohedra");
      3. every cut functional 1_S has the same maximum over the points as
         over the v_w.
    By 1 and 2 the v_w are the vertices of a generalized permutohedron P;
    P is cut out by the inequalities of its cut functionals, so by 3 every
    point lies in P.  Any failure raises ValueError, never a wrong answer.
    """
    _check_dim(dim)
    pts = list({tuple(map(int, p)) for p in points})
    if not pts:
        return []
    n = dim + 1
    weights, functionals, walls = _braid_chambers(n)
    chamber = []
    for w, f in zip(weights, functionals):
        values = [sum(map(mul, f, p)) for p in pts]
        top = max(values)
        ties = values.count(top)
        if ties > 1:
            raise ValueError(
                f"not a generalized permutohedron: {ties} points maximize the weight {w}"
            )
        chamber.append(pts[values.index(top)])
    for i, j, a, b in walls:
        if chamber[i] == chamber[j]:
            continue
        d = [x - y for x, y in zip(chamber[i], chamber[j])]
        d.append(-sum(d))
        c = d[a]
        d[a], d[b] = 0, d[b] + c
        if c < 0 or any(d):
            raise ValueError(
                f"not a generalized permutohedron: the maximizers of {weights[i]} and "
                f"{weights[j]} differ by no multiple c >= 0 of u_{a + 1} - u_{b + 1}"
            )
    vertices = sorted(set(chamber))
    for mask in range(1, 2**n - 1):
        f = tuple(((mask >> i) & 1) - (mask >> dim) for i in range(dim))
        if max(sum(map(mul, f, p)) for p in pts) > max(sum(map(mul, f, v)) for v in vertices):
            cut = [i + 1 for i in range(n) if (mask >> i) & 1]
            raise ValueError(
                f"not a generalized permutohedron: a point exceeds the vertices' "
                f"maximum of the cut functional on {cut}"
            )
    return vertices


@dataclass(frozen=True)
class LatticePolytope:
    """Convex lattice polytope stored by its sorted extreme points."""

    ambient_dim: int
    vertices: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        for v in self.vertices:
            if len(v) != self.ambient_dim:
                raise ValueError("vertex dimension mismatch")

    @staticmethod
    def from_points(dim: int, points: Sequence[Sequence[int]]) -> "LatticePolytope":
        return LatticePolytope(dim, tuple(extreme_points(dim, points)))

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def translate(self, vector: Sequence[int]) -> "LatticePolytope":
        return LatticePolytope(
            self.ambient_dim,
            tuple(
                sorted(tuple(x + t for x, t in zip(v, vector)) for v in self.vertices)
            ),
        )

    def to_dict(self) -> dict:
        return {"ambient_dim": self.ambient_dim, "vertices": [list(v) for v in self.vertices]}


def permutohedron(n: int) -> LatticePolytope:
    """Convex hull of the orbit of (n-1, n-2, ..., 0) weights, translated so
    the identity-ordering vertex is the origin: the points sum_i (i - pi(i)) u_i
    over the permutations pi of the positions."""
    if n < 2:
        raise ValueError("n >= 2 required")
    _check_dim(n - 1)
    points = [
        tuple(i - pi[i] for i in range(n - 1)) for pi in itertools.permutations(range(n))
    ]
    return LatticePolytope.from_points(n - 1, points)


def delta_j(n: int, j: int) -> LatticePolytope:
    """Hypersimplex translate: hull of sum_{i in J} u_i - (u_1 + ... + u_j)
    over all j-element subsets J."""
    if not 1 <= j <= n - 1:
        raise ValueError("need 1 <= j <= n-1")
    _check_dim(n - 1)
    points = [
        tuple((i in J) - (i < j) for i in range(n - 1))
        for J in itertools.combinations(range(n), j)
    ]
    return LatticePolytope.from_points(n - 1, points)


def root_segment(n: int, i: int, j: int) -> LatticePolytope:
    """The segment from the origin to the root u_i - u_j."""
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("need distinct indices in range")
    _check_dim(n - 1)
    root = tuple((k == i) - (k == j) for k in range(1, n))
    return LatticePolytope.from_points(n - 1, [(0,) * (n - 1), root])


def minkowski_sum(P: LatticePolytope, Q: LatticePolytope) -> LatticePolytope:
    if P.ambient_dim != Q.ambient_dim:
        raise ValueError("ambient dimensions differ")
    sums = [tuple(a + b for a, b in zip(p, q)) for p in P.vertices for q in Q.vertices]
    return LatticePolytope.from_points(P.ambient_dim, sums)


def minkowski_sum_all(polys: Sequence[LatticePolytope]) -> LatticePolytope:
    return functools.reduce(minkowski_sum, polys)


def permutohedron_decompositions(n: int) -> Tuple[LatticePolytope, bool]:
    """The permutohedron, and whether both its decompositions hold by exact
    vertex equality: as the sum of the hypersimplex translates, and as the
    sum of the root segments l_{i_j i_k} for k < j under the identity
    ordering."""
    perm = permutohedron(n)
    hyper = minkowski_sum_all([delta_j(n, j) for j in range(1, n)])
    if hyper.vertices != perm.vertices:
        return perm, False
    segments = [root_segment(n, j, k) for j in range(1, n + 1) for k in range(1, j)]
    return perm, minkowski_sum_all(segments).vertices == perm.vertices


def verify_minkowski(n: int) -> bool:
    """Both decompositions of the permutohedron hold."""
    return permutohedron_decompositions(n)[1]


# ---------------------------------------------------------------------------
# Product-of-projective-spaces relations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SectionRelation:
    """A monomial identity prod x_{J_i} = prod x_{J'_i} between sections."""

    lhs: Tuple[FrozenSet[int], ...]
    rhs: Tuple[FrozenSet[int], ...]


def _chi_sum(subsets: Sequence[FrozenSet[int]], n: int) -> Tuple[int, ...]:
    return tuple(sum(1 for s in subsets if i in s) for i in range(1, n + 1))


def relations_generator(n: int, l_max: int) -> List[SectionRelation]:
    """All relations of length at most l_max: multisets of proper nonempty
    subsets, sizewise matched, with equal characteristic-function sums and
    distinct sides.  Each emitted relation is a monomial identity."""
    if n < 2 or l_max < 2:
        raise ValueError("need n >= 2 and l_max >= 2")
    subsets = [frozenset(s) for s in sigma_subsets(n)]
    key = lambda s: (len(s), tuple(sorted(s)))
    out = []
    seen = set()
    for l in range(2, l_max + 1):
        for lhs in itertools.combinations_with_replacement(sorted(subsets, key=key), l):
            sizes = tuple(len(s) for s in lhs)
            chi = _chi_sum(lhs, n)
            for rhs in itertools.combinations_with_replacement(
                sorted(subsets, key=key), l
            ):
                if tuple(len(s) for s in rhs) != sizes:
                    continue
                if rhs == lhs:
                    continue
                if _chi_sum(rhs, n) != chi:
                    continue
                pair = tuple(sorted((tuple(sorted(map(key, lhs))), tuple(sorted(map(key, rhs))))))
                if pair in seen:
                    continue
                seen.add(pair)
                out.append(SectionRelation(tuple(lhs), tuple(rhs)))
    return out


def relation_holds(rel: SectionRelation, n: int) -> bool:
    """Substitute x_J = prod_{i in J} x_i and compare monomials."""
    f = QQ
    lhs = MultiPoly.const(f, n, 1)
    for s in rel.lhs:
        lhs = lhs * MultiPoly.monomial(f, tuple(1 if i + 1 in s else 0 for i in range(n)))
    rhs = MultiPoly.const(f, n, 1)
    for s in rel.rhs:
        rhs = rhs * MultiPoly.monomial(f, tuple(1 if i + 1 in s else 0 for i in range(n)))
    return (lhs - rhs).is_zero()


# ---------------------------------------------------------------------------
# Chart sections and symbolic identities
# ---------------------------------------------------------------------------


def chart_section(n: int, sigma: Sequence[int], j: int) -> MultiPoly:
    """(sum_{|I|=j} x_I) / x_{sigma(1..j)} written in the chart coordinates
    t_i = x_{sigma(i+1)}/x_{sigma(i)}: a polynomial with all coefficients 1
    and constant term 1.

    The subset I contributes prod_i t_i^(min(i, j) - |P & {1..i}|) with
    P = {positions of I in sigma}.  As I runs over the j-subsets so does P,
    so one pass over the j-subsets of positions gives every term, and the
    polynomial is the same for every sigma."""
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError("sigma must be a permutation of 1..n")
    if not 1 <= j <= n - 1:
        raise ValueError("need 1 <= j <= n-1")
    _check_chart_size(n)
    terms: Dict[Exponent, int] = {}
    for positions in itertools.combinations(range(1, n + 1), j):
        exp = tuple(min(i, j) - bisect.bisect_right(positions, i) for i in range(1, n))
        terms[exp] = terms.get(exp, 0) + 1
    return MultiPoly(QQ, n - 1, {e: QQ.of(c) for e, c in terms.items()})


def _check_chart_size(n: int) -> None:
    """The identity checks list the 2^n subsets of {1..n}."""
    if 2**n > _CHART_GUARD:
        raise ValueError(
            f"chart-size guard: n = {n} gives 2^{n} = {2**n} subset monomials, "
            f"above the bound {_CHART_GUARD}"
        )


def _relabel(sigma: Sequence[int], exp: Exponent) -> Exponent:
    """The exponent vector of x^exp under x_t -> x_{sigma(t)}."""
    out = [0] * len(exp)
    for t, e in zip(sigma, exp):
        out[t - 1] = e
    return tuple(out)


@dataclass(frozen=True)
class ChartData:
    """Exponent vectors over x_1..x_n that the chart sigma contributes to the
    section identities: the denominators x_{sigma(1..k)} (k = 0..n), the
    chart coordinates t_i = x_{sigma(i+1)}/x_{sigma(i)} (i = 1..n-1), and the
    factors y_k of the hyperplane sum at the marked index i (y[i-1][k])."""

    denominators: Tuple[Exponent, ...]
    coordinates: Tuple[Exponent, ...]
    y: Tuple[Tuple[Exponent, ...], ...]

    def relabel(self, sigma: Sequence[int]) -> "ChartData":
        return ChartData(
            tuple(_relabel(sigma, e) for e in self.denominators),
            tuple(_relabel(sigma, e) for e in self.coordinates),
            tuple(tuple(_relabel(sigma, e) for e in row) for row in self.y),
        )


def chart_data(n: int, sigma: Sequence[int]) -> ChartData:
    """The chart data of sigma, built from the values sigma(1..n)."""
    unit = [tuple(int(t == v) for t in range(1, n + 1)) for v in sigma]
    prefix = [(0,) * n]
    for u in unit:
        prefix.append(tuple(map(add, prefix[-1], u)))
    coordinates = tuple(tuple(map(sub, unit[i], unit[i - 1])) for i in range(1, n))
    y = tuple(
        tuple(
            tuple(p + (i - k) * u - q for p, u, q in zip(prefix[k], unit[i - 1], prefix[i]))
            for k in range(n + 1)
        )
        for i in range(1, n + 1)
    )
    return ChartData(tuple(prefix), coordinates, y)


def section_numerators(n: int) -> Tuple[Tuple[Exponent, ...], ...]:
    """The numerators e_k = sum_{|I|=k} x_I (k = 0..n) as the exponent
    vectors 1_I of their terms."""
    return tuple(
        tuple(
            tuple(int(t in I) for t in range(1, n + 1))
            for I in itertools.combinations(range(1, n + 1), k)
        )
        for k in range(n + 1)
    )


def s_n_generators(n: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The transposition (1 2) and the cycle (1 2 ... n), as sigma(1..n)."""
    return (2, 1) + tuple(range(3, n + 1)), tuple(range(2, n + 1)) + (1,)


def chart_certificate(
    numerators: Sequence[Sequence[Exponent]],
    identity: ChartData,
    generator_charts: Dict[Tuple[int, ...], ChartData],
) -> bool:
    """Exact certificate that every chart's identities are the relabelling
    x_t -> x_{sigma(t)} of the identity chart's.

    For each generator g (keys of generator_charts): every numerator, as a
    set of exponent vectors, is fixed by g, and g's chart data is g's
    relabelling of the identity chart's data.  The permutations fixing a set
    form a subgroup, so fixed by (1 2) and (1 2 ... n) means fixed by S_n.
    The chart data reads sigma only through the values sigma(l) at fixed
    positions, and the comparison on the generators checks that this reading
    is the relabelling.  Relabelling is a ring automorphism, so an identity
    that holds in the identity chart then holds in every chart."""
    for g, data in generator_charts.items():
        for terms in numerators:
            if {_relabel(g, e) for e in terms} != set(terms):
                return False
        if data != identity.relabel(g):
            return False
    return True


def _certified_identity_chart(n: int):
    """The numerators and the identity chart's data, or None when
    chart_certificate rejects them."""
    _check_chart_size(n)
    numerators = section_numerators(n)
    identity = chart_data(n, tuple(range(1, n + 1)))
    generators = {g: chart_data(n, g) for g in s_n_generators(n)}
    if not chart_certificate(numerators, identity, generators):
        return None
    return numerators, identity


def verify_cd_disjoint(n: int, negative_control: bool = False) -> bool:
    """The section divisor and the boundary divisor at the same index never
    meet: in every chart the section restricts to the constant 1 on the
    boundary coordinate's zero locus.  Checked on the identity chart, and
    carried to the other n! - 1 charts by chart_certificate."""
    if n < 2:
        raise ValueError("n >= 2 required")
    if _certified_identity_chart(n) is None:
        return False
    identity = tuple(range(1, n + 1))
    one = MultiPoly.const(QQ, n - 1, 1)
    for j in range(1, n):
        section = chart_section(n, identity, j)
        if negative_control:
            section = MultiPoly.variable(QQ, n - 1, j - 1) * section
        restricted = MultiPoly(
            QQ, n - 1, {e: c for e, c in section.terms.items() if e[j - 1] == 0}
        )
        if restricted != one:
            return False
    return True


def _min_intersection(n: int, J: FrozenSet[int], k: int) -> int:
    """min over |I| = k of |I & J|, by direct enumeration."""
    if k == 0:
        return 0
    if k == n:
        return len(J)
    return min(
        len(J & frozenset(I)) for I in itertools.combinations(range(1, n + 1), k)
    )


def verify_divisor_relation(n: int, negative_control: bool = False) -> bool:
    """Valuation identity behind the linear equivalence of twice a section
    divisor against its neighbors and the complementary boundary divisor.

    For every ray subset J and every j, the boundary valuations of the three
    sections combine to 1 exactly on the boundary divisors of complementary
    size: ord_J(j-1) + ord_J(j+1) - 2 ord_J(j) = [|J| = n-j], where
    ord_J(k) = min_{|I|=k} |I & J|.  The enumeration is the oracle; the
    closed form max(0,d-1) + max(0,d+1) - 2 max(0,d) = [d = 0] with
    d = j + |J| - n is asserted alongside."""
    if n < 2:
        raise ValueError("n >= 2 required")
    for size in range(1, n):
        for J in itertools.combinations(range(1, n + 1), size):
            Jset = frozenset(J)
            for j in range(1, n):
                lhs = (
                    _min_intersection(n, Jset, j - 1)
                    + _min_intersection(n, Jset, j + 1)
                    - 2 * _min_intersection(n, Jset, j)
                )
                d = j + size - n
                closed = max(0, d - 1) + max(0, d + 1) - 2 * max(0, d)
                if lhs != closed:
                    return False
                target = size == n - j + (1 if negative_control else 0)
                if lhs != (1 if target else 0):
                    return False
    return True


def verify_section_hyperplane(n: int, flip_signs: bool = False) -> bool:
    """The marked sections lie on the subscheme hyperplane: for every chart
    permutation sigma and every marked point index i the alternating sum
    sum_k (-1)^k a_k^sigma y_k(s_{sigma(i)}) vanishes identically.

    In the identity chart the sum for i is the Laurent polynomial
    sum_k (-1)^k sum_{|I|=k} x^(1_I - 1_{1..k} + y_k), collected in one
    exponent -> coefficient dict that must come out empty; chart_certificate
    carries it to the other n! - 1 charts."""
    if n < 2:
        raise ValueError("n >= 2 required")
    chart = _certified_identity_chart(n)
    if chart is None:
        return False
    numerators, identity = chart
    for row in identity.y:
        total: Dict[Exponent, int] = {}
        for k, terms in enumerate(numerators):
            sign = 1 if flip_signs or k % 2 == 0 else -1
            shift = tuple(map(sub, row[k], identity.denominators[k]))
            for e in terms:
                key = tuple(map(add, e, shift))
                total[key] = total.get(key, 0) + sign
        if any(total.values()):
            return False
    return True


def verify_a_data_cocycle(n: int, negative_control: bool = False) -> bool:
    """Three-term multiplicative identity of the root-indexed section pairs:
    with t_{ij} = prod_{i in I, j not in I} w_I and t_{ji} its opposite, the
    products t_{ij} t_{jk} t_{ki} and t_{ji} t_{kj} t_{ik} coincide as
    monomials in the w_I for all distinct i, j, k."""
    if n < 3:
        raise ValueError("n >= 3 required")
    subsets = [frozenset(s) for s in sigma_subsets(n)]

    def t(i: int, j: int) -> Dict[FrozenSet[int], int]:
        return {I: 1 for I in subsets if i in I and j not in I}

    def merge(*dicts):
        out: Dict[FrozenSet[int], int] = {}
        for d in dicts:
            for key, e in d.items():
                out[key] = out.get(key, 0) + e
        return {k: v for k, v in out.items() if v}

    for i, j, k in itertools.permutations(range(1, n + 1), 3):
        # alpha = beta_ij, beta = beta_jk, gamma = beta_ik = alpha + beta
        if negative_control:
            lhs = merge(t(i, j), t(j, k), t(i, k))
            rhs = merge(t(j, i), t(k, j), t(k, i))
        else:
            lhs = merge(t(i, j), t(j, k), t(k, i))
            rhs = merge(t(j, i), t(k, j), t(i, k))
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# Collections on the permutohedral fan and the forgetting map on points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaPoint:
    """A field-valued collection on the permutohedral fan: one value w_I per
    nonempty proper subset I of {1..n}."""

    n: int
    field: Field
    w: Tuple[Element, ...]  # ordered like sigma_subsets(n)

    def __post_init__(self):
        if len(self.w) != 2**self.n - 2:
            raise ValueError("one value per nonempty proper subset required")

    @staticmethod
    def from_dict(n: int, field: Field, values: Dict[FrozenSet[int], object]) -> "SigmaPoint":
        subsets = [frozenset(s) for s in sigma_subsets(n)]
        if set(values) != set(subsets):
            raise ValueError("values must be indexed by all proper nonempty subsets")
        return SigmaPoint(n, field, tuple(field.of(values[s]) for s in subsets))

    def value(self, subset: FrozenSet[int]) -> Element:
        subsets = [frozenset(s) for s in sigma_subsets(self.n)]
        return self.w[subsets.index(subset)]

    def to_fan_point(self, fan: Optional[StackyFan] = None):
        from .orbit_points import FanPoint

        fan = fan or build_sigma_A(self.n)
        return FanPoint(fan, self.field, self.w)

    def is_nondegenerate(self) -> bool:
        fan = build_sigma_A(self.n)
        return is_nondegenerate(fan, self.w, self.field)

    def relabel(self, perm: Dict[int, int]) -> "SigmaPoint":
        subsets = [frozenset(s) for s in sigma_subsets(self.n)]
        index = {s: i for i, s in enumerate(subsets)}
        new = [None] * len(subsets)
        for s, val in zip(subsets, self.w):
            target = frozenset(perm[i] for i in s)
            new[index[target]] = val
        return SigmaPoint(self.n, self.field, tuple(new))


def sigma_section_values(sp: SigmaPoint) -> List[Element]:
    """The n section values x_i = prod_{I containing i} w_I (torus locus)."""
    f = sp.field
    subsets = [frozenset(s) for s in sigma_subsets(sp.n)]
    out = []
    for i in range(1, sp.n + 1):
        v = f.one
        for s, w in zip(subsets, sp.w):
            if i in s:
                v = f.mul(v, w)
        out.append(v)
    return out


def sigma_forget(sp: SigmaPoint) -> ExtendedPoint:
    """Point-level label-forgetting map.

    The section values are

        a_j = sum_{|J|=j} prod_I w_I^(|J & I| - max(0, |I|+j-n)),
        b_j = prod_{|J|=n-j} w_J,

    indexed from the first pole of the chain.  The returned coefficient
    tuple is the reversal (1, a_{n-1}, ..., a_1, 1) with twists reversed
    likewise: this is the orientation of the polynomial normal form, whose
    roots on the torus locus are the section values x_i = prod_{i in I} w_I
    (the two orientations differ by the chain flip, which is not a torus
    element).  Nondegeneracy of the output is guaranteed by the flag
    condition on the input."""
    if not sp.is_nondegenerate():
        raise ValueError("degenerate collection")
    f = sp.field
    n = sp.n
    subsets = [frozenset(s) for s in sigma_subsets(n)]
    a = []
    for j in range(1, n):
        total = f.zero
        for J in itertools.combinations(range(1, n + 1), j):
            Jset = frozenset(J)
            term = f.one
            for s, w in zip(subsets, sp.w):
                e = len(Jset & s) - max(0, len(s) + j - n)
                if e < 0:
                    raise RuntimeError("negative section exponent")
                if e:
                    term = f.mul(term, f.pow(w, e))
            total = f.add(total, term)
        a.append(total)
    b = []
    for j in range(1, n):
        prod = f.one
        for s, w in zip(subsets, sp.w):
            if len(s) == n - j:
                prod = f.mul(prod, w)
        b.append(prod)
    a.reverse()
    b.reverse()
    return ExtendedPoint(n, f, (f.one, *a, f.one), tuple(b))
