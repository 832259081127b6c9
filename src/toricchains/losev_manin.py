"""Permutohedral geometry and the section identities of the label-forgetting
map.

Lattice polytopes live in the root-lattice coordinates obtained by dropping
the last basis vector of Z^n (so a point sum_i a_i u_i with sum a_i = 0 is
stored as (a_1, ..., a_{n-1})).  Every polytope here (the permutohedron,
the hypersimplices, the root segments and their Minkowski sums) is a
generalized permutohedron (Postnikov, "Permutohedra, associahedra, and
beyond", section 6), stored by its cut vector z(S) = max_P 1_S over the
subsets S of {1..n}.  The constructors write z in closed form, a Minkowski
sum adds cut vectors and a translation by t adds t(S): no vertex is listed.
The vertices are the greedy vectors z(S_k) - z(S_{k-1}) of the n! orders
(Edmonds).  extreme_points certifies a point set exactly, in two legs: its
cut vector by subset sums, and every greedy vector one of the points.  No
linear program is solved.  A dimension guard bounds the n! greedy leaves.

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
that the chart checks list.  The divisor relation and the cocycle list no
subsets: min_{|I|=k} |I & J| = max(0, k + |J| - n) depends on J only
through |J|, so the relation is checked on the (|J|, j) pairs; and the
exponent of w_I in either side of the cocycle depends on I only through its
trace on {i, j, k}, by one formula for every triple, so the two sides are
compared once on each trace.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from operator import add, sub
from typing import Dict, List, Sequence, Tuple

from . import _Frozen, _set_field

Exponent = Tuple[int, ...]

_DIM_GUARD = 6
_CHART_GUARD = 2**14


# ---------------------------------------------------------------------------
# Generalized permutohedra
# ---------------------------------------------------------------------------


def _check_dim(dim: int) -> None:
    """The vertices are the greedy vectors of the (dim+1)! orders."""
    if dim > _DIM_GUARD:
        raise ValueError(
            f"polytope dimension guard: ambient dimension {dim} exceeds the bound {_DIM_GUARD}"
        )


def _full(dim: int, a: Sequence[int], what: str) -> List[int]:
    """The root coordinates a as the full coordinates (a, -sum a)."""
    if len(a) != dim:
        raise ValueError(f"dimension mismatch: the {what} {tuple(a)} has length {len(a)}, "
                         f"expected the ambient dimension {dim}")
    return [*a, -sum(a)]


def _subset_sums(x: Sequence[int]) -> List[int]:
    """sum_{i in S} x_i for every subset S, indexed by the bitmask of S."""
    sums = [0]
    for xi in x:
        sums += [s + xi for s in sums]
    return sums


def _greedy_vectors(n: int, cuts: Sequence[int]) -> List[Tuple[int, ...]]:
    """The sorted distinct greedy vectors v(sigma_k) = z(S_k) - z(S_{k-1})
    of the orders sigma of {0..n-1}, S_k = {sigma_1..sigma_k}, in root
    coordinates: a depth-first walk over the prefix masks S_k."""
    full = (1 << n) - 1
    v = [0] * n
    found = set()

    def walk(mask: int) -> None:
        if mask == full:
            found.add(tuple(v[:-1]))
            return
        for i in range(n):
            if not mask >> i & 1:
                v[i] = cuts[mask | 1 << i] - cuts[mask]
                walk(mask | 1 << i)

    walk(0)
    return sorted(found)


def extreme_points(dim: int, points: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
    """The vertices of conv(points), for a hull whose normal fan coarsens the
    braid fan (a generalized permutohedron), by a two-leg exact certificate.

    With n = dim + 1 and the points read in full coordinates (a, -sum a):
      1. the cut vector z(S) = max over the points of 1_S, by subset sums
         (2^n of them a point);
      2. for every order sigma of {1..n}, with S_k = {sigma_1..sigma_k}, the
         greedy vector v(sigma_k) = z(S_k) - z(S_{k-1}) is one of the points.
    Every point p has p(S) <= z(S) and p([n]) = 0 = z([n]), so conv(points)
    lies in the base polytope B(z).  Leg 2 makes z submodular: for S and
    a, b outside it, the greedy vector v of an order listing S, then a, then
    b has v(S + b) = z(S) + z(S + a + b) - z(S + a), and v(S + b) <= z(S + b)
    as v is a point.  That is local submodularity, which implies
    submodularity.  So B(z) is the hull of the greedy vectors, each a vertex
    (Edmonds), and by leg 2 they lie in conv(points): conv(points) = B(z).
    Any failure raises ValueError, never a wrong answer; so does a point of
    the wrong length.
    """
    _check_dim(dim)
    points = list(points)
    return list(LatticePolytope.from_points(dim, points).vertices) if points else []


class LatticePolytope(_Frozen):
    """A generalized permutohedron stored by its cut vector cuts[S] = max_P 1_S
    over the bitmasks S of {0..ambient_dim}, the points read in full
    coordinates (a, -sum a).  The cut vector is submodular, vanishes on the
    empty set and on the whole set, and determines the polytope."""

    __slots__ = ("ambient_dim", "cuts", "__dict__")  # the dict holds the cached vertices

    def __init__(self, ambient_dim: int, cuts: Tuple[int, ...]):
        _check_dim(ambient_dim)
        if len(cuts) != 2 ** (ambient_dim + 1) or cuts[0] or cuts[-1]:
            raise ValueError(f"not the cut vector of a polytope in dimension {ambient_dim}")
        _set_field(self, "ambient_dim", ambient_dim)
        _set_field(self, "cuts", cuts)

    @staticmethod
    def from_points(dim: int, points: Sequence[Sequence[int]]) -> "LatticePolytope":
        """conv(points), certified as in extreme_points."""
        _check_dim(dim)
        given = [tuple(map(int, p)) for p in points]
        full = [_full(dim, p, "point") for p in given]
        if not full:
            raise ValueError("no points: the empty set has no cut vector")
        cuts = functools.reduce(lambda z, s: list(map(max, z, s)), map(_subset_sums, full))
        polytope = LatticePolytope(dim, tuple(cuts))
        missing = set(polytope.vertices).difference(given)
        if missing:
            raise ValueError(f"not a generalized permutohedron: the greedy vector "
                             f"{min(missing)} of the cut vector is not one of the points")
        return polytope

    @functools.cached_property
    def vertices(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(_greedy_vectors(self.ambient_dim + 1, self.cuts))

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def translate(self, vector: Sequence[int]) -> "LatticePolytope":
        shift = _subset_sums(_full(self.ambient_dim, vector, "translation"))
        return LatticePolytope(self.ambient_dim, tuple(map(add, self.cuts, shift)))

    def to_dict(self) -> dict:
        return {"ambient_dim": self.ambient_dim, "vertices": [list(v) for v in self.vertices]}


def permutohedron(n: int) -> LatticePolytope:
    """Convex hull of the orbit of (n-1, n-2, ..., 0) weights, translated so
    the identity-ordering vertex is the origin: the points sum_i (i - pi(i)) u_i
    over the permutations pi of the positions 0..n-1, with cut vector
    z(S) = sum_{i in S} i - C(|S|, 2)."""
    if n < 2:
        raise ValueError("n >= 2 required")
    _check_dim(n - 1)
    cuts = (s - k * (k - 1) // 2 for s, k in zip(_subset_sums(range(n)), _subset_sums([1] * n)))
    return LatticePolytope(n - 1, tuple(cuts))


def delta_j(n: int, j: int) -> LatticePolytope:
    """Hypersimplex translate: hull of sum_{i in J} u_i - (u_1 + ... + u_j)
    over all j-element subsets J, with z(S) = min(|S|, j) - |S & {1..j}|."""
    if not 1 <= j <= n - 1:
        raise ValueError("need 1 <= j <= n-1")
    _check_dim(n - 1)
    low = _subset_sums([1] * j + [0] * (n - j))
    return LatticePolytope(n - 1, tuple(min(k, j) - l for k, l in zip(_subset_sums([1] * n), low)))


def root_segment(n: int, i: int, j: int) -> LatticePolytope:
    """The segment from the origin to the root u_i - u_j: z(S) = [i in S, j not in S]."""
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("need distinct indices in range")
    _check_dim(n - 1)
    a, b = 1 << (i - 1), 1 << (j - 1)
    return LatticePolytope(n - 1, tuple(int(m & a != 0 and m & b == 0) for m in range(2**n)))


def minkowski_sum(P: LatticePolytope, Q: LatticePolytope) -> LatticePolytope:
    """The cut vector of P + Q is the sum of the cut vectors."""
    if P.ambient_dim != Q.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return LatticePolytope(P.ambient_dim, tuple(map(add, P.cuts, Q.cuts)))


def minkowski_sum_all(polys: Sequence[LatticePolytope]) -> LatticePolytope:
    return functools.reduce(minkowski_sum, polys)


def permutohedron_decompositions(n: int) -> Tuple[LatticePolytope, bool]:
    """The permutohedron, and whether both its decompositions hold by exact
    equality of cut vectors: as the sum of the hypersimplex translates, and
    as the sum of the root segments l_{i_j i_k} for k < j under the identity
    ordering."""
    perm = permutohedron(n)
    if minkowski_sum_all([delta_j(n, j) for j in range(1, n)]) != perm:
        return perm, False
    segments = [root_segment(n, j, k) for j in range(1, n + 1) for k in range(1, j)]
    return perm, minkowski_sum_all(segments) == perm


def verify_minkowski(n: int) -> bool:
    """Both decompositions of the permutohedron hold."""
    return permutohedron_decompositions(n)[1]


# ---------------------------------------------------------------------------
# Chart sections and symbolic identities
# ---------------------------------------------------------------------------


def chart_section(n: int, sigma: Sequence[int], j: int) -> Dict[Exponent, int]:
    """(sum_{|I|=j} x_I) / x_{sigma(1..j)} written in the chart coordinates
    t_i = x_{sigma(i+1)}/x_{sigma(i)}, as an exponent -> coefficient dict: a
    polynomial with all coefficients 1 and constant term 1.

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
    return terms


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


class ChartData(_Frozen):
    """Exponent vectors over x_1..x_n that the chart sigma contributes to the
    section identities: the denominators x_{sigma(1..k)} (k = 0..n), the
    chart coordinates t_i = x_{sigma(i+1)}/x_{sigma(i)} (i = 1..n-1), and the
    factors y_k of the hyperplane sum at the marked index i (y[i-1][k])."""

    __slots__ = ("denominators", "coordinates", "y")

    def __init__(
        self,
        denominators: Tuple[Exponent, ...],
        coordinates: Tuple[Exponent, ...],
        y: Tuple[Tuple[Exponent, ...], ...],
    ):
        _set_field(self, "denominators", denominators)
        _set_field(self, "coordinates", coordinates)
        _set_field(self, "y", y)

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
    identity, one = tuple(range(1, n + 1)), {(0,) * (n - 1): 1}
    for j in range(1, n):
        section = chart_section(n, identity, j)
        if negative_control:  # t_j times the section
            section = {e[: j - 1] + (e[j - 1] + 1,) + e[j:]: c for e, c in section.items()}
        if {e: c for e, c in section.items() if e[j - 1] == 0} != one:
            return False
    return True


def _min_intersection_size(n: int, size: int, k: int) -> int:
    """min over |I| = k of |I & J| for any J of the given size: a k-subset
    takes at most n - |J| elements outside J, so it meets J in at least
    k + |J| - n of them, and filling I from the complement first attains
    max(0, k + |J| - n)."""
    return max(0, k + size - n)


def verify_divisor_relation(n: int, negative_control: bool = False) -> bool:
    """Valuation identity behind the linear equivalence of twice a section
    divisor against its neighbors and the complementary boundary divisor.

    For every ray subset J and every j, the boundary valuations of the three
    sections combine to 1 exactly on the boundary divisors of complementary
    size: ord_J(j-1) + ord_J(j+1) - 2 ord_J(j) = [|J| = n-j], where
    ord_J(k) = min_{|I|=k} |I & J|.  The minimum is max(0, k + |J| - n)
    (_min_intersection_size), so ord_J and with it the relation depend on J
    only through |J|: checking the (|J|, j) pairs checks every J, in O(n^2)
    steps."""
    if n < 2:
        raise ValueError("n >= 2 required")
    for size in range(1, n):
        for j in range(1, n):
            lhs = (
                _min_intersection_size(n, size, j - 1)
                + _min_intersection_size(n, size, j + 1)
                - 2 * _min_intersection_size(n, size, j)
            )
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


def _cocycle_traces(n: int) -> List[Tuple[int, int, int]]:
    """The traces I & {i, j, k} of the proper nonempty subsets I of {1..n},
    for distinct i, j, k, as the patterns (i in I, j in I, k in I): all eight
    once a fourth element can fill out I or stay out of it (n >= 4), and the
    six non-constant ones for n = 3.  The set is the same for every triple."""
    return [p for p in itertools.product((0, 1), repeat=3) if n > 3 or 0 < sum(p) < 3]


def _w_exponent(pattern: Sequence[int], pairs: Sequence[Tuple[int, int]]) -> int:
    """The exponent of w_I in the product of the t_{ab} over the pairs (a, b)
    of positions in (i, j, k), for an I of the given trace pattern."""
    return sum(pattern[a] and not pattern[b] for a, b in pairs)


def verify_a_data_cocycle(n: int, negative_control: bool = False) -> bool:
    """Three-term multiplicative identity of the root-indexed section pairs:
    with t_{ij} = prod_{i in I, j not in I} w_I and t_{ji} its opposite, the
    products t_{ij} t_{jk} t_{ki} and t_{ji} t_{kj} t_{ik} coincide as
    monomials in the w_I for all distinct i, j, k.

    The exponent of w_I in t_{ab} is [a in I][b not in I], so in either
    product it reads I only through its trace pattern (i in I, j in I,
    k in I), by one formula for every triple.  The traces that a proper
    nonempty I can have are the same for every triple (_cocycle_traces), so
    comparing the two sides on each of them decides the identity for all
    triples and all 2^n - 2 subsets: at most eight comparisons, whatever n."""
    if n < 3:
        raise ValueError("n >= 3 required")
    # positions 0, 1, 2 stand for i, j, k:
    # alpha = beta_ij, beta = beta_jk, gamma = beta_ik = alpha + beta
    if negative_control:
        lhs, rhs = ((0, 1), (1, 2), (0, 2)), ((1, 0), (2, 1), (2, 0))
    else:
        lhs, rhs = ((0, 1), (1, 2), (2, 0)), ((1, 0), (2, 1), (0, 2))
    return all(_w_exponent(p, lhs) == _w_exponent(p, rhs) for p in _cocycle_traces(n))
