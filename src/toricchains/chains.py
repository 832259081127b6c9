"""Pointed chains of projective lines over a field, as coordinate data.

A degree-n pointed chain is encoded by the degrees of its components and,
per component, the univariate polynomial cutting out the length-n subscheme
in that component's affine chart.  The conversions here move between fan
points (coordinate tuples modulo the torus) and chain models, implement the
label-forgetting map from the points of the permutohedral fan (SigmaA) and
its degree-n! fiber analysis, and handle the involutive (type B/C) variants
by palindromic duplication of coordinates.

Polynomial coefficient lists are ascending: ``c[r]`` multiplies ``t**r``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .exact_linalg import IntMatrix
from .fields import Element, Field, PrimeField
from .orbit_points import FanPoint, is_nondegenerate, make_point, solve_units
from .root_fans import FanFamily, build_upsilon, sigma_subsets


# ---------------------------------------------------------------------------
# Univariate helpers
# ---------------------------------------------------------------------------


def poly_trim(c: Sequence[Element], field: Field) -> List[Element]:
    out = list(c)
    while out and field.is_zero(out[-1]):
        out.pop()
    return out


def poly_mul(a: Sequence[Element], b: Sequence[Element], field: Field) -> List[Element]:
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if field.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return poly_trim(out, field)


def poly_divmod(
    num: Sequence[Element], den: Sequence[Element], field: Field
) -> Tuple[List[Element], List[Element]]:
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
            rem[i - deg_d + j] = field.sub(rem[i - deg_d + j], field.mul(coeff, d))
    return poly_trim(quot, field), poly_trim(rem, field)


def poly_from_roots(roots: Sequence[Element], field: Field) -> List[Element]:
    out = [field.one]
    for r in roots:
        out = poly_mul(out, [field.neg(r), field.one], field)
    return out


def root_multiplicity(c: Sequence[Element], r: Element, field: Field) -> int:
    mult, cur = 0, poly_trim(c, field)
    while cur:
        quot, rem = poly_divmod(cur, [field.neg(r), field.one], field)
        if rem:
            break
        mult, cur = mult + 1, quot
    return mult


def _monic(a: Sequence[int], p: int) -> List[int]:
    """a over F_p without its zero top coefficients, scaled to be monic."""
    a = list(a)
    while a and not a[-1] % p:
        a.pop()
    inv = pow(a[-1], -1, p) if a else 0
    return [x * inv % p for x in a]


def _divmod_monic(a: Sequence[int], f: Sequence[int], p: int) -> Tuple[List[int], List[int]]:
    """Quotient and remainder of a by the monic f over F_p, with one ``% p``
    per coefficient."""
    r, d = list(a), len(f) - 1
    q = [0] * max(0, len(r) - d)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + d] % p
        if c:
            for k in range(d):
                r[i + k] -= c * f[k]
    return q, [x % p for x in r[:d]]


def _gcd(a: Sequence[int], b: Sequence[int], p: int) -> List[int]:
    a, b = _monic(a, p), _monic(b, p)
    while b:
        a, b = b, _monic(_divmod_monic(a, b, p)[1], p)
    return a


def _power(a: int, e: int, f: Sequence[int], p: int) -> List[int]:
    """(t + a)^e modulo the monic f, left to right: a set bit multiplies by
    t + a, which is a shift and one reduction step, O(deg f)."""
    h = [1] + [0] * (len(f) - 2)
    for bit in bin(e)[2:]:
        sq = [0] * (2 * len(h) - 1)
        for i, x in enumerate(h):
            if x:
                for k, y in enumerate(h, i):
                    sq[k] += x * y
        h = _divmod_monic(sq, f, p)[1]
        if bit == "1":
            h = [(a * x + y - h[-1] * c) % p for x, y, c in zip(h, [0] + h[:-1], f)]
    return h


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of a nonzero square a modulo an odd prime p (Tonelli-
    Shanks; Cohen, *A Course in Computational Algebraic Number Theory*,
    Alg. 1.5.1)."""
    e = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = q 2^e with q odd
    q = (p - 1) >> e
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    y, x, b = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while b != 1:  # x^2 = a b, b has order 2^m < 2^e and y order 2^e
        m, t = 0, b
        while t != 1:
            t, m = t * t % p, m + 1
        t = pow(y, 1 << (e - m - 1), p)
        y, e, x, b = t * t % p, m, x * t % p, b * t * t % p
    return x


def _distinct_roots(g: List[int], p: int, a: int) -> List[int]:
    """The roots of a monic g that is a product of distinct t - r, r a unit,
    whole under the shifts below a.

    gcd(g, (t+a)^((p-1)/2) - 1) keeps the roots r with r + a a nonzero
    square.  For two roots r != s, as a runs over F_p minus {-s}, (r+a)/(s+a)
    takes every value but 1 once, so for (p-1)/2 values of a it is a
    nonsquare and exactly one of r, s is kept: some a < p splits g.  A shift
    that leaves g whole leaves its factors whole."""
    if len(g) <= 2:
        return [p - g[0]] if len(g) == 2 else []
    if len(g) == 3:  # (-b +- sqrt(b^2 - 4c)) / 2
        s, half = _sqrt_mod((g[1] * g[1] - 4 * g[0]) % p, p), (p + 1) // 2
        return [(s - g[1]) * half % p, (-s - g[1]) * half % p]
    for a in range(a, p):
        h = _power(a, (p - 1) // 2, g, p)
        h[0] -= 1
        d = _gcd(g, h, p)
        if 1 < len(d) < len(g):
            rest = _divmod_monic(g, d, p)[0]
            return _distinct_roots(d, p, a + 1) + _distinct_roots(rest, p, a + 1)
    raise AssertionError("no shift splits a product of distinct linear factors")


def unit_root_multiplicities(
    c: Sequence[Element], field: PrimeField
) -> Dict[int, int]:
    """Multiplicities of all roots in F_p^*, in increasing order.

    With h = t^((p-1)/2) mod f, the distinct unit roots of f are those of
    gcd(f, h - 1), the squares, and of gcd(f, h + 1), split further by
    shifted powerings (Cantor-Zassenhaus; von zur Gathen-Gerhard, *Modern
    Computer Algebra*, ch. 14).  A powering costs O(d^2 log p) operations on
    ints for degree d; a quadratic factor costs one square root mod p.
    Synthetic division gives the multiplicities."""
    p = field.p
    f = _monic(c, p)
    if not f:
        raise ValueError("the zero polynomial vanishes at every unit")
    if len(f) == 1:
        return {}
    if p == 2:
        roots = [1] if sum(f) % 2 == 0 else []
    else:  # h = 1 at the squares and -1 at the other units
        h = _power(0, (p - 1) // 2, f, p)
        roots = [r for s in (-1, 1) for r in _distinct_roots(_gcd(f, [h[0] + s, *h[1:]], p), p, 1)]
    mults = dict.fromkeys(sorted(roots), 0)
    for r in mults:
        q, rem = _divmod_monic(f, [p - r, 1], p)
        while not rem[0]:
            f, mults[r] = q, mults[r] + 1
            q, rem = _divmod_monic(f, [p - r, 1], p)
    return mults


# ---------------------------------------------------------------------------
# Chain models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainModel:
    """A chain of projective lines carrying a finite subscheme.

    Component k has degree ``component_degrees[k]`` and its part of the
    subscheme is cut out by ``component_polys[k]`` in the chart coordinate of
    that component.  Constant and leading coefficients are nonzero: the
    subscheme misses the poles and the nodes.
    """

    field: Field
    total_degree: int
    component_degrees: Tuple[int, ...]
    component_polys: Tuple[Tuple[Element, ...], ...]

    def __post_init__(self):
        if len(self.component_degrees) != len(self.component_polys):
            raise ValueError("one polynomial per component required")
        if not self.component_degrees:
            raise ValueError("a chain has at least one component")
        if sum(self.component_degrees) != self.total_degree:
            raise ValueError("component degrees must sum to the total degree")
        for k, poly in enumerate(self.component_polys):
            self.field.check_canonical(f"chain model: component_polys[{k}]", poly)
        for deg, poly in zip(self.component_degrees, self.component_polys):
            if deg < 1:
                raise ValueError("component degrees must be >= 1")
            if len(poly) != deg + 1:
                raise ValueError("component polynomial has wrong degree")
            if self.field.is_zero(poly[0]) or self.field.is_zero(poly[-1]):
                raise ValueError(
                    "subscheme meets a pole or node: zero constant or leading coefficient"
                )

    @property
    def num_components(self) -> int:
        return len(self.component_degrees)

    def to_dict(self) -> dict:
        return {
            "field": self.field.name,
            "total_degree": self.total_degree,
            "components": [
                {"degree": d, "poly": [self.field.format(x) for x in poly]}
                for d, poly in zip(self.component_degrees, self.component_polys)
            ],
        }


def _upsilon_a_point_data(p: FanPoint) -> Tuple[int, List[Element], List[Element]]:
    fan = p.fan
    if fan.family is None or fan.family.tag != "A":
        raise ValueError("chain conversion requires a type-A fan point")
    k = fan.rank  # n - 1
    a = list(p.coords[:k])
    b = list(p.coords[k:])
    return k + 1, a, b


def chain_from_point(p: FanPoint) -> ChainModel:
    """Build the pointed chain described by a nondegenerate fan point.

    The chain breaks at every vanishing b-coordinate.  On the component
    covering coordinate indices N_{k-1}..N_k, with chart coordinate t, the
    subscheme polynomial is sum_r a_{N_{k-1}+r} * beta_r * t**r where beta_r
    is the monomial prod_{s=1}^{r-1} b_{N_{k-1}+s}^{r-s} collected from the
    quadratic relations between the chart coordinates.
    """
    f = p.field
    if not is_nondegenerate(p.fan, p.coords, f):
        raise ValueError("degenerate point has no chain model")
    n, a, b = _upsilon_a_point_data(p)
    a_ext = [f.one] + a + [f.one]  # boundary convention a_0 = a_n = 1
    breaks = [i + 1 for i, x in enumerate(b) if f.is_zero(x)]
    bounds = [0] + breaks + [n]
    degrees = []
    polys = []
    for lo, hi in zip(bounds, bounds[1:]):
        deg = hi - lo
        coeffs = []
        beta = f.one
        for r in range(deg + 1):
            if r >= 2:
                # beta_r / beta_{r-1} = prod_{s=1}^{r-1} b_{lo+s}
                step = f.one
                for s in range(1, r):
                    step = f.mul(step, b[lo + s - 1])
                beta = f.mul(beta, step)
            coeffs.append(f.mul(a_ext[lo + r], beta))
        degrees.append(deg)
        polys.append(tuple(coeffs))
    return ChainModel(f, n, tuple(degrees), tuple(polys))


# ---------------------------------------------------------------------------
# Extended points and the polynomial direction
# ---------------------------------------------------------------------------


def extended_weight_matrix(n: int) -> IntMatrix:
    """Weights of the rank-(n+1) torus on extended coordinates.

    Columns: the n+1 coefficient slots c_0..c_n (standard characters), then
    the n-1 twist slots b_1..b_{n-1} with weight 2e_i - e_{i-1} - e_{i+1}
    (so b_i scales by kappa_i^2 / (kappa_{i-1} kappa_{i+1}))."""
    rows = []
    for k in range(n + 1):
        row = [1 if k == j else 0 for j in range(n + 1)]
        for i in range(1, n):
            if k == i:
                row.append(2)
            elif k == i - 1 or k == i + 1:
                row.append(-1)
            else:
                row.append(0)
        rows.append(row)
    return IntMatrix.from_rows(rows)


@dataclass(frozen=True)
class ExtendedPoint:
    """A coefficient tuple c_0..c_n with twists b_1..b_{n-1}, acted on by the
    full rank-(n+1) torus (no normalization of the end coefficients)."""

    n: int
    field: Field
    c: Tuple[Element, ...]
    b: Tuple[Element, ...]

    def __post_init__(self):
        if len(self.c) != self.n + 1 or len(self.b) != self.n - 1:
            raise ValueError("extended point has n+1 coefficients and n-1 twists")
        f = self.field
        f.check_canonical("extended point: c", self.c)
        f.check_canonical("extended point: b", self.b)
        if f.is_zero(self.c[0]) or f.is_zero(self.c[-1]):
            raise ValueError("end coefficients must be nonzero")
        for i in range(1, self.n):
            if f.is_zero(self.c[i]) and f.is_zero(self.b[i - 1]):
                raise ValueError(f"degenerate extended point at index {i}")

    def coords(self) -> Tuple[Element, ...]:
        return self.c + self.b

    def is_normalized(self) -> bool:
        f = self.field
        return self.c[0] == f.one and self.c[-1] == f.one

    def to_standard(self) -> FanPoint:
        """The fan point on the type-A fan, defined once c_0 = c_n = 1."""
        if self.n < 2:
            raise ValueError("degree-1 subschemes have no moduli: no fan point")
        if not self.is_normalized():
            raise ValueError("extended point is not normalized to c_0 = c_n = 1")
        fan = build_upsilon(FanFamily("A", self.n - 1))
        return FanPoint(fan, self.field, self.c[1:-1] + self.b)


def extended_from_standard(p: FanPoint) -> ExtendedPoint:
    n, a, b = _upsilon_a_point_data(p)
    f = p.field
    return ExtendedPoint(n, f, (f.one, *a, f.one), tuple(b))


def orbit_equal_extended(p: ExtendedPoint, q: ExtendedPoint) -> bool:
    """Orbit equality for extended points under the rank-(n+1) torus."""
    if p.n != q.n or p.field != q.field:
        raise ValueError("extended points are not comparable")
    f, w, pc, qc = p.field, extended_weight_matrix(p.n), p.coords(), q.coords()
    support = [r for r, c in enumerate(pc) if not f.is_zero(c)]
    if support != [r for r, c in enumerate(qc) if not f.is_zero(c)]:
        return False
    targets = [f.div(qc[r], pc[r]) for r in support]
    return solve_units([w.col(r) for r in support], targets, f) is not None


def _nth_roots(value: Element, n: int, field: Field) -> List[Element]:
    """Every unit r with r**n == value: over F_p in increasing order, over Q
    the positive root first."""
    if field.is_zero(value):
        return []
    if isinstance(field, PrimeField):
        t_n_minus_v = [field.neg(value)] + [field.zero] * (n - 1) + [field.one]
        return list(unit_root_multiplicities(t_n_minus_v, field))
    v = Fraction(value)
    if v < 0 and n % 2 == 0:
        return []
    sign = -1 if v < 0 else 1
    num = _int_nth_root(abs(v.numerator), n)
    den = _int_nth_root(v.denominator, n)
    if num is None or den is None:
        return []
    r = Fraction(sign * num, den)
    return [r, -r] if n % 2 == 0 else [r]


def _int_nth_root(m: int, n: int) -> Optional[int]:
    """The integer r >= 0 with r**n == m >= 0, or None; exact at any size."""
    if m < 2:
        return m
    if n == 2:
        r = math.isqrt(m)
    else:
        # Integer Newton from above: r starts at 2**ceil(bits/n) > m**(1/n)
        # and decreases to the floor of the root.
        r = 1 << -(-m.bit_length() // n)
        while True:
            y = ((n - 1) * r + m // r ** (n - 1)) // n
            if y >= r:
                break
            r = y
    return r if r**n == m else None


def point_from_polynomial(coeffs: Sequence, field: Field) -> ExtendedPoint:
    """Extended point of a degree-n coefficient sequence c_0..c_n.

    The raw representative has all twists equal to 1.  When the field
    contains an n-th root of c_0/c_n the representative is rescaled to
    c_0 = c_n = 1 while keeping the twists at 1 (the normalization is only
    available up to such a root); otherwise the raw representative is
    returned and the orbit operations accept it as-is.
    """
    c = [field.of(x) for x in coeffs]
    n = len(c) - 1
    if n < 1:
        raise ValueError("need a polynomial of degree >= 1")
    if field.is_zero(c[0]) or field.is_zero(c[-1]):
        raise ValueError("subscheme meets a pole: zero end coefficient")
    roots = _nth_roots(field.div(c[0], c[-1]), n, field)
    if roots:
        # c_i scales by kappa_i = r**i / c_0, which normalizes both ends, and
        # b_i by kappa_i^2 / (kappa_{i-1} kappa_{i+1}) = 1.
        k0 = field.inv(c[0])
        c = [field.mul(x, field.mul(k0, field.pow(roots[0], i))) for i, x in enumerate(c)]
    return ExtendedPoint(n, field, tuple(c), (field.one,) * (n - 1))


# ---------------------------------------------------------------------------
# The forgetting map from the permutohedral fan
# ---------------------------------------------------------------------------


def _sigma_point_data(p: FanPoint) -> Tuple[int, List[FrozenSet[int]]]:
    """n, and the subset I of each value w_I in p.coords: the SigmaA fan
    orders its rays like sigma_subsets(n)."""
    family = p.fan.family
    if family is None or family.tag != "SigmaA":
        raise ValueError("the forgetting map requires a point of the SigmaA fan")
    return family.n, [frozenset(s) for s in sigma_subsets(family.n)]


def sigma_section_values(p: FanPoint) -> List[Element]:
    """The n section values x_i = prod_{I containing i} w_I (torus locus)."""
    n, subsets = _sigma_point_data(p)
    f = p.field
    out = []
    for i in range(1, n + 1):
        v = f.one
        for s, w in zip(subsets, p.coords):
            if i in s:
                v = f.mul(v, w)
        out.append(v)
    return out


def sigma_forget(p: FanPoint) -> ExtendedPoint:
    """Point-level label-forgetting map on a point of the SigmaA fan, whose
    coordinates are the values w_I on the nonempty proper subsets I.

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
    n, subsets = _sigma_point_data(p)
    f = p.field
    if not is_nondegenerate(p.fan, p.coords, f):
        raise ValueError("degenerate collection")
    a = []
    for j in range(1, n):
        total = f.zero
        for J in itertools.combinations(range(1, n + 1), j):
            Jset = frozenset(J)
            term = f.one
            for s, w in zip(subsets, p.coords):
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
        for s, w in zip(subsets, p.coords):
            if len(s) == n - j:
                prod = f.mul(prod, w)
        b.append(prod)
    a.reverse()
    b.reverse()
    return ExtendedPoint(n, f, (f.one, *a, f.one), tuple(b))


# ---------------------------------------------------------------------------
# Fiber analysis of the label-forgetting map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberProfile:
    rational_ordered_preimages: int
    multiplicity_profile: Tuple[Tuple[int, ...], ...]
    is_ramified: bool

    def to_dict(self) -> dict:
        return {
            "rational_ordered_preimages": self.rational_ordered_preimages,
            "multiplicity_profile": [list(m) for m in self.multiplicity_profile],
            "is_ramified": self.is_ramified,
        }


def fiber_profile(p: FanPoint) -> FiberProfile:
    """Rational fiber data of the degree-n! label-forgetting map over p.

    Per component, the roots in F_q^* and their multiplicities come from
    :func:`unit_root_multiplicities`.  The ordered-preimage count is the number
    of ways to order the divisor: n!/prod(mult!) when every component splits
    completely over the field, zero otherwise.  Ramification is detected by
    a squarefreeness test, so repeated non-rational points also count.
    """
    return fiber_profile_of_chain(chain_from_point(p))


def fiber_profile_of_chain(chain: ChainModel) -> FiberProfile:
    if not isinstance(chain.field, PrimeField):
        raise ValueError("fiber profiles are computed over prime fields")
    f = chain.field
    profiles = []
    split = True
    ramified = False
    mults: List[int] = []
    for deg, poly in zip(chain.component_degrees, chain.component_polys):
        roots = unit_root_multiplicities(list(poly), f)
        profile = tuple(sorted(roots.values()))
        profiles.append(profile)
        if sum(roots.values()) != deg:
            split = False
        # gcd(f, f') = f when f' = 0: a nonconstant p-th power is not squarefree
        if len(_gcd(poly, [k * x for k, x in enumerate(poly)][1:], f.p)) > 1:
            ramified = True
        mults.extend(roots.values())
    n = chain.total_degree
    if split:
        count = math.factorial(n)
        for m in mults:
            count //= math.factorial(m)
    else:
        count = 0
    return FiberProfile(count, tuple(profiles), ramified)


# ---------------------------------------------------------------------------
# Involutive variants: palindromic duplication of coordinates
# ---------------------------------------------------------------------------


def _mirror_embed(p: FanPoint, src_tag: str, dst_n: int, drop_first: bool) -> FanPoint:
    fan = p.fan
    if fan.family is None or fan.family.tag != src_tag:
        raise ValueError(f"expected a point on the {src_tag} fan")
    k = fan.rank
    a = list(p.coords[:k])
    b = list(p.coords[k:])
    mirror_a = a + list(reversed(a))[1:] if drop_first else a + list(reversed(a))
    mirror_b = b + list(reversed(b))[1:] if drop_first else b + list(reversed(b))
    dst = build_upsilon(FanFamily("A", dst_n))
    return make_point(dst, p.field, mirror_a + mirror_b)


def c_point_embed(p: FanPoint) -> FanPoint:
    """Duplicate a type-C point (a_{n-1}..a_0, b_{n-1}..b_0) into the
    palindromic type-A point of rank 2n-1."""
    n = p.fan.rank
    return _mirror_embed(p, "C", 2 * n - 1, drop_first=True)


def b_point_embed(p: FanPoint) -> FanPoint:
    """Duplicate a canonical type-B point (a_n..a_1, b_n..b_1) into the
    palindromic type-A point of rank 2n."""
    n = p.fan.rank
    return _mirror_embed(p, "Bcan", 2 * n, drop_first=False)


def minus_embed(p: FanPoint) -> FanPoint:
    """Send a minus-component point into the type-C fan on the stratum
    a_0 = 0, b_0 = 1."""
    fan = p.fan
    if fan.family is None or fan.family.tag != "Cminus":
        raise ValueError("expected a point on the C-minus fan")
    k = fan.rank  # n - 1
    a = list(p.coords[:k])
    b = list(p.coords[k:])
    f = p.field
    dst = build_upsilon(FanFamily("C", k + 1))
    return make_point(dst, f, a + [f.zero] + b + [f.one])


def _normalize_twists(p: FanPoint) -> FanPoint:
    """Move a point with nonvanishing twists to one with all b = 1, if the
    field permits; raises otherwise.

    With beta = (-C | I), the torus element that scales a_j by x_j scales
    b_i by prod_j x_j^C_ij, so x solves prod_j x_j^C_ij = 1/b_i."""
    f, k = p.field, p.fan.rank
    a, b = p.coords[:k], p.coords[k:]
    if any(f.is_zero(x) for x in b):
        raise ValueError("twist normalization requires all b nonzero")
    rows = [[-x for x in row[:k]] for row in p.fan.beta.to_rows()]
    units = solve_units(rows, [f.inv(x) for x in b], f)
    if units is None:
        raise ValueError("b-coordinates are not normalizable to 1 over this field")
    return FanPoint(p.fan, f, tuple(f.mul(x, f.of(u)) for x, u in zip(a, units)) + (f.one,) * k)


def involutive_polynomial(p: FanPoint) -> List[Element]:
    """The palindromic degree-2n coefficient list of an irreducible type-C
    point, after normalizing all twists to 1.

    The units that keep every twist at 1 flip the signs of the ``a``
    coordinates, turning f(t) into f(-t), so the answer is the
    lexicographically smaller of the two under ``field.sort_key``: the same
    for every point of one torus orbit.
    """
    fan = p.fan
    if fan.family is None or fan.family.tag != "C":
        raise ValueError("expected a point on the type-C fan")
    q = _normalize_twists(p)
    n = fan.rank
    f = p.field
    a = list(q.coords[:n])  # (a_{n-1}, ..., a_0)
    coeffs = [f.one] + a + list(reversed(a))[1:] + [f.one]
    flipped = [f.neg(c) if i % 2 else c for i, c in enumerate(coeffs)]
    return min(coeffs, flipped, key=lambda c: [f.sort_key(x) for x in c])


def involutive_fiber_profile(p: FanPoint) -> int:
    """Ordered rational preimages of an irreducible type-C point under the
    hyperoctahedral label-forgetting map.

    Counts tuples (s_1..s_n) of units, s_i not in {1,-1}, whose unordered
    system of inverse pairs {s_i, 1/s_i} realizes the root multiset of the
    palindromic polynomial.  Equals 2^n n! exactly when the 2n roots are
    distinct, rational and avoid the fixed points.
    """
    if not isinstance(p.field, PrimeField):
        raise ValueError("fiber counts are computed over prime fields")
    f = p.field
    n = p.fan.rank
    coeffs = involutive_polynomial(p)
    roots = unit_root_multiplicities(coeffs, f)
    if sum(roots.values()) != 2 * n:
        return 0
    one, minus_one = f.one, f.neg(f.one)
    if one in roots or minus_one in roots:
        return 0
    classes: Dict[frozenset, int] = {}
    for r, m in roots.items():
        inv = f.inv(r)
        key = frozenset((r, inv))
        if roots.get(inv, 0) != m:
            return 0
        classes[key] = m
    count = math.factorial(n)
    for m in classes.values():
        count //= math.factorial(m)
        count *= 2**m
    return count


def parity_component(coeffs: Sequence, field: Field) -> str:
    """Parity of a symmetric degree-2n coefficient sequence.

    ``+`` when the multiplicities of the roots 1 and -1 are both even,
    ``-`` otherwise.  Inputs must be palindromic or anti-palindromic;
    characteristic 2 is not supported (the two fixed points collide there).
    """
    if isinstance(field, PrimeField) and field.p == 2:
        raise ValueError("parity is undefined in characteristic 2")
    c = [field.of(x) for x in coeffs]
    if len(c) % 2 == 0:
        raise ValueError("expected an even-degree (odd-length) coefficient list")
    rev = list(reversed(c))
    palindromic = all(x == y for x, y in zip(c, rev))
    anti = all(x == field.neg(y) for x, y in zip(c, rev))
    if not palindromic and not anti:
        raise ValueError("coefficients are neither palindromic nor anti-palindromic")
    if field.is_zero(c[0]):
        raise ValueError("zero end coefficient")
    m_plus = root_multiplicity(c, field.one, field)
    m_minus = root_multiplicity(c, field.neg(field.one), field)
    if anti:
        # The symmetric factor t^2 - 1 forces odd multiplicities here.
        assert m_plus % 2 == 1 and m_minus % 2 == 1
        return "-"
    return "+" if m_plus % 2 == 0 and m_minus % 2 == 0 else "-"


def _reversal_related(p: Sequence[Element], q: Sequence[Element], field: Field) -> bool:
    """True iff q(t) = u * rev(p)(v t) for some units u, v.

    This is projective equivalence of the two component subschemes after the
    chain flip: one :func:`solve_units` call on u * v^r = q_r / rev_r over
    the nonzero positions r, so the units are found exactly (no field
    extensions)."""
    if len(p) != len(q):
        return False
    rev = list(reversed(list(p)))
    if any(field.is_zero(a) != field.is_zero(b) for a, b in zip(rev, q)):
        return False
    nonzero = [r for r in range(len(q)) if not field.is_zero(rev[r])]
    targets = [field.div(q[r], rev[r]) for r in nonzero]
    return solve_units([[1, r] for r in nonzero], targets, field) is not None


@dataclass(frozen=True)
class InvolutiveChainModel:
    """A chain model symmetric under reversal, with a parity tag in the
    even-degree case."""

    base: ChainModel
    parity: Optional[str]

    def __post_init__(self):
        degrees = self.base.component_degrees
        if degrees != tuple(reversed(degrees)):
            raise ValueError("component degrees must form a palindrome")
        polys = self.base.component_polys
        m = len(polys)
        for k in range((m + 1) // 2):
            if not _reversal_related(polys[k], polys[m - 1 - k], self.base.field):
                raise ValueError("component polynomials are not reversal-related")


def involutive_chain_from_point(p: FanPoint) -> InvolutiveChainModel:
    """Chain model of a type-C or canonical type-B point, via duplication.

    Type-C points always lie on the even-parity component; type-B points
    have odd total degree and carry no parity tag.
    """
    fan = p.fan
    if fan.family is not None and fan.family.tag == "C":
        chain = chain_from_point(c_point_embed(p))
        parity = "+"
    elif fan.family is not None and fan.family.tag == "Bcan":
        chain = chain_from_point(b_point_embed(p))
        parity = None
    else:
        raise ValueError("expected a type-C or canonical type-B point")
    return InvolutiveChainModel(chain, parity)
