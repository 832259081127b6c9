"""Pointed chains of projective lines over a field, as coordinate data.

A degree-n pointed chain is encoded by the degrees of its components and,
per component, the univariate polynomial cutting out the length-n subscheme
in that component's affine chart.  The conversions here move between fan
points (coordinate tuples modulo the torus) and chain models, implement the
degree-n! label-forgetting fiber analysis, and handle the involutive (type
B/C) variants by palindromic duplication of coordinates.

Polynomial coefficient lists are ascending: ``c[r]`` multiplies ``t**r``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exact_linalg import IntMatrix
from .fields import Element, Field, PrimeField
from .orbit_points import (
    FanPoint,
    GroupElement,
    act,
    is_nondegenerate,
    make_point,
    scale_by_characters,
    solve_units,
    witness_units,
    _weights,
)
from .root_fans import FanFamily, build_upsilon


# ---------------------------------------------------------------------------
# Univariate helpers
# ---------------------------------------------------------------------------


def poly_trim(c: Sequence[Element], field: Field) -> List[Element]:
    out = list(c)
    while out and field.is_zero(out[-1]):
        out.pop()
    return out


def poly_eval(c: Sequence[Element], x: Element, field: Field) -> Element:
    acc = field.zero
    for coeff in reversed(list(c)):
        acc = field.add(field.mul(acc, x), coeff)
    return acc


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


def poly_gcd(a: Sequence[Element], b: Sequence[Element], field: Field) -> List[Element]:
    a = poly_trim(a, field)
    b = poly_trim(b, field)
    while b:
        _, r = poly_divmod(a, b, field)
        a, b = b, r
    if a:
        inv = field.inv(a[-1])
        a = [field.mul(x, inv) for x in a]
    return a


def poly_derivative(c: Sequence[Element], field: Field) -> List[Element]:
    return poly_trim(
        [field.mul(field.of(i), x) for i, x in enumerate(c)][1:], field
    )


def poly_from_roots(roots: Sequence[Element], field: Field) -> List[Element]:
    out = [field.one]
    for r in roots:
        out = poly_mul(out, [field.neg(r), field.one], field)
    return out


def root_multiplicity(c: Sequence[Element], r: Element, field: Field) -> int:
    mult = 0
    cur = poly_trim(c, field)
    while cur and field.is_zero(poly_eval(cur, r, field)):
        cur, rem = poly_divmod(cur, [field.neg(r), field.one], field)
        assert not rem
        mult += 1
    return mult


def _pow_minus_one(
    base: Sequence[Element], e: int, mod: Sequence[Element], field: Field
) -> List[Element]:
    """base**e - 1 modulo mod, by repeated squaring."""
    h = [field.one]
    while e:
        if e & 1:
            h = poly_divmod(poly_mul(h, base, field), mod, field)[1] or [field.zero]
        e >>= 1
        if e:
            base = poly_divmod(poly_mul(base, base, field), mod, field)[1]
    h[0] = field.sub(h[0], field.one)
    return poly_trim(h, field)


def _split_roots(g: List[Element], field: PrimeField) -> List[int]:
    """The roots of a monic g that is a product of distinct t - r, r a unit.

    gcd(g, (t+a)^((p-1)/2) - 1) keeps the roots r with r + a a nonzero
    square.  For two roots r != s, as a runs over F_p minus {-s}, (r+a)/(s+a)
    takes every value but 1 once, so for (p-1)/2 values of a it is a
    nonsquare and exactly one of r, s is kept: some a < p splits g."""
    if len(g) <= 2:
        return [field.neg(g[0])] if len(g) == 2 else []
    half = (field.p - 1) // 2
    for a in range(field.p):
        d = poly_gcd(g, _pow_minus_one([a, field.one], half, g, field), field)
        if 1 < len(d) < len(g):
            rest, _ = poly_divmod(g, d, field)
            return _split_roots(d, field) + _split_roots(rest, field)
    raise AssertionError("no shift splits a product of distinct linear factors")


def unit_root_multiplicities(
    c: Sequence[Element], field: PrimeField
) -> Dict[int, int]:
    """Multiplicities of all roots in F_p^*, in increasing order.

    The distinct unit roots of f are those of g = gcd(f, t^(p-1) - 1), which
    :func:`_split_roots` splits into linear factors (Cantor-Zassenhaus; von
    zur Gathen-Gerhard, *Modern Computer Algebra*, ch. 14), and division
    gives each multiplicity, in O(d^2 log p) field operations for degree d."""
    f = poly_trim(c, field)
    if not f:
        raise ValueError("the zero polynomial vanishes at every unit")
    g = poly_gcd(f, _pow_minus_one([field.zero, field.one], field.p - 1, f, field), field)
    return {r: root_multiplicity(f, r, field) for r in sorted(_split_roots(g, field))}


def is_squarefree(c: Sequence[Element], field: Field) -> bool:
    c = poly_trim(c, field)
    if len(c) <= 1:
        return True
    d = poly_derivative(c, field)
    if not d:
        # Vanishing derivative of a nonconstant polynomial: p-th power.
        return False
    return len(poly_gcd(c, d, field)) == 1


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

    def is_irreducible(self) -> bool:
        return self.num_components == 1

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


def act_extended(units: Sequence[Element], e: ExtendedPoint) -> ExtendedPoint:
    new = scale_by_characters(extended_weight_matrix(e.n), units, e.coords(), e.field)
    return ExtendedPoint(e.n, e.field, tuple(new[: e.n + 1]), tuple(new[e.n + 1 :]))


def orbit_equal_extended(p: ExtendedPoint, q: ExtendedPoint) -> bool:
    """Orbit equality for extended points under the rank-(n+1) torus."""
    if p.n != q.n or p.field != q.field:
        raise ValueError("extended points are not comparable")
    w = extended_weight_matrix(p.n)
    return witness_units(w, p.coords(), q.coords(), p.field) is not None


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
    e = ExtendedPoint(n, field, tuple(c), (field.one,) * (n - 1))
    roots = _nth_roots(field.div(c[0], c[-1]), n, field)
    if not roots:
        return e
    r = roots[0]
    # kappa_i = r**i / c_0 fixes all twists and normalizes both ends.
    k0 = field.inv(c[0])
    units = [field.mul(k0, field.pow(r, i)) for i in range(n + 1)]
    return act_extended(units, e)


def polynomial_orbit_invariants(coeffs: Sequence, field: Field) -> List[Element]:
    """The twist invariants c_{k-1} c_{k+1} / c_k^2 of an all-nonzero
    coefficient tuple; constant along extended orbits with fixed twists."""
    c = [field.of(x) for x in coeffs]
    if any(field.is_zero(x) for x in c):
        raise ValueError("invariants need all coefficients nonzero")
    return [
        field.div(field.mul(c[k - 1], c[k + 1]), field.mul(c[k], c[k]))
        for k in range(1, len(c) - 1)
    ]


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
        if any(m > 1 for m in roots.values()) or not is_squarefree(poly, f):
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
    field permits; raises otherwise."""
    f = p.field
    w = _weights(p.fan)
    k = p.fan.rank
    b_positions = list(range(k, 2 * k))
    if any(f.is_zero(p.coords[r]) for r in b_positions):
        raise ValueError("twist normalization requires all b nonzero")
    rows = [[w[j, r] for j in range(w.rows)] for r in b_positions]
    targets = [f.inv(p.coords[r]) for r in b_positions]
    units = solve_units(rows, targets, f)
    if units is None:
        raise ValueError("b-coordinates are not normalizable to 1 over this field")
    return act(GroupElement(tuple(f.of(u) for u in units)), p)


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
    chain flip; the units are recovered exactly (no field extensions)."""
    if len(p) != len(q):
        return False
    rev = list(reversed(list(p)))
    if any(field.is_zero(a) != field.is_zero(b) for a, b in zip(rev, q)):
        return False
    u = field.div(q[0], rev[0])
    constraints = []  # v^r = t_r for each nonzero position r >= 1
    for r in range(1, len(q)):
        if field.is_zero(rev[r]):
            continue
        constraints.append((r, field.div(q[r], field.mul(u, rev[r]))))
    if not constraints:
        return True
    # Every solution v is among the r-th roots of t_r, for any one constraint.
    r0, t0 = constraints[0]
    return any(
        all(field.pow(w, r) == t for r, t in constraints)
        for w in _nth_roots(t0, r0, field)
    )


@dataclass(frozen=True)
class InvolutiveChainModel:
    """A chain model symmetric under reversal, with a parity tag in the
    even-degree case."""

    base: ChainModel
    palindromic: bool
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
    return InvolutiveChainModel(chain, True, parity)
