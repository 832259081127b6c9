"""Field-valued points of the toric orbifolds and the torus action on them.

A point is one field element per ray, subject to the nondegeneracy condition
that the zero coordinates fit inside a single cone.  The acting group is
G = ker(beta) on the ray coordinates (Borisov, Chen & Smith, JAMS 2005), and
every orbit question is read off the rays: discrete logarithms turn
multiplicative systems over F_p into linear ones mod p-1, and prime
factorization plus a sign system does the same over Q (:func:`solve_units`).
In this module only :func:`act` reads the fan's weight matrix.

Over F_p the nondegenerate points split into strata, one per face tau: the
points whose zero set is tau, with support S the complement (the orbit-cone
correspondence, Cox-Little-Schenck, *Toric Varieties*, 3.2).  In logs mod
m = p-1 the group is {x : beta x = 0 mod m}, torsion included, so two points
of the stratum share an orbit exactly when the difference z of their logs
has beta_S z in im beta_tau + m Z^rank.  One Smith form of the face's rays
gives these z as a lattice L_S with an upper-triangular basis whose pivots
d_i divide m (:func:`_stratum_basis`).  It yields the canonical
representative of every orbit on the stratum (one greedy pass, see
:func:`canonical_form`) and the stratum's orbit count prod_i d_i, so
enumeration costs time in proportion to the number of orbits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .exact_linalg import FinDiagGroupDesc, IntMatrix, SmithForm, _augment, _hermite, snf, solve_mod
from .fields import Element, Field, PrimeField, RationalField, _is_prime_power, _prime_factors
from .root_fans import StackyFan, face_partition, fan_faces, weight_matrix

_DLOG_TABLE_BOUND = 200_003
_ORBIT_COUNT_BOUND = 10**5


@dataclass(frozen=True)
class FanPoint:
    """A field-valued point: one coordinate per ray of the fan."""

    fan: StackyFan
    field: Field
    coords: Tuple[Element, ...]

    def __post_init__(self):
        if len(self.coords) != self.fan.num_rays:
            raise ValueError("one coordinate per ray required")
        self.field.check_canonical("fan point: coords", self.coords)

    def support(self) -> Tuple[int, ...]:
        return tuple(
            r for r, c in enumerate(self.coords) if not self.field.is_zero(c)
        )

    def zero_set(self) -> Tuple[int, ...]:
        return tuple(r for r, c in enumerate(self.coords) if self.field.is_zero(c))

    def coord_ints(self) -> Tuple:
        """Coordinates keyed for sorting (canonical integer reps over F_p)."""
        return tuple(self.field.sort_key(c) for c in self.coords)


@dataclass(frozen=True)
class GroupElement:
    """An element of the acting torus: one unit per free generator."""

    units: Tuple[Element, ...]


def make_point(fan: StackyFan, field: Field, coords: Sequence) -> FanPoint:
    p = FanPoint(fan, field, tuple(field.of(c) for c in coords))
    if not is_nondegenerate(fan, p.coords, field):
        raise ValueError("degenerate point: zero set spans no cone of the fan")
    return p


def is_nondegenerate(fan: StackyFan, coords: Sequence, field: Field) -> bool:
    """True iff the set of rays with zero coordinate lies in some cone."""
    if len(coords) != fan.num_rays:
        raise ValueError("coordinate count does not match ray count")
    zero = {r for r, c in enumerate(coords) if field.is_zero(field.of(c))}
    if not zero:
        return True
    return any(zero.issubset(cone) for cone in fan.max_cones)


@lru_cache(maxsize=None)
def _weights(fan: StackyFan) -> IntMatrix:
    return weight_matrix(fan)


def act(g: GroupElement, p: FanPoint) -> FanPoint:
    """Multiply coordinate r by its character prod_k g.units[k]^W[k][r], W
    the fan's weight matrix."""
    w, f = _weights(p.fan), p.field
    if len(g.units) != w.rows:
        raise ValueError(f"the torus action needs {w.rows} units, got {len(g.units)}")
    units = [f.of(u) for u in g.units]
    if any(f.is_zero(u) for u in units):
        raise ValueError("group element units must be invertible")
    coords = []
    for r, v in enumerate(p.coords):
        for k, u in enumerate(units):
            e = w[k, r]
            if e:
                v = f.mul(v, f.pow(u, e))
        coords.append(v)
    return FanPoint(p.fan, f, tuple(coords))


# ---------------------------------------------------------------------------
# Multiplicative linear systems: does prod_k kappa_k^A[r][k] = t_r have a
# solution in units of the field?
# ---------------------------------------------------------------------------


class _DlogContext:
    """Discrete logarithms in F_p^* via a fixed generator and a full table."""

    def __init__(self, field: PrimeField):
        if field.p > _DLOG_TABLE_BOUND:
            raise ValueError(
                f"discrete-log guard: p = {field.p} exceeds the bound "
                f"_DLOG_TABLE_BOUND = {_DLOG_TABLE_BOUND}"
            )
        self.field = field
        self.g = _primitive_root(field.p)
        table: Dict[int, int] = {}
        x = 1
        for i in range(field.p - 1):
            table[x] = i
            x = (x * self.g) % field.p
        self.table = table

    def log(self, a: int) -> int:
        return self.table[a % self.field.p]


def _primitive_root(p: int) -> int:
    if p == 2:
        return 1
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise AssertionError("no primitive root found")


_DLOG_CACHE: Dict[int, _DlogContext] = {}


def _dlog_context(field: PrimeField) -> _DlogContext:
    ctx = _DLOG_CACHE.get(field.p)
    if ctx is None:
        ctx = _DLOG_CACHE[field.p] = _DlogContext(field)
    return ctx


def _rational_factor_data(values: Sequence[Fraction]):
    """Primes appearing in the values, their valuation vectors, and signs."""
    primes: List[int] = []
    seen = set()
    for v in values:
        for part in (abs(v.numerator), v.denominator):
            for q in _prime_factors(part):
                if q not in seen:
                    seen.add(q)
                    primes.append(q)
    primes.sort()

    def valuation(x: Fraction, q: int) -> int:
        e = 0
        num, den = x.numerator, x.denominator
        while num % q == 0:
            num //= q
            e += 1
        while den % q == 0:
            den //= q
            e -= 1
        return e

    vals = {q: [valuation(v, q) for v in values] for q in primes}
    signs = [0 if v > 0 else 1 for v in values]
    return primes, vals, signs


def solve_units(
    rows: Sequence[Sequence[int]], targets: Sequence[Element], field: Field
) -> Optional[List[Element]]:
    """Solve prod_k kappa_k^rows[r][k] = targets[r] for units kappa.

    Returns one solution or None.  Over F_p the system is linear mod p-1 in
    discrete logarithms; over Q it splits into one integer system per prime
    plus a sign system mod 2.
    """
    ngen = len(rows[0]) if rows else 0
    if not rows:
        return [field.one] * ngen
    A = IntMatrix.from_rows(rows)
    if isinstance(field, PrimeField):
        ctx = _dlog_context(field)
        b = [ctx.log(t) for t in targets]
        x = solve_mod(A, b, field.p - 1)
        if x is None:
            return None
        return [pow(ctx.g, e, field.p) for e in x]
    if isinstance(field, RationalField):
        values = [Fraction(t) for t in targets]
        primes, vals, signs = _rational_factor_data(values)
        form = snf(A)  # one Smith form for every prime and the signs
        exps = {}
        for q in primes:
            x = form.solve(vals[q])
            if x is None:
                return None
            exps[q] = x
        s = form.solve(signs, 2)
        if s is None:
            return None
        units = []
        for k in range(ngen):
            u = Fraction(-1 if s[k] % 2 else 1)
            for q in primes:
                u *= Fraction(q) ** exps[q][k]
            units.append(u)
        return units
    raise ValueError(f"unsupported field {field.name}")


def orbit_equal(p: FanPoint, q: FanPoint) -> bool:
    """Decide whether two nondegenerate points lie in the same torus orbit.

    With one support S, q is in the orbit of p exactly when some x in
    G = ker(beta) has x_s = q_s / p_s on S: one :func:`solve_units` call on
    a unit per ray, whose unit rows pin the quotients and whose rows of beta
    ask beta x = 1."""
    if p.fan != q.fan:
        raise ValueError("points live on different fans")
    if p.field != q.field:
        raise ValueError("points live over different fields")
    for pt in (p, q):
        if not is_nondegenerate(pt.fan, pt.coords, pt.field):
            raise ValueError("orbit comparison requires nondegenerate points")
    support, f, fan = p.support(), p.field, p.fan
    if support != q.support():
        return False
    rows = [[int(r == s) for r in range(fan.num_rays)] for s in support] + fan.beta.to_rows()
    targets = [f.div(q.coords[s], p.coords[s]) for s in support] + [f.one] * fan.rank
    return solve_units(rows, targets, f) is not None


def stabilizer(p: FanPoint) -> FinDiagGroupDesc:
    """Stabilizer group scheme of a nondegenerate point: the cokernel of its
    zero set's rays (:func:`_face_group`).  The order is a group-scheme
    order and does not depend on the field; a positive free rank signals an
    infinite stabilizer (dependent rays in the zero set)."""
    if not is_nondegenerate(p.fan, p.coords, p.field):
        raise ValueError("stabilizer requires a nondegenerate point")
    return _face_group(p.fan, p.zero_set())


def _face_form(fan: StackyFan, face: Sequence[int]) -> SmithForm:
    """One Smith form U beta_tau V = diag(d) of the face's rays as columns."""
    entries = tuple(fan.rays[r][i] for i in range(fan.rank) for r in face)
    return snf(IntMatrix(fan.rank, len(face), entries))


def _face_group(fan: StackyFan, face: Sequence[int]) -> FinDiagGroupDesc:
    """Z^rays / (im beta^T + Z^support), which fixes the points with zero set
    ``face``: Z^tau / im beta_tau^T, read off the face's Smith form (Borisov,
    Chen & Smith, JAMS 2005).  It needs no weights, so it is defined when the
    group has torsion."""
    form = _face_form(fan, face)
    return FinDiagGroupDesc(len(face) - form.rank, tuple(x for x in form.d if x > 1))


def stabilizer_order(p: FanPoint) -> int:
    desc = stabilizer(p)
    if not desc.is_finite:
        raise ValueError("stabilizer is infinite")
    return desc.order


# ---------------------------------------------------------------------------
# Canonical orbit representatives over prime fields
# ---------------------------------------------------------------------------


def canonical_form(p: FanPoint) -> FanPoint:
    """The lexicographically least point in the orbit of p.

    Coordinates are ordered by ray index and field elements by canonical
    integer representative.  With the upper-triangular basis of the stratum
    lattice L_S (module docstring), walk the support in ray order: the
    orbit lets coordinate i take exactly the units whose discrete log is
    congruent to the current log mod the pivot d_i, so it takes the least
    of them, and the matching multiple of basis row i moves the later
    coordinates along.  Only defined over prime fields; for rational points
    use :func:`orbit_equal` directly.
    """
    if not isinstance(p.field, PrimeField):
        raise ValueError("canonical forms are defined over prime fields only")
    if not is_nondegenerate(p.fan, p.coords, p.field):
        raise ValueError("canonical form requires a nondegenerate point")
    ctx = _dlog_context(p.field)
    support = p.support()
    basis = _stratum_basis(p.fan, p.zero_set(), p.field.p - 1)
    values = _least_values(ctx, basis, [ctx.log(p.coords[r]) for r in support])
    return _point_on(p.fan, p.field, support, values)


def _stratum_basis(
    fan: StackyFan, face: Sequence[int], modulus: int, form: Optional[SmithForm] = None
) -> List[List[int]]:
    """Upper-triangular basis of L_S = {z in Z^S : beta_S z in im beta_tau +
    ``modulus`` Z^rank}, S the support of ``face``: row i has its pivot at
    column i, and every pivot divides ``modulus``.

    With the face's Smith form U beta_tau V = diag(d) and c_j = gcd(d_j,
    modulus), z lies in L_S exactly when (U beta_S z)_j = 0 mod c_j for
    every j.  So one Hermite pass over the rows [U beta_s mod c | e_s] and
    [c_j e_j | 0] leaves L_S in the rows whose pivots lie past column rank."""
    form = form or _face_form(fan, face)
    rank, support = fan.rank, [r for r in range(fan.num_rays) if r not in face]
    c = [math.gcd(d, modulus) for d in form.d + (0,) * (rank - len(form.d))]
    rows = _augment([[x % cj for x, cj in zip(form.U.mul_vector(fan.rays[s]), c)] for s in support])
    rows += [[cj * (i == j) for j in range(rank + len(support))] for i, cj in enumerate(c)]
    _hermite(rows, rank + len(support))
    return [row[rank:] for row in rows[rank:]]


def _least_values(ctx: _DlogContext, basis: List[List[int]], logs: Sequence[int]) -> List[int]:
    """Coordinate values of the least point of the coset ``logs + L_S``."""
    modulus = ctx.field.p - 1
    x = list(logs)
    values = []
    for i, row in enumerate(basis):
        d = row[i]
        v = _least_unit(ctx, x[i] % d, d)
        step = (ctx.table[v] - x[i]) // d
        for j in range(i + 1, len(x)):
            x[j] = (x[j] + step * row[j]) % modulus
        values.append(v)
    return values


def _least_unit(ctx: _DlogContext, residue: int, d: int) -> int:
    """The least unit whose discrete log is congruent to ``residue`` mod d."""
    p = ctx.field.p
    if d * d < p - 1:
        # A hit is expected within about d integers, fewer than the
        # (p-1)/d elements of the coset.
        v = 1
        while ctx.table[v] % d != residue:
            v += 1
        return v
    step = pow(ctx.g, d, p)
    u = least = pow(ctx.g, residue, p)
    for _ in range((p - 1) // d - 1):
        u = u * step % p
        least = min(least, u)
    return least


def _point_on(
    fan: StackyFan, field: PrimeField, support: Sequence[int], values: Sequence[int]
) -> FanPoint:
    coords = [0] * fan.num_rays
    for r, v in zip(support, values):
        coords[r] = v
    return FanPoint(fan, field, tuple(coords))


# ---------------------------------------------------------------------------
# Point counts and exhaustive orbit enumeration
# ---------------------------------------------------------------------------


def count_coarse_points(fan: StackyFan, q: int) -> int:
    """F_q points of the coarse toric variety of a complete fan: a face tau
    is an orbit of (q-1)^(rank - |tau|) points, and the m free rays of an
    interval of :func:`face_partition` add up to sum_j C(m, j) (q-1)^(m-j) = q^m."""
    if not _is_prime_power(q):
        raise ValueError("q must be a prime power")
    return sum(q ** (fan.rank - len(low)) for low in face_partition(fan).values())


def enumerate_orbits(fan: StackyFan, p: int) -> List[Tuple[FanPoint, int]]:
    """Enumerate the torus orbits of nondegenerate F_p points (complete fans).

    Returns (canonical representative, stabilizer group-scheme order) pairs,
    sorted by representative.  Each face of the fan is one stratum, and one
    Smith form of its rays gives both the stabilizer order shared by the
    stratum and the lattice basis, whose pivots d_i make the reduced coset
    representatives prod range(d_i), one per orbit; each goes through the
    greedy pass of :func:`canonical_form`.  The orbit-count guard compares
    the number of faces (each stratum holds at least one orbit) with its
    bound before any face is listed, and the total sum over faces of
    prod d_i before any orbit is built.
    """
    field = PrimeField(p)
    ctx = _dlog_context(field)
    count = sum(2 ** (fan.rank - len(low)) for low in face_partition(fan).values())
    if count > _ORBIT_COUNT_BOUND:
        raise ValueError(
            f"orbit-count guard: at least {count} torus orbits of F_{p} points "
            f"(one per face) exceed the bound {_ORBIT_COUNT_BOUND}"
        )
    strata = []
    for face in fan_faces(fan):
        form = _face_form(fan, face)  # certified faces have independent rays: no d_j is 0
        support = tuple(r for r in range(fan.num_rays) if r not in face)
        strata.append((support, _stratum_basis(fan, face, p - 1, form), math.prod(form.d)))
    count = sum(math.prod(row[i] for i, row in enumerate(b)) for _, b, _ in strata)
    if count > _ORBIT_COUNT_BOUND:
        raise ValueError(
            f"orbit-count guard: {count} torus orbits of F_{p} points exceed "
            f"the bound {_ORBIT_COUNT_BOUND}"
        )
    orbits = []
    for support, basis, order in strata:
        pivots = [range(row[i]) for i, row in enumerate(basis)]
        for logs in itertools.product(*pivots):
            values = _least_values(ctx, basis, logs)
            orbits.append((_point_on(fan, field, support, values), order))
    orbits.sort(key=lambda orbit: orbit[0].coords)
    return orbits
