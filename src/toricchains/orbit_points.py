"""Field-valued points of the toric orbifolds and the torus action on them.

A point is one field element per ray, subject to the nondegeneracy condition
that the zero coordinates fit inside a single cone.  The acting split torus
multiplies coordinate r by the character prod_k kappa_k^(W[k][r]) where W is
the fan's weight matrix.  Orbit membership and stabilizer group schemes are
computed exactly through integer linear algebra: discrete logarithms reduce
multiplicative questions over F_p to linear systems mod p-1, and prime
factorization plus a sign system does the same over Q.

Over F_p the nondegenerate points split into strata, one per cone: the
stratum of a face is the set of points whose zero set is that face, and its
support S is the complement (the orbit-cone correspondence, Cox-Little-
Schenck, *Toric Varieties*, 3.2).  Discrete logs identify the stratum with
(Z/(p-1))^S, on which the torus acts by translation through the weight
columns W_S.  The orbits are the cosets of the lattice L_S spanned by the
rows of W_S mod p-1 and by (p-1) Z^S.  One Hermite normal form gives an
upper-triangular basis of L_S whose pivots d_i divide p-1; it yields the
canonical representative of every orbit on the stratum (one greedy pass,
see :func:`canonical_form`) and the stratum's orbit count prod_i d_i, so
enumeration costs time in proportion to the number of orbits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .exact_linalg import (
    FinDiagGroupDesc,
    IntMatrix,
    cokernel,
    hnf,
    snf,
    solve_mod,
)
from .fields import Element, Field, PrimeField, RationalField, _is_prime_power, _prime_factors
from .root_fans import StackyFan, check_fan, fan_faces, weight_matrix

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


def free_rank(fan: StackyFan) -> int:
    return _weights(fan).rows


def act(g: GroupElement, p: FanPoint) -> FanPoint:
    """Multiply each coordinate by its character value at g."""
    coords = scale_by_characters(_weights(p.fan), g.units, p.coords, p.field)
    return FanPoint(p.fan, p.field, tuple(coords))


def scale_by_characters(
    w: IntMatrix, units: Sequence[Element], coords: Sequence[Element], field: Field
) -> List[Element]:
    """Multiply coordinate r by its character prod_k units[k]^W[k][r]."""
    if len(units) != w.rows:
        raise ValueError(f"the torus action needs {w.rows} units, got {len(units)}")
    units = [field.of(u) for u in units]
    if any(field.is_zero(u) for u in units):
        raise ValueError("group element units must be invertible")
    new = []
    for r, c in enumerate(coords):
        v = c
        for k in range(w.rows):
            e = w[k, r]
            if e:
                v = field.mul(v, field.pow(units[k], e))
        new.append(v)
    return new


# ---------------------------------------------------------------------------
# Multiplicative linear systems: does prod_k kappa_k^A[r][k] = t_r have a
# solution in units of the field?
# ---------------------------------------------------------------------------


class _DlogContext:
    """Discrete logarithms in F_p^* via a fixed generator and a full table."""

    def __init__(self, field: PrimeField):
        if field.p > _DLOG_TABLE_BOUND:
            raise ValueError(f"prime {field.p} exceeds the discrete-log guard")
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
        if field.p == 2:
            # F_2^* is trivial: solvable iff all targets are 1.
            return [1] * ngen if all(t == 1 for t in targets) else None
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


def witness_units(
    w: IntMatrix, p: Sequence[Element], q: Sequence[Element], field: Field
) -> Optional[List[Element]]:
    """Units carrying the coordinates p to q under the weights W, or None
    when the supports differ or no units solve the system."""
    support = [r for r, c in enumerate(p) if not field.is_zero(c)]
    if support != [r for r, c in enumerate(q) if not field.is_zero(c)]:
        return None
    rows = [[w[k, r] for k in range(w.rows)] for r in support]
    targets = [field.div(q[r], p[r]) for r in support]
    return solve_units(rows, targets, field)


def orbit_witness(p: FanPoint, q: FanPoint) -> Optional[GroupElement]:
    """A group element carrying p to q, or None when their orbits differ."""
    if p.fan != q.fan:
        raise ValueError("points live on different fans")
    if p.field != q.field:
        raise ValueError("points live over different fields")
    for pt in (p, q):
        if not is_nondegenerate(pt.fan, pt.coords, pt.field):
            raise ValueError("orbit comparison requires nondegenerate points")
    units = witness_units(_weights(p.fan), p.coords, q.coords, p.field)
    if units is None:
        return None
    return GroupElement(tuple(p.field.of(u) for u in units))


def orbit_equal(p: FanPoint, q: FanPoint) -> bool:
    """Decide whether two nondegenerate points lie in the same torus orbit."""
    return orbit_witness(p, q) is not None


def stabilizer(p: FanPoint) -> FinDiagGroupDesc:
    """Stabilizer group scheme of a nondegenerate point.

    Computed as the cokernel of the character lattice spanned by the weights
    of the nonzero coordinates; the order is a group-scheme order and does
    not depend on the field.  A positive free rank signals an infinite
    stabilizer (non-complete support configuration).
    """
    if not is_nondegenerate(p.fan, p.coords, p.field):
        raise ValueError("stabilizer requires a nondegenerate point")
    w = _weights(p.fan)
    support = p.support()
    if not support:
        return FinDiagGroupDesc(w.rows, ())
    cols = IntMatrix.from_rows(
        [[w[k, r] for r in support] for k in range(w.rows)]
    )
    return cokernel(cols)


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
    basis = _stratum_basis(_weights(p.fan), support, p.field.p - 1)
    values = _least_values(ctx, basis, [ctx.log(p.coords[r]) for r in support])
    return _point_on(p.fan, p.field, support, values)


def _stratum_basis(
    w: IntMatrix, support: Sequence[int], modulus: int
) -> List[List[int]]:
    """Upper-triangular basis of the lattice spanned by the rows of W_S mod
    ``modulus`` and by ``modulus`` Z^S: row i has its pivot at column i, and
    every pivot divides ``modulus``."""
    rows = [[w[k, r] % modulus for r in support] for k in range(w.rows)]
    rows += [[modulus if i == j else 0 for j in range(len(support))] for i in range(len(support))]
    h, _ = hnf(IntMatrix.from_rows(rows))
    return h.to_rows()[: len(support)]


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
    if d == 1:
        return 1
    if d == p - 1:
        return pow(ctx.g, residue, p)
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


@lru_cache(maxsize=None)
def _complete_fan_faces(fan: StackyFan) -> Tuple[Tuple[int, ...], ...]:
    if not check_fan(fan).all_ok:
        raise ValueError("coarse point count requires a verified complete fan")
    return tuple(fan_faces(fan))


def count_coarse_points(fan: StackyFan, q: int) -> int:
    """Number of F_q points of the coarse toric variety: each cone sigma
    contributes one torus orbit of size (q-1)^(rank - dim sigma)."""
    if not _is_prime_power(q):
        raise ValueError("q must be a prime power")
    return sum((q - 1) ** (fan.rank - len(face)) for face in _complete_fan_faces(fan))


def enumerate_orbits(fan: StackyFan, p: int) -> List[Tuple[FanPoint, int]]:
    """Enumerate the torus orbits of nondegenerate F_p points.

    Returns (canonical representative, stabilizer group-scheme order) pairs,
    sorted by representative.  Each face of the fan is one stratum: one HNF
    gives its lattice basis, whose pivots d_i make the reduced coset
    representatives prod range(d_i), one per orbit, and each goes through
    the greedy pass of :func:`canonical_form`; one cokernel gives the
    stabilizer order shared by the stratum.  The orbit-count guard compares
    the number of faces (each stratum holds at least one orbit) with its
    bound before the first HNF, and the total sum over faces of prod d_i
    before any orbit is built.
    """
    field = PrimeField(p)
    ctx = _dlog_context(field)
    w = _weights(fan)
    faces = fan_faces(fan)
    if len(faces) > _ORBIT_COUNT_BOUND:
        raise ValueError(
            f"orbit-count guard: at least {len(faces)} torus orbits of F_{p} points "
            f"(one per face) exceed the bound {_ORBIT_COUNT_BOUND}"
        )
    strata = []
    for face in faces:
        support = tuple(r for r in range(fan.num_rays) if r not in face)
        strata.append((support, _stratum_basis(w, support, p - 1)))
    count = sum(math.prod(row[i] for i, row in enumerate(b)) for _, b in strata)
    if count > _ORBIT_COUNT_BOUND:
        raise ValueError(
            f"orbit-count guard: {count} torus orbits of F_{p} points exceed "
            f"the bound {_ORBIT_COUNT_BOUND}"
        )
    orbits = []
    for support, basis in strata:
        order = stabilizer_order(_point_on(fan, field, support, [1] * len(support)))
        pivots = [range(row[i]) for i, row in enumerate(basis)]
        for logs in itertools.product(*pivots):
            values = _least_values(ctx, basis, logs)
            orbits.append((_point_on(fan, field, support, values), order))
    orbits.sort(key=lambda orbit: orbit[0].coords)
    return orbits
