"""Stacky fans from Cartan matrices of types A, B, C.

A fan here is a simplicial fan in Z^rank together with a chosen integer
generator per ray, encoded by the matrix whose columns are the ray
generators.  The main constructions are the rank-n fans with 2n rays built
from the block matrix (-C | I_n), C a Cartan matrix, and the permutohedral
fan of the Losev-Manin space.  Everything is exact.  Facet functionals
answer every cone question (simplicial, pure, wall condition, completeness,
membership, lattice maps sending cones into cones); one fraction-free
elimination gives them for one cone, and one exchange pivot carries them
across a wall.  A cone-count guard, ``_CONE_GUARD``, bounds the maximal
cones a construction may list and trips before the first one is built.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .exact_linalg import (
    FinDiagGroupDesc,
    IntMatrix,
    bareiss,
    bareiss_pivot,
    cokernel,
    snf,
)

FAMILY_TAGS = ("A", "B", "Bcan", "C", "Cminus", "SigmaA")
_CONE_GUARD = 2**14


@dataclass(frozen=True)
class FanFamily:
    """A named fan construction together with its rank parameter."""

    tag: str
    n: int

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise ValueError(f"unknown family tag {self.tag!r}")
        if self.n < 1:
            raise ValueError("rank parameter must be >= 1")
        if self.tag == "Cminus" and self.n < 2:
            # n = 1 would be the zero-dimensional group-only case.
            raise ValueError("the C-minus variant requires n >= 2")
        if self.tag == "SigmaA" and self.n < 2:
            raise ValueError("the permutohedral fan requires n >= 2")


@dataclass(frozen=True)
class StackyFan:
    """Rays with chosen integer generators plus maximal-cone combinatorics.

    ``rays[i]`` is the generator of ray i; ``beta`` is the rank x #rays
    matrix with these columns.  ``max_cones`` lists the maximal cones as
    sorted tuples of ray indices.
    """

    rank: int
    rays: Tuple[Tuple[int, ...], ...]
    ray_labels: Tuple[str, ...]
    max_cones: Tuple[Tuple[int, ...], ...]
    family: Optional[FanFamily] = None

    def __post_init__(self):
        if len(self.rays) != len(self.ray_labels):
            raise ValueError("one label per ray required")
        for v in self.rays:
            if len(v) != self.rank:
                raise ValueError("ray dimension mismatch")
            if all(x == 0 for x in v):
                raise ValueError("zero vector cannot generate a ray")
        for cone in self.max_cones:
            if not all(map(operator.lt, cone, cone[1:])):
                raise ValueError("cone ray indices must be sorted and distinct")
            # strictly increasing, so its ends bound every index
            if cone and not (0 <= cone[0] and cone[-1] < len(self.rays)):
                raise ValueError("cone ray index out of range")

    @property
    def num_rays(self) -> int:
        return len(self.rays)

    @property
    def beta(self) -> IntMatrix:
        return IntMatrix.from_rows(
            [[v[i] for v in self.rays] for i in range(self.rank)]
        )

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "ray_labels": list(self.ray_labels),
            "rays": [list(v) for v in self.rays],
            "max_cones": [list(c) for c in self.max_cones],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _json_entry(data: dict, key: str, ok, shape: str):
    """``data[key]`` if ``ok`` accepts it; else a ValueError naming the key."""
    if key not in data:
        raise ValueError(f"fan file: missing key {key!r}")
    if not ok(data[key]):
        raise ValueError(f"fan file: key {key!r} must be {shape}")
    return data[key]


def _is_list_of(value, kind: type) -> bool:
    # exact types, so that a bool is no int
    return type(value) is list and set(map(type, value)) <= {kind}


def _is_int_rows(value) -> bool:
    if not _is_list_of(value, list):
        return False
    return set(map(type, itertools.chain.from_iterable(value))) <= {int}


def fan_from_json(text: str) -> StackyFan:
    """Read the ``to_json`` format (``schemas/fan.schema.json``).  A missing
    or unknown key, or an entry that is not an int (bools included) or a str
    label, raises ValueError naming the key."""
    data = json.loads(text)
    if type(data) is not dict:
        raise ValueError("fan file: expected a JSON object")
    unknown = sorted(data.keys() - {"rank", "ray_labels", "rays", "max_cones"})
    if unknown:
        raise ValueError(f"fan file: unknown key {unknown[0]!r}")
    rank = _json_entry(data, "rank", lambda v: type(v) is int, "an integer")
    rows = "a list of integer lists"
    rays = tuple(map(tuple, _json_entry(data, "rays", _is_int_rows, rows)))
    max_cones = tuple(map(tuple, _json_entry(data, "max_cones", _is_int_rows, rows)))
    strings = "a list of strings"
    labels = tuple(_json_entry(data, "ray_labels", lambda v: _is_list_of(v, str), strings))
    named = _named_fan(rank, rays, max_cones)
    if named is not None and named.ray_labels == labels:
        return named
    return StackyFan(rank, rays, labels, max_cones, named.family if named else None)


# ---------------------------------------------------------------------------
# Cartan matrices and the block matrices defining the fans
# ---------------------------------------------------------------------------


def cartan_matrix(tag: str, n: int) -> IntMatrix:
    """Cartan matrix of type A, B or C at rank n.

    Type A is the symmetric tridiagonal matrix; type C has the doubled entry
    in position (n, n-1); type B is the transpose of type C (so the doubled
    entry -2 sits in position (n-1, n)).
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    if tag not in ("A", "B", "C"):
        raise ValueError(f"no Cartan matrix for tag {tag!r}")
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2
        if i + 1 < n:
            rows[i][i + 1] = -1
            rows[i + 1][i] = -1
    if n >= 2:
        if tag == "C":
            rows[n - 1][n - 2] = -2
        elif tag == "B":
            rows[n - 2][n - 1] = -2
    return IntMatrix.from_rows(rows)


def _bcan_matrix(n: int) -> IntMatrix:
    """Type-B matrix with its rightmost column halved (ray made primitive)."""
    if n == 1:
        return IntMatrix.from_rows([[1]])
    rows = cartan_matrix("B", n).to_rows()
    for i in range(n):
        if rows[i][n - 1] % 2 != 0:
            raise AssertionError("type-B rightmost column must be even")
        rows[i][n - 1] //= 2
    return IntMatrix.from_rows(rows)


def upsilon_beta(family: FanFamily) -> IntMatrix:
    """The rank x (2*rank) block matrix whose columns generate the rays."""
    tag, n = family.tag, family.n
    if tag == "SigmaA":
        raise ValueError("the permutohedral fan is not of block (-C | I) shape")
    if tag == "Cminus":
        c = cartan_matrix("C", n - 1)
        right = IntMatrix.identity(n - 1).to_rows()
        right[n - 2][n - 2] = 2
        neg = [[-x for x in row] for row in c.to_rows()]
        return IntMatrix.from_rows(
            [neg[i] + right[i] for i in range(n - 1)]
        )
    if tag == "Bcan":
        c = _bcan_matrix(n)
    else:
        c = cartan_matrix(tag, n)
    ident = IntMatrix.identity(n).to_rows()
    neg = [[-x for x in row] for row in c.to_rows()]
    return IntMatrix.from_rows([neg[i] + ident[i] for i in range(n)])


def _upsilon_labels(family: FanFamily) -> Tuple[str, ...]:
    tag, n = family.tag, family.n
    if tag == "A":
        idx = list(range(1, n + 1))
    elif tag in ("B", "Bcan"):
        idx = list(range(n, 0, -1))
    elif tag == "C":
        idx = list(range(n - 1, -1, -1))
    elif tag == "Cminus":
        idx = list(range(n - 1, 0, -1))
    else:
        raise ValueError(tag)
    return tuple(f"rho_{i}" for i in idx) + tuple(f"tau_{i}" for i in idx)


def _check_cone_count(name: str, formula: str, count: int) -> None:
    """The constructions list every maximal cone."""
    if count > _CONE_GUARD:
        raise ValueError(
            f"cone-count guard: {name} has {formula} = {count} maximal cones, "
            f"above the bound _CONE_GUARD = {_CONE_GUARD}"
        )


def _family_rays(family: FanFamily) -> Tuple[Tuple[int, ...], ...]:
    """The ray generators of a named construction, with no cone listed."""
    n = family.n
    if family.tag == "SigmaA":
        return tuple(
            tuple(-(i not in s) if n in s else int(i in s) for i in range(1, n))
            for s in sigma_subsets(n)
        )
    beta = upsilon_beta(family)
    return tuple(beta.col(j) for j in range(beta.cols))


def build_upsilon(family: FanFamily) -> StackyFan:
    """The stacky fan with rays the columns of (-C | I) and the 2^k maximal
    cones picking, for every index i, either the rho_i ray or the tau_i ray."""
    rays = _family_rays(family)
    k = len(rays) // 2  # number of rho/tau pairs
    _check_cone_count(f"{family.tag}_{family.n}", f"2^{k}", 2**k)
    cones = []
    for mask in range(2**k):
        cone = tuple(
            sorted((k + p if (mask >> p) & 1 else p) for p in range(k))
        )
        cones.append(cone)
    return StackyFan(
        rank=k,
        rays=rays,
        ray_labels=_upsilon_labels(family),
        max_cones=tuple(cones),
        family=family,
    )


def _subset_label(subset: Tuple[int, ...]) -> str:
    return "v_{" + ",".join(str(i) for i in subset) + "}"


def sigma_subsets(n: int) -> List[Tuple[int, ...]]:
    """All nonempty proper subsets of {1..n}, sorted by (size, elements)."""
    out = []
    for size in range(1, n):
        out.extend(itertools.combinations(range(1, n + 1), size))
    return out


def build_sigma_A(n: int) -> StackyFan:
    """The complete smooth fan with one ray per nonempty proper subset of
    {1..n} and one maximal cone per permutation (a flag of nested subsets).

    The ambient lattice Z^n/(sum of basis vectors) is coordinatized by
    dropping the last basis vector, so v_n maps to -(e_1 + ... + e_{n-1}).
    """
    if n < 2:
        raise ValueError("n >= 2 required")
    _check_cone_count(f"SigmaA_{n}", f"{n}!", math.factorial(n))
    family = FanFamily("SigmaA", n)
    subsets = sigma_subsets(n)
    index = {frozenset(s): i for i, s in enumerate(subsets)}
    cones = []
    seen = set()
    for sigma in itertools.permutations(range(1, n + 1)):
        flag = []
        acc: List[int] = []
        for k in range(n - 1):
            acc.append(sigma[n - 1 - k])
            flag.append(index[frozenset(acc)])
        cone = tuple(sorted(flag))
        if cone in seen:
            raise AssertionError("flag cones must be distinct")
        seen.add(cone)
        cones.append(cone)
    return StackyFan(
        rank=n - 1,
        rays=_family_rays(family),
        ray_labels=tuple(_subset_label(s) for s in subsets),
        max_cones=tuple(cones),
        family=family,
    )


def _named_fan(rank: int, rays, max_cones) -> Optional[StackyFan]:
    """The construction with these rays and cones, if there is one.

    The rays pick the candidate: constructions of one rank share their rays
    only where they share their cones too (A_1, B_1 and C_1), so only the
    first candidate with the same rays is built and its cones compared.
    """
    if not 1 <= rank <= len(rays) or any(len(v) != rank for v in rays):
        return None  # no construction, and no candidate larger than the input
    candidates = []
    if len(rays) == 2 * rank:
        candidates += [FanFamily(tag, rank) for tag in ("A", "B", "Bcan", "C")]
        candidates.append(FanFamily("Cminus", rank + 1))
    if len(rays) == 2 ** (rank + 1) - 2:
        candidates.append(FanFamily("SigmaA", rank + 1))
    for fam in candidates:
        if _family_rays(fam) == rays:
            try:
                fan = build_sigma_A(fam.n) if fam.tag == "SigmaA" else build_upsilon(fam)
            except ValueError:  # past the cone-count guard
                return None
            return fan if fan.max_cones == max_cones else None
    return None


# ---------------------------------------------------------------------------
# Exact cone geometry
# ---------------------------------------------------------------------------


# A cone's facet functionals: (inequalities, equations).
_Functionals = Tuple[List[List[int]], List[List[int]]]


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(operator.mul, u, v))


def _facet_functionals(fan: StackyFan, cone: Sequence[int]) -> _Functionals:
    """The pair ``(inequalities, equations)`` of a cone with independent
    rays, read off one elimination of ``[B | I]``, B the matrix with the
    cone's rays as columns.

    Inequality i is a pivot row of the right block, signed so that it is
    positive on the i-th ray; it vanishes on every other ray.  The equations
    are the right-block rows past the rank, a basis of the functionals that
    vanish on every ray; they are empty exactly when the cone is
    full-dimensional.  The cone is the set where every inequality is >= 0
    and every equation is 0.  Raises ValueError when the rays are dependent.
    """
    k = len(cone)
    rows = [[fan.rays[j][i] for j in cone] + [int(i == c) for c in range(fan.rank)]
            for i in range(fan.rank)]
    m, pivots, d, _ = bareiss(rows, k)
    if len(pivots) < k:
        raise ValueError(f"cone {tuple(cone)} has linearly dependent rays")
    s = 1 if d > 0 else -1
    return [[s * x for x in row[k:]] for row in m[:k]], [row[k:] for row in m[k:]]


def _walk(fan: StackyFan) -> Tuple[dict, dict]:
    """``(walls, functionals)``: each facet with the (cone, position of the
    ray off it) pairs that hold it, and each maximal cone's functionals, None
    for dependent rays.  If c2 swaps ray i of c1 for v, with ``u = |det| B^-1``,
    ``piv = u_i.v`` and ``f_j = u_j.v``, then c2 has ``sgn(piv) u_i`` and
    ``sgn(piv) (piv u_j - f_j u_i) / |det c1|``, and ``|det c2| = |piv|``: one
    Bareiss pivot on ``[u | f]`` at row i.  So one elimination seeds each
    piece of the wall graph and one pivot reaches each further cone, while
    ``piv == 0`` (dependent rays) ends the walk.  Cones of another size
    carry equations and get their own elimination."""
    walls: Dict[Tuple[int, ...], list] = {}
    for cone in fan.max_cones:
        for pos in range(len(cone)):
            walls.setdefault(cone[:pos] + cone[pos + 1 :], []).append((cone, pos))
    out: Dict[Tuple[int, ...], Optional[_Functionals]] = {}
    for seed in fan.max_cones:
        if seed in out:
            continue
        try:
            out[seed] = _facet_functionals(fan, seed)
        except ValueError:
            out[seed] = None
            continue
        stack = [seed] if len(seed) == fan.rank else []
        while stack:
            c1 = stack.pop()
            us = out[c1][0]
            for i in range(len(c1)):
                for c2, i2 in walls[c1[:i] + c1[i + 1 :]]:
                    if c2 in out:
                        continue
                    m = [u + [_dot(u, fan.rays[c2[i2]])] for u in us]
                    piv = m[i][-1]
                    out[c2] = None
                    if piv != 0:
                        bareiss_pivot(m, i, fan.rank, _dot(us[i], fan.rays[c1[i]]))
                        m = [[x if piv > 0 else -x for x in row[:-1]] for row in m]
                        m.insert(i2, m.pop(i))
                        out[c2] = (m, [])
                        stack.append(c2)
    return walls, out


def _in_cone(functionals: _Functionals, v: Sequence[int]) -> bool:
    inequalities, equations = functionals
    return all(_dot(u, v) >= 0 for u in inequalities) and all(
        _dot(e, v) == 0 for e in equations
    )


def cone_contains(fan: StackyFan, cone: Sequence[int], vector: Sequence[int]) -> bool:
    """Exact membership of an integer vector in the cone spanned by the
    given rays.  Raises ValueError when the rays are dependent."""
    return _in_cone(_facet_functionals(fan, cone), vector)


# ---------------------------------------------------------------------------
# Fan validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FanReport:
    simplicial: bool
    pure: bool
    wall_condition: bool
    complete: bool

    @property
    def all_ok(self) -> bool:
        return self.simplicial and self.pure and self.wall_condition and self.complete

    def to_dict(self) -> dict:
        return {
            "simplicial": self.simplicial,
            "pure": self.pure,
            "wall_condition": self.wall_condition,
            "complete": self.complete,
        }


def check_fan(fan: StackyFan) -> FanReport:
    """Exact certificate that the maximal cones form a complete simplicial fan.

    ``simplicial``: every cone has independent rays.  ``pure``: every cone
    has ``rank`` rays.  ``wall_condition``: both hold, and every facet lies
    in exactly two maximal cones whose remaining rays lie strictly on
    opposite sides of it.  Then the number of cones containing a point is
    the same for every point on no facet hyperplane.  ``complete``: the wall
    condition holds and that number is one, so the cones cover space once
    and form a complete fan.
    """
    return _certify(fan)[0]


def _certify(fan: StackyFan) -> Tuple[FanReport, dict, Optional[List[int]]]:
    """:func:`check_fan`'s report, each maximal cone's inequalities (None for
    dependent rays) and its point x (None unless the wall condition holds)."""
    walls, by_cone = _walk(fan)
    functionals = {cone: f and f[0] for cone, f in by_cone.items()}
    simplicial = all(f is not None for f in functionals.values())
    pure = all(len(cone) == fan.rank for cone in fan.max_cones)

    def opposite(sides) -> bool:
        # The first cone's functional for its ray off the facet must be
        # negative on the second cone's ray off the facet.
        (c1, i1), (c2, i2) = sides
        return _dot(functionals[c1][i1], fan.rays[c2[i2]]) < 0

    wall = pure and simplicial and all(
        len(sides) == 2 and opposite(sides) for sides in walls.values()
    )

    complete, x = False, None
    if wall:
        # A facet functional u is nonzero, so sum(u_i * M**i) is a nonzero
        # integer polynomial in M; by Cauchy's bound its roots have absolute
        # value below 1 + max|u_i|.  So x = (1, M, M**2, ...) with M one past
        # every |u_i| lies on no facet hyperplane.
        M = 1 + max((max(map(abs, u)) for us in functionals.values() for u in us), default=0)
        x = [M**i for i in range(fan.rank)]
        inside = sum(all(_dot(u, x) > 0 for u in us) for us in functionals.values())
        complete = inside == 1
    return FanReport(simplicial, pure, wall, complete), functionals, x


@lru_cache(maxsize=None)
def face_partition(fan: StackyFan) -> Dict[Tuple[int, ...], Tuple[int, ...]]:
    """``{sigma: R(sigma)}``, R(sigma) the rays of sigma whose inequality is
    negative at the x of :func:`check_fan`.  As x lies on no facet
    hyperplane, each face F lies in exactly one interval [R(sigma), sigma],
    the one whose sigma holds F + eps x; the sizes |R(sigma)| count the
    h-vector (Fulton, *Introduction to Toric Varieties*, 1993, 5.2).
    Raises ValueError unless the certificate passes."""
    report, functionals, x = _certify(fan)
    if not report.all_ok:
        raise ValueError("faces and point counts require a verified complete fan")
    return {
        cone: tuple(r for r, u in zip(cone, us) if _dot(u, x) < 0)
        for cone, us in functionals.items()
    }


def fan_faces(fan: StackyFan) -> List[Tuple[int, ...]]:
    """All faces of a complete fan, the zero cone included, each once, in
    (size, rays) order: R(sigma) plus each subset of the rest of sigma."""
    faces = []
    for cone, low in face_partition(fan).items():
        free = [r for r in cone if r not in low]
        for size in range(len(free) + 1):
            faces += (tuple(sorted(low + sub)) for sub in itertools.combinations(free, size))
    return sorted(faces, key=lambda f: (len(f), f))


# ---------------------------------------------------------------------------
# Group data and morphisms
# ---------------------------------------------------------------------------


class WeightTorsionError(ValueError):
    """Raised when character weights are requested but the acting group has
    a finite (torsion) factor, so no integer weight matrix exists."""


def dg_group(fan: StackyFan) -> FinDiagGroupDesc:
    """The diagonalizable group acting in the quotient construction:
    cokernel of the transpose of the ray matrix."""
    desc = cokernel(fan.beta.T)
    if desc.free_rank != fan.num_rays - fan.rank:
        raise ValueError("rays do not span the ambient space")
    return desc


def weight_matrix(fan: StackyFan) -> IntMatrix:
    """Character weights of the acting torus on the ray coordinates.

    For a fan of block shape (-C | I) this is the block matrix (I | C^T):
    coordinate a_i carries the i-th standard character and coordinate b_i the
    i-th column of C^T; the identity block makes the group free, so no Smith
    form is needed.  In general the weights are the rows of the unimodular
    U in one Smith form U*beta^T*V = diag(d) past the rank, which also gives
    the rank and torsion checks.  Requires a torsion-free group.
    """
    n = fan.rank
    if fan.family is not None and fan.family.tag in ("A", "B", "Bcan", "C"):
        beta = fan.beta
        w = IntMatrix.from_rows(
            [[int(i == j) for j in range(n)] + [-beta[j, i] for j in range(n)] for i in range(n)]
        )
    else:
        form = snf(fan.beta.T)
        if form.rank != n:
            raise ValueError("rays do not span the ambient space")
        torsion = tuple(x for x in form.d if x > 1)
        if torsion:
            raise WeightTorsionError(
                f"acting group has torsion {torsion}; no split weight matrix"
            )
        w = IntMatrix.from_rows([list(form.U.row(i)) for i in range(n, fan.num_rays)])
    # The weights must kill the image of the character lattice.
    prod = w * fan.beta.T
    assert all(x == 0 for x in prod.entries)
    return w


def fan_morphism_check(src: StackyFan, dst: StackyFan, L: IntMatrix) -> bool:
    """True iff the lattice map L sends every cone of src into one cone of
    dst.  Raises ValueError when a cone of dst has dependent rays."""
    if L.cols != src.rank or L.rows != dst.rank:
        raise ValueError("lattice map shape does not match fan ranks")
    by_cone = _walk(dst)[1]
    # A fresh elimination raises on the first cone with dependent rays.
    functionals = [by_cone[c] or _facet_functionals(dst, c) for c in dst.max_cones]
    for cone in src.max_cones:
        images = [L.mul_vector(list(src.rays[i])) for i in cone]
        # A cone that holds every image holds their sum, so the sum goes first.
        images.insert(0, [sum(xs) for xs in zip(*images)])
        if not any(all(_in_cone(f, img) for img in images) for f in functionals):
            return False
    return True


def standard_fan_map(tag: str, n: int) -> Tuple[IntMatrix, StackyFan, StackyFan]:
    """The lattice map embedding the involutive fan into the type-A fan.

    For tag ``C`` this is the map Z^n -> Z^(2n-1) sending the i-th
    tau-generator to e_{n-i} + e_{n+i} (and the 0-th to e_n); for tag ``B``
    the map Z^n -> Z^(2n) sending it to e_{n+1-i} + e_{n+i}.
    """
    if tag == "C":
        src = build_upsilon(FanFamily("C", n))
        dst = build_upsilon(FanFamily("A", 2 * n - 1))
        cols = []
        for p in range(1, n + 1):
            i = n - p  # label of the ray at column position p
            col = [0] * (2 * n - 1)
            if i == 0:
                col[n - 1] = 1
            else:
                col[n - i - 1] = 1
                col[n + i - 1] = 1
            cols.append(col)
    elif tag in ("B", "Bcan"):
        src = build_upsilon(FanFamily("Bcan", n))
        dst = build_upsilon(FanFamily("A", 2 * n))
        cols = []
        for p in range(1, n + 1):
            i = n + 1 - p
            col = [0] * (2 * n)
            col[n - i] = 1
            col[n + i - 1] = 1
            cols.append(col)
    else:
        raise ValueError("standard fan maps exist for tags 'C' and 'B'")
    rows = [[cols[j][i] for j in range(len(cols))] for i in range(dst.rank)]
    return IntMatrix.from_rows(rows), src, dst


def canonical_stack(fan: StackyFan) -> StackyFan:
    """Replace every ray generator by its primitive vector (divide by gcd)."""
    new_rays = []
    for v in fan.rays:
        g = 0
        for x in v:
            g = math.gcd(g, abs(x))
        if g == 0:
            raise ValueError("zero ray vector")
        new_rays.append(tuple(x // g for x in v))
    return StackyFan(
        rank=fan.rank,
        rays=tuple(new_rays),
        ray_labels=fan.ray_labels,
        max_cones=fan.max_cones,
        family=None,
    )
