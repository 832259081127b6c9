"""Independent answers for the benchmark's checks.

Nothing here imports toricchains.  Every expected value is a closed form, a
brute-force count, or a construction made from the definitions in the
paper, so a wrong answer from the library cannot also be the expected one.
Each checker returns a list of problems; an empty list means the answer
passed.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, List, Sequence, Tuple

Vector = Tuple[int, ...]


# ---------------------------------------------------------------------------
# Cartan matrices and the (-C | I) fans
# ---------------------------------------------------------------------------


def cartan(tag: str, n: int) -> List[List[int]]:
    """Cartan matrix of type A, B, C, or Bcan (type B with its last column
    halved), with the doubled entry of type C at (n, n-1)."""
    if tag == "Bcan" and n == 1:
        return [[1]]
    c = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    if n >= 2 and tag == "C":
        c[n - 1][n - 2] = -2
    if n >= 2 and tag in ("B", "Bcan"):
        c[n - 2][n - 1] = -2
    if tag == "Bcan":
        for row in c:
            row[n - 1] //= 2
    return c


def upsilon_rays(tag: str, n: int) -> List[Vector]:
    """Columns of the block matrix (-C | D): D = I, except for Cminus, where
    C is the type-C matrix of rank n-1 and D ends in a 2."""
    if tag == "Cminus":
        k = n - 1
        c = cartan("C", k)
        d = [[(2 if i == k - 1 else 1) if i == j else 0 for j in range(k)] for i in range(k)]
    else:
        k = n
        c = cartan(tag, k)
        d = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    cols = [tuple(-c[i][j] for i in range(k)) for j in range(k)]
    cols += [tuple(d[i][j] for i in range(k)) for j in range(k)]
    return cols


def upsilon_weights(tag: str, n: int) -> List[List[int]]:
    """The weight matrix (I | C^T) of a torsion-free (-C | I) fan."""
    c = cartan(tag, n)
    return [[1 if i == j else 0 for j in range(n)] + [c[j][i] for j in range(n)] for i in range(n)]


def group_data(tag: str, n: int) -> Tuple[int, Tuple[int, ...]]:
    """(free rank, torsion) of the acting group, the cokernel of beta^T.

    The identity block makes the maximal minors of beta coprime, so the
    group is free of rank n.  For Cminus the last row of beta is
    (0..0, 2, -2 | 0..0, 2): every maximal minor is even, and the minor
    on the first k-1 identity columns and the last C-column is 2, so the
    torsion is exactly Z/2 on a free part of rank n-1.  The permutohedral
    fan is smooth and complete: free of rank #rays - rank.
    """
    if tag == "Cminus":
        return n - 1, (2,)
    if tag == "SigmaA":
        return (2**n - 2) - (n - 1), ()
    return n, ()


def sigma_subsets(n: int) -> List[Tuple[int, ...]]:
    """Nonempty proper subsets of {1..n} by (size, elements): the ray order
    of the permutohedral fan."""
    out: List[Tuple[int, ...]] = []
    for size in range(1, n):
        out.extend(itertools.combinations(range(1, n + 1), size))
    return out


def sigma_rays(n: int) -> List[Vector]:
    """Ray of subset S: the sum of e_i over S in Z^n / (1, ..., 1), written
    in the first n-1 coordinates."""
    rays = []
    for s in sigma_subsets(n):
        if n in s:
            rays.append(tuple(0 if i in s else -1 for i in range(1, n)))
        else:
            rays.append(tuple(1 if i in s else 0 for i in range(1, n)))
    return rays


def stirling2(n: int, k: int) -> int:
    terms = ((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1))
    return sum(terms) // math.factorial(k)


def coarse_points(tag: str, n: int, q: int) -> int:
    """F_q-points of the coarse variety.  Each index of a (-C | I) fan
    contributes a torus factor or one of two rays: (q-1) + 2.  The
    permutohedral fan has one cone of dimension k-1 per ordered partition of
    {1..n} into k blocks."""
    if tag == "SigmaA":
        return sum(
            math.factorial(k) * stirling2(n, k) * (q - 1) ** (n - k) for k in range(1, n + 1)
        )
    rank = n - 1 if tag == "Cminus" else n
    return (q + 1) ** rank


def fan_shape(tag: str, n: int) -> Tuple[int, int]:
    """(number of rays, number of maximal cones)."""
    if tag == "SigmaA":
        return 2**n - 2, math.factorial(n)
    rank = n - 1 if tag == "Cminus" else n
    return 2 * rank, 2**rank


# ---------------------------------------------------------------------------
# Exact integer helpers
# ---------------------------------------------------------------------------


def det(m: Sequence[Sequence[int]]) -> int:
    """Determinant by cofactor expansion along the first row (small n)."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(n)
        if m[0][j]
    )


def cone_multiplicity(rays: Sequence[Vector], rank: int) -> int:
    """gcd of the maximal minors of the matrix with the given rays as
    columns: the index of the rays' lattice in its saturation, which is the
    order of the stabilizer of a point whose zero set is this cone."""
    k = len(rays)
    g = 0
    for rows in itertools.combinations(range(rank), k):
        g = math.gcd(g, det([[v[r] for v in rays] for r in rows]))
    return g


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> List[List[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# ---------------------------------------------------------------------------
# Torus orbits over F_p, by brute force
# ---------------------------------------------------------------------------


def characters(weights: Sequence[Sequence[int]], p: int) -> List[Vector]:
    """Character values (one per coordinate) of every element of the split
    torus (F_p^*)^k acting through the weight matrix."""
    k, m = len(weights), len(weights[0])
    out = []
    for units in itertools.product(range(1, p), repeat=k):
        out.append(
            tuple(
                math.prod(pow(units[i], weights[i][r], p) for i in range(k)) % p for r in range(m)
            )
        )
    return out


def upsilon_nondegenerate_count(n: int, p: int) -> int:
    """Nondegenerate F_p-points of a rank-n (-C | I) fan, by zero pattern:
    j indices with one of their two rays zero, the other 2n - j coordinates
    units."""
    return sum(math.comb(n, j) * 2**j * (p - 1) ** (2 * n - j) for j in range(n + 1))


def check_orbits(
    tag: str, n: int, p: int, reps: Sequence[Vector], orders: Sequence[int]
) -> List[str]:
    """Check an enumeration of torus orbits on a (-C | I) fan over F_p.

    Each representative must be the least point of its orbit, the orbits
    must be disjoint and cover every nondegenerate point, orbit-stabilizer
    must add up, and each stabilizer order must be the multiplicity of the
    zero-set cone."""
    problems = []
    weights = upsilon_weights(tag, n)
    rays = upsilon_rays(tag, n)
    chars = characters(weights, p)
    torus = (p - 1) ** n
    seen: set = set()
    by_stabilizer = 0
    for rep, order in zip(reps, orders):
        if any(rep[i] == 0 and rep[i + n] == 0 for i in range(n)):
            problems.append(f"{rep} is degenerate")
            continue
        orbit = {tuple(c * x % p for c, x in zip(ch, rep)) for ch in chars}
        if min(orbit) != tuple(rep):
            problems.append(f"{rep} is not the least point of its orbit")
        if orbit & seen:
            problems.append(f"{rep} shares its orbit with an earlier representative")
        seen |= orbit
        support = [r for r, x in enumerate(rep) if x]
        fixing = sum(1 for ch in chars if all(ch[r] == 1 for r in support))
        if torus % fixing or len(orbit) != torus // fixing:
            problems.append(f"{rep}: orbit-stabilizer fails")
        by_stabilizer += torus // fixing
        zero_cone = [rays[r] for r, x in enumerate(rep) if x == 0]
        if order != cone_multiplicity(zero_cone, n):
            problems.append(f"{rep}: stabilizer order {order}")
    total = upsilon_nondegenerate_count(n, p)
    if len(reps) != len(orders):
        problems.append("one stabilizer order per representative required")
    if by_stabilizer != total or len(seen) != total:
        problems.append(f"orbits cover {len(seen)} of {total} nondegenerate points")
    return problems


def least_in_orbit(weights: Sequence[Sequence[int]], p: int, coords: Vector) -> Vector:
    return min(tuple(c * x % p for c, x in zip(ch, coords)) for ch in characters(weights, p))


# ---------------------------------------------------------------------------
# Univariate polynomials over F_p
# ---------------------------------------------------------------------------


def poly_from_roots(roots: Iterable[int], p: int) -> List[int]:
    """Ascending coefficients of prod (t - r)."""
    out = [1]
    for r in roots:
        shifted, scaled = [0] + out, out + [0]
        out = [(x - r * y) % p for x, y in zip(shifted, scaled)]
    return out


def poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def unit_roots(coeffs: Sequence[int], p: int) -> Dict[int, int]:
    """Multiplicity of every root in F_p^*, by evaluating every unit and
    dividing out each root found."""
    out: Dict[int, int] = {}
    for r in range(1, p):
        cur = list(coeffs)
        m = 0
        while len(cur) > 1 and _eval(cur, r, p) == 0:
            cur = _divide_linear(cur, r, p)
            m += 1
        if m:
            out[r] = m
    return out


def _eval(c: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for coeff in reversed(c):
        acc = (acc * x + coeff) % p
    return acc


def _divide_linear(c: Sequence[int], r: int, p: int) -> List[int]:
    """Quotient of c by (t - r), assuming r is a root."""
    out = [0] * (len(c) - 1)
    carry = 0
    for i in range(len(c) - 1, 0, -1):
        carry = (c[i] + carry * r) % p
        out[i - 1] = carry
    return out


def is_nth_power(x: int, n: int, p: int) -> bool:
    return pow(x, (p - 1) // math.gcd(n, p - 1), p) == 1


def fiber_count(multiplicities: Sequence[int]) -> int:
    """Orderings of a divisor with these multiplicities: n! / prod m_i!."""
    out = math.factorial(sum(multiplicities))
    for m in multiplicities:
        out //= math.factorial(m)
    return out


# ---------------------------------------------------------------------------
# Permutohedra and graphic zonotopes
# ---------------------------------------------------------------------------


def permutohedron_vertices(n: int) -> set:
    """Points sum_k (n-1-k) u_sigma(k) minus the identity ordering's point,
    in the coordinates (a_1, ..., a_{n-1}) of sum a_i u_i."""
    out = set()
    for sigma in itertools.permutations(range(1, n + 1)):
        coeffs = {i + 1: -(n - 1 - i) for i in range(n)}
        for k, s in enumerate(sigma):
            coeffs[s] += n - 1 - k
        out.add(tuple(coeffs[i] for i in range(1, n)))
    return out


def acyclic_orientations(num_vertices: int, edges: Sequence[Tuple[int, int]]) -> int:
    """Number of acyclic orientations, over all 2^|E| orientations; each is
    tested by repeatedly removing a vertex with no incoming edge."""
    count = 0
    for flips in itertools.product((False, True), repeat=len(edges)):
        arcs = [(j, i) if f else (i, j) for (i, j), f in zip(edges, flips)]
        alive = set(range(1, num_vertices + 1))
        while alive:
            sources = [v for v in alive if not any(b == v and a in alive for a, b in arcs)]
            if not sources:
                break
            alive -= set(sources)
        count += not alive
    return count
