"""Exact integer linear algebra: Hermite and Smith normal forms with
certified unimodular transforms, integer kernels and cokernels, and the
finite diagonalizable-group descriptors read off from invariant factors.

One in-place row-Hermite loop, ``_hermite``, is the only unimodular
elimination: ``hnf`` runs it on ``[A | I]`` and ``snf`` alternates it on
``[M | U]`` and ``[M^T | V^T]`` (Kannan & Bachem 1979).  Both integer
solvers back-substitute through one Smith form, ``SmithForm.solve``, which
treats ``Z`` as ``Z/0Z``.  ``bareiss`` is the one fraction-free elimination
behind rank, determinant, adjugate and rational solve.

All arithmetic is arbitrary-precision Python integers; fixed-width integer
types are deliberately not used anywhere.  Normal forms follow one fixed
convention (row-style Hermite form, positive pivots, entries above pivots
reduced into ``[0, pivot)``) so that serialized output is bit-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense integer matrix, row-major."""

    rows: int
    cols: int
    entries: Tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")
        if not all(isinstance(e, int) for e in self.entries):
            raise TypeError("entries must be Python ints")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return IntMatrix(nrows, ncols, tuple(int(x) for r in rows for x in r))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    def __getitem__(self, index: Tuple[int, int]) -> int:
        i, j = index
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> Tuple[int, ...]:
        return self.entries[j :: self.cols]

    def to_rows(self) -> List[List[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def T(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self[i, j] for j in range(self.cols) for i in range(self.rows)),
        )

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        rows = []
        ocols = [other.col(j) for j in range(other.cols)]
        for i in range(self.rows):
            r = self.row(i)
            rows.append([sum(a * b for a, b in zip(r, c)) for c in ocols])
        return IntMatrix.from_rows(rows) if rows else IntMatrix.zeros(0, other.cols)

    def mul_vector(self, v: Sequence[int]) -> List[int]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return [sum(a * b for a, b in zip(self.row(i), v)) for i in range(self.rows)]

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        _, pivots, d, sign = bareiss(self.to_rows(), self.cols)
        return sign * d if len(pivots) == self.rows else 0

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and abs(self.det()) == 1


@dataclass(frozen=True)
class SmithForm:
    """Certified Smith decomposition: U*A*V = diag(d), U and V unimodular."""

    d: Tuple[int, ...]
    U: IntMatrix
    V: IntMatrix

    @property
    def rank(self) -> int:
        return sum(1 for x in self.d if x != 0)

    def solve(self, b: Sequence[int], modulus: int = 0) -> Optional[List[int]]:
        """One x with A x = b in Z/modulus, for the A this form decomposes,
        or None if there is none; modulus 0 solves over Z.  With
        U*A*V = diag(d) this solves d_i y_i = (U b)_i row by row and
        returns x = V y, reduced mod a positive modulus."""
        y = [0] * self.V.rows
        for i, c in enumerate(self.U.mul_vector(b)):
            d = self.d[i] if i < len(self.d) else 0
            g = math.gcd(d, modulus)  # d y = c is solvable iff g | c
            if (c % g if g else c) != 0:  # 0 divides only 0
                return None
            if d:
                step = modulus // g  # y_i is determined mod step
                y[i] = c // g * pow(d // g, -1, step) % step if step else c // g
        x = self.V.mul_vector(y)
        return [xi % modulus for xi in x] if modulus else x


@dataclass(frozen=True)
class FinDiagGroupDesc:
    """A finitely generated diagonalizable group: Z^free_rank x prod Z/d_i.

    ``torsion`` entries are > 1 and form a divisibility chain.  The group is
    finite exactly when ``free_rank`` is zero.
    """

    free_rank: int
    torsion: Tuple[int, ...]

    def __post_init__(self):
        if any(t <= 1 for t in self.torsion):
            raise ValueError("torsion entries must be > 1")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion entries must form a divisibility chain")

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    @property
    def order(self) -> Optional[int]:
        """Group order, or None when infinite."""
        if not self.is_finite:
            return None
        return math.prod(self.torsion) if self.torsion else 1

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def to_dict(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


def _row_xgcd_ops(m: List[List[int]], i1: int, i2: int, col: int) -> None:
    """Left-multiply rows i1,i2 by the 2x2 unimodular matrix that puts
    gcd(m[i1][col], m[i2][col]) at (i1, col) and 0 at (i2, col).

    When the pivot already divides the target only the target row changes,
    so a pivot row that ``snf`` has cleared stays clear."""
    a, b = m[i1][col], m[i2][col]
    if b == 0:
        return
    if a == 0:
        m[i1], m[i2] = m[i2], [-x for x in m[i1]]
        return
    if b % a == 0:
        q = b // a
        m[i2] = [p - q * s for p, s in zip(m[i2], m[i1])]
        return
    g, s, t = _xgcd(a, b)
    x, y = a // g, b // g
    r1, r2 = m[i1], m[i2]
    m[i1] = [s * p + t * q for p, q in zip(r1, r2)]
    m[i2] = [-y * p + x * q for p, q in zip(r1, r2)]


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """g, s, t with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _augment(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """Rows of ``[rows | I]``."""
    out = []
    for i, row in enumerate(rows):
        unit = [0] * len(rows)
        unit[i] = 1
        out.append(list(row) + unit)
    return out


def _hermite(m: List[List[int]], width: int) -> None:
    """Row Hermite normal form of the first ``width`` columns, in place;
    later columns ride along, so ``[A | I]`` ends as ``[H | U]`` with
    ``U*A = H``.  Pivots are positive and the entries above each pivot are
    reduced into ``[0, pivot)``.  This is the one unimodular elimination:
    ``hnf`` and ``snf`` are built on it."""
    r = 0
    for c in range(width):
        if r == len(m):
            break
        # Collapse column c below row r to a single gcd entry.
        nz = [i for i in range(r, len(m)) if m[i][c] != 0]
        if not nz:
            continue
        pivot_row = nz[0]
        for i in nz[1:]:
            _row_xgcd_ops(m, pivot_row, i, c)
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        top = m[r]
        pivot = top[c]
        for i in range(r):
            q = m[i][c] // pivot  # floor division reduces into [0, pivot)
            if q:
                m[i] = [p - q * s for p, s in zip(m[i], top)]
        r += 1


def hnf(A: IntMatrix) -> Tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form.

    Returns (H, U) with U unimodular, U*A = H, pivots positive, entries
    above each pivot reduced into [0, pivot).
    """
    m = _augment(A.to_rows())
    _hermite(m, A.cols)
    return (
        IntMatrix(A.rows, A.cols, tuple(x for row in m for x in row[: A.cols])),
        IntMatrix(A.rows, A.rows, tuple(x for row in m for x in row[A.cols :])),
    )


def snf(A: IntMatrix) -> SmithForm:
    """Smith normal form by alternating Hermite forms (Kannan & Bachem 1979).

    Row Hermite forms of ``[M | U]`` and of ``[M^T | V^T]`` alternate until
    ``M`` is diagonal.  Where ``d_i`` does not divide ``d_(i+1)``, column
    ``i+1`` is added to column ``i`` and the next Hermite pass replaces
    ``d_i`` by the gcd.  Returns ``U*A*V = diag(d)`` with ``U`` and ``V``
    unimodular and ``d`` a nonnegative divisibility chain, zeros last.
    """
    m = _augment(A.to_rows())  # [M | U]
    other = _augment([()] * A.cols)  # V^T: its row j tracks column j of M
    width, flipped = A.cols, False
    while True:
        _hermite(m, width)
        if not any(any(row[:i]) or any(row[i + 1 : width]) for i, row in enumerate(m)):
            d = [m[i][i] for i in range(min(len(m), width))]
            i = next((i for i in range(len(d) - 1) if d[i] and d[i + 1] % d[i]), None)
            if i is None:
                break
            for row in m:
                row[i] += row[i + 1]
            other[i] = [p + q for p, q in zip(other[i], other[i + 1])]
            continue
        # Column operations on M are row operations on [M^T | V^T].
        left = [row[width:] for row in m]
        m = [[row[j] for row in m] + o for j, o in enumerate(other)]
        other, width, flipped = left, len(left), not flipped
    left = [row[width:] for row in m]
    u, vt = (other, left) if flipped else (left, other)
    return SmithForm(
        tuple(d),
        IntMatrix(A.rows, A.rows, tuple(x for row in u for x in row)),
        IntMatrix(A.cols, A.cols, tuple(row[i] for i in range(A.cols) for row in vt)),
    )


def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel lattice of A, as matrix columns.

    The basis is saturated (spans the full kernel lattice, not a finite-index
    sublattice) because it is read off from a unimodular transform.
    """
    form = snf(A)
    r = form.rank
    entries = tuple(x for i in range(A.cols) for x in form.V.row(i)[r:])
    return IntMatrix(A.cols, A.cols - r, entries)


def cokernel(A: IntMatrix) -> FinDiagGroupDesc:
    """Invariant-factor description of Z^rows / column-image(A)."""
    form = snf(A)
    torsion = tuple(x for x in form.d if x > 1)
    return FinDiagGroupDesc(A.rows - form.rank, torsion)


def solve_mod(A: IntMatrix, b: Sequence[int], modulus: int) -> Optional[List[int]]:
    """One solution x of A x = b (mod modulus), or None if unsolvable."""
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    if len(b) != A.rows:
        raise ValueError("rhs length mismatch")
    return snf(A).solve(b, modulus)


def bareiss(
    rows: Sequence[Sequence[int]], width: int
) -> Tuple[List[List[int]], List[int], int, int]:
    """Fraction-free (Bareiss 1968) Gauss-Jordan elimination on the first
    ``width`` columns of an integer matrix; later columns ride along.

    Returns ``(m, pivots, d, sign)``.  Row ``i < len(pivots)`` of ``m`` has
    its pivot in column ``pivots[i]``; every pivot entry equals ``d`` and the
    rest of each pivot column is zero; rows from ``len(pivots)`` on vanish on
    the first ``width`` columns, so ``len(pivots)`` is the rank.  ``sign`` is
    the parity of the row swaps.  Every division is exact because each entry
    stays a minor of the input.  On ``[A | I]`` with ``A`` square and
    invertible this ends with ``d = sign * det(A)`` and the right block equal
    to ``sign * adj(A)``, that is ``d * A^-1``.
    """
    m = [list(r) for r in rows]
    pivots: List[int] = []
    d = sign = 1
    for c in range(width):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
        d = bareiss_pivot(m, r, c, d)
        pivots.append(c)
    return m, pivots, d, sign


def bareiss_pivot(m: List[List[int]], r: int, c: int, d: int) -> int:
    """One fraction-free pivot on ``m[r][c]``, in place: each other row
    becomes ``(piv * row - row[c] * m[r]) // d``, ``d`` the previous pivot,
    and ``piv`` is returned as the next one.  The division is exact when the
    entries are minors of one integer matrix, as in ``bareiss``."""
    top = m[r]
    piv = top[c]
    for i, row in enumerate(m):
        if i != r:
            f = row[c]
            m[i] = [(piv * x - f * y) // d for x, y in zip(row, top)]
    return piv


def solve_rational(
    rows: Sequence[Sequence[int]], b: Sequence
) -> Optional[List[Fraction]]:
    """Solve the (possibly non-square) exact linear system over Q.

    Returns one solution, or None if inconsistent.  When the columns are
    linearly independent the solution is unique.
    """
    ncols = len(rows[0]) if rows else 0
    b = [Fraction(y) for y in b]
    scale = math.lcm(*(y.denominator for y in b))
    m, pivots, d, _ = bareiss(
        [list(row) + [int(y * scale)] for row, y in zip(rows, b)], ncols
    )
    if any(row[ncols] != 0 for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(m, pivots):
        x[c] = Fraction(row[ncols], d * scale)
    return x


def invert_rational(rows: Sequence[Sequence[int]]) -> List[List[Fraction]]:
    """Exact inverse of a square integer matrix over Q: adj(A) / det(A)."""
    n = len(rows)
    m, pivots, d, _ = bareiss(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)], n
    )
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return [[Fraction(x, d) for x in row[n:]] for row in m]
