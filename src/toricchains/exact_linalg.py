"""Exact integer linear algebra: Hermite and Smith normal forms with
certified unimodular transforms, integer kernels and cokernels, and the
finite diagonalizable-group descriptors read off from invariant factors.

All arithmetic is arbitrary-precision Python integers; fixed-width integer
types are deliberately not used anywhere.  Normal forms follow one fixed
convention (row-style Hermite form, positive pivots, entries above pivots
reduced into ``[0, pivot)``) so that serialized output is bit-stable.
"""

from __future__ import annotations

import json
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

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        rows = [list(self.row(i)) + list(other.row(i)) for i in range(self.rows)]
        return IntMatrix.from_rows(rows)

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        _, pivots, d, sign = bareiss(self.to_rows(), self.cols)
        return sign * d if len(pivots) == self.rows else 0

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and abs(self.det()) == 1

    def to_json(self) -> str:
        return json.dumps(self.to_decimal_rows())

    def to_decimal_rows(self) -> List[List[str]]:
        """Rows of decimal strings; the interchange format for matrices."""
        return [[str(x) for x in self.row(i)] for i in range(self.rows)]

    @staticmethod
    def from_json(text: str) -> "IntMatrix":
        data = json.loads(text)
        return IntMatrix.from_rows([[int(x) for x in row] for row in data])


@dataclass(frozen=True)
class SmithForm:
    """Certified Smith decomposition: U*A*V = diag(d), U and V unimodular."""

    d: Tuple[int, ...]
    U: IntMatrix
    V: IntMatrix

    @property
    def rank(self) -> int:
        return sum(1 for x in self.d if x != 0)


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


def _row_xgcd_ops(m: List[List[int]], u: List[List[int]], i1: int, i2: int, col: int) -> None:
    """Left-multiply rows i1,i2 by the 2x2 unimodular matrix that puts
    gcd(m[i1][col], m[i2][col]) at (i1, col) and 0 at (i2, col).

    When the pivot already divides the target the pivot row is left
    untouched; this is what makes the row/column alternation terminate."""
    a, b = m[i1][col], m[i2][col]
    if b == 0:
        return
    if a == 0:
        m[i1], m[i2] = m[i2], [-x for x in m[i1]]
        u[i1], u[i2] = u[i2], [-x for x in u[i1]]
        return
    if b % a == 0:
        q = b // a
        m[i2] = [p - q * s for p, s in zip(m[i2], m[i1])]
        u[i2] = [p - q * s for p, s in zip(u[i2], u[i1])]
        return
    g, s, t = _xgcd(a, b)
    x, y = a // g, b // g
    r1 = [s * p + t * q for p, q in zip(m[i1], m[i2])]
    r2 = [-y * p + x * q for p, q in zip(m[i1], m[i2])]
    m[i1], m[i2] = r1, r2
    w1 = [s * p + t * q for p, q in zip(u[i1], u[i2])]
    w2 = [-y * p + x * q for p, q in zip(u[i1], u[i2])]
    u[i1], u[i2] = w1, w2


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


def hnf(A: IntMatrix) -> Tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form.

    Returns (H, U) with U unimodular, U*A = H, pivots positive, entries
    above each pivot reduced into [0, pivot).
    """
    m = A.to_rows()
    u = IntMatrix.identity(A.rows).to_rows()
    r = 0
    for c in range(A.cols):
        # Collapse column c below row r to a single gcd entry.
        nz = [i for i in range(r, A.rows) if m[i][c] != 0]
        if not nz:
            continue
        pivot_row = nz[0]
        for i in nz[1:]:
            _row_xgcd_ops(m, u, pivot_row, i, c)
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            u[r], u[pivot_row] = u[pivot_row], u[r]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
            u[r] = [-x for x in u[r]]
        pivot = m[r][c]
        for i in range(r):
            q = m[i][c] // pivot  # floor division reduces into [0, pivot)
            if q:
                m[i] = [p - q * s for p, s in zip(m[i], m[r])]
                u[i] = [p - q * s for p, s in zip(u[i], u[r])]
        r += 1
        if r == A.rows:
            break
    return IntMatrix.from_rows(m), IntMatrix.from_rows(u)


def snf(A: IntMatrix) -> SmithForm:
    """Smith normal form by iterated gcd pivoting with transform tracking.

    Deterministic and fully exact; the invariant factors are nonnegative
    and form a divisibility chain.
    """
    m = A.to_rows()
    u = IntMatrix.identity(A.rows).to_rows()
    v = IntMatrix.identity(A.cols).to_rows()
    nr, nc = A.rows, A.cols

    def col_op(j1: int, j2: int, row: int) -> None:
        # Column analogue of _row_xgcd_ops, acting on m and v.
        a = m[row][j1]
        b = m[row][j2]
        if b == 0:
            return
        if a == 0:
            for mat in (m, v):
                for rr in mat:
                    rr[j1], rr[j2] = rr[j2], -rr[j1]
            return
        if b % a == 0:
            q = b // a
            for mat in (m, v):
                for rr in mat:
                    rr[j2] -= q * rr[j1]
            return
        g, s, t = _xgcd(a, b)
        x, y = a // g, b // g
        for mat in (m, v):
            for rr in mat:
                p, q = rr[j1], rr[j2]
                rr[j1] = s * p + t * q
                rr[j2] = -y * p + x * q

    k = 0
    limit = min(nr, nc)
    while k < limit:
        # Move a nonzero entry into the pivot slot if the remaining block
        # is nonzero; otherwise we are done.
        found = False
        for i in range(k, nr):
            for j in range(k, nc):
                if m[i][j] != 0:
                    if i != k:
                        m[k], m[i] = m[i], m[k]
                        u[k], u[i] = u[i], u[k]
                    if j != k:
                        for mat in (m, v):
                            for rr in mat:
                                rr[k], rr[j] = rr[j], rr[k]
                    found = True
                    break
            if found:
                break
        if not found:
            break
        # Alternate clearing row k and column k until both are clear.
        while True:
            for i in range(k + 1, nr):
                if m[i][k] != 0:
                    _row_xgcd_ops(m, u, k, i, k)
            if any(m[k][j] != 0 for j in range(k + 1, nc)):
                for j in range(k + 1, nc):
                    if m[k][j] != 0:
                        col_op(k, j, k)
                # Column ops may have reintroduced entries below the pivot.
                if all(m[i][k] == 0 for i in range(k + 1, nr)):
                    break
            else:
                break
        k += 1

    # Fix signs, then enforce the divisibility chain d_i | d_{i+1}.
    for i in range(limit):
        if m[i][i] < 0:
            m[i] = [-x for x in m[i]]
            u[i] = [-x for x in u[i]]
    changed = True
    while changed:
        changed = False
        for i in range(limit - 1):
            a, b = m[i][i], m[i + 1][i + 1]
            if a != 0 and b % a != 0:
                changed = True
                # Add column i+1 to column i, then re-diagonalize the 2x2
                # block [[a, 0], [b, b]] with exact gcd operations.
                for mat in (m, v):
                    for rr in mat:
                        rr[i] += rr[i + 1]
                _row_xgcd_ops(m, u, i, i + 1, i)
                col_op(i, i + 1, i)
                for j in (i, i + 1):
                    if m[j][j] < 0:
                        m[j] = [-x for x in m[j]]
                        u[j] = [-x for x in u[j]]
                # Clear any residue left in the off-diagonal slots.
                if m[i + 1][i] != 0:
                    _row_xgcd_ops(m, u, i, i + 1, i)
                if m[i][i + 1] != 0:
                    col_op(i, i + 1, i)

    d = tuple(m[i][i] for i in range(limit))
    # Trailing zeros are permitted; nonzero entries must come first.
    nonzero = [x for x in d if x != 0]
    d = tuple(nonzero) + (0,) * (limit - len(nonzero))
    return SmithForm(d, IntMatrix.from_rows(u), IntMatrix.from_rows(v))


def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel lattice of A, as matrix columns.

    The basis is saturated (spans the full kernel lattice, not a finite-index
    sublattice) because it is read off from a unimodular transform.
    """
    form = snf(A)
    r = form.rank
    cols = [form.V.col(j) for j in range(r, A.cols)]
    if not cols:
        return IntMatrix.zeros(A.cols, 0)
    rows = [[c[i] for c in cols] for i in range(A.cols)]
    return IntMatrix.from_rows(rows)


def cokernel(A: IntMatrix) -> FinDiagGroupDesc:
    """Invariant-factor description of Z^rows / column-image(A)."""
    form = snf(A)
    torsion = tuple(x for x in form.d if x > 1)
    return FinDiagGroupDesc(A.rows - form.rank, torsion)


def solve_integer(A: IntMatrix, b: Sequence[int]) -> Optional[List[int]]:
    """One integer solution x of A x = b, or None if unsolvable."""
    if len(b) != A.rows:
        raise ValueError("rhs length mismatch")
    form = snf(A)
    c = form.U.mul_vector(list(b))
    y = [0] * A.cols
    for i in range(len(c)):
        di = form.d[i] if i < len(form.d) else 0
        if di == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % di != 0:
                return None
            y[i] = c[i] // di
    return form.V.mul_vector(y)


def solve_mod(A: IntMatrix, b: Sequence[int], modulus: int) -> Optional[List[int]]:
    """One solution x of A x = b (mod modulus), or None if unsolvable."""
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    if len(b) != A.rows:
        raise ValueError("rhs length mismatch")
    form = snf(A)
    c = form.U.mul_vector(list(b))
    y = [0] * A.cols
    for i in range(len(c)):
        di = form.d[i] if i < len(form.d) else 0
        g = math.gcd(di, modulus)
        ci = c[i] % modulus
        if g == 0:
            # di == 0 and modulus > 0 cannot happen (gcd(0, m) = m > 0)
            raise AssertionError
        if di == 0:
            if ci != 0:
                return None
            continue
        if ci % g != 0:
            return None
        # Solve di * y = ci (mod modulus).
        m2 = modulus // g
        inv = pow((di // g) % m2, -1, m2) if m2 > 1 else 0
        y[i] = ((ci // g) * inv) % modulus if m2 > 1 else 0
    x = form.V.mul_vector(y)
    return [xi % modulus for xi in x]


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
        top = m[r]
        piv = top[c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(piv * x - f * y) // d for x, y in zip(row, top)]
        d = piv
        pivots.append(c)
    return m, pivots, d, sign


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
