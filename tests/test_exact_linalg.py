"""Normal forms, kernels and cokernels: examples plus randomized properties.

Smith invariant factors, and the determinant, rank, adjugate and rational
solutions of the fraction-free elimination, are cross-checked against
sympy's implementation, which serves as the independent oracle for the
hand-rolled pivoting code.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricchains.exact_linalg import (
    FinDiagGroupDesc,
    IntMatrix,
    bareiss,
    cokernel,
    hnf,
    invert_rational,
    kernel_basis,
    snf,
    solve_integer,
    solve_mod,
    solve_rational,
)


def _mat(rows):
    return IntMatrix.from_rows(rows)


def _is_diag(m, d):
    return all(
        m[i, j] == (d[i] if i == j and i < len(d) else 0)
        for i in range(m.rows)
        for j in range(m.cols)
    )


small_matrices = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)

square_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


class TestHNF:
    def test_identity(self):
        h, u = hnf(IntMatrix.identity(3))
        assert h.to_rows() == IntMatrix.identity(3).to_rows()
        assert u.to_rows() == IntMatrix.identity(3).to_rows()

    def test_zero(self):
        h, u = hnf(IntMatrix.zeros(2, 2))
        assert h.to_rows() == [[0, 0], [0, 0]]
        assert u.is_unimodular()

    def test_two_by_two(self):
        a = _mat([[2, 4], [6, 8]])
        h, u = hnf(a)
        assert h.to_rows() == [[2, 0], [0, 4]]
        assert (u * a).to_rows() == h.to_rows()
        assert u.is_unimodular()

    def test_idempotent_convention(self):
        rng = random.Random(11)
        for _ in range(50):
            a = _mat([[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)])
            h, u = hnf(a)
            h2, _ = hnf(h)
            assert h2.to_rows() == h.to_rows()

    @given(small_matrices)
    @settings(max_examples=60, deadline=None)
    def test_properties(self, rows):
        a = _mat(rows)
        h, u = hnf(a)
        assert u.is_unimodular()
        assert (u * a).to_rows() == h.to_rows()
        # Row echelon with positive pivots, entries above reduced.
        last_pivot = -1
        for i in range(h.rows):
            row = list(h.row(i))
            nz = [j for j, x in enumerate(row) if x != 0]
            if not nz:
                continue
            piv = nz[0]
            assert piv > last_pivot
            last_pivot = piv
            assert row[piv] > 0
            for k in range(i):
                assert 0 <= h[k, piv] < row[piv]


class TestSNF:
    def test_identity(self):
        form = snf(IntMatrix.identity(4))
        assert form.d == (1, 1, 1, 1)

    def test_cartan_a2(self):
        assert snf(_mat([[2, -1], [-1, 2]])).d == (1, 3)

    def test_cartan_c2(self):
        assert snf(_mat([[2, -1], [-2, 2]])).d == (1, 2)

    @given(small_matrices)
    @settings(max_examples=80, deadline=None)
    def test_certified_decomposition(self, rows):
        a = _mat(rows)
        form = snf(a)
        d = form.U * a * form.V
        assert _is_diag(d, form.d)
        nonzero = [x for x in form.d if x]
        assert all(x > 0 for x in nonzero)
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        assert abs(form.U.det()) == 1
        assert abs(form.V.det()) == 1

    @given(small_matrices)
    @settings(max_examples=40, deadline=None)
    def test_against_sympy(self, rows):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        ours = [x for x in snf(_mat(rows)).d if x]
        theirs = [int(x) for x in invariant_factors(sympy.Matrix(rows)) if int(x) != 0]
        assert ours == theirs


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert kernel_basis(IntMatrix.identity(3)).cols == 0

    def test_single_row(self):
        k = kernel_basis(_mat([[-2, 1]]))
        assert k.cols == 1
        col = [k[0, 0], k[1, 0]]
        assert col in ([1, 2], [-1, -2])

    def test_row_one_two(self):
        k = kernel_basis(_mat([[1, 2]]))
        col = [k[0, 0], k[1, 0]]
        assert col in ([2, -1], [-2, 1])

    @given(small_matrices)
    @settings(max_examples=60, deadline=None)
    def test_saturated(self, rows):
        a = _mat(rows)
        k = kernel_basis(a)
        if k.cols == 0:
            return
        prod = a * k
        assert all(x == 0 for x in prod.entries)
        assert k.cols == a.cols - snf(a).rank
        # Saturation: the nonzero invariant factors of the basis are all 1.
        assert all(x in (0, 1) for x in snf(k).d)


class TestCokernel:
    def test_identity(self):
        desc = cokernel(IntMatrix.identity(3))
        assert desc.is_trivial()

    def test_cartan_a2_transpose(self):
        desc = cokernel(_mat([[2, -1], [-1, 2]]).T)
        assert desc.free_rank == 0 and desc.torsion == (3,)

    def test_block_beta_transpose(self):
        # transpose of (-C(A_n) | I_n): free of rank n, no torsion
        for n in (1, 2, 3, 4):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = -2
                if i + 1 < n:
                    rows[i][i + 1] = 1
                    rows[i + 1][i] = 1
            beta = IntMatrix.from_rows(
                [rows[i] + [1 if j == i else 0 for j in range(n)] for i in range(n)]
            )
            desc = cokernel(beta.T)
            assert desc.free_rank == n and desc.torsion == ()

    def test_invariance_under_permutation(self):
        rng = random.Random(3)
        for _ in range(30):
            rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
            desc = cokernel(_mat(rows))
            rng.shuffle(rows)
            shuffled_cols = [list(r) for r in rows]
            rng2 = random.Random(7)
            perm = list(range(4))
            rng2.shuffle(perm)
            permuted = [[r[j] for j in perm] for r in shuffled_cols]
            desc2 = cokernel(_mat(permuted))
            assert (desc.free_rank, desc.torsion) == (desc2.free_rank, desc2.torsion)

    def test_invariance_under_unimodular_change(self):
        rng = random.Random(9)
        for _ in range(20):
            a = _mat([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
            form = snf(a)
            desc = cokernel(a)
            desc2 = cokernel(form.U * a)
            assert (desc.free_rank, desc.torsion) == (desc2.free_rank, desc2.torsion)

    def test_group_descriptor_validation(self):
        with pytest.raises(ValueError):
            FinDiagGroupDesc(0, (2, 3))  # 2 does not divide 3
        with pytest.raises(ValueError):
            FinDiagGroupDesc(0, (1,))
        assert FinDiagGroupDesc(0, (2, 4)).order == 8
        assert FinDiagGroupDesc(1, ()).order is None


class TestSolvers:
    def test_solve_integer(self):
        a = _mat([[2, 0], [0, 3]])
        assert solve_integer(a, [4, 9]) == [2, 3]
        assert solve_integer(a, [1, 0]) is None

    def test_solve_mod(self):
        a = _mat([[2]])
        assert solve_mod(a, [4], 6) is not None
        assert solve_mod(a, [3], 6) is None

    def test_solve_random(self):
        rng = random.Random(17)
        for _ in range(60):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            a = _mat([[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)])
            x = [rng.randint(-5, 5) for _ in range(c)]
            b = a.mul_vector(x)
            sol = solve_integer(a, b)
            assert sol is not None
            assert a.mul_vector(sol) == b
            mod = rng.choice([2, 4, 6, 10])
            solm = solve_mod(a, [v % mod for v in b], mod)
            assert solm is not None
            assert [v % mod for v in a.mul_vector(solm)] == [v % mod for v in b]


class TestBareiss:
    """The one fraction-free elimination behind det, rank, inverse and solve."""

    @given(small_matrices)
    @settings(max_examples=80, deadline=None)
    def test_det_and_rank_against_sympy(self, rows):
        sympy = pytest.importorskip("sympy")
        theirs = sympy.Matrix(rows)
        _, pivots, _, _ = bareiss(rows, len(rows[0]))
        assert len(pivots) == theirs.rank()
        if theirs.is_square:
            assert _mat(rows).det() == int(theirs.det())

    @given(square_matrices)
    @settings(max_examples=80, deadline=None)
    def test_adjugate_against_sympy(self, rows):
        sympy = pytest.importorskip("sympy")
        n = len(rows)
        det = _mat(rows).det()
        if det == 0:
            with pytest.raises(ValueError):
                invert_rational(rows)
            return
        adj = [[x * det for x in row] for row in invert_rational(rows)]
        assert all(x.denominator == 1 for row in adj for x in row)
        assert sympy.Matrix(adj) == sympy.Matrix(rows).adjugate()
        prod = [[sum(rows[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        assert prod == [[det * (i == j) for j in range(n)] for i in range(n)]

    @given(small_matrices, st.data())
    @settings(max_examples=120, deadline=None)
    def test_solve_rational_against_sympy(self, rows, data):
        sympy = pytest.importorskip("sympy")
        r, c = len(rows), len(rows[0])
        if data.draw(st.booleans()):
            # Consistent by construction, rank-deficient or not.
            x = data.draw(st.lists(st.integers(-5, 5), min_size=c, max_size=c))
            b = _mat(rows).mul_vector(x)
        else:
            b = data.draw(st.lists(st.integers(-9, 9), min_size=r, max_size=r))
        den = data.draw(st.integers(1, 4))
        b = [Fraction(y, den) for y in b]
        a = sympy.Matrix(rows)
        consistent = a.rank() == a.row_join(sympy.Matrix(b)).rank()
        sol = solve_rational(rows, b)
        assert (sol is not None) == consistent
        if sol is not None:
            assert [sum(v * s for v, s in zip(row, sol)) for row in rows] == b

    def test_solve_rational_examples(self):
        # rank-deficient but consistent: free variables are set to zero
        assert solve_rational([[1, 2], [2, 4]], [3, 6]) == [3, 0]
        assert solve_rational([[1, 2], [2, 4]], [3, 5]) is None
        assert solve_rational([[2, 0], [0, 3]], [1, Fraction(1, 2)]) == [
            Fraction(1, 2),
            Fraction(1, 6),
        ]

    def test_adjugate_block(self):
        # [A | I] ends as (sign * det) I | sign * adj(A)
        m, pivots, d, sign = bareiss([[0, 1, 1, 0], [2, 3, 0, 1]], 2)
        assert pivots == [0, 1] and sign == -1 and d == 2
        assert [row[:2] for row in m] == [[2, 0], [0, 2]]
        assert [[sign * x for x in row[2:]] for row in m] == [[3, -1], [-2, 0]]


def test_matrix_json_round_trip():
    m = _mat([[10**40, -3], [0, 7]])
    assert IntMatrix.from_json(m.to_json()).to_rows() == m.to_rows()
    assert m.to_decimal_rows()[0][0] == str(10**40)
