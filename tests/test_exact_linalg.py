"""Normal forms, kernels and cokernels: examples plus randomized properties.

Smith invariant factors, and the determinant, rank, adjugate and rational
solutions of the fraction-free elimination, are cross-checked against
sympy's implementation, which serves as the independent oracle for the
hand-rolled pivoting code.
"""

import itertools
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

# Shapes from 0 x 0 up to 6 x 6, empty ones included.
any_shape_matrices = st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(
    lambda rc: st.lists(
        st.integers(-9, 9), min_size=rc[0] * rc[1], max_size=rc[0] * rc[1]
    ).map(lambda xs: IntMatrix(rc[0], rc[1], tuple(xs)))
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

    @pytest.mark.parametrize(
        "rows, h, u",
        [
            ([[3, -2, 5], [6, 1, -4], [-9, 7, 2]],
             [[3, 0, 39], [0, 1, 17], [0, 0, 99]], [[7, 0, 2], [3, 0, 1], [17, -1, 5]]),
            ([[0, 4, 6], [2, 3, 1]], [[2, 3, 1], [0, 4, 6]], [[0, 1], [1, 0]]),
            ([[1, 2], [3, 4], [5, 6]], [[1, 0], [0, 2], [0, 0]],
             [[-2, 1, 0], [3, -1, 0], [1, -2, 1]]),
        ],
    )
    def test_transform_pinned(self, rows, h, u):
        """H is unique but U is not: these U pin the order of the row
        operations, so that a change of the elimination shows here."""
        hh, uu = hnf(_mat(rows))
        assert (hh.to_rows(), uu.to_rows()) == (h, u)

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

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (2, 2)])
    def test_zero_shapes(self, shape):
        r, c = shape
        a = IntMatrix.zeros(r, c)
        form = snf(a)
        assert form.d == (0,) * min(r, c) and form.rank == 0
        assert (form.U.rows, form.U.cols, form.V.rows, form.V.cols) == (r, r, c, c)
        assert form.U.is_unimodular() and form.V.is_unimodular()
        assert _is_diag(form.U * a * form.V, form.d)
        assert cokernel(a) == FinDiagGroupDesc(r, ())
        assert kernel_basis(a).cols == c

    @pytest.mark.parametrize(
        "diag, chain",
        [((2, 3), (1, 6)), ((4, 6), (2, 12)), ((6, 10, 15), (1, 30, 30))],
    )
    def test_chain_repair(self, diag, chain):
        """A diagonal input that is not a divisibility chain: each failing
        pair is repaired by adding column i+1 to column i."""
        n = len(diag)
        a = _mat([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
        form = snf(a)
        assert form.d == chain
        assert _is_diag(form.U * a * form.V, chain)
        assert form.U.is_unimodular() and form.V.is_unimodular()

    @given(any_shape_matrices)
    @settings(max_examples=80, deadline=None)
    def test_certificate_on_any_shape(self, a):
        form = snf(a)
        assert len(form.d) == min(a.rows, a.cols)
        assert _is_diag(form.U * a * form.V, form.d)
        assert form.U.is_unimodular() and form.V.is_unimodular()
        nonzero = [x for x in form.d if x]
        assert form.d == tuple(nonzero) + (0,) * (len(form.d) - len(nonzero))
        assert all(x > 0 for x in nonzero)
        assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))


def _fans():
    from toricchains.root_fans import FanFamily, build_sigma_A, build_upsilon

    for tag in ("A", "B", "Bcan", "C", "Cminus"):
        for n in range(2 if tag == "Cminus" else 1, 9):
            yield f"{tag}{n}", build_upsilon(FanFamily(tag, n))
    for n in range(3, 7):
        yield f"SigmaA{n}", build_sigma_A(n)


@pytest.mark.parametrize("fan", [f for _, f in _fans()], ids=[name for name, _ in _fans()])
def test_fan_beta_transpose_against_sympy(fan):
    """The acting group of every fan is the cokernel of beta^T: its Smith
    form carries a certificate and matches sympy's invariant factors."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    a = fan.beta.T
    form = snf(a)
    assert _is_diag(form.U * a * form.V, form.d)
    assert form.U.is_unimodular() and form.V.is_unimodular()
    theirs = [int(x) for x in invariant_factors(sympy.Matrix(a.to_rows()))]
    assert [x for x in form.d if x] == [x for x in theirs if x]
    assert cokernel(a) == FinDiagGroupDesc(a.rows - form.rank, tuple(x for x in theirs if x > 1))


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
        assert snf(a).solve([4, 9]) == [2, 3]
        assert snf(a).solve([1, 0]) is None

    def test_solve_mod(self):
        a = _mat([[2]])
        assert solve_mod(a, [4], 6) is not None
        assert solve_mod(a, [3], 6) is None

    def test_zero_shapes(self):
        assert snf(IntMatrix.zeros(0, 3)).solve([]) == [0, 0, 0]
        assert snf(IntMatrix.zeros(3, 0)).solve([0, 0, 0]) == []
        assert snf(IntMatrix.zeros(3, 0)).solve([0, 1, 0]) is None
        assert solve_mod(IntMatrix.zeros(2, 2), [2, 4], 2) == [0, 0]
        assert solve_mod(IntMatrix.zeros(2, 2), [1, 0], 2) is None

    def test_solve_mod_against_brute_force(self):
        """Every right-hand side mod m is solvable exactly when some x in
        (Z/m)^c solves it, and the Smith back-substitution finds one."""
        rng = random.Random(23)
        for _ in range(150):
            r, c = rng.randint(1, 3), rng.randint(1, 3)
            modulus = rng.randint(1, 6)
            a = _mat([[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)])
            images = {
                tuple(v % modulus for v in a.mul_vector(list(x)))
                for x in itertools.product(range(modulus), repeat=c)
            }
            form = snf(a)
            for b in itertools.product(range(modulus), repeat=r):
                x = form.solve(list(b), modulus)
                assert (x is not None) == (b in images)
                assert x == solve_mod(a, list(b), modulus)
                if x is not None:
                    assert all(0 <= v < modulus for v in x)
                    assert tuple(v % modulus for v in a.mul_vector(x)) == b

    def test_solve_random(self):
        rng = random.Random(17)
        for _ in range(60):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            a = _mat([[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)])
            x = [rng.randint(-5, 5) for _ in range(c)]
            b = a.mul_vector(x)
            sol = snf(a).solve(b)
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
