import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanokit.linalg import (
    det,
    dot,
    hnf,
    identity,
    integer_solver,
    kernel_basis,
    kernel_vector,
    mat_vec,
    primitive,
    snf,
    solve_integer,
    solve_rational,
    transpose,
)

WEIGHTS = ((0, 0, 1, 1, 1, 1), (0, 1, 3, 1, 0, 6), (1, 0, 1, 3, 6, 0))


# Matrix helpers that only the tests need; the package multiplies and inverts
# inline where it has to.  The other test modules import them from here.
def mat_mul(A, B):
    Bt = transpose(B)
    return tuple(tuple(dot(row, col) for col in Bt) for row in A)


def invariant_factors(M):
    S, _, _ = snf(M)
    k = min(len(S), len(S[0]) if S else 0)
    return tuple(S[i][i] for i in range(k))


def rank(M):
    return sum(1 for d in invariant_factors(M) if d != 0)


def inverse_unimodular(M):
    """Inverse of a unimodular integer matrix, itself integral."""
    n = len(M)
    d = det(M)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [[M[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            row.append((-1) ** (i + j) * det(minor) * d)
        adj.append(tuple(row))
    return tuple(adj)


def test_primitive():
    assert primitive((-4, 6, -2)) == (-2, 3, -1)
    assert primitive((0, 5)) == (0, 1)
    assert primitive((7,)) == (1,)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_primitive_gcd_oracle():
    rng = random.Random(7)
    for _ in range(100):
        v = tuple(rng.randint(-9, 9) for _ in range(3))
        if all(x == 0 for x in v):
            continue
        p = primitive(v)
        g = 0
        for x in p:
            g = gcd(g, abs(x))
        assert g == 1
        scale = [x // p[i] for i, x in enumerate(v) if p[i] != 0]
        assert len(set(scale)) == 1 and scale[0] > 0


def _is_row_hnf(H):
    m = len(H)
    n = len(H[0]) if m else 0
    pivots = []
    for i in range(m):
        cols = [j for j in range(n) if H[i][j] != 0]
        if not cols:
            pivots.append(None)
            continue
        p = cols[0]
        if pivots and pivots[-1] is None:
            return False  # nonzero row after a zero row
        if pivots and pivots[-1] is not None and p <= pivots[-1]:
            return False
        if H[i][p] <= 0:
            return False
        for k in range(i):
            if not (0 <= H[k][p] < H[i][p]):
                return False
        pivots.append(p)
    return True


def test_hnf_weight_table():
    # Hand-reduced: reorder rows to put pivots on columns 0,1,2, then clear
    # above the column-2 pivot.
    H, U = hnf(WEIGHTS)
    assert H == ((1, 0, 0, 2, 5, -1), (0, 1, 0, -2, -3, 3), (0, 0, 1, 1, 1, 1))
    assert det(U) in (1, -1)
    assert mat_mul(U, WEIGHTS) == H


def test_hnf_idempotent_on_examples():
    for M in (WEIGHTS, ((2, 4), (6, 8)), ((0, 0), (0, 0)), ((5,),)):
        H, U = hnf(M)
        H2, _ = hnf(H)
        assert H2 == H


def test_snf_divisibility_fix():
    S, U, V = snf(((2, 0), (0, 3)))
    assert (S[0][0], S[1][1]) == (1, 6)
    assert mat_mul(mat_mul(U, ((2, 0), (0, 3))), V) == S


def test_snf_ray_columns():
    # Columns (-1,-1,2), (1,0,0), (0,1,0): index-2 sublattice.
    M = ((-1, 1, 0), (-1, 0, 1), (2, 0, 0))
    assert invariant_factors(M) == (1, 1, 2)


def test_snf_matches_sympy_invariant_factors():
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(99)
    for _ in range(25):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = tuple(tuple(rng.randint(-10, 10) for _ in range(n)) for _ in range(m))
        ours = [d for d in invariant_factors(M) if d != 0]
        smf = smith_normal_form(Matrix(M))
        theirs = [abs(smf[i, i]) for i in range(min(m, n)) if smf[i, i] != 0]
        assert ours == sorted(theirs) == theirs or ours == theirs


def test_hnf_snf_random_properties():
    rng = random.Random(20260815)
    for _ in range(200):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        M = tuple(tuple(rng.randint(-30, 30) for _ in range(n)) for _ in range(m))
        H, U = hnf(M)
        assert det(U) in (1, -1)
        assert mat_mul(U, M) == H
        assert _is_row_hnf(H)
        H2, _ = hnf(H)
        assert H2 == H

        S, P, Q = snf(M)
        assert det(P) in (1, -1)
        assert det(Q) in (1, -1)
        assert mat_mul(mat_mul(P, M), Q) == S
        diag = [S[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert S[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0


def test_kernel_and_solve():
    M = ((1, 2, 3), (2, 4, 6))
    ker = kernel_basis(M)
    assert len(ker) == 2
    for v in ker:
        assert mat_vec(M, v) == (0, 0)
    assert rank(M) == 1

    A = transpose(WEIGHTS)  # 6x3
    lam = (1, 1, 0, 0, 2, 2)
    l = solve_integer(A, lam)
    assert l == (-4, 1, 1)
    assert mat_vec(A, l) == lam
    assert solve_integer(((2, 0), (0, 2)), (1, 0)) is None


def test_integer_solver_factors_once(monkeypatch):
    """One SNF serves every right-hand side, with solve_integer's answers, and
    the kernel basis, kernel_basis's."""
    import fanokit.linalg as linalg

    calls = []
    monkeypatch.setattr(linalg, "snf", lambda M: calls.append(M) or snf(M))
    A = transpose(WEIGHTS)
    solve, kernel = integer_solver(A)
    rng = random.Random(31)
    for _ in range(20):
        l = tuple(rng.randint(-5, 5) for _ in range(3))
        b = mat_vec(A, l)
        assert mat_vec(A, solve(b)) == b
        assert solve(b[:-1] + (b[-1] + 1,)) is None
    assert len(calls) == 1
    monkeypatch.undo()
    assert kernel == kernel_basis(A) and all(mat_vec(A, k) == (0,) * len(A) for k in kernel)
    for M in (WEIGHTS, ((2, 0), (0, 2)), ((1, 2, 3),), ((0, 0), (0, 0))):
        solve, kernel = integer_solver(M)
        assert kernel == kernel_basis(M) and len(kernel) == len(M[0]) - rank(M)
    assert integer_solver(((2, 0), (0, 2)))[0]((1, 0)) is None


def test_dot_checks_lengths():
    assert dot((1, -2, 3), (4, 5, 6)) == 12
    assert dot((), ()) == 0
    with pytest.raises(ValueError):
        dot((1, 2), (1, 2, 3))


def bareiss_det(M):
    """Determinant by Bareiss elimination at every size: the reference for det."""
    n = len(M)
    if n == 0:
        return 1
    a = [list(r) for r in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 4))
    entries = st.integers(-9, 9) | st.sampled_from([0, 1, -1, 10**12])
    return tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_det_matches_bareiss(M):
    assert det(M) == bareiss_det(M)
    # a repeated row makes it singular, a row swap flips the sign
    if len(M) > 1:
        assert det((M[0],) + M[1:-1] + (M[0],)) == 0
        assert det((M[-1],) + M[1:-1] + (M[0],)) == -det(M)


def test_det_rejects_a_non_square_matrix():
    assert det(()) == 1
    for M in (((1, 2),), ((1, 2), (3,)), ((1, 2, 3), (4, 5, 6), (7, 8))):
        with pytest.raises(ValueError):
            det(M)


def test_kernel_vector_matches_kernel_basis():
    """Signed maximal minors against the SNF kernel on random (n-1) x n rows."""
    assert kernel_vector(()) == (1,)
    assert kernel_vector(((1, 2, 3), (4, 5, 6))) == (-1, 2, -1)
    rng = random.Random(88)
    for n in range(2, 6):
        for _ in range(40):
            rows = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n - 1)]
            v = kernel_vector(rows)
            ker = kernel_basis(rows)
            if len(ker) == 1:
                assert v in (primitive(ker[0]), tuple(-a for a in primitive(ker[0])))
                assert mat_vec(rows, v) == (0,) * (n - 1)
            else:
                assert v is None
            # A row that is a combination of the others drops the rank.
            if n > 2:
                low = rows[:-1] + [tuple(2 * a - 3 * b for a, b in zip(rows[0], rows[-2]))]
                assert kernel_vector(low) is None
                assert len(kernel_basis(low)) >= 2
    assert kernel_vector(((0, 0),)) is None


def test_inverse_unimodular():
    U = ((2, 1), (1, 1))
    Ui = inverse_unimodular(U)
    assert mat_mul(U, Ui) == identity(2)
    with pytest.raises(ValueError):
        inverse_unimodular(((2, 0), (0, 2)))


def test_solve_rational():
    x = solve_rational(((2, 1), (1, 2)), (-1, -1))
    from fractions import Fraction

    assert x == (Fraction(-1, 3), Fraction(-1, 3))
    assert solve_rational(((1, 2), (2, 4)), (0, 0)) is None
