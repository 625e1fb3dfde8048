"""Exact integer linear algebra on plain tuples.

Vectors are tuples of ints, matrices tuples of row tuples.  Values are
immutable and all arithmetic is exact (Python ints), so results compare with
``==`` and can be used as dict keys.  No floating point appears anywhere in
this package.

Conventions:

* ``hnf(M)`` returns ``(H, U)`` with ``U`` unimodular and ``H = U @ M`` in
  *row* Hermite normal form: row echelon, pivots positive, entries above a
  pivot reduced into ``[0, pivot)``.
* ``snf(M)`` returns ``(S, U, V)`` with ``S = U @ M @ V`` diagonal,
  nonnegative, and each diagonal entry dividing the next.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("dimension mismatch in dot product")
    return sum(map(mul, u, v))


def gcd_vec(v):
    return gcd(*v)


def primitive(v):
    """Divide an integer vector by the gcd of its entries (sign preserved)."""
    g = gcd_vec(v)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(a // g for a in v)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(M):
    return tuple(zip(*M)) if M else ()


def mat_vec(A, v):
    return tuple(dot(row, v) for row in A)


def mat_freeze(rows):
    return tuple(tuple(r) for r in rows)


def det(M):
    """Exact determinant of a square integer matrix: closed forms up to 3 x 3
    (the minors of ray candidates), Bareiss elimination above."""
    n = len(M)
    if any(len(r) != n for r in M):
        raise ValueError("determinant requires a square matrix")
    if n <= 1:
        return M[0][0] if n else 1
    if n == 2:
        (a, b), (c, d) = M
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = M
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
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


def is_unimodular(M):
    return det(M) in (1, -1)


def hnf(M):
    """Row Hermite normal form.

    Returns ``(H, U)`` with ``H = U @ M``, ``U`` unimodular, ``H`` in row
    echelon form with positive pivots and the entries above each pivot
    reduced into ``[0, pivot)``.  Idempotent: ``hnf(H)[0] == H``.
    """
    M = mat_freeze(M)
    m = len(M)
    n = len(M[0]) if m else 0
    a = [list(r) for r in M]
    u = [list(r) for r in identity(m)]

    def row_sub(i, j, q):
        # row i -= q * row j
        if q == 0:
            return
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    r = 0
    for c in range(n):
        if r == m:
            break
        # Euclid on column c, rows r..m-1, until a single nonzero remains.
        while True:
            nz = [i for i in range(r, m) if a[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(a[i][c]))
            if i0 != r:
                a[r], a[i0] = a[i0], a[r]
                u[r], u[i0] = u[i0], u[r]
            done = True
            for i in range(r + 1, m):
                if a[i][c] != 0:
                    q = a[i][c] // a[r][c]
                    row_sub(i, r, q)
                    if a[i][c] != 0:
                        done = False
            if done:
                break
        if a[r][c] == 0:
            continue
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        p = a[r][c]
        for i in range(r):
            q = a[i][c] // p  # floor: leaves a[i][c] in [0, p)
            row_sub(i, r, q)
        r += 1
    return mat_freeze(a), mat_freeze(u)


def snf(M):
    """Smith normal form.

    Returns ``(S, U, V)`` with ``S = U @ M @ V``, both transforms unimodular,
    ``S`` diagonal with nonnegative entries ``d1 | d2 | ...``.
    """
    M = mat_freeze(M)
    m = len(M)
    n = len(M[0]) if m else 0
    a = [list(r) for r in M]
    u = [list(r) for r in identity(m)]
    v = [list(r) for r in identity(n)]

    def row_sub(i, j, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(j, k, q):
        # col j -= q * col k
        for row in a:
            row[j] -= q * row[k]
        for row in v:
            row[j] -= q * row[k]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def smallest(t):
        # A nonzero entry of minimal magnitude in the block from (t, t);
        # on ties the first one in row-major order.
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    for t in range(min(m, n)):
        while (best := smallest(t)) is not None:
            i0, j0 = best
            if i0 != t:
                row_swap(t, i0)
            if j0 != t:
                col_swap(t, j0)
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                u[t] = [-x for x in u[t]]
            # Clear below and to the right; imperfect divisions shrink the pivot.
            clean = True
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_sub(i, t, q)
                    if a[i][t] != 0:
                        clean = False
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_sub(j, t, q)
                    if a[t][j] != 0:
                        clean = False
            if clean:
                # Pivot must divide the rest of the block.
                offender = None
                for i in range(t + 1, m):
                    for j in range(t + 1, n):
                        if a[i][j] % a[t][t] != 0:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                a[t] = [x + y for x, y in zip(a[t], a[offender])]
                u[t] = [x + y for x, y in zip(u[t], u[offender])]
    return mat_freeze(a), mat_freeze(u), mat_freeze(v)


def kernel_basis(M):
    """Basis of the right integer kernel {x : M x = 0}, as a tuple of vectors."""
    return integer_solver(M)[1]


def kernel_vector(rows):
    """Primitive generator of the kernel of n - 1 integer rows of length n.

    Entry j is (-1)^j times the minor that leaves out column j, so <v, x> is
    the determinant of x stacked on the rows, which vanishes for each row.  In
    length 3 this is the cross product; in length 4 each minor expands along
    the third row over the 2 x 2 minors of the first two; longer rows take det.
    With no rows it is (1,).  Returns None when the rank is below n - 1.
    """
    if len(rows) == 2:
        (a, b, c), (d, e, f) = rows
        v = (b * f - c * e, c * d - a * f, a * e - b * d)
    elif len(rows) == 3:
        (a, b, c, d), (e, f, g, h), (i, j, k, l) = rows
        ab, ac, ad = a * f - b * e, a * g - c * e, a * h - d * e
        bc, bd, cd = b * g - c * f, b * h - d * f, c * h - d * g
        v = (j * cd - k * bd + l * bc, k * ad - i * cd - l * ac,
             i * bd - j * ad + l * ab, j * ac - i * bc - k * ab)
    else:
        v = tuple((-1) ** j * det([r[:j] + r[j + 1:] for r in rows]) for j in range(len(rows) + 1))
    return primitive(v) if any(v) else None


def integer_solver(M):
    """(solve, kernel) from one Smith form S = U M V: solve(b) is one integer
    solution of M x = b or None, and kernel the columns of V past the nonzero
    diagonal, a basis of the right integer kernel of M."""
    M = mat_freeze(M)
    m = len(M)
    n = len(M[0]) if m else 0
    S, U, V = snf(M)
    k = min(m, n)
    diagonal = [S[i][i] for i in range(k)]
    kernel = tuple(tuple(r[j] for r in V) for j in range(n) if j >= k or not diagonal[j])

    def solve(b):
        c = mat_vec(U, tuple(b))
        # row i reads d_i y_i = c_i, and the rows past the diagonal 0 = c_i
        if any(ci % d if d else ci for ci, d in zip(c, diagonal)) or any(c[k:]):
            return None
        y = tuple(ci // d if d else 0 for ci, d in zip(c, diagonal))
        return mat_vec(V, y + (0,) * (n - k))

    return solve, kernel


def solve_integer(M, b):
    """One integer solution of M x = b, or None when none exists."""
    return integer_solver(M)[0](b)


def solve_rational(A, b):
    """Unique rational solution of a full-rank square system A x = b.

    Returns a tuple of Fractions, or None when A is singular.
    """
    n = len(A)
    a = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(A)]
    for col in range(n):
        piv = None
        for i in range(col, n):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return tuple(a[i][n] for i in range(n))
