"""Exact polyhedral computations.

A region is described by a HalfspaceSystem: inequalities <n_i, x> >= b_i with
integer normals and rational bounds.  Everything works in any ambient
dimension.  Every extreme ray of a pointed cone (all bounds zero) spans the
kernel of dim - 1 of its normals, which linalg.kernel_vector reads off their
signed maximal minors; vertices are the rays of the homogenized cone, and
lattice points come from Fourier-Motzkin elimination, as runs along the last
coordinate (integer_point_runs).

Everything is pure and deterministic; ray and point lists come back sorted.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from operator import mul

from .errors import Record, Unbounded, WorkBudgetExceeded
from .linalg import dot, identity, kernel_basis, kernel_vector

# Most steps dual_cone may take: per candidate line (C(m, dim - 1) of them), m
# sign checks and, above dim 4, kernel_vector's dim Bareiss minors of size
# dim - 1, about dim * (dim - 1)^3.  The paper's Q_S needs C(7, 3) * 7 = 245.
MAX_DUAL_CONE_CHECKS = 10**6


class HalfspaceSystem(Record):
    """Finite system of inequalities <normal_i, x> >= bound_i."""

    dim: int
    normals: tuple
    bounds: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("ambient dimension must be positive")
        if len(self.normals) != len(self.bounds):
            raise ValueError("normals and bounds must have equal length")
        for n in self.normals:
            if len(n) != self.dim:
                raise ValueError("normal has wrong dimension")
            if all(a == 0 for a in n):
                raise ValueError("zero normal vector")

    def contains(self, point):
        return all(dot(n, point) >= b for n, b in zip(self.normals, self.bounds))


class ConeV(Record):
    """Cone in ray description: primitive extreme rays plus lineality basis.

    An empty ``lineality`` means the cone is pointed; otherwise no ray
    decomposition is attempted and ``rays`` is empty.
    """

    dim: int
    rays: tuple
    lineality: tuple = ()


def halfspaces(dim, normals, bounds=None):
    normals = tuple(tuple(n) for n in normals)
    if bounds is None:
        bounds = (0,) * len(normals)
    return HalfspaceSystem(dim, normals, tuple(bounds))


def _ray_candidates(dim, normals):
    """One primitive direction, lexicographically positive, per line cut by dim - 1 normals."""
    cands, zero = set(), (0,) * dim
    for rows in combinations(normals, dim - 1):
        if (v := kernel_vector(rows)) is not None:
            cands.add(v if v > zero else tuple(-a for a in v))
    return cands


def dual_cone(hs):
    """Extreme rays of the cone {x : <n_i, x> >= 0}, in any dimension.

    Interpreting the normals as generators, this is the dual cone; applying it
    twice to the rays of a pointed full-dimensional cone returns the same ray
    set.  One pass of <n_i, v> per candidate line v stops once both signs have
    appeared: v is a ray when no value is negative, -v when none is positive.
    Normals that do not span vanish on every line and leave a lineality space,
    returned as an explicit basis with no ray decomposition.  Raises
    WorkBudgetExceeded when the sign checks and minors would take over
    MAX_DUAL_CONE_CHECKS steps, unless the normals leave one.
    """
    if any(b != 0 for b in hs.bounds):
        raise ValueError("dual_cone expects homogeneous inequalities")
    normals, m, d = hs.normals, len(hs.normals), hs.dim
    if (checks := comb(m, d - 1) * (m + (d > 4) * d * (d - 1) ** 3)) > MAX_DUAL_CONE_CHECKS:
        if lin := kernel_basis(normals):
            return ConeV(d, (), lin)
        raise WorkBudgetExceeded(f"the cone of {m} inequalities in dimension {d} would take "
                                 f"{checks} ray checks, over the limit of {MAX_DUAL_CONE_CHECKS}")
    rays, spans = [], False
    for v in _ray_candidates(d, normals):
        pos = neg = False
        for n in normals:
            if (s := sum(map(mul, n, v))) > 0:
                if neg:
                    break
                pos = True
            elif s < 0:
                if pos:
                    break
                neg = True
        else:
            if pos or neg:
                rays.append(v if pos else tuple(-a for a in v))
        spans = pos or neg  # the same on every line (Ziegler, Lectures on Polytopes, 1.2)
    if not spans:
        return ConeV(d, (), kernel_basis(normals) if normals else identity(d))
    return ConeV(d, tuple(sorted(rays)))


def homogenized_cone(hs):
    """(rows, rays): rows[i] = (q_i n_i, -p_i) for b_i = p_i / q_i, and the sorted
    primitive extreme rays (x, t) of {(x, t) : rows[i] . (x, t) >= 0, t >= 0},
    one per vertex x / t, where inequality i is tight when rows[i] . (x, t) = 0.
    The face t = 0 is the recession cone: a lineality space or a ray on it
    raises Unbounded.  An empty region has no rays."""
    rows = [tuple(b.denominator * a for a in n) + (-b.numerator,)
            for n, b in zip(hs.normals, hs.bounds)]
    cone = dual_cone(halfspaces(hs.dim + 1, [(0,) * hs.dim + (1,)] + rows))
    if cone.lineality or any(r[-1] == 0 for r in cone.rays):
        raise Unbounded("region has a nontrivial recession cone")
    return rows, cone.rays


def vertices(hs):
    """All vertices of the (bounded) region, sorted, as Fraction tuples: the
    rays of homogenized_cone scaled to t = 1.  An empty region gives []."""
    return sorted(tuple(Fraction(c, r[-1]) for c in r[:-1]) for r in homogenized_cone(hs)[1])


def integer_point_runs(hs):
    """Lattice points of a bounded region as runs, in lexicographic order.

    A run ``(prefix, lo, hi)`` stands for the points ``prefix + (x,)`` with
    ``lo <= x <= hi``.  Fourier-Motzkin elimination of the last coordinates
    gives the projection onto each prefix of coordinates; the prefixes are
    walked coordinate by coordinate between the exact integer bounds of those
    projections, so no point is tested and dropped.  Raises Unbounded when a
    projection leaves a coordinate without a lower or an upper bound, which
    happens exactly when the recession cone is nontrivial.
    """
    rows = list(zip(hs.normals, hs.bounds))
    levels = []  # levels[k]: (n[:k], b, n_k) of the rows with n_k > 0 and n_k < 0
    for k in reversed(range(hs.dim)):
        pos = [r for r in rows if r[0][k] > 0]
        neg = [r for r in rows if r[0][k] < 0]
        if not pos or not neg:
            raise Unbounded("region has a nontrivial recession cone")
        levels.insert(0, tuple([(n[:k], b, n[k]) for n, b in rs] for rs in (pos, neg)))
        rows = [r for r in rows if r[0][k] == 0] + [
            (tuple(-n[k] * a + p[k] * c for a, c in zip(p, n)), -n[k] * pb + p[k] * nb)
            for p, pb in pos
            for n, nb in neg
        ]
    if any(b > 0 for _, b in rows):  # every normal is zero by now
        return []

    def walk(prefix):
        k = len(prefix)
        pos, neg = levels[k]
        # n_k x_k >= b - <n, prefix>, divided by n_k and rounded inwards
        lo = max(-((dot(h, prefix) - b) // c) for h, b, c in pos)
        hi = min((b - dot(h, prefix)) // c for h, b, c in neg)
        if k < hs.dim - 1:
            for x in range(lo, hi + 1):
                yield from walk(prefix + (x,))
        elif lo <= hi:
            yield prefix, lo, hi

    return list(walk(()))


def integer_points(hs):
    """Lattice points of a bounded region, in lexicographic order: the runs, expanded."""
    return [p + (x,) for p, lo, hi in integer_point_runs(hs) for x in range(lo, hi + 1)]
