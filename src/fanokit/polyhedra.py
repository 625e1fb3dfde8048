"""Exact polyhedral computations in ambient dimension <= 3.

A region is described by a HalfspaceSystem: inequalities <n_i, x> >= b_i with
integer normals and rational bounds.  Ray enumeration for cones (all bounds
zero) is brute force over facet pairs: in dimension 3 every extreme ray is the
cross product of two constraint normals, in dimension 2 a rotated normal, so
candidate generation plus feasibility filtering is complete.  Vertex
enumeration intersects dim-subsets of the bounding hyperplanes exactly.

Everything is pure and deterministic; ray and point lists come back sorted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor

from .errors import Unbounded
from .linalg import dot, identity, kernel_basis, primitive, solve_rational


@dataclass(frozen=True)
class HalfspaceSystem:
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


@dataclass(frozen=True)
class ConeV:
    """Cone in ray description: primitive extreme rays plus lineality basis.

    An empty ``lineality`` means the cone is pointed; otherwise no ray
    decomposition is attempted and ``rays`` is empty.
    """

    dim: int
    rays: tuple
    lineality: tuple = field(default=())

    @property
    def is_pointed(self):
        return not self.lineality


def halfspaces(dim, normals, bounds=None):
    normals = tuple(tuple(n) for n in normals)
    if bounds is None:
        bounds = (0,) * len(normals)
    return HalfspaceSystem(dim, normals, tuple(bounds))


def _ray_candidates(dim, normals):
    cands = set()
    if dim == 1:
        cands.update([(1,), (-1,)])
    elif dim == 2:
        for a, b in normals:
            for v in ((-b, a), (b, -a)):
                if v != (0, 0):
                    cands.add(primitive(v))
    else:
        for n1, n2 in combinations(normals, 2):
            c = (
                n1[1] * n2[2] - n1[2] * n2[1],
                n1[2] * n2[0] - n1[0] * n2[2],
                n1[0] * n2[1] - n1[1] * n2[0],
            )
            if c != (0, 0, 0):
                p = primitive(c)
                cands.add(p)
                cands.add(tuple(-x for x in p))
    return cands


def dual_cone(hs):
    """Extreme rays of the cone {x : <n_i, x> >= 0}.

    Interpreting the normals as generators, this is the dual cone; applying it
    twice to the rays of a pointed full-dimensional cone returns the same ray
    set.  A system whose normals do not span the ambient space has a lineality
    space, returned as an explicit basis with no ray decomposition.
    """
    if hs.dim > 3:
        raise ValueError("dual_cone supports ambient dimension <= 3 only")
    if any(b != 0 for b in hs.bounds):
        raise ValueError("dual_cone expects homogeneous inequalities")
    lin = kernel_basis(hs.normals) if hs.normals else identity(hs.dim)
    if lin:
        return ConeV(hs.dim, (), lin)
    rays = sorted(
        v for v in _ray_candidates(hs.dim, hs.normals)
        if all(dot(n, v) >= 0 for n in hs.normals)
    )
    return ConeV(hs.dim, tuple(rays))


def cone_from_rays(dim, rays):
    """Facet description of cone(rays): the dual computation in reverse."""
    return dual_cone(halfspaces(dim, [tuple(r) for r in rays]))


def vertices(hs):
    """All vertices of the (bounded) region, sorted, as Fraction tuples.

    Each vertex is the unique solution of ``dim`` tight inequalities of full
    rank and satisfies the whole system.  Raises Unbounded when the recession
    cone is nontrivial.
    """
    if hs.dim > 3:
        raise ValueError("vertices supports ambient dimension <= 3 only")
    rec = dual_cone(halfspaces(hs.dim, hs.normals))
    if rec.lineality or rec.rays:
        raise Unbounded("region has a nontrivial recession cone")
    found = set()
    for idx in combinations(range(len(hs.normals)), hs.dim):
        A = [hs.normals[i] for i in idx]
        b = [hs.bounds[i] for i in idx]
        x = solve_rational(A, b)
        if x is None:
            continue
        if hs.contains(x):
            found.add(tuple(Fraction(c) for c in x))
    return sorted(found)


def integer_points(hs):
    """Lattice points of a bounded region, in lexicographic order.

    Scans the integer bounding box of the exact vertex set and filters by the
    inequalities.
    """
    verts = vertices(hs)
    if not verts:
        return []
    lo = [min(v[i] for v in verts) for i in range(hs.dim)]
    hi = [max(v[i] for v in verts) for i in range(hs.dim)]
    axes = [range(ceil(l), floor(h) + 1) for l, h in zip(lo, hi)]
    return [p for p in product(*axes) if hs.contains(p)]
