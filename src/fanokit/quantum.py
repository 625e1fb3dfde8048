"""Mori/nef cones of a simplicial toric variety and the quantum period.

Wall curves come from the rank-one relation across each codimension-one cone
of the fan; their classes span the Mori cone, whose dual is the nef cone.
The quantum period of a hypersurface is the factorial sum over integral
curve classes in the dual Mori cone, truncated by the anticanonical degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial

from .errors import NonSimplicial, Unbounded
from .linalg import dot, kernel_vector, primitive, solve_integer, transpose, vec_sub
from .polyhedra import HalfspaceSystem, dual_cone, halfspaces, integer_points
from .series import PowerSeries, regularize


@dataclass(frozen=True)
class WallCurve:
    """A codimension-one cone of the fan and the curve class it carries."""

    wall: tuple
    relation: tuple
    curve_class: tuple


def walls(cox):
    """All wall curves of a complete simplicial fan.

    The relation across a wall spans the kernel of its dim + 1 incident rays;
    its sign is fixed by positivity on the two cone-completing rays, and the
    curve class solves W^T l = relation.
    """
    dim = len(cox.rays[0])
    faces = {}
    for ci, cone in enumerate(cox.max_cones):
        for face in combinations(sorted(cone), dim - 1):
            faces.setdefault(face, []).append(ci)
    out = []
    for face, incident in sorted(faces.items()):
        if len(incident) != 2:
            raise NonSimplicial(
                f"wall {face} lies in {len(incident)} maximal cones; fan not complete"
            )
        k = next(iter(set(cox.max_cones[incident[0]]) - set(face)))
        l = next(iter(set(cox.max_cones[incident[1]]) - set(face)))
        involved = (k,) + face + (l,)
        lam = kernel_vector(transpose([cox.rays[i] for i in involved]))
        if lam is None:
            raise NonSimplicial(f"wall {face} has a degenerate ray relation")
        if lam[0] < 0:
            lam = tuple(-a for a in lam)
        if lam[0] <= 0 or lam[-1] <= 0:
            raise NonSimplicial(f"wall {face} relation has non-positive outer part")
        relation = [0] * cox.num_vars
        for pos, i in enumerate(involved):
            relation[i] = lam[pos]
        curve = solve_integer(transpose(cox.weights), relation)
        if curve is None:
            raise NonSimplicial(f"wall {face} relation is not a curve class")
        out.append(WallCurve(face, tuple(relation), tuple(curve)))
    return tuple(out)


def mori_and_nef(cox):
    """Wall curves, extreme Mori rays, and nef cone generators."""
    ws = walls(cox)
    classes = sorted({primitive(w.curve_class) for w in ws})
    nef = dual_cone(halfspaces(cox.class_rank, classes))
    if nef.lineality or not nef.rays:
        raise Unbounded("nef cone is not full-dimensional")
    mori = dual_cone(halfspaces(cox.class_rank, nef.rays))
    return ws, mori.rays, nef.rays


@dataclass(frozen=True)
class CurveClassCone:
    """Curve classes pairing nonnegatively with nef divisors and variables."""

    system: HalfspaceSystem
    degree: tuple
    rays: tuple

    def contains(self, l):
        return self.system.contains(tuple(l))


def lambda_cone(cox, nef_rays, degree):
    """The curve cone cut out by nef generators and variable classes.

    The degree functional must be strictly positive on every extreme ray,
    otherwise degree-truncated enumeration would not terminate.
    """
    normals = tuple(tuple(r) for r in nef_rays) + cox.variable_classes
    hs = halfspaces(cox.class_rank, normals)
    cone = dual_cone(hs)
    if cone.lineality:
        raise Unbounded("curve cone has a lineality space")
    degree = tuple(int(c) for c in degree)
    for ray in cone.rays:
        if dot(degree, ray) <= 0:
            raise Unbounded(
                f"degree functional is not strictly positive on ray {ray}"
            )
    return CurveClassCone(hs, degree, cone.rays)


def quantum_period(cox, hypersurface_class, order):
    """Factorial sum over the curve cone, truncated at the given degree.

    Returns the period and its regularization (coefficients scaled by d!).
    """
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    _, _, nef = mori_and_nef(cox)
    x_class = tuple(int(c) for c in hypersurface_class)
    degree = vec_sub(cox.anticanonical, x_class)
    lam = lambda_cone(cox, nef, degree)
    for ray in lam.rays:
        if dot(x_class, ray) < 0:
            raise Unbounded(f"hypersurface degree is negative on ray {ray}")
    trunc = HalfspaceSystem(
        cox.class_rank,
        lam.system.normals + (tuple(-c for c in degree),),
        lam.system.bounds + (-order,),
    )
    coeffs = [Fraction(0)] * (order + 1)
    for l in integer_points(trunc):
        d = dot(degree, l)
        num = factorial(dot(x_class, l))
        den = 1
        for w in cox.variable_classes:
            a = dot(w, l)
            assert a >= 0, "variable degree negative inside the curve cone"
            den *= factorial(a)
        coeffs[d] += Fraction(num, den)
    G = PowerSeries(order, coeffs)
    return G, regularize(G)
