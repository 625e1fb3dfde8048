"""Mori/nef cones of a simplicial toric variety and the quantum period.

Wall curves come from the rank-one relation across each codimension-one cone
of the fan; their classes span the Mori cone, whose dual is the nef cone.
The quantum period of a hypersurface is the factorial sum over the integral
curve classes l with <w_i, l> >= 0 for every variable class w_i (on a
complete toric variety every nef class is effective, a nonnegative sum of
the w_i, so the nef inequalities add nothing), truncated by the
anticanonical degree.  The sum walks the lattice points in runs along the
last coordinate, where every class pairing is linear: each factorial is
computed at a run's start and stepped by the ratio (a + 1)...(a + s); the
integer numerators are added per degree and denominator, and one Fraction
per degree is built at the end.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from math import ceil, factorial, floor, lcm, prod

from .errors import NonSimplicial, Record, Unbounded, WorkBudgetExceeded
from .linalg import dot, integer_solver, kernel_vector, primitive, transpose, vec_sub
from .polyhedra import HalfspaceSystem, dual_cone, halfspaces, integer_point_runs
from .series import PowerSeries, regularize

# Most lattice points quantum_period may sum over, by the integer box around the
# truncated curve cone: 652,851 at order 100 on the paper's input, so it runs.
MAX_BOX_POINTS = 10**7


class WallCurve(Record):
    """A codimension-one cone of the fan and the curve class it carries."""

    wall: tuple
    relation: tuple
    curve_class: tuple


def _wall_faces(cox):
    """(face, its maximal cones) for the (dim - 1)-faces of the maximal cones,
    in face order; raises NonSimplicial unless each lies in exactly two, as
    in a complete fan."""
    faces = {}
    for ci, cone in enumerate(cox.max_cones):
        for face in combinations(sorted(cone), len(cox.rays[0]) - 1):
            faces.setdefault(face, []).append(ci)
    out = sorted(faces.items())
    for face, incident in out:
        if len(incident) != 2:
            raise NonSimplicial(
                f"wall {face} lies in {len(incident)} maximal cones; fan not complete"
            )
    return out


def walls(cox):
    """All wall curves of a complete simplicial fan.

    The relation across a wall spans the kernel of its dim + 1 incident rays;
    its sign is fixed by positivity on the two cone-completing rays, and the
    curve class solves W^T l = relation.
    """
    curve_class, _ = integer_solver(transpose(cox.weights))
    out = []
    for face, incident in _wall_faces(cox):
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
        curve = curve_class(relation)
        if curve is None:
            raise NonSimplicial(f"wall {face} relation is not a curve class")
        out.append(WallCurve(face, tuple(relation), tuple(curve)))
    return tuple(out)


def mori_and_nef(cox):
    """Wall curves, extreme Mori rays, and nef cone generators: the rays of
    the dual of the cone the wall curves span."""
    ws = walls(cox)
    nef = dual_cone(halfspaces(cox.class_rank, sorted({primitive(w.curve_class) for w in ws})))
    if nef.lineality or not nef.rays:
        raise Unbounded("nef cone is not full-dimensional")
    return ws, dual_cone(halfspaces(cox.class_rank, nef.rays)).rays, nef.rays


class CurveClassCone(Record):
    """Curve classes pairing nonnegatively with nef divisors and variables."""

    system: HalfspaceSystem
    degree: tuple
    rays: tuple

    def contains(self, l):
        return self.system.contains(tuple(l))


def lambda_cone(cox, nef_rays, degree):
    """The curve cone cut out by the given nef generators and the variable
    classes; quantum_period passes none, as they are implied.

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


def _box_points(rays, degree, order):
    """Lattice points in the integer box around 0 and each r*order/deg(r), whose
    convex hull is the truncated curve cone: a bound on the points summed over."""
    ends = [(0,) * len(degree)] + [[Fraction(c * order, dot(degree, r)) for c in r] for r in rays]
    return prod(floor(max(col)) - ceil(min(col)) + 1 for col in zip(*ends))


def _step(f, a, s):
    """f * (a + s)! / a!, exact when a! divides f: the ratio (a + 1)...(a + s) or its inverse."""
    return f * prod(range(a + 1, a + s + 1)) if s >= 0 else f // prod(range(a + s + 1, a + 1))


def quantum_period(cox, hypersurface_class, order):
    """Factorial sum over {l : <w_i, l> >= 0}, truncated at the given degree.

    The cone is built from the variable classes alone; the module docstring
    says why the nef normals add nothing on a complete fan, and NonSimplicial
    is raised for a fan with a wall in other than two maximal cones.  Returns
    the period and its regularization (coefficients scaled by d!).  Raises
    WorkBudgetExceeded when _box_points is over MAX_BOX_POINTS.
    """
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    _wall_faces(cox)
    x_class = tuple(int(c) for c in hypersurface_class)
    degree = vec_sub(cox.anticanonical, x_class)
    lam = lambda_cone(cox, (), degree)
    for ray in lam.rays:
        if dot(x_class, ray) < 0:
            raise Unbounded(f"hypersurface degree is negative on ray {ray}")
    if (box := _box_points(lam.rays, degree, order)) > MAX_BOX_POINTS:
        raise WorkBudgetExceeded(f"the quantum period to order {order} would sum over up "
                                 f"to {box} curve classes, over the limit of {MAX_BOX_POINTS}")
    trunc = HalfspaceSystem(
        cox.class_rank,
        lam.system.normals + (tuple(-c for c in degree),),
        lam.system.bounds + (-order,),
    )
    # Along a run each pairing changes by its form's last entry per step.
    ws = cox.variable_classes
    moving = [(i, w[-1]) for i, w in enumerate(ws) if w[-1]]
    sums = [defaultdict(int) for _ in range(order + 1)]  # denominator -> numerators
    for prefix, lo, hi in integer_point_runs(trunc):
        start = prefix + (lo,)
        d, a, bs = dot(degree, start), dot(x_class, start), [dot(w, start) for w in ws]
        if any(b < 0 or b + (hi - lo) * w[-1] < 0 for b, w in zip(bs, ws)):
            raise AssertionError("variable degree negative inside the curve cone")
        num, den = factorial(a), prod(map(factorial, bs))
        for _ in range(lo, hi):
            sums[d][den] += num
            d, num, a = d + degree[-1], _step(num, a, x_class[-1]), a + x_class[-1]
            for i, s in moving:
                den, bs[i] = _step(den, bs[i], s), bs[i] + s
        sums[d][den] += num
    coeffs = []
    for by_den in sums:
        m = lcm(*by_den)
        coeffs.append(Fraction(sum(num * (m // den) for den, num in by_den.items()), m))
    G = PowerSeries(order, coeffs)
    return G, regularize(G)
