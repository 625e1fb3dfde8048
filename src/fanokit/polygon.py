"""Fano polygons and their edge singularities.

A Fano polygon is a convex lattice polygon with primitive vertices and the
origin in its strict interior.  The cone over each edge determines a cyclic
quotient surface singularity 1/r(1,a) of the toric surface defined by the
face fan; the per-edge invariants (lattice length, lattice height, the count
of primitive T-cones) drive the smoothing-parameter count.

Polygon is the one polygon type: validate_fano returns one with int
vertices, polar one with Fraction vertices, and the invariants below accept
either.  Vertices are stored counterclockwise starting from the
lexicographically least vertex, so equal polygons compare equal structurally.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import NonPrimitiveVertex, NotConvex, OriginNotInterior, Record
from .linalg import identity, inverse_unimodular, mat_mul, mat_vec, primitive, snf, vec_sub
from .polyhedra import halfspaces, integer_points


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def convex_hull(points):
    """Strict convex hull of 2d points (monotone chain), counterclockwise.

    Collinear and repeated points are dropped; the first vertex is the
    lexicographically least.  Works for int or Fraction coordinates.
    """
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 2:
        return tuple(pts)

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (out[-1][0] - (a := out[-2])[0]) * (p[1] - a[1]) <= (
                    out[-1][1] - a[1]) * (p[0] - a[0]):  # no counterclockwise turn at out[-1]
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return tuple(lower[:-1] + upper[:-1])


def _canonical_cycle(verts):
    i = verts.index(min(verts))
    return tuple(verts[i:] + verts[:i])


class Polygon(Record):
    """Convex polygon around the origin; int or Fraction vertices, counterclockwise."""

    vertices: tuple

    def edges(self):
        v = self.vertices
        return tuple((v[i], v[(i + 1) % len(v)]) for i in range(len(v)))


def validate_fano(points):
    """Check and normalise a Fano polygon.

    Accepts an iterable of integer points iff they are in convex position,
    every vertex is primitive and the origin is strictly interior.  Returns
    the Polygon with int vertices counterclockwise from the
    lexicographically least one.
    """
    pts = [tuple(int(c) for c in p) for p in points]
    if len(set(pts)) < 3:
        raise NotConvex("need at least 3 distinct vertices")
    hull = convex_hull(pts)
    if len(hull) < 3 or set(pts) != set(hull):
        raise NotConvex("points are not the vertex set of a convex polygon")
    for v in hull:
        if v == (0, 0) or gcd(abs(v[0]), abs(v[1])) != 1:
            raise NonPrimitiveVertex(f"vertex {v} is not primitive")
    for a, b in zip(hull, hull[1:] + hull[:1]):
        # origin strictly left of each directed edge
        if _cross(vec_sub(b, a), vec_sub((0, 0), a)) <= 0:
            raise OriginNotInterior("origin is not strictly interior")
    return Polygon(_canonical_cycle(list(hull)))


class CyclicQuotient2D(Record):
    """Cyclic quotient singularity 1/r(1,a), stored in canonical form.

    1/r(1,a) and 1/r(1,a') are the same singularity when a' is the inverse of
    a mod r; the lexicographically smaller pair is kept.  r=1 encodes a
    smooth point as (1,0).
    """

    r: int
    a: int

    @classmethod
    def normalised(cls, r, a):
        if r < 1:
            raise ValueError("index must be positive")
        if r == 1:
            return cls(1, 0)
        a %= r
        if gcd(a, r) != 1:
            raise ValueError(f"1/{r}({a}) is not of the form 1/r(1,a)")
        inv = pow(a, -1, r)
        return cls(r, min(a, inv))

    @property
    def is_trivial(self):
        return self.r == 1

    def __str__(self):
        return "smooth" if self.r == 1 else f"1/{self.r}(1,{self.a})"


class SingularityRecord(Record):
    edge: int
    quotient: CyclicQuotient2D
    length: int
    height: int
    t_count: int
    residue: int

    @property
    def is_smooth(self):
        return self.quotient.is_trivial

    @property
    def is_T(self):
        return self.residue == 0 and self.t_count >= 1 and not self.is_smooth

    @property
    def is_rigid(self):
        return self.t_count == 0


def edge_singularity(P, i):
    """Singularity data of the cone over edge i of a Fano polygon.

    The Smith form S = U (u v) V of the primitive edge rays gives the index
    r = S[1][1] and the action 1/r(V[0][1], V[1][1]) on the chart, as in
    cox.chart_analysis; scaling by the inverse of V[0][1] gives 1/r(1,a).
    l is the lattice length of the edge, h its lattice height over the
    origin, and the edge carries m = floor(l/h) primitive T-cones with
    residue l mod h.
    """
    u, v = P.edges()[i]
    S, _, V = snf(((u[0], v[0]), (u[1], v[1])))
    r = S[1][1]
    quot = CyclicQuotient2D.normalised(r, V[1][1] * pow(V[0][1], -1, r) % r)
    d = vec_sub(v, u)
    length = gcd(abs(d[0]), abs(d[1]))
    n = primitive((d[1], -d[0]))
    h = n[0] * u[0] + n[1] * u[1]
    if h < 0:
        h = -h
    return SingularityRecord(i, quot, length, h, length // h, length % h)


def singularity_report(P):
    return tuple(edge_singularity(P, i) for i in range(len(P.vertices)))


def singularity_multiset(records):
    """Multiset {quotient: count} of the nontrivial edge singularities,
    from the records of singularity_report."""
    out = {}
    for rec in records:
        if not rec.is_smooth:
            out[rec.quotient] = out.get(rec.quotient, 0) + 1
    return out


def qg_dimension(records):
    """Sum of the per-edge T-cone counts over the singular edges, from the
    records of singularity_report."""
    return sum(r.t_count for r in records if not r.is_smooth)


def polar(Q):
    """Polar dual {m : <m, v> >= -1 for all v in Q}, with Fraction vertices.

    Vertices of the polar correspond to edges of Q; applying polar twice
    returns the original polygon.
    """
    verts = []
    for u, v in Q.edges():
        d = _cross(u, v)
        if d <= 0:
            raise OriginNotInterior("polar needs the origin strictly interior")
        # solve <m,u> = -1, <m,v> = -1
        m = (Fraction(-(v[1] - u[1]), 1) / d, Fraction(v[0] - u[0], 1) / d)
        verts.append(m)
    return Polygon(_canonical_cycle(verts))


def normalized_volume(Q):
    """Twice the Euclidean area, exact (shoelace over the origin fan)."""
    total = Fraction(0)
    for u, v in Q.edges():
        total += _cross(u, v)
    return abs(total)


def barycenter(Q):
    """Exact centroid, by triangulating from the first vertex."""
    v0 = Q.vertices[0]
    area2 = Fraction(0)
    cx = Fraction(0)
    cy = Fraction(0)
    for i in range(1, len(Q.vertices) - 1):
        a = vec_sub(Q.vertices[i], v0)
        b = vec_sub(Q.vertices[i + 1], v0)
        w = _cross(a, b)
        area2 += w
        cx += w * (v0[0] + Q.vertices[i][0] + Q.vertices[i + 1][0])
        cy += w * (v0[1] + Q.vertices[i][1] + Q.vertices[i + 1][1])
    return (cx / (3 * area2), cy / (3 * area2))


def lattice_symmetries(P):
    """All g in GL2(Z) with g(P) = P, by mapping one vertex-edge flag to all.

    The first two vertices are linearly independent, so each candidate image
    flag determines at most one integral matrix; candidates are kept when
    they permute the vertex set.
    """
    verts = list(P.vertices)
    v0, v1 = verts[0], verts[1]
    B = ((v0[0], v1[0]), (v0[1], v1[1]))
    d = _cross(v0, v1)
    vset = set(verts)
    n = len(verts)
    found = []
    for j in range(n):
        for step in (1, -1):
            w0 = verts[j]
            w1 = verts[(j + step) % n]
            C = ((w0[0], w1[0]), (w0[1], w1[1]))
            # g B = C  =>  g = C adj(B) / det(B)
            adj = ((B[1][1], -B[0][1]), (-B[1][0], B[0][0]))
            num = mat_mul(C, adj)
            if any(x % d for row in num for x in row):
                continue
            g = tuple(tuple(x // d for x in row) for row in num)
            if g[0][0] * g[1][1] - g[0][1] * g[1][0] not in (1, -1):
                continue
            if {mat_vec(g, v) for v in verts} == vset:
                found.append(g)
    uniq = sorted(set(found))
    # group sanity: closed under composition and inverse
    for g in uniq:
        if tuple(map(tuple, inverse_unimodular(g))) not in uniq:
            raise AssertionError("symmetries not closed under inverse")
        for h in uniq:
            if mat_mul(g, h) not in uniq:
                raise AssertionError("symmetries not closed under composition")
    if identity(2) not in uniq:
        raise AssertionError("identity missing from the symmetries")
    return tuple(uniq)


def lattice_points(P):
    """All lattice points of the polygon, lexicographically sorted.

    Each counterclockwise edge a -> b keeps the points p on its left,
    <(a_y - b_y, b_x - a_x), p> >= cross(b - a, a).
    """
    edges = P.edges()
    normals = [(a[1] - b[1], b[0] - a[0]) for a, b in edges]
    bounds = [_cross(vec_sub(b, a), a) for a, b in edges]
    return integer_points(halfspaces(2, normals, bounds))


def classify_lattice_point(P, p):
    """'vertex', 'edge' or 'interior' for a lattice point of P."""
    if p in P.vertices:
        return "vertex"
    for a, b in P.edges():
        if _cross(vec_sub(b, a), vec_sub(p, a)) == 0:
            return "edge"
    return "interior"
