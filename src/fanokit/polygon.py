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

The invariants are closed forms on ints.  The cone over an edge u -> v has
index r = det(u, v) and type 1/r(1, det(w, v)) for any w with det(u, w) = 1;
the volume and the barycenter scale the vertices to ints over the lcm of
their denominators and build one Fraction per output number.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import NonPrimitiveVertex, NotConvex, OriginNotInterior, Record
from .polyhedra import halfspaces, integer_points


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def convex_hull(points):
    """Strict convex hull of 2d points (monotone chain), counterclockwise.

    Collinear and repeated points are dropped; the first vertex is the
    lexicographically least.  Works for int or Fraction coordinates.
    """
    pts = sorted(set(map(tuple, points)))
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
        if _cross(a, b) <= 0:  # origin strictly left of each directed edge
            raise OriginNotInterior("origin is not strictly interior")
    return Polygon(hull)


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

    The index is r = det(u, v) > 0 for counterclockwise rays u, v.  One
    modular inverse gives w with det(u, w) = 1; in the basis (u, w) the cone
    is spanned by (1, 0) and (-det(w, v), r), so it is 1/r(1, a) with
    a = det(w, v) mod r.  l is the lattice length of the edge, h = r / l its
    lattice height over the origin, and the edge carries m = floor(l/h)
    primitive T-cones with residue l mod h.
    """
    u, v = P.vertices[i], P.vertices[(i + 1) % len(P.vertices)]
    r = _cross(u, v)
    if u[0]:
        w0 = -pow(u[1], -1, abs(u[0]))
        w = (w0, (1 + u[1] * w0) // u[0])
    else:
        w = (-u[1], 0)
    length = gcd(v[0] - u[0], v[1] - u[1])
    h = r // length
    return SingularityRecord(i, CyclicQuotient2D.normalised(r, _cross(w, v)), length, h,
                             length // h, length % h)


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
        verts.append((Fraction(u[1] - v[1], d), Fraction(v[0] - u[0], d)))
    return Polygon(_canonical_cycle(verts))


def volume_and_barycenter(Q):
    """(normalized volume, barycenter), exact, in one pass: with c the cross products
    of the edges (x, y) -> (x', y') of L Q, L the lcm of the denominators, they are
    |sum c| / L^2 and (sum c (x + x'), sum c (y + y')) / (3 L sum c)."""
    L = lcm(*(c.denominator for p in Q.vertices for c in p))
    pts = [(x.numerator * (L // x.denominator), y.numerator * (L // y.denominator))
           for x, y in Q.vertices]
    area2 = cx = cy = 0
    for (x, y), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
        c = x * y1 - y * x1
        area2 += c
        cx += c * (x + x1)
        cy += c * (y + y1)
    return (Fraction(abs(area2), L * L),
            (Fraction(cx, 3 * area2 * L), Fraction(cy, 3 * area2 * L)))


def lattice_symmetries(P):
    """All g in GL2(Z) with g(P) = P, by mapping one vertex-edge flag to all.

    The first two vertices are linearly independent, so each candidate image
    flag (w, w') determines at most one integral matrix g = (w w') adj(v v') / d
    with d = det(v, v'); candidates are kept when they permute the vertex set.
    """
    verts = P.vertices
    (a, b), (c, e) = verts[0], verts[1]
    d = a * e - b * c
    vset = set(verts)
    n = len(verts)
    found = set()
    for j in range(n):
        for step in (1, -1):
            (p, q), (s, t) = verts[j], verts[(j + step) % n]
            g00, g01, g10, g11 = p * e - s * b, s * a - p * c, q * e - t * b, t * a - q * c
            if g00 % d or g01 % d or g10 % d or g11 % d:
                continue
            g00, g01, g10, g11 = g00 // d, g01 // d, g10 // d, g11 // d
            if g00 * g11 - g01 * g10 in (1, -1) and {
                    (g00 * x + g01 * y, g10 * x + g11 * y) for x, y in verts} == vset:
                found.add(((g00, g01), (g10, g11)))
    # group sanity: closed under composition and inverse
    for (g00, g01), (g10, g11) in found:
        k = g00 * g11 - g01 * g10
        if ((k * g11, -k * g01), (-k * g10, k * g00)) not in found:
            raise AssertionError("symmetries not closed under inverse")
        for (h00, h01), (h10, h11) in found:
            if ((g00 * h00 + g01 * h10, g00 * h01 + g01 * h11),
                    (g10 * h00 + g11 * h10, g10 * h01 + g11 * h11)) not in found:
                raise AssertionError("symmetries not closed under composition")
    if ((1, 0), (0, 1)) not in found:
        raise AssertionError("identity missing from the symmetries")
    return tuple(sorted(found))


def lattice_points(P):
    """All lattice points of the polygon, lexicographically sorted.

    Each counterclockwise edge a -> b keeps the points p on its left,
    <(a_y - b_y, b_x - a_x), p> >= cross(b, a).
    """
    edges = P.edges()
    normals = [(a[1] - b[1], b[0] - a[0]) for a, b in edges]
    bounds = [_cross(b, a) for a, b in edges]
    return integer_points(halfspaces(2, normals, bounds))


def classify_lattice_point(P, p):
    """'vertex', 'edge' or 'interior' for a lattice point of P."""
    if p in P.vertices:
        return "vertex"
    for a, b in P.edges():
        if _cross(a, b) + _cross(b, p) + _cross(p, a) == 0:
            return "edge"
    return "interior"
