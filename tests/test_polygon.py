import json
import random
from fractions import Fraction
from functools import reduce
from importlib import resources
from math import ceil, floor, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanokit.errors import NonPrimitiveVertex, NotConvex, OriginNotInterior
from fanokit.linalg import identity, mat_vec, primitive, vec_sub
from fanokit.polygon import (
    CyclicQuotient2D,
    SingularityRecord,
    _cross,
    convex_hull,
    classify_lattice_point,
    edge_singularity,
    lattice_points,
    lattice_symmetries,
    polar,
    qg_dimension,
    singularity_multiset,
    singularity_report,
    validate_fano,
    volume_and_barycenter,
)

from test_linalg import inverse_unimodular, mat_mul

HEX = [(2, 1), (1, 2), (-1, 2), (-2, -1), (-1, -2), (1, -2)]
P2 = [(1, 0), (0, 1), (-1, -1)]
SQUARE = [(1, 1), (-1, 1), (-1, -1), (1, -1)]


def multiset_of(P):
    return singularity_multiset(singularity_report(P))


def is_k_polystable(P):
    """Barycenter criterion: the polar dual is centered at the origin."""
    return volume_and_barycenter(polar(P))[1] == (0, 0)


def _unimodular_to_e2(u):
    """A determinant +-1 matrix g with g u = (0, 1), for primitive u."""
    ux, uy = u
    g0 = primitive((-uy, ux)) if (ux, uy) != (0, 1) else (1, 0)
    # second row: any integral solution of c*ux + d*uy = 1
    if ux == 0:
        c, d = 0, 1 if uy == 1 else -1
        if uy not in (1, -1):
            # primitive with ux = 0 forces uy = +-1
            raise ValueError("vertex is not primitive")
    else:
        # extended gcd on (ux, uy)
        old_r, r = ux, uy
        old_s, s = 1, 0
        old_t, t = 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        # old_s*ux + old_t*uy = old_r = +-gcd = +-1
        c, d = old_s * old_r, old_t * old_r
    g = (g0, (c, d))
    if mat_vec(g, u) != (0, 1):
        g = ((-g0[0], -g0[1]), (c, d))
    assert mat_vec(g, u) == (0, 1)
    return g


def reference_edge_singularity(P, i):
    """Singularity data of the cone over edge i of a Fano polygon.

    r is the determinant of the primitive edge rays; a is read off after a
    unimodular change of basis sending the first ray to (0,1), giving the
    cone over the segment from (0,1) to (r, -a mod r).  l is the lattice
    length of the edge, h its lattice height over the origin, and the edge
    carries m = floor(l/h) primitive T-cones with residue l mod h.
    """
    u, v = P.edges()[i]
    r = _cross(u, v)
    assert r > 0, "counterclockwise vertices around an interior origin"
    if r == 1:
        quot = CyclicQuotient2D.normalised(1, 0)
    else:
        g = _unimodular_to_e2(u)
        w = mat_vec(g, v)
        if w[0] < 0:
            w = (-w[0], w[1])
        assert w[0] == r
        quot = CyclicQuotient2D.normalised(r, -w[1])
    d = vec_sub(v, u)
    length = gcd(abs(d[0]), abs(d[1]))
    n = primitive((d[1], -d[0]))
    h = n[0] * u[0] + n[1] * u[1]
    if h < 0:
        h = -h
    return SingularityRecord(i, quot, length, h, length // h, length % h)


def test_validate_normalises():
    P = validate_fano(HEX)
    assert P.vertices[0] == (-2, -1)
    assert set(P.vertices) == set(HEX)
    # same polygon given in another cyclic order and orientation
    P2_ = validate_fano(list(reversed(HEX)))
    assert P2_ == P


def test_validate_errors():
    with pytest.raises(NonPrimitiveVertex):
        validate_fano([(2, 0), (0, 1), (-1, -1)])
    with pytest.raises(OriginNotInterior):
        validate_fano([(1, 0), (0, 1), (1, 1)])
    with pytest.raises(NotConvex):
        validate_fano([(1, 0), (0, 1), (-1, -1), (0, 0)])
    with pytest.raises(NotConvex):
        # midpoint of an edge is not a hull vertex
        validate_fano([(1, 1), (-1, 1), (0, 1), (-1, -1), (1, -1)])


def test_edge_singularities_hexagon():
    P = validate_fano(HEX)
    recs = singularity_report(P)
    assert len(recs) == 6
    multiset = singularity_multiset(recs)
    assert multiset == {
        CyclicQuotient2D.normalised(3, 1): 2,
        CyclicQuotient2D.normalised(4, 1): 2,
        CyclicQuotient2D.normalised(5, 2): 2,
    }
    by_quot = {}
    for r in recs:
        by_quot.setdefault(r.quotient, []).append(r)
    q4 = by_quot[CyclicQuotient2D.normalised(4, 1)]
    assert all(r.length == 2 and r.height == 2 and r.t_count == 1 and r.is_T for r in q4)
    q3 = by_quot[CyclicQuotient2D.normalised(3, 1)]
    assert all(r.length == 1 and r.height == 3 and r.is_rigid for r in q3)
    q5 = by_quot[CyclicQuotient2D.normalised(5, 2)]
    assert all(r.length == 1 and r.height == 5 and r.is_rigid for r in q5)


def test_quotient_inverse_canonical():
    assert CyclicQuotient2D.normalised(5, 3) == CyclicQuotient2D.normalised(5, 2)
    assert str(CyclicQuotient2D.normalised(5, 3)) == "1/5(1,2)"


def test_determinant_equals_index_and_t_criterion():
    P = validate_fano(HEX)
    from math import gcd

    for i, (u, v) in enumerate(P.edges()):
        rec = edge_singularity(P, i)
        assert u[0] * v[1] - u[1] * v[0] == rec.quotient.r
        if rec.is_T:
            g = gcd(rec.quotient.a + 1, rec.quotient.r)
            assert g * g % rec.quotient.r == 0


def test_qg_dimension():
    assert qg_dimension(singularity_report(validate_fano(HEX))) == 2
    assert qg_dimension(singularity_report(validate_fano(P2))) == 0
    assert qg_dimension(singularity_report(validate_fano(SQUARE))) == 8


def test_polar_hexagon():
    P = validate_fano(HEX)
    Q = polar(P)
    expected = {
        (Fraction(-1, 3), Fraction(-1, 3)),
        (Fraction(0), Fraction(-1, 2)),
        (Fraction(3, 5), Fraction(-1, 5)),
        (Fraction(1, 3), Fraction(1, 3)),
        (Fraction(0), Fraction(1, 2)),
        (Fraction(-3, 5), Fraction(1, 5)),
    }
    assert set(Q.vertices) == expected
    assert volume_and_barycenter(Q) == (Fraction(22, 15), (0, 0))
    assert is_k_polystable(P)


def test_polar_triangle():
    Q = polar(validate_fano(P2))
    assert set(Q.vertices) == {
        (Fraction(2), Fraction(-1)),
        (Fraction(-1), Fraction(2)),
        (Fraction(-1), Fraction(-1)),
    }


def test_polar_involution():
    for verts in (HEX, P2, SQUARE):
        P = validate_fano(verts)
        back = polar(polar(P))
        assert set(back.vertices) == {
            (Fraction(x), Fraction(y)) for x, y in P.vertices
        }


def normalized_volume_from_first_vertex(Q):
    """Same value via triangulation from the first vertex; a cross-check."""
    v0 = Q.vertices[0]
    total = Fraction(0)
    for i in range(1, len(Q.vertices) - 1):
        total += _cross(vec_sub(Q.vertices[i], v0), vec_sub(Q.vertices[i + 1], v0))
    return abs(total)


def test_volume_two_routes_agree():
    for verts in (HEX, P2, SQUARE):
        Q = polar(validate_fano(verts))
        assert volume_and_barycenter(Q)[0] == normalized_volume_from_first_vertex(Q)


def test_square_barycenter_polystable():
    # centrally symmetric, so trivially centered
    assert is_k_polystable(validate_fano(SQUARE))


def test_symmetries():
    P = validate_fano(HEX)
    syms = lattice_symmetries(P)
    assert set(syms) == {((1, 0), (0, 1)), ((-1, 0), (0, -1))}
    assert len(lattice_symmetries(validate_fano(SQUARE))) == 8
    assert len(lattice_symmetries(validate_fano(P2))) == 6


def test_singularities_invariant_under_symmetries():
    P = validate_fano(HEX)
    for g in lattice_symmetries(P):
        Pg = validate_fano([mat_vec(g, v) for v in P.vertices])
        assert multiset_of(Pg) == multiset_of(P)


def _random_fano(rng):
    while True:
        pts = []
        for _ in range(rng.randint(3, 7)):
            v = (rng.randint(-4, 4), rng.randint(-4, 4))
            if v == (0, 0):
                continue
            pts.append(primitive(v))
        if len(set(pts)) < 3:
            continue
        try:
            return validate_fano(sorted(set(pts)))
        except (NotConvex, OriginNotInterior, NonPrimitiveVertex):
            continue


def test_random_polygons_polar_involution_and_invariance():
    rng = random.Random(808)
    for _ in range(25):
        P = _random_fano(rng)
        back = polar(polar(P))
        assert set(back.vertices) == {(Fraction(x), Fraction(y)) for x, y in P.vertices}
        Q = polar(P)
        assert volume_and_barycenter(Q)[0] == normalized_volume_from_first_vertex(Q)
        for g in lattice_symmetries(P):
            Pg = validate_fano([mat_vec(g, v) for v in P.vertices])
            assert multiset_of(Pg) == multiset_of(P)
            assert qg_dimension(singularity_report(Pg)) == qg_dimension(
                singularity_report(P)
            )


PAPER_P = json.loads(
    resources.files("fanokit").joinpath("fixtures", "paper-P.json").read_text()
)["vertices"]
GL2_GENERATORS = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1))]


def _invariants(P):
    return (
        multiset_of(P),
        qg_dimension(singularity_report(P)),
        volume_and_barycenter(polar(P))[0],
        is_k_polystable(P),
        len(lattice_symmetries(P)),
    )


@settings(max_examples=150, deadline=None)
@given(
    verts=st.sampled_from([PAPER_P, P2, SQUARE]),
    word=st.lists(st.sampled_from(GL2_GENERATORS), max_size=12),
)
def test_invariants_under_gl2z(verts, word):
    """Singularities, qG-dimension, polar volume, K-polystability and the
    symmetry order do not change under a word in the generators of GL2(Z)."""
    g = reduce(mat_mul, word, ((1, 0), (0, 1)))
    P = validate_fano(verts)
    assert _invariants(validate_fano([mat_vec(g, v) for v in verts])) == _invariants(P)


def test_lattice_points_hexagon():
    P = validate_fano(HEX)
    pts = lattice_points(P)
    assert len(pts) == 17  # 6 vertices + 2 edge midpoints + 9 interior
    assert classify_lattice_point(P, (0, 2)) == "edge"
    assert classify_lattice_point(P, (0, 0)) == "interior"
    assert classify_lattice_point(P, (2, 1)) == "vertex"
    interior = [p for p in pts if classify_lattice_point(P, p) == "interior"]
    assert len(interior) == 9


def polar_facet_interior_points(P):
    """Interior lattice points of the polar's facets (informational).

    Returns {edge index of polar: [points]} with only nonempty entries; an
    empty dict means no facet of the polar dual contains interior lattice
    points.
    """
    Q = polar(P)
    out = {}
    for i, (u, v) in enumerate(Q.edges()):
        d = vec_sub(v, u)
        pts = []
        for x in range(ceil(min(u[0], v[0])), floor(max(u[0], v[0])) + 1):
            for y in range(ceil(min(u[1], v[1])), floor(max(u[1], v[1])) + 1):
                p = (Fraction(x), Fraction(y))
                if p == u or p == v:
                    continue
                if _cross(d, vec_sub(p, u)) != 0:
                    continue
                # strictly between the endpoints
                t = (p[0] - u[0]) / d[0] if d[0] else (p[1] - u[1]) / d[1]
                if 0 < t < 1:
                    pts.append((x, y))
        if pts:
            out[i] = sorted(pts)
    return out


def test_polar_facet_points_informational():
    P = validate_fano(HEX)
    assert polar_facet_interior_points(P) == {}
    # the standard square's polar has lattice facet midpoints... use a known
    # case: polar of P2 triangle has facets with interior lattice points
    notes = polar_facet_interior_points(validate_fano(P2))
    assert any((0, 0) != p for pts in notes.values() for p in pts)


@st.composite
def fano_polygons(draw):
    """The hull of P2's rays and up to nine random primitive vectors."""
    pts = draw(
        st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(lambda v: v != (0, 0)),
            min_size=2,
            max_size=9,
        )
    )
    return validate_fano(convex_hull([primitive(v) for v in pts] + P2))


@settings(max_examples=200, deadline=None)
@given(P=fano_polygons(), word=st.lists(st.sampled_from(GL2_GENERATORS), max_size=12))
def test_singularity_report_matches_the_reference(P, word):
    """The closed-form quotient of each edge equals the one read off after
    sending the first ray to (0, 1), on random Fano polygons and their
    GL2(Z) images."""
    g = reduce(mat_mul, word, ((1, 0), (0, 1)))
    for Q in (P, validate_fano([mat_vec(g, v) for v in P.vertices])):
        n = len(Q.vertices)
        assert singularity_report(Q) == tuple(
            reference_edge_singularity(Q, i) for i in range(n)
        )


def reference_normalized_volume(Q):
    """Twice the Euclidean area, by a Fraction shoelace over the origin fan."""
    total = Fraction(0)
    for u, v in Q.edges():
        total += _cross(u, v)
    return abs(total)


def reference_barycenter(Q):
    """Exact centroid, by a Fraction triangulation from the first vertex."""
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


def reference_lattice_symmetries(P):
    """The flag-mapping candidates of lattice_symmetries, by generic matrix calls."""
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
    for g in uniq:
        assert tuple(map(tuple, inverse_unimodular(g))) in uniq
        assert all(mat_mul(g, h) in uniq for h in uniq)
    assert identity(2) in uniq
    return tuple(uniq)


@settings(max_examples=200, deadline=None)
@given(P=fano_polygons(), word=st.lists(st.sampled_from(GL2_GENERATORS), max_size=12))
def test_integer_invariants_match_the_references(P, word):
    """The volume and the barycenter on ints over the lcm of the denominators,
    and the inline symmetry products, equal their Fraction and matrix
    references on random Fano polygons, their GL2(Z) images and their polars
    (which have Fraction vertices)."""
    g = reduce(mat_mul, word, ((1, 0), (0, 1)))
    for Q in (P, validate_fano([mat_vec(g, v) for v in P.vertices])):
        assert lattice_symmetries(Q) == reference_lattice_symmetries(Q)
        for R in (Q, polar(Q)):
            assert volume_and_barycenter(R) == (
                reference_normalized_volume(R), reference_barycenter(R))
