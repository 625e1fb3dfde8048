import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanokit import polyhedra
from fanokit.errors import Unbounded, WorkBudgetExceeded
from fanokit.linalg import (
    det,
    dot,
    identity,
    kernel_basis,
    kernel_vector,
    mat_freeze,
    primitive,
    solve_rational,
)
from fanokit.polyhedra import (
    ConeV,
    dual_cone,
    halfspaces,
    integer_point_runs,
    integer_points,
    vertices,
)

from test_linalg import rank


def reference_kernel_vector(rows):
    """Signed maximal minors of n - 1 rows of length n, each a det, made primitive."""
    rows = mat_freeze(rows)
    v = tuple(
        (-1) ** j * det([r[:j] + r[j + 1 :] for r in rows]) for j in range(len(rows) + 1)
    )
    return primitive(v) if any(v) else None


def reference_dual_cone(hs):
    """A Smith form decides pointedness first; then both directions of every
    candidate line are kept where every normal pairs nonnegatively with them."""
    lin = kernel_basis(hs.normals) if hs.normals else identity(hs.dim)
    if lin:
        return ConeV(hs.dim, (), lin)
    cands = set()
    for rows in combinations(hs.normals, hs.dim - 1):
        v = reference_kernel_vector(rows)
        if v is not None:
            cands.add(v)
            cands.add(tuple(-a for a in v))
    rays = sorted(v for v in cands if all(dot(n, v) >= 0 for n in hs.normals))
    return ConeV(hs.dim, tuple(rays))


ENTRY = st.integers(-3, 3)


@st.composite
def cone_systems(draw):
    """Homogeneous systems in dimensions 1-4 with 0-8 nonzero normals, the
    empty one included; about half are integer combinations of fewer than
    dim rows, so their normals cannot span."""
    dim = draw(st.integers(1, 4))
    vec = st.tuples(*[ENTRY] * dim)
    if dim > 1 and draw(st.booleans()):
        base = draw(st.lists(vec, min_size=1, max_size=dim - 1))
        coeffs = st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))
        combos = [tuple(sum(c * b[i] for c, b in zip(cs, base)) for i in range(dim))
                  for cs in draw(st.lists(coeffs, max_size=8))]
        normals = [n for n in combos if any(n)]
    else:
        normals = draw(st.lists(vec.filter(any), max_size=8))
    return halfspaces(dim, normals)


@settings(max_examples=400, deadline=None)
@given(hs=cone_systems())
def test_dual_cone_matches_the_reference(hs):
    """Rays, their order and the lineality basis, against the SNF-first
    reference that tries both directions of every line on every normal."""
    assert dual_cone(hs) == reference_dual_cone(hs)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(2, 5))
def test_kernel_vector_matches_the_reference(data, n):
    """The closed forms (lengths 3 and 4) and det (the others) give the same
    primitive vector, sign included; a row that combines two others (or a
    zero row, for a single row) leaves the rank below n - 1 and gives None."""
    rows = data.draw(st.lists(st.tuples(*[ENTRY] * n), min_size=n - 1, max_size=n - 1))
    assert kernel_vector(rows) == reference_kernel_vector(rows)
    a, b = data.draw(st.tuples(ENTRY, ENTRY))
    low = rows[:-1] + ([tuple(a * x + b * y for x, y in zip(rows[0], rows[-2]))] if n > 2
                       else [(0,) * n])
    assert kernel_vector(low) is None and reference_kernel_vector(low) is None


def test_dual_cone_over_the_budget_still_returns_its_lineality():
    """C(150, 2) * 150 checks are over MAX_DUAL_CONE_CHECKS; normals in the
    plane z = 0 leave the z axis as lineality, and spanning normals raise."""
    flat = [(i, j, 0) for i in range(1, 16) for j in range(-5, 5)]
    cone = dual_cone(halfspaces(3, flat))
    assert cone == reference_dual_cone(halfspaces(3, flat))
    assert cone.rays == () and cone.lineality in (((0, 0, 1),), ((0, 0, -1),))
    with pytest.raises(WorkBudgetExceeded):
        dual_cone(halfspaces(3, flat[:-1] + [(1, 1, 1)]))


def test_dual_cone_budget_counts_the_minors_of_each_line(monkeypatch):
    """23 normals in dimension 22 cut C(23, 21) = 253 lines, so 5,819 sign
    checks, but each line takes 22 Bareiss minors of size 21: the cone is
    refused before its first kernel vector."""
    def no_kernel_vector(rows):
        raise AssertionError("kernel_vector called")

    monkeypatch.setattr(polyhedra, "kernel_vector", no_kernel_vector)
    unit = [tuple(int(i == j) for j in range(22)) for i in range(22)]
    with pytest.raises(WorkBudgetExceeded, match="dimension 22"):
        dual_cone(halfspaces(22, unit + [(-1,) * 22]))


def test_ray_candidates_are_one_direction_per_line():
    """Opposite kernel vectors of two row subsets are one line."""
    lines = polyhedra._ray_candidates(2, [(1, 0), (-1, 0), (0, 1)])
    assert lines == {(0, 1), (1, 0)}


def test_dual_cone_plane_example():
    cone = dual_cone(halfspaces(2, [(1, 1), (1, -1)]))
    assert cone.rays == ((1, -1), (1, 1))
    assert not cone.lineality


def test_dual_cone_octant():
    cone = dual_cone(halfspaces(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert set(cone.rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_dual_cone_lineality_flagged():
    cone = dual_cone(halfspaces(3, [(1, 0, 0), (0, 1, 0)]))
    assert cone.lineality
    assert cone.rays == ()
    assert len(cone.lineality) == 1
    for v in cone.lineality:
        assert dot((1, 0, 0), v) == 0 and dot((0, 1, 0), v) == 0
    # No inequalities at all: the whole space is lineality.
    assert dual_cone(halfspaces(2, [])).lineality == ((1, 0), (0, 1))


def test_dual_cone_zero_cone():
    cone = dual_cone(halfspaces(2, [(1, 0), (-1, 0), (0, 1), (0, -1)]))
    assert cone.rays == () and not cone.lineality


def test_dual_cone_dim_4():
    """Rays, the dual-cone involution and the lineality flag in dimension 4."""
    unit = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    assert dual_cone(halfspaces(4, unit)).rays == tuple(reversed(unit))
    rays = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 2), (0, 1, 2, 1)]
    facets = dual_cone(halfspaces(4, rays)).rays
    assert all(dot(f, r) >= 0 for f in facets for r in rays)
    assert set(dual_cone(halfspaces(4, list(facets))).rays) == set(rays)
    cone = dual_cone(halfspaces(4, unit[:3] + [(1, 1, 1, 0)]))
    assert cone.lineality and cone.rays == ()
    assert cone.lineality in (((0, 0, 0, 1),), ((0, 0, 0, -1),))
    simplex = halfspaces(4, unit + [(-1, -1, -1, -1)], [0, 0, 0, 0, -2])
    assert vertices(simplex) == sorted([(0,) * 4] + [tuple(2 * a for a in e) for e in unit])


def test_dual_cone_involution_random():
    rng = random.Random(4242)
    done = 0
    while done < 50:
        k = rng.randint(3, 5)
        normals = []
        while len(normals) < k:
            v = tuple(rng.randint(-5, 5) for _ in range(3))
            if any(v):
                normals.append(v)
        if rank(normals) < 3:
            continue
        r1 = dual_cone(halfspaces(3, normals)).rays
        if len(r1) < 3 or rank(r1) < 3:
            continue
        r2 = dual_cone(halfspaces(3, list(r1))).rays
        if len(r2) < 3 or rank(r2) < 3:
            continue
        r3 = dual_cone(halfspaces(3, list(r2))).rays
        assert set(r3) == set(r1)
        done += 1


def test_vertices_square():
    hs = halfspaces(2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [0, -1, 0, -1])
    assert vertices(hs) == [
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
    ]


def test_vertices_unbounded():
    with pytest.raises(Unbounded):
        vertices(halfspaces(2, [(1, 0), (0, 1)], [0, 0]))
    with pytest.raises(Unbounded):
        # Normals of rank 1: a lineality direction.
        vertices(halfspaces(2, [(1, 0), (-1, 0)], [0, -1]))
    with pytest.raises(Unbounded):
        vertices(halfspaces(2, [], []))


def _subset_solve_vertices(dim, normals, bounds):
    """Vertices as the solutions of dim tight inequalities that satisfy all."""
    found = set()
    for idx in combinations(range(len(normals)), dim):
        x = solve_rational([normals[i] for i in idx], [bounds[i] for i in idx])
        if x is not None and all(dot(n, x) >= b for n, b in zip(normals, bounds)):
            found.add(x)
    return sorted(found)


def test_vertices_match_a_subset_solve():
    """Random systems in dimensions 1-3 with Fraction bounds; a region is
    unbounded exactly when integer_points finds a coordinate without a bound."""
    rng = random.Random(606)
    kinds = Counter()
    for _ in range(300):
        d = rng.randint(1, 3)
        normals, bounds = [], []
        for _ in range(rng.randint(0, d + 4)):
            n = tuple(rng.randint(-3, 3) for _ in range(d))
            if any(n):
                normals.append(n)
                bounds.append(F(rng.randint(-8, 3), rng.randint(1, 4)))
        hs = halfspaces(d, normals, bounds)
        try:
            integer_points(hs)
        except Unbounded:
            with pytest.raises(Unbounded):
                vertices(hs)
            kinds["unbounded"] += 1
            continue
        expected = _subset_solve_vertices(d, normals, bounds)
        assert vertices(hs) == expected
        kinds["bounded" if expected else "empty"] += 1
    assert min(kinds.values()) >= 20, kinds


def test_integer_points_simplex():
    hs = halfspaces(2, [(1, 0), (0, 1), (-1, -1)], [0, 0, -2])
    pts = integer_points(hs)
    assert pts == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert integer_point_runs(hs) == [((0,), 0, 2), ((1,), 0, 1), ((2,), 0, 0)]


F = Fraction
UNIT4 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


@pytest.mark.parametrize(
    "dim, normals, bounds, count",
    [
        # -3/2 <= x <= 7/3
        (1, [(2,), (-3,)], [-3, -7], 4),
        (2, [(1, 0), (-1, 0), (0, 3), (-1, -2)], [F(1, 2), F(-7, 2), F(-5, 3), F(-9, 2)],
         5),
        # x = 1/2 exactly: a rational point but no lattice point
        (2, [(2, 0), (-2, 0), (0, 1), (0, -1)], [1, -1, 0, -3], 0),
        # x, y >= 0 and x + y <= -1: elimination ends in 0 >= 1
        (2, [(1, 0), (0, 1), (-1, -1)], [0, 0, 1], 0),
        (4, UNIT4 + [(-1, -1, -1, -1)], [0, 0, 0, 0, -2], 15),
        (4, UNIT4 + [(-1, -2, -1, -3)], [F(-1, 3), -1, 0, F(1, 2), F(-11, 2)], 25),
    ],
    ids=[
        "dim-1", "fraction-bounds", "rational-point-only", "false-row",
        "dim-4-simplex", "dim-4-fraction",
    ],
)
def test_integer_points_match_a_scan(dim, normals, bounds, count):
    """Lattice points, including empty regions, against a scan of [-6, 6]^dim."""
    expected = [
        p
        for p in product(range(-6, 7), repeat=dim)
        if all(dot(n, p) >= b for n, b in zip(normals, bounds))
    ]
    assert len(expected) == count
    assert integer_points(halfspaces(dim, normals, bounds)) == expected


@pytest.mark.parametrize(
    "dim, normals, bounds",
    [
        (1, [(1,)], [0]),
        (2, [], []),
        # Empty (1 <= x <= 0), and y >= 0 has no upper bound.
        (2, [(1, 0), (-1, 0), (0, 1)], [1, 0, 0]),
        (4, UNIT4 + [(-1, -1, -1, 0)], [0, 0, 0, 0, -2]),
    ],
    ids=["dim-1-ray", "no-inequalities", "empty-with-recession", "dim-4-cylinder"],
)
def test_integer_points_unbounded(dim, normals, bounds):
    with pytest.raises(Unbounded):
        integer_points(halfspaces(dim, normals, bounds))


def test_integer_points_box_oracle_random():
    rng = random.Random(515)
    for _ in range(50):
        d = rng.randint(2, 3)
        lo = [rng.randint(-4, 0) for _ in range(d)]
        hi = [rng.randint(1, 4) for _ in range(d)]
        normals = []
        bounds = []
        for i in range(d):
            e = [0] * d
            e[i] = 1
            normals.append(tuple(e))
            bounds.append(lo[i])
            normals.append(tuple(-x for x in e))
            bounds.append(-hi[i])
        for _ in range(rng.randint(0, 3)):
            n = tuple(rng.randint(-3, 3) for _ in range(d))
            if not any(n):
                continue
            normals.append(n)
            bounds.append(rng.randint(-6, 0))
        hs = halfspaces(d, normals, bounds)
        got = integer_points(hs)
        box = product(*[range(lo[i], hi[i] + 1) for i in range(d)])
        expected = [p for p in box if all(dot(n, p) >= b for n, b in zip(normals, bounds))]
        assert got == sorted(expected)


def cone_from_rays(dim, rays):
    """Facet description of cone(rays): the dual computation in reverse."""
    return dual_cone(halfspaces(dim, [tuple(r) for r in rays]))


def test_cone_from_rays_roundtrip():
    facets = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (1, 1, 5)])
    assert isinstance(facets, ConeV)
    back = dual_cone(halfspaces(3, list(facets.rays)))
    assert set(back.rays) == {(1, 0, 0), (0, 1, 0), (1, 1, 5)}
