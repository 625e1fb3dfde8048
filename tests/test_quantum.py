from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import factorial
from operator import add

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import fanokit.linalg
from fanokit.cox import (
    CoxPresentation,
    change_class_basis,
    cox_presentation,
    hypersurface_from_scaffolding,
)
from fanokit.errors import NonSimplicial, TorsionClassGroup, Unbounded, WorkBudgetExceeded
from fanokit.laurent import LaurentPolynomial, classical_period
from fanokit.linalg import dot, mat_vec, vec_sub
from fanokit.polyhedra import (
    HalfspaceSystem,
    dual_cone,
    halfspaces,
    integer_point_runs,
    integer_points,
)
from fanokit.quantum import (
    MAX_BOX_POINTS,
    _box_points,
    lambda_cone,
    mori_and_nef,
    quantum_period,
    walls,
)
from fanokit.scaffolding import (
    Scaffolding,
    ShapeVariety,
    Strut,
    build_qs,
    normal_fan,
    variable_names,
)
from fanokit.series import PowerSeries, first_mismatch, regularize

from test_linalg import mat_mul
from test_polygon import fano_polygons

FIXTURE_W = ((0, 0, 1, 1, 1, 1), (0, 1, 3, 1, 0, 6), (1, 0, 1, 3, 6, 0))

REGULARIZED = [
    1,
    0,
    16,
    0,
    936,
    520,
    76840,
    131880,
    7360920,
    22806000,
    770459256,
    3451657440,
    85553394696,
]


def hex_cox(fixture_basis=True):
    s = Scaffolding(
        ShapeVariety((1,)),
        1,
        (
            Strut("x1", (1, 1), (2,)),
            Strut("x2", (1, 1), (-2,)),
            Strut("y1", (-1, 2), (1,)),
            Strut("y2", (2, -1), (-1,)),
        ),
    )
    fan = normal_fan(build_qs(s))
    cox = cox_presentation(fan.rays, fan.max_cones, variable_names(s))
    if fixture_basis:
        cox = change_class_basis(cox, FIXTURE_W)
    return s, cox


def p2_cox():
    return cox_presentation(
        ((1, 0), (0, 1), (-1, -1)), ((0, 1), (0, 2), (1, 2)), ("x", "y", "z")
    )


def test_walls_hexagon():
    _, cox = hex_cox()
    ws = walls(cox)
    assert len(ws) == 12
    by_wall = {w.wall: w for w in ws}
    assert by_wall[(4, 5)].relation == (1, 1, 0, 0, 2, 2)
    assert by_wall[(4, 5)].curve_class == (-4, 1, 1)
    for w in ws:
        # the relation is an actual linear relation among the rays
        for j in range(3):
            assert sum(w.relation[i] * cox.rays[i][j] for i in range(6)) == 0
        # and the curve class pairs with each variable by its coefficient
        for i in range(6):
            assert dot(w.curve_class, cox.variable_classes[i]) == w.relation[i]


def test_walls_incomplete_fan():
    open_fan = CoxPresentation(("a", "b"), ((1, 0), (0, 1)), ((0, 1),), ())
    with pytest.raises(NonSimplicial):
        walls(open_fan)


def test_quantum_period_rejects_an_incomplete_fan():
    """The period sums over {l : <w_i, l> >= 0}, which is the curve cone only on
    a complete fan; without one maximal cone the fan is not complete."""
    _, cox = hex_cox()
    x_class = (2, 6, 6)
    quantum_period(cox, x_class, 2)
    open_fan = CoxPresentation(cox.names, cox.rays, cox.max_cones[1:], cox.weights)
    with pytest.raises(NonSimplicial, match="not complete"):
        quantum_period(open_fan, x_class, 2)


def test_mori_and_nef_hexagon():
    _, cox = hex_cox()
    ws, mori, nef = mori_and_nef(cox)
    assert nef == ((1, 3, 3), (4, 9, 9), (5, 9, 15), (5, 15, 9))
    assert mori == ((-18, 3, 5), (-18, 5, 3), (3, -1, 0), (3, 0, -1))
    for w in ws:
        for n in nef:
            assert dot(n, w.curve_class) >= 0
    for m in mori:
        for n in nef:
            assert dot(n, m) >= 0


def test_mori_and_nef_p2():
    _, mori, nef = mori_and_nef(p2_cox())
    assert nef == ((1,),)
    assert mori == ((1,),)


def test_lambda_cone_hexagon():
    _, cox = hex_cox()
    _, _, nef = mori_and_nef(cox)
    lam = lambda_cone(cox, nef, (2, 5, 5))
    assert lam.rays == (
        (-6, 1, 3),
        (-6, 3, 1),
        (-4, 1, 1),
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
    )
    # same cone as the explicit ten-inequality description
    explicit = halfspaces(
        3,
        (
            (1, 3, 3),
            (4, 9, 9),
            (5, 9, 15),
            (5, 15, 9),
            (0, 0, 1),
            (0, 1, 0),
            (1, 3, 1),
            (1, 1, 3),
            (1, 0, 6),
            (1, 6, 0),
        ),
    )
    assert set(dual_cone(explicit).rays) == set(lam.rays)
    assert lam.contains((-4, 1, 1))
    assert not lam.contains((-1, 0, 0))

    trunc = HalfspaceSystem(
        3,
        lam.system.normals + ((-2, -5, -5),),
        lam.system.bounds + (-2,),
    )
    assert integer_points(trunc) == [(-4, 1, 1), (0, 0, 0), (1, 0, 0)]

    with pytest.raises(Unbounded):
        lambda_cone(cox, nef, (0, 0, 0))


def test_quantum_period_hexagon():
    _, cox = hex_cox()
    G, reg = quantum_period(cox, (2, 6, 6), 12)
    assert G.coeffs[0] == 1 and G.coeffs[1] == 0
    assert G.coeffs[2] == 8
    assert G.coeffs[4] == 39
    assert G.coeffs[5] == Fraction(13, 3)
    assert G.coeffs[12] == Fraction(5143903, 28800)
    assert list(reg.coeffs) == REGULARIZED


def test_quantum_period_basis_independent():
    s, cox = hex_cox()
    _, _, eq = hypersurface_from_scaffolding(s, cox)
    s0, cox0 = hex_cox(fixture_basis=False)
    _, _, eq0 = hypersurface_from_scaffolding(s0, cox0)
    _, reg = quantum_period(cox, eq.class_vector(cox.weights), 8)
    _, reg0 = quantum_period(cox0, eq0.class_vector(cox0.weights), 8)
    assert reg.coeffs == reg0.coeffs


def test_quantum_period_truncation_and_errors():
    _, cox = hex_cox()
    G, reg = quantum_period(cox, (2, 6, 6), 0)
    assert list(G.coeffs) == [1] and list(reg.coeffs) == [1]
    with pytest.raises(ValueError):
        quantum_period(cox, (2, 6, 6), -1)
    with pytest.raises(Unbounded):
        quantum_period(cox, (-1, 0, 0), 4)


def test_quantum_period_p2_matches_mirror():
    _, reg = quantum_period(p2_cox(), (0,), 9)
    assert list(reg.coeffs) == [1, 0, 0, 6, 0, 0, 90, 0, 0, 1680]
    f = LaurentPolynomial(
        2,
        (),
        {(1, 0): Fraction(1), (0, 1): Fraction(1), (-1, -1): Fraction(1)},
    )
    assert first_mismatch(reg, classical_period(f, 9), 9) is None


TORIC_FANS = {
    "P1xP2": (((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)),
              [(a, *b) for a in (0, 1) for b in ((2, 3), (2, 4), (3, 4))]),
    "P3": (((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)), list(combinations(range(4), 3))),
    "P1^3": (((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)),
             list(product((0, 1), (2, 3), (4, 5)))),
    "dP6": (((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
            [(i, (i + 1) % 6) for i in range(6)]),
}


@pytest.mark.parametrize("name", TORIC_FANS)
def test_toric_quantum_period_matches_the_classical_period_of_its_rays(name):
    """The mirror of a toric Fano manifold X with rays rho: the regularized
    quantum period of X (hypersurface class 0) is the classical period of
    sum_rho x^rho.  Both count the relations sum d_rho rho = 0 with d >= 0 by
    k!/prod d_rho! (Coates, Corti, Galkin and Kasprzyk, Quantum periods for
    3-dimensional Fano manifolds).  P1xP2 takes the classical kernel's zero
    axis, one field per row, in a 3-D frame."""
    rays, cones = TORIC_FANS[name]
    cox = cox_presentation(rays, cones)
    f = LaurentPolynomial(len(rays[0]), (), {r: Fraction(1) for r in rays})
    _, reg = quantum_period(cox, (0,) * cox.class_rank, 16)
    assert reg == classical_period(f, 16)


@settings(max_examples=150, deadline=None)
@given(P=fano_polygons())
def test_face_fan_quantum_period_matches_the_classical_period_of_its_vertices(P):
    """The toric mirror above on random Fano polygons: the face fan's
    regularized quantum period is the classical period of the sum of x^v over
    the vertices.  A face fan with torsion in its class group is outside the
    Cox presentation; it is counted as an event, not compared."""
    n = len(P.vertices)
    try:
        cox = cox_presentation(P.vertices, [(i, (i + 1) % n) for i in range(n)])
    except TorsionClassGroup:
        event("torsion class group")
        return
    event(f"class rank {cox.class_rank}")
    f = LaurentPolynomial(2, (), {v: Fraction(1) for v in P.vertices})
    _, reg = quantum_period(cox, (0,) * cox.class_rank, 12)
    assert reg == classical_period(f, 12)


def projective_space(n):
    rays = tuple(tuple(int(i == j) for j in range(n)) for i in range(n)) + ((-1,) * n,)
    return cox_presentation(rays, list(combinations(range(n + 1), n)))


def laurent_power(base, power, shift, extra=()):
    """(sum_{b in base} x^b)^power * x^shift + sum_{e in extra} x^e."""
    terms = Counter({shift: 1})
    for _ in range(power):
        step = Counter()
        for e, c in terms.items():
            for b in base:
                step[tuple(map(add, e, b))] += c
        terms = step
    terms.update(extra)
    return LaurentPolynomial(len(shift), (), {e: Fraction(c) for e, c in terms.items()})


HYPERSURFACES = {
    "quadric-surface": (3, 2, 18, laurent_power(((0, 0), (1, 0)), 2, (-1, -1), [(0, 1)]),
                        [1, 0, 4, 0, 36]),
    "cubic-surface": (3, 3, 18, laurent_power(((0, 0), (1, 0), (0, 1)), 3, (-1, -1)),
                      [1, 6, 90, 1680]),
    "quartic-threefold": (4, 4, 10, laurent_power(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
                                                  4, (-1, -1, -1)),
                          [1, 24, 2520, 369600]),
}


@pytest.mark.parametrize("name", HYPERSURFACES)
def test_hypersurface_quantum_period_matches_przyjalkowskis_mirror(name):
    """A hypersurface of degree d in P^n (class (d) in the rank-1 class group)
    against the classical period of Przyjalkowski's Laurent polynomial
    (V. Przyjalkowski, On Landau-Ginzburg models for Fano varieties):
    (1 + x)^2/(xy) + y, (1 + x + y)^3/(xy) and (1 + x + y + z)^4/(xyz).  The
    class is nonzero, so the factorial numerators step; the curve cone is a
    dual cone in dimension 1, whose one candidate line comes from no normals."""
    n, d, order, f, head = HYPERSURFACES[name]
    _, reg = quantum_period(projective_space(n), (d,), order)
    assert list(reg.coeffs[: len(head)]) == head
    assert reg == classical_period(f, order)


def reference_quantum_period(cox, hypersurface_class, order):
    """The factorial sum point by point: factorial and dot at each lattice
    point and one Fraction added per point.  The reference for quantum_period."""
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


def assert_matches_reference(cox, x_class, orders):
    """quantum_period at each order against the prefix of one reference sum
    at the top order: a coefficient does not depend on the truncation."""
    top = max(orders)
    G_ref, reg_ref = reference_quantum_period(cox, x_class, top)
    for order in orders:
        G, reg = quantum_period(cox, x_class, order)
        assert (G.order, reg.order) == (order, order)
        assert list(G.coeffs) == list(G_ref.coeffs[: order + 1])
        assert list(reg.coeffs) == list(reg_ref.coeffs[: order + 1])
        assert all(type(c) is Fraction for c in G.coeffs)


def test_quantum_period_matches_the_reference_on_the_paper():
    _, cox = hex_cox()
    assert_matches_reference(cox, (2, 6, 6), range(41))


def test_quantum_period_matches_the_reference_on_p2():
    assert_matches_reference(p2_cox(), (0,), range(31))
    assert_matches_reference(p2_cox(), (1,), range(16))  # a cubic curve in P^2


@st.composite
def unimodular3(draw):
    """A product of elementary row operations: add k times row j to row i."""
    U = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for i, j, k in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                           st.integers(-2, 2)), max_size=5)):
        if i != j:
            E = tuple(tuple(int(r == c) + k * (r == i and c == j) for c in range(3))
                      for r in range(3))
            U = mat_mul(E, U)
    if draw(st.booleans()):
        U = (U[1], U[0], U[2])
    return U


@settings(max_examples=25, deadline=None)
@given(unimodular3(), st.integers(0, 24))
# pairings that fall along a run: variables with last weight -1 and -4, and
# the hypersurface's, with last entry -2
@example(((1, 0, 0), (0, 1, 0), (-1, 0, 1)), 24)
@example(((1, 0, 0), (0, 1, 0), (-2, -1, 1)), 24)
def test_quantum_period_matches_the_reference_in_any_class_basis(U, order):
    """Class bases U*W move every run of the walk and the steps along it."""
    s, cox0 = hex_cox(fixture_basis=False)
    _, _, eq = hypersurface_from_scaffolding(s, cox0)
    cox = change_class_basis(cox0, mat_mul(U, cox0.weights))
    assert_matches_reference(cox, mat_vec(U, eq.class_vector(cox0.weights)), [order])


def truncated_runs(cox, nef, degree, order):
    """Runs of the curve cone cut out by ``nef`` and the variable classes, at degree <= order."""
    lam = lambda_cone(cox, nef, degree)
    return integer_point_runs(HalfspaceSystem(
        cox.class_rank, lam.system.normals + (tuple(-c for c in degree),),
        lam.system.bounds + (-order,)))


def assert_nef_normals_are_implied(cox, x_class, orders):
    """The variable classes alone cut out the same truncated curve cone: every
    nef class is effective, so it adds no inequality, and the walk gives the
    same runs as with the nef generators."""
    _, _, nef = mori_and_nef(cox)
    degree = vec_sub(cox.anticanonical, tuple(x_class))
    assert lambda_cone(cox, nef, degree).rays == lambda_cone(cox, (), degree).rays
    for order in orders:
        assert truncated_runs(cox, nef, degree, order) == truncated_runs(cox, (), degree, order)


def test_quantum_cone_needs_no_nef_normals_on_the_paper():
    _, cox = hex_cox()
    assert_nef_normals_are_implied(cox, (2, 6, 6), range(0, 101, 5))


@settings(max_examples=25, deadline=None)
@given(unimodular3(), st.integers(0, 24))
def test_quantum_cone_needs_no_nef_normals_in_any_class_basis(U, order):
    s, cox0 = hex_cox(fixture_basis=False)
    _, _, eq = hypersurface_from_scaffolding(s, cox0)
    cox = change_class_basis(cox0, mat_mul(U, cox0.weights))
    assert_nef_normals_are_implied(cox, mat_vec(U, eq.class_vector(cox0.weights)), [order])


def test_walls_factor_the_weights_once(monkeypatch):
    _, cox = hex_cox()
    calls = []
    snf = fanokit.linalg.snf
    monkeypatch.setattr(fanokit.linalg, "snf", lambda M: calls.append(M) or snf(M))
    assert len(walls(cox)) == 12
    assert len(calls) == 1


def test_quantum_period_work_budget():
    _, cox = hex_cox()
    _, _, nef = mori_and_nef(cox)
    degree = (2, 5, 5)
    lam = lambda_cone(cox, nef, degree)
    assert _box_points(lam.rays, degree, 20) == 6171
    # order 100 stays inside the budget with room for other class bases
    assert 10 * _box_points(lam.rays, degree, 100) < MAX_BOX_POINTS
    # the box holds every point the sum visits
    for order in (0, 7, 20):
        trunc = HalfspaceSystem(
            3, lam.system.normals + ((-2, -5, -5),), lam.system.bounds + (-order,)
        )
        assert len(integer_points(trunc)) <= _box_points(lam.rays, degree, order)
    with pytest.raises(WorkBudgetExceeded, match="order 100000"):
        quantum_period(cox, (2, 6, 6), 100000)


def test_negative_variable_degree_on_a_run_raises(monkeypatch):
    """The guard on both ends of a run is a raise, not an assert statement,
    so it holds under python -O as well."""
    import fanokit.quantum

    _, cox = hex_cox()
    monkeypatch.setattr(fanokit.quantum, "integer_point_runs", lambda hs: [((0, 0), -1, 0)])
    with pytest.raises(AssertionError, match="variable degree negative"):
        quantum_period(cox, (2, 6, 6), 4)
