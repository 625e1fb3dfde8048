import json
from fractions import Fraction
from importlib import resources
from itertools import combinations, product
from math import ceil, floor

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fanokit.cox import (
    AbelianQuotient,
    CoxPolynomial,
    CoxPresentation,
    chart_analysis,
    change_class_basis,
    cox_presentation,
    deformation_family,
    FiberCheck,
    fiber_avoidance,
    hypersurface_from_scaffolding,
    minimal_generators,
    section_monomials,
    unstable_locus_equal,
)
from fanokit.errors import (
    CorankError,
    NonSimplicial,
    SchemaError,
    TorsionClassGroup,
    Unbounded,
)
from fanokit.linalg import dot, kernel_basis, primitive, transpose
from fanokit.pipeline import run_scaffold
from fanokit.polygon import convex_hull, validate_fano
from fanokit.scaffolding import (
    Scaffolding,
    ShapeVariety,
    Strut,
    build_qs,
    normal_fan,
    theta_matrix,
    variable_names,
)
from fanokit.symbolic import ParamPoly

CANONICAL_W = ((1, 0, 0, 2, 5, -1), (0, 1, 0, -2, -3, 3), (0, 0, 1, 1, 1, 1))


def reference_unstable_locus_equal(gens_a, gens_b):
    """Whether two squarefree monomial ideals cut the same coordinate locus.

    Scans all 2^n coordinate zero-patterns S and compares "every generator
    meets S" between the two generator lists.
    """
    gens_a = [frozenset(g) for g in gens_a]
    gens_b = [frozenset(g) for g in gens_b]
    vars_a = frozenset().union(*gens_a) if gens_a else frozenset()
    vars_b = frozenset().union(*gens_b) if gens_b else frozenset()
    if vars_a != vars_b:
        raise ValueError("generator lists mention different variables")
    variables = sorted(vars_a)
    for bits in product((0, 1), repeat=len(variables)):
        S = {v for v, b in zip(variables, bits) if b}
        in_a = all(g & S for g in gens_a)
        in_b = all(g & S for g in gens_b)
        if in_a != in_b:
            return False
    return True


def reference_fiber_avoidance(cox, family, forced_zero):
    """Scan zero-patterns containing ``forced_zero`` against the family.

    For each semistable pattern S the monomials supported away from S must
    number exactly one; a pattern violating that is returned as a witness.
    """
    index = {nm: i for i, nm in enumerate(cox.names)}
    unknown = set(forced_zero) - set(cox.names)
    if unknown:
        raise ValueError(f"unknown variables {sorted(unknown)}")
    forced = sorted(index[nm] for nm in forced_zero)
    free = [i for i in range(cox.num_vars) if i not in forced]
    gens = [
        frozenset(i for i in range(cox.num_vars) if i not in cone)
        for cone in cox.max_cones
    ]
    supports = [
        frozenset(i for i, k in enumerate(e) if k > 0) for e in family.terms
    ]
    for bits in product((0, 1), repeat=len(free)):
        S = frozenset(forced) | {f for f, b in zip(free, bits) if b}
        if all(g & S for g in gens):
            continue  # unstable pattern: not a point of the quotient
        surviving = sum(1 for sup in supports if not (sup & S))
        if surviving != 1:
            return FiberCheck(False, tuple(sorted(cox.names[i] for i in S)))
    return FiberCheck(True)
FIXTURE_W = ((0, 0, 1, 1, 1, 1), (0, 1, 3, 1, 0, 6), (1, 0, 1, 3, 6, 0))


def hex_scaffolding():
    return Scaffolding(
        ShapeVariety((1,)),
        1,
        (
            Strut("x1", (1, 1), (2,)),
            Strut("x2", (1, 1), (-2,)),
            Strut("y1", (-1, 2), (1,)),
            Strut("y2", (2, -1), (-1,)),
        ),
    )


def hex_cox(fixture_basis=True):
    s = hex_scaffolding()
    fan = normal_fan(build_qs(s))
    cox = cox_presentation(fan.rays, fan.max_cones, variable_names(s))
    if fixture_basis:
        cox = change_class_basis(cox, FIXTURE_W)
    return s, cox


def square_cox():
    s = Scaffolding(
        ShapeVariety((1,)),
        1,
        (Strut("x1", (1, 1), (1,)), Strut("x2", (1, 1), (-1,))),
    )
    fan = normal_fan(build_qs(s))
    return s, cox_presentation(fan.rays, fan.max_cones, variable_names(s))


PAPER_NAMES = ("x1", "x2", "y1", "y2", "z1", "z2")
P2_RAYS = [(1, 0), (0, 1), (-1, -1)]


def p2_cox():
    return cox_presentation(
        ((1, 0), (0, 1), (-1, -1)), ((0, 1), (0, 2), (1, 2)), ("x", "y", "z")
    )


def test_cox_presentation_projective_spaces():
    p2 = p2_cox()
    assert p2.weights == ((1, 1, 1),)
    assert p2.anticanonical == (3,)
    assert p2.irrelevant_generators() == (("z",), ("y",), ("x",))

    p1 = cox_presentation(((1,), (-1,)), ((0,), (1,)))
    assert p1.weights == ((1, 1),)
    assert p1.names == ("v1", "v2")


def test_cox_presentation_hexagon():
    _, cox = hex_cox(fixture_basis=False)
    assert cox.weights == CANONICAL_W
    # weight rows annihilate the ray columns
    for w in cox.weights:
        for j in range(3):
            assert sum(w[i] * cox.rays[i][j] for i in range(6)) == 0
    assert set(cox.irrelevant_generators()) == {
        ("y2", "z1", "z2"),
        ("y1", "z1", "z2"),
        ("x2", "y2", "z2"),
        ("x2", "y1", "z1"),
        ("x2", "y1", "y2"),
        ("x1", "y2", "z2"),
        ("x1", "y1", "z1"),
        ("x1", "y1", "y2"),
    }


def test_cox_presentation_errors():
    with pytest.raises(TorsionClassGroup):
        cox_presentation(((2, 1), (-1, 1), (-1, -2)), ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(NonSimplicial):
        cox_presentation(((1, 0), (-1, 0)), ((0, 1),))
    with pytest.raises(ValueError):
        cox_presentation(((1,), (-1,)), ((0,), (1,)), names=("only",))


def test_change_class_basis():
    _, cox = hex_cox(fixture_basis=False)
    rebased = change_class_basis(cox, FIXTURE_W)
    assert rebased.weights == FIXTURE_W
    assert rebased.anticanonical == (4, 11, 11)
    with pytest.raises(ValueError):
        change_class_basis(cox, ((1, 0, 0, 0, 0, 0),) * 3)
    with pytest.raises(ValueError):
        change_class_basis(cox, ((1, 0, 0), (0, 1, 0)))


def test_unstable_locus_product_presentation():
    _, cox = hex_cox()
    factors = [
        ("y1", "y2"),
        ("y1", "z2"),
        ("y2", "z1"),
        ("x1", "x2", "z1"),
        ("x1", "x2", "z2"),
    ]
    prod_gens = [frozenset(t) for t in product(*factors)]
    assert len(prod_gens) == 72
    assert unstable_locus_equal(cox.irrelevant_generators(), prod_gens)


def test_unstable_locus_equal_basics():
    assert unstable_locus_equal([("x",), ("y",)], [("x", "y")]) is False
    assert unstable_locus_equal([("x", "y")], [("y", "x")]) is True
    # generator order and duplicates are irrelevant
    assert unstable_locus_equal([("x",), ("y",)], [("y",), ("x",), ("x",)])
    with pytest.raises(ValueError):
        unstable_locus_equal([("x",)], [("y",)])


def test_cox_polynomial_basics():
    p = CoxPolynomial(("x", "y"), {(2, 1): Fraction(1), (0, 0): Fraction(-3)})
    assert str(p) == "x^2*y - 3"
    with pytest.raises(ValueError):
        CoxPolynomial(("x",), {(-1,): Fraction(1)})
    with pytest.raises(ValueError):
        CoxPolynomial(("x", "y"), {(1,): Fraction(1)})
    # mixed degrees have no class
    with pytest.raises(ValueError):
        p.class_vector(((1, 1),))
    with pytest.raises(ValueError):
        CoxPolynomial(("x",), {}).class_vector(((1,),))
    homog = CoxPolynomial(("x", "y"), {(2, 0): Fraction(1), (0, 2): Fraction(5)})
    assert homog.class_vector(((1, 1),)) == (2,)


def test_cox_polynomial_dehomogenize_and_str():
    p = CoxPolynomial(
        ("x", "y"), {(2, 1): Fraction(1), (2, 0): Fraction(1), (0, 0): Fraction(1)}
    )
    q = p.dehomogenize((0,))
    assert q.names == ("x",)
    assert q.terms == {(2,): Fraction(2), (0,): Fraction(1)}
    assert str(q) == "2*x^2 + 1"

    s1 = ParamPoly.variable("s1", ("s1", "s2"))
    s2 = ParamPoly.variable("s2", ("s1", "s2"))
    r = CoxPolynomial(("x",), {(1,): s1 + s2, (0,): s1}, params=("s1", "s2"))
    assert str(r) == "(s1 + s2)*x + s1"
    lone = CoxPolynomial(("x",), {(1,): s1}, params=("s1", "s2"))
    assert str(lone) == "s1*x"
    assert str(CoxPolynomial(("x",), {})) == "0"


def test_cox_polynomial_specialize():
    s1 = ParamPoly.variable("s1", ("s1",))
    p = CoxPolynomial(("x",), {(2,): s1, (0,): Fraction(1)}, params=("s1",))
    q = p.specialize({"s1": Fraction(3)})
    assert q.terms == {(2,): Fraction(3), (0,): Fraction(1)}
    assert q.params == ()
    gone = p.specialize({"s1": Fraction(0)})
    assert gone.terms == {(0,): Fraction(1)}


def test_hypersurface_hexagon():
    s, cox = hex_cox()
    h, pairings, eq = hypersurface_from_scaffolding(s, cox)
    assert h == (1, 1, 0)
    assert pairings == (-2, -2, -1, -1, 1, 1)
    assert pairings == tuple(dot(h, r) for r in cox.rays)
    assert str(eq) == "z1*z2 - x1^2*x2^2*y1*y2"
    assert eq.class_vector(cox.weights) == (2, 6, 6)
    anti = cox.anticanonical
    assert tuple(a - b for a, b in zip(anti, (2, 6, 6))) == (2, 5, 5)


def test_hypersurface_square():
    s, cox = square_cox()
    assert cox.weights == ((1, 1, 2, 2),)
    h, pairings, eq = hypersurface_from_scaffolding(s, cox)
    assert h == (1, 1, 0)
    assert pairings == (-2, -2, 1, 1)
    assert str(eq) == "z1*z2 - x1^2*x2^2"
    assert eq.class_vector(cox.weights) == (4,)


def test_hypersurface_corank_error():
    bad = Scaffolding(ShapeVariety((1, 1)), 1, (Strut("a", (1, 1, 1, 1), (0,)),))
    _, cox = hex_cox()
    with pytest.raises(CorankError):
        hypersurface_from_scaffolding(bad, cox)


def theta_kernel_functional(s):
    """Reference h: the integer kernel of theta^T, with its first nonzero
    entry on the shape divisors made positive."""
    ker = kernel_basis(transpose(theta_matrix(s)))
    if len(ker) != 1:
        raise CorankError(f"embedding has corank {len(ker)}; a hypersurface needs corank 1")
    h = ker[0]
    lead = next((a for a in h[: s.shape.divisor_count] if a != 0), 0)
    return tuple(-a for a in h) if lead < 0 else h


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    n_u_rank=st.integers(0, 2),
    data=st.data(),
)
def test_hypersurface_functional_matches_the_theta_kernel(dims, n_u_rank, data):
    """h read off the shape equals the kernel of theta^T, or both raise
    CorankError; the pairings and the binomial follow from h."""
    s = Scaffolding(ShapeVariety(tuple(dims)), n_u_rank, ())
    n = s.shape.divisor_count + n_u_rank
    rays = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=6))
    cox = CoxPresentation(tuple(f"v{i + 1}" for i in range(len(rays))), tuple(rays), (), ())
    try:
        expected = theta_kernel_functional(s)
    except CorankError:
        with pytest.raises(CorankError):
            hypersurface_from_scaffolding(s, cox)
        return
    h, pairings, eq = hypersurface_from_scaffolding(s, cox)
    assert h == expected
    assert pairings == tuple(dot(expected, r) for r in rays)
    binomial = {tuple(max(p, 0) for p in pairings): 1, tuple(max(-p, 0) for p in pairings): -1}
    assert eq.terms == CoxPolynomial(cox.names, binomial).terms


def test_section_monomials_hexagon():
    _, cox = hex_cox()
    secs = section_monomials(cox, (2, 6, 6))
    assert secs == (
        (0, 0, 0, 0, 1, 1),
        (0, 4, 0, 2, 0, 0),
        (2, 2, 1, 1, 0, 0),
        (4, 0, 2, 0, 0, 0),
    )
    assert section_monomials(cox, (0, 0, 0)) == ((0, 0, 0, 0, 0, 0),)
    assert len(section_monomials(cox, cox.anticanonical)) == 8


def test_section_monomials_oracles():
    p1 = cox_presentation(((1,), (-1,)), ((0,), (1,)))
    assert section_monomials(p1, (3,)) == ((0, 3), (1, 2), (2, 1), (3, 0))

    _, sq = square_cox()
    secs = section_monomials(sq, (4,))
    count = sum(
        1
        for a in range(5)
        for b in range(5)
        for c in range(3)
        for d in range(3)
        if a + b + 2 * c + 2 * d == 4
    )
    assert count == 14 and len(secs) == 14

    bad = CoxPresentation(("a", "b"), ((1,), (-1,)), ((0,), (1,)), ((1, -1),))
    with pytest.raises(Unbounded):
        section_monomials(bad, (0,))


FANO_POLYGONS = {
    "P2": ((1, 0), (0, 1), (-1, -1)),
    "P1xP1": ((1, 0), (0, 1), (-1, 0), (0, -1)),
    "dP7": ((1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)),
    "dP6": ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
    "paper-P": ((2, 1), (1, 2), (-1, 2), (-2, -1), (-1, -2), (1, -2)),
    "octagon": ((2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2), (1, -2), (2, -1)),
}


@pytest.mark.parametrize("name", sorted(FANO_POLYGONS))
def test_anticanonical_sections_are_polar_points(name):
    """On the face fan of a Fano polygon P, the sections of -K are the
    lattice points of the polar polygon {m : <m, v> >= -1 for v in P}."""
    verts = FANO_POLYGONS[name]
    n = len(verts)
    edges = list(zip(verts, verts[1:] + verts[:1]))
    assert all(a * d - b * c > 0 for (a, b), (c, d) in edges)
    # Polar vertex of edge (a, b)-(c, d): <m, (a, b)> = <m, (c, d)> = -1.
    corners = [
        (Fraction(b - d, a * d - b * c), Fraction(c - a, a * d - b * c))
        for (a, b), (c, d) in edges
    ]
    axes = [
        range(floor(min(p[i] for p in corners)), ceil(max(p[i] for p in corners)) + 1)
        for i in range(2)
    ]
    count = sum(1 for m in product(*axes) if all(dot(m, v) >= -1 for v in verts))
    cox = cox_presentation(verts, [(i, (i + 1) % n) for i in range(n)])
    assert cox.class_rank == n - 2
    assert len(section_monomials(cox, cox.anticanonical)) == count


def assert_family_spans_sections(cox, eq, fam):
    """The family has exactly one term per section of the equation's class,
    which is what the scaffold report lists as its sections."""
    x_class = eq.class_vector(cox.weights)
    assert tuple(sorted(fam.terms)) == section_monomials(cox, x_class)


def test_deformation_family_hexagon():
    s, cox = hex_cox()
    _, _, eq = hypersurface_from_scaffolding(s, cox)
    fam = deformation_family(cox, eq)
    assert fam.params == ("s1", "s2")
    assert str(fam) == "z1*z2 - x1^2*x2^2*y1*y2 + s1*x1^4*y1^2 + s2*x2^4*y2^2"
    assert fam.terms[(4, 0, 2, 0, 0, 0)] == ParamPoly.variable("s1", ("s1", "s2"))
    assert fam.terms[(0, 4, 0, 2, 0, 0)] == ParamPoly.variable("s2", ("s1", "s2"))
    assert fam.class_vector(cox.weights) == (2, 6, 6)
    assert_family_spans_sections(cox, eq, fam)

    _, canonical = hex_cox(fixture_basis=False)
    _, _, eq = hypersurface_from_scaffolding(s, canonical)
    assert_family_spans_sections(canonical, eq, deformation_family(canonical, eq))


def test_deformation_family_square():
    s, cox = square_cox()
    _, _, eq = hypersurface_from_scaffolding(s, cox)
    fam = deformation_family(cox, eq)
    assert len(fam.params) == 12
    assert len(fam.terms) == 14
    assert_family_spans_sections(cox, eq, fam)


def is_cyclic(quotient):
    """A quotient with at most one nontrivial cyclic factor."""
    return len(quotient.factors) <= 1


def test_abelian_quotient_equivalence():
    q = AbelianQuotient(((5, (3, 1, 2)),))
    assert q.index == 5 and is_cyclic(q)
    assert str(q) == "1/5(3,1,2)"
    assert q.equivalent(AbelianQuotient(((5, (2, 1, 4)),)))
    assert q.equivalent(AbelianQuotient(((5, (1, 2, 4)),)))
    assert not q.equivalent(AbelianQuotient(((5, (1, 1, 2)),)))
    assert not q.equivalent(AbelianQuotient(((3, (1, 1, 2)),)))
    assert AbelianQuotient(()).equivalent(AbelianQuotient(()))
    assert str(AbelianQuotient(())) == "smooth"
    twelve = AbelianQuotient(((12, (1, 3, 4)),))
    assert twelve.equivalent(AbelianQuotient(((12, (3, 1, 4)),)))
    assert twelve.equivalent(AbelianQuotient(((12, (4, 1, 3)),)))


def test_chart_analysis_hexagon():
    s, cox = hex_cox()
    _, _, eq = hypersurface_from_scaffolding(s, cox)
    fam = deformation_family(cox, eq)
    charts = chart_analysis(cox, fam)
    assert [c.cone for c in charts] == [
        (0, 1, 2),
        (0, 1, 3),
        (0, 2, 4),
        (0, 3, 5),
        (0, 4, 5),
        (1, 2, 4),
        (1, 3, 5),
        (1, 4, 5),
    ]
    expected_quotients = [
        AbelianQuotient(((12, (3, 1, 4)),)),
        AbelianQuotient(((12, (4, 1, 3)),)),
        AbelianQuotient(((3, (1, 1, 0)),)),
        AbelianQuotient(((5, (2, 1, 4)),)),
        AbelianQuotient(((2, (1, 1, 1)),)),
        AbelianQuotient(((5, (1, 2, 4)),)),
        AbelianQuotient(((3, (1, 1, 0)),)),
        AbelianQuotient(((2, (1, 1, 1)),)),
    ]
    for c, exp in zip(charts, expected_quotients):
        assert c.quotient.equivalent(exp), (c.cone, str(c.quotient))
    assert [c.quotient.index for c in charts] == [12, 12, 3, 5, 2, 5, 3, 2]
    # the two index-3 charts fix the shape coordinate
    for c in charts:
        if c.quotient.index == 3:
            (d, w) = c.quotient.factors[0]
            assert d == 3 and w[2] == 0 and c.names[2] in ("z1", "z2")

    consts = []
    for c in charts:
        v = c.constant_term
        consts.append(str(v) if isinstance(v, ParamPoly) else v)
    assert consts == [Fraction(1), Fraction(1), "s2", Fraction(0), "s2",
                      Fraction(0), "s1", "s1"]
    assert [c.quasi_smooth for c in charts] == [
        False, False, True, True, False, True, True, False,
    ]
    assert str(charts[4].equation) == "z1*z2 - x1^2 + s1*x1^4 + s2"
    assert str(charts[7].equation) == "z1*z2 - x2^2 + s1 + s2*x2^4"
    assert str(charts[2].equation) == "z1 - x1^2*y1 + s1*x1^4*y1^2 + s2"
    assert str(charts[3].equation) == "z2 - x1^2*y2 + s1*x1^4 + s2*y2^2"


def test_chart_analysis_square_and_noncyclic():
    s, cox = square_cox()
    _, _, eq = hypersurface_from_scaffolding(s, cox)
    fam = deformation_family(cox, eq)
    charts = chart_analysis(cox, fam)
    assert [str(c.quotient) for c in charts] == [
        "1/2(1,1,0)", "1/2(1,1,0)", "smooth", "smooth",
    ]

    nc = CoxPresentation(
        ("a", "b", "c"),
        ((-1, 1, 1), (1, -1, 1), (1, 1, -1)),
        ((0, 1, 2),),
        ((1, 1, 1),),
    )
    rep = chart_analysis(nc, CoxPolynomial(("a", "b", "c"), {}))[0]
    assert not is_cyclic(rep.quotient)
    assert rep.quotient.index == 4
    assert [d for d, _ in rep.quotient.factors] == [2, 2]


def test_quasi_smooth_flag_cases():
    s, cox = hex_cox()
    _, _, eq = hypersurface_from_scaffolding(s, cox)
    fam = deformation_family(cox, eq)
    charts = {c.cone: c for c in chart_analysis(cox, fam)}
    # linear coordinate with unit coefficient, parameter constant: quasi-smooth
    assert charts[(0, 2, 4)].quasi_smooth
    # numeric constant term 1: not quasi-smooth
    assert not charts[(0, 1, 2)].quasi_smooth
    # no linear monomial at all: not quasi-smooth
    assert not charts[(0, 4, 5)].quasi_smooth

    s1 = ParamPoly.variable("s1", ("s1",))
    param_linear = CoxPolynomial(
        ("u", "v"), {(1, 0): s1, (0, 2): Fraction(-1)}, params=("s1",)
    )
    reports = chart_analysis(
        CoxPresentation(("u", "v"), ((1, 0), (0, 1)), ((0, 1),), ()),
        param_linear,
    )
    assert not reports[0].quasi_smooth


def test_fiber_avoidance():
    s, cox = hex_cox()
    _, _, eq = hypersurface_from_scaffolding(s, cox)
    fam = deformation_family(cox, eq)
    assert fiber_avoidance(cox, fam, ("x1", "x2")).verified
    assert fiber_avoidance(cox, fam, ("y1", "y2")).verified
    empty = fiber_avoidance(cox, fam, ())
    assert not empty.verified and empty.witness == ()
    single = fiber_avoidance(cox, fam, ("x1",))
    assert not single.verified and single.witness == ("x1",)
    with pytest.raises(ValueError):
        fiber_avoidance(cox, fam, ("nope",))


def outcome(check, *args):
    """A check's result, or the message of the ValueError it raises."""
    try:
        return check(*args)
    except ValueError as e:
        return str(e)


@st.composite
def generator_lists(draw):
    """Two squarefree generator lists over 1-7 variables; the second is often
    the first plus redundant multiples, shuffled and with duplicates."""
    names = "abcdefg"[: draw(st.integers(1, 7))]
    subsets = st.frozensets(st.sampled_from(names), max_size=len(names))
    gens_a = draw(st.lists(subsets, max_size=6))
    if draw(st.booleans()):
        return gens_a, draw(st.lists(subsets, max_size=6))
    multiples = draw(st.lists(st.sampled_from(gens_a), max_size=4)) if gens_a else []
    redundant = [g | draw(subsets) for g in multiples]
    gens_b = draw(st.permutations(gens_a + redundant + gens_a[:1]))
    if gens_b and draw(st.booleans()):
        gens_b = gens_b[1:]
    return gens_a, gens_b


@settings(max_examples=400, deadline=None)
@given(pair=generator_lists())
def test_unstable_locus_equal_matches_the_scan(pair):
    gens_a, gens_b = pair
    assert outcome(unstable_locus_equal, gens_a, gens_b) == outcome(
        reference_unstable_locus_equal, gens_a, gens_b
    )


def test_minimal_generators():
    assert minimal_generators([("x", "y"), ("x",), ("y", "z"), ("z", "y")]) == {
        frozenset("x"),
        frozenset("yz"),
    }
    assert minimal_generators([(), ("x",)]) == {frozenset()}
    assert minimal_generators([]) == set()


@settings(max_examples=80, deadline=None)
@given(
    factors=st.lists(st.lists(st.sampled_from(PAPER_NAMES), max_size=6), max_size=6),
    unknown=st.booleans(),
)
def test_irrelevant_product_matches_the_expanded_scan(factors, unknown):
    """run_scaffold minimizes the product factor by factor; its verdict or
    error equals the scan's on the fully expanded product."""
    if unknown and factors:
        factors[-1] = factors[-1] + ["w"]
    data = json.loads(
        resources.files("fanokit").joinpath("fixtures", "paper-scaffolding.json").read_text()
    )
    del data["fiber_check"]
    data["irrelevant_product"] = factors
    _, cox = hex_cox()
    if not factors or not all(factors):
        expected = "irrelevant_product needs nonempty factor lists"
    else:
        expected = outcome(
            reference_unstable_locus_equal,
            cox.irrelevant_generators(),
            [frozenset(t) for t in product(*factors)],
        )
    try:
        got = run_scaffold(data)["irrelevant_product_check"]
    except SchemaError as e:
        got = str(e)
    assert got == expected


def forced_sets(names, size=3):
    return [c for k in range(size + 1) for c in combinations(names, k)]


def test_fiber_avoidance_matches_the_scan_on_the_paper_fan():
    """All 64 forced sets of the paper's six variables, on the family and on
    a family with a term per section of -K."""
    s, cox = hex_cox()
    _, _, eq = hypersurface_from_scaffolding(s, cox)
    fam = deformation_family(cox, eq)
    anti = CoxPolynomial(
        cox.names, {e: Fraction(1) for e in section_monomials(cox, cox.anticanonical)}
    )
    for family in (fam, anti):
        for forced in forced_sets(cox.names, 6):
            assert fiber_avoidance(cox, family, forced) == reference_fiber_avoidance(
                cox, family, forced
            ), forced


@st.composite
def fano_polygons(draw):
    """The hull of P2's rays and up to nine random primitive vectors."""
    pts = draw(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda v: v != (0, 0)),
            min_size=2,
            max_size=9,
        )
    )
    return validate_fano(convex_hull([primitive(v) for v in pts] + P2_RAYS))


@settings(max_examples=80, deadline=None)
@given(P=fano_polygons(), data=st.data())
def test_fiber_avoidance_matches_the_scan_on_face_fans(P, data):
    """Face fans of random Fano polygons with random supports: verdict and
    witness equal the scan for every forced set of at most three variables."""
    n = len(P.vertices)
    try:
        cox = cox_presentation(P.vertices, [(i, (i + 1) % n) for i in range(n)])
    except TorsionClassGroup:
        assume(False)
    supports = data.draw(
        st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=6)
    )
    family = CoxPolynomial(cox.names, {e: Fraction(1) for e in supports})
    for forced in forced_sets(cox.names):
        assert fiber_avoidance(cox, family, forced) == reference_fiber_avoidance(
            cox, family, forced
        ), forced
