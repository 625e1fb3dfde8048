"""Laurent inversion as an end-to-end oracle.

A scaffolding on the shape P^d has a mirror in closed form (Coates, Kasprzyk
and Prince, Laurent inversion): the strut (D, chi) contributes
x^(-a) (1 + x_1 + ... + x_d)^s y^chi, where s is the degree of D and a its
first d entries, as in ShapeVariety.moment_vertices.  That sum shares no code
with the pipeline, so `periods compare` on random scaffoldings and their
mirrors checks the Cox stage, the quantum period and the classical period
against each other, in Q_S dimensions 3 and 4.  Few random scaffoldings have
a mirror whose support spans a Fano polytope, so a seeded loop draws many and
counts what it keeps, instead of hypothesis rejecting most examples.
"""

import random
from collections import Counter
from itertools import product
from math import factorial, gcd, prod

import pytest

import fanokit.laurent
from fanokit.errors import FanokitError
from fanokit.linalg import dot, vec_sub
from fanokit.pipeline import _cox_stage, run_compare, run_scaffold
from fanokit.polyhedra import dual_cone, halfspaces, vertices
from fanokit.quantum import walls


def mirror(d, struts):
    """{exponent: coefficient} of the sum of the struts' closed forms."""
    terms = {}
    for D, chi in struts:
        s = sum(D)
        for e in product(range(s + 1), repeat=d):
            if sum(e) <= s:
                c = factorial(s) // (factorial(s - sum(e)) * prod(map(factorial, e)))
                x = tuple(ei - ai for ei, ai in zip(e, D[:d])) + chi
                terms[x] = terms.get(x, 0) + c
    return terms


def corners(d, struts):
    """The vertices of the struts' simplices, which span the hull of the
    mirror's support, since no coefficient cancels."""
    return list({tuple(-a + s * (j == i) for j, a in enumerate(D[:d])) + chi
                 for D, chi in struts for s in [sum(D)] for i in range(d + 1)})


def compare_input(d, n_u_rank, struts):
    """`periods compare` input: the scaffolding on P^d and its mirror."""
    return {"scaffolding": {"shape": {"projective_dims": [d]}, "n_u_rank": n_u_rank, "struts": [
        {"name": f"s{i}", "divisor": list(D), "chi": list(chi)}
        for i, (D, chi) in enumerate(struts)]}, "laurent": {"params": [], "terms": [
            {"exp": list(e), "coeff": str(c)} for e, c in mirror(d, struts).items()]}}


def spans_a_fano_polytope(points):
    """Whether the hull of the points is full-dimensional, has the origin
    strictly inside and has primitive vertices.  The rays (u, c) of the dual
    of the cone over (p, 1) are its facets <u, x> >= -c."""
    if not all(min(c) < 0 < max(c) for c in zip(*points)):
        return False
    n = len(points[0])
    cone = dual_cone(halfspaces(n + 1, [p + (1,) for p in points]))
    if cone.lineality or any(r[-1] <= 0 for r in cone.rays):
        return False
    facets = halfspaces(n, [r[:-1] for r in cone.rays], [-r[-1] for r in cone.rays])
    return all(gcd(*map(int, v)) == 1 for v in vertices(facets))


def mirror_theorem_applies(scaffolding):
    """Whether the hypersurface class L and -K_Y - L are nef on Y, as the
    mirror theorem for a hypersurface of a toric variety asks: both pair
    nonnegatively with every wall curve, and wall curves span the Mori cone."""
    st = _cox_stage(scaffolding)
    degree = vec_sub(st.cox.anticanonical, st.x_class)
    return all(dot(st.x_class, w.curve_class) >= 0 and dot(degree, w.curve_class) >= 0
               for w in walls(st.cox))


def draw_struts(rng, d, n_u_rank, entries):
    """Two to five struts with entries in [-entries, entries] and nef divisors."""
    struts, k = [], rng.randint(2, 5)
    while len(struts) < k:
        D = tuple(rng.randint(-entries, entries) for _ in range(d + 1))
        chi = tuple(rng.randint(-entries, entries) for _ in range(n_u_rank))
        if sum(D) >= 0 and (any(D) or any(chi)):
            struts.append((D, chi))
    return struts


@pytest.mark.parametrize("d, n_u_rank, entries, order, draws, floor", [
    (1, 1, 3, 10, 1500, 24),  # Q_S dimension 3
    (2, 0, 2, 10, 1200, 6),  # Q_S dimension 3
    (1, 2, 2, 8, 900, 15),  # Q_S dimension 4
])
def test_laurent_inversion_mirrors_read_equal(monkeypatch, d, n_u_rank, entries, order,
                                              draws, floor):
    """Every scaffolding whose mirror has a Fano hull reads EQUAL, or is
    refused in one line, or lies outside the mirror theorem; scaffold gives a
    report or a FanokitError.  Some mirror takes the row kernel's cut path."""
    cuts, row_step = [], fanokit.laurent._row_step

    def cut_step(power, groups, w, cut):
        cuts.append(bool(cut))
        return row_step(power, groups, w, cut)

    monkeypatch.setattr(fanokit.laurent, "_row_step", cut_step)
    rng, counts = random.Random(1), Counter()
    for _ in range(draws):
        struts = draw_struts(rng, d, n_u_rank, entries)
        if not spans_a_fano_polytope(corners(d, struts)):
            continue
        data = compare_input(d, n_u_rank, struts)
        try:
            run_scaffold(data["scaffolding"])
        except FanokitError:
            pass
        try:
            result = run_compare(data, order)
        except FanokitError as e:
            counts[type(e).__name__] += 1
            continue
        if result["equal"]:
            counts["EQUAL"] += 1
        else:
            assert not mirror_theorem_applies(data["scaffolding"]), data
            counts["outside the theorem"] += 1
    assert counts["EQUAL"] >= floor, counts
    assert set(counts) <= {"EQUAL", "outside the theorem", "NonSimplicial",
                           "TorsionClassGroup", "Unbounded"}, counts
    assert any(cuts), "no mirror reached the cut path of the row kernel"


def test_a_fano_hull_outside_the_mirror_theorem_may_read_mismatch():
    """A mirror with a Fano hull whose -K_Y - L is negative on a wall curve:
    the theorem does not apply, and compare honestly reads MISMATCH at t^2."""
    struts = [((-1, 3), (-2,)), ((2, 1), (-3,)), ((2, 2), (-2,)), ((3, 3), (2,))]
    data = compare_input(1, 1, struts)
    assert spans_a_fano_polytope(corners(1, struts))
    assert not mirror_theorem_applies(data["scaffolding"])
    result = run_compare(data, 4)
    assert result["first_mismatch"] == 2
    assert result["classical"]["coeffs"][2] == "560"
    assert result["quantum_regularized"]["coeffs"][2] == "56"
