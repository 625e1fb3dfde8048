"""End-to-end acceptance checks.

Each test prints one [acceptance] PASS/FAIL line (visible under pytest -s)
and asserts exact rational equality throughout; no tolerances anywhere.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from importlib import resources
from itertools import product
from math import factorial

from fanokit.errors import NonPrimitiveVertex, NotConvex, OriginNotInterior
from fanokit.cox import (
    AbelianQuotient,
    CoxPolynomial,
    chart_analysis,
    change_class_basis,
    cox_presentation,
    deformation_family,
    fiber_avoidance,
    hypersurface_from_scaffolding,
    section_monomials,
    unstable_locus_equal,
)
from fanokit.laurent import LaurentPolynomial, classical_period
from fanokit.linalg import det, dot, hnf, primitive, snf
from fanokit.pipeline import run_compare, run_polygon
from fanokit.polygon import (
    lattice_symmetries,
    polar,
    validate_fano,
    volume_and_barycenter,
)
from fanokit.polyhedra import dual_cone, halfspaces, integer_points
from fanokit.quantum import lambda_cone, mori_and_nef, quantum_period
from fanokit.scaffolding import (
    Scaffolding,
    ShapeVariety,
    Strut,
    build_qs,
    normal_fan,
    variable_names,
)
from fanokit.series import PowerSeries, first_mismatch, series_substitute, sqrt_series
from fanokit.symbolic import ParamPoly

from test_linalg import mat_mul, rank

HEX = [(2, 1), (1, 2), (-1, 2), (-2, -1), (-1, -2), (1, -2)]

FIXTURE_W = ((0, 0, 1, 1, 1, 1), (0, 1, 3, 1, 0, 6), (1, 0, 1, 3, 6, 0))

REGULARIZED = [
    1, 0, 16, 0, 936, 520, 76840, 131880,
    7360920, 22806000, 770459256, 3451657440, 85553394696,
]

F_PARAMS = ("a1", "a2", "b1", "b2", "c1", "c2")
A1, A2, B1, B2, C1, C2 = (ParamPoly.variable(p, F_PARAMS) for p in F_PARAMS)

S_PARAMS = ("s1", "s2")
S1 = ParamPoly.variable("s1", S_PARAMS)
S2 = ParamPoly.variable("s2", S_PARAMS)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] C{num} {name}: FAIL")
        raise
    print(f"[acceptance] C{num} {name}: PASS")


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
        HEX,
    )


def hex_pipeline():
    s = hex_scaffolding()
    fan = normal_fan(build_qs(s))
    cox = cox_presentation(fan.rays, fan.max_cones, variable_names(s))
    cox = change_class_basis(cox, FIXTURE_W)
    h, pairings, equation = hypersurface_from_scaffolding(s, cox)
    return s, fan, cox, h, pairings, equation


def hex_laurent():
    terms = {
        (2, 1): Fraction(1),
        (1, 2): Fraction(1),
        (-1, 2): Fraction(1),
        (-2, -1): Fraction(1),
        (-1, -2): Fraction(1),
        (1, -2): Fraction(1),
        (0, 2): Fraction(2),
        (0, -2): Fraction(2),
        (1, 1): A1,
        (-1, -1): A2,
        (1, 0): B1,
        (-1, 0): B2,
        (1, -1): C1,
        (-1, 1): C2,
    }
    return LaurentPolynomial(2, F_PARAMS, terms)


def test_c1_polygon_report():
    with criterion(1, "polygon report"):
        start = time.perf_counter()
        report = run_polygon({"vertices": HEX})
        elapsed = time.perf_counter() - start
        assert report["polar"]["normalized_volume"] == "22/15"
        assert report["singularity_multiset"] == {
            "1/3(1,1)": 2,
            "1/4(1,1)": 2,
            "1/5(1,2)": 2,
        }
        assert report["polar"]["barycenter"] == [0, 0]
        assert report["k_polystable"] is True
        assert report["symmetry_order"] == 2
        P = validate_fano(HEX)
        assert volume_and_barycenter(polar(P))[0] == Fraction(22, 15)
        assert set(lattice_symmetries(P)) == {
            ((1, 0), (0, 1)),
            ((-1, 0), (0, -1)),
        }
        assert report["qg_dimension"] == 2
        assert elapsed < 1.0


def test_c2_scaffolding_run():
    with criterion(2, "scaffolding run"):
        start = time.perf_counter()
        s, fan, cox, h, pairings, equation = hex_pipeline()
        elapsed = time.perf_counter() - start
        assert set(fan.rays) == {
            (-1, -1, 2),
            (-1, -1, -2),
            (1, -2, 1),
            (-2, 1, -1),
            (1, 0, 0),
            (0, 1, 0),
        }
        sigma = {
            frozenset(cox.names[i] for i in cone) for cone in cox.max_cones
        }
        assert len(cox.max_cones) == 8
        assert sigma == {
            frozenset(c)
            for c in (
                ("x1", "x2", "y1"),
                ("x1", "x2", "y2"),
                ("x1", "y1", "z1"),
                ("x1", "y2", "z2"),
                ("x1", "z1", "z2"),
                ("x2", "y1", "z1"),
                ("x2", "y2", "z2"),
                ("x2", "z1", "z2"),
            )
        }
        assert hnf(cox.weights)[0] == hnf(FIXTURE_W)[0]
        factors = [
            ("x1", "x2", "z1"),
            ("x1", "x2", "z2"),
            ("y1", "y2"),
            ("y1", "z2"),
            ("y2", "z1"),
        ]
        expansion = [frozenset(t) for t in product(*factors)]
        assert unstable_locus_equal(cox.irrelevant_generators(), expansion)
        assert pairings == (-2, -2, -1, -1, 1, 1)
        assert equation == CoxPolynomial(
            cox.names,
            {(0, 0, 0, 0, 1, 1): Fraction(1), (2, 2, 1, 1, 0, 0): Fraction(-1)},
        )
        assert elapsed < 1.0


def test_c3_sections_and_classes():
    with criterion(3, "sections and classes"):
        _, _, cox, _, _, equation = hex_pipeline()
        x_class = equation.class_vector(cox.weights)
        assert x_class == (2, 6, 6)
        assert cox.anticanonical == (4, 11, 11)
        assert tuple(
            a - b for a, b in zip(cox.anticanonical, x_class)
        ) == (2, 5, 5)
        secs = set(section_monomials(cox, x_class))
        assert secs == {
            (0, 0, 0, 0, 1, 1),  # z1 z2
            (2, 2, 1, 1, 0, 0),  # x1^2 x2^2 y1 y2
            (4, 0, 2, 0, 0, 0),  # x1^4 y1^2
            (0, 4, 0, 2, 0, 0),  # x2^4 y2^2
        }


def test_c4_charts():
    with criterion(4, "chart reports"):
        s, _, cox, _, _, equation = hex_pipeline()
        family = deformation_family(cox, equation)
        charts = {c.cone: c for c in chart_analysis(cox, family)}
        assert len(charts) == 8

        expected_quotient = {
            (0, 1, 2): AbelianQuotient(((12, (3, 1, 4)),)),
            (0, 1, 3): AbelianQuotient(((12, (4, 1, 3)),)),
            (0, 2, 4): AbelianQuotient(((3, (1, 1, 0)),)),
            (0, 3, 5): AbelianQuotient(((5, (2, 1, 4)),)),
            (0, 4, 5): AbelianQuotient(((2, (1, 1, 1)),)),
            (1, 2, 4): AbelianQuotient(((5, (1, 2, 4)),)),
            (1, 3, 5): AbelianQuotient(((3, (1, 1, 0)),)),
            (1, 4, 5): AbelianQuotient(((2, (1, 1, 1)),)),
        }
        for cone, q in expected_quotient.items():
            assert charts[cone].quotient.equivalent(q), cone

        one = Fraction(1)
        expected_equation = {
            (0, 1, 2): {(0, 0, 0): one, (2, 2, 1): -one, (4, 0, 2): S1, (0, 4, 0): S2},
            (0, 1, 3): {(0, 0, 0): one, (2, 2, 1): -one, (4, 0, 0): S1, (0, 4, 2): S2},
            (0, 2, 4): {(0, 0, 1): one, (2, 1, 0): -one, (4, 2, 0): S1, (0, 0, 0): S2},
            (0, 3, 5): {(0, 0, 1): one, (2, 1, 0): -one, (4, 0, 0): S1, (0, 2, 0): S2},
            (0, 4, 5): {(0, 1, 1): one, (2, 0, 0): -one, (4, 0, 0): S1, (0, 0, 0): S2},
            (1, 2, 4): {(0, 0, 1): one, (2, 1, 0): -one, (0, 2, 0): S1, (4, 0, 0): S2},
            (1, 3, 5): {(0, 0, 1): one, (2, 1, 0): -one, (0, 0, 0): S1, (4, 2, 0): S2},
            (1, 4, 5): {(0, 1, 1): one, (2, 0, 0): -one, (0, 0, 0): S1, (4, 0, 0): S2},
        }
        for cone, terms in expected_equation.items():
            chart = charts[cone]
            assert chart.equation == CoxPolynomial(
                chart.names, terms, S_PARAMS
            ), cone

        quasi = {cone for cone, c in charts.items() if c.quasi_smooth}
        assert quasi == {(0, 2, 4), (0, 3, 5), (1, 2, 4), (1, 3, 5)}

        fc = fiber_avoidance(cox, family, ("x1", "x2"))
        assert fc.verified and fc.witness is None


def test_c5_classical_period():
    with criterion(5, "classical period"):
        pi = classical_period(hex_laurent(), 3)
        assert pi.coeffs[0] == 1
        assert pi.coeffs[1] == 0
        assert pi.coeffs[2] == 2 * A1 * A2 + 2 * B1 * B2 + 2 * C1 * C2 + 14
        assert pi.coeffs[3] == (
            6 * A1 * B1
            + 12 * A1 * C2
            + 6 * A2 * B2
            + 12 * A2 * C1
            + 24 * B1
            + 24 * B2
            + 6 * C1
            + 6 * C2
        )

        f = LaurentPolynomial(
            2,
            (),
            {(1, 0): Fraction(1), (0, 1): Fraction(1), (-1, -1): Fraction(1)},
        )
        pi9 = classical_period(f, 9)
        for k in range(10):
            expected = (
                Fraction(factorial(k), factorial(k // 3) ** 3)
                if k % 3 == 0
                else Fraction(0)
            )
            assert pi9.coeffs[k] == expected


def test_c6_quantum_period():
    with criterion(6, "quantum period"):
        start = time.perf_counter()
        _, _, cox, _, _, equation = hex_pipeline()
        _, _, nef = mori_and_nef(cox)
        assert {primitive(r) for r in nef} == {
            (1, 3, 3),
            (4, 9, 9),
            (5, 9, 15),
            (5, 15, 9),
        }
        lam = lambda_cone(cox, nef, (2, 5, 5))
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
        assert set(lam.rays) == set(dual_cone(explicit).rays)
        _, reg = quantum_period(cox, (2, 6, 6), 12)
        elapsed = time.perf_counter() - start
        assert list(reg.coeffs) == REGULARIZED
        assert reg.coeffs[1] == 0 and reg.coeffs[3] == 0
        assert elapsed < 60.0


def test_c7_mirror_equality():
    with criterion(7, "mirror equality"):
        _, _, cox, _, _, equation = hex_pipeline()
        _, reg = quantum_period(cox, (2, 6, 6), 12)
        f = hex_laurent().specialize(
            {"a1": 1, "a2": 1, "b1": 0, "b2": 0, "c1": 0, "c2": 0}
        )
        pi = classical_period(f, 12)
        assert first_mismatch(reg, pi, 12) is None

        data = json.loads(
            resources.files("fanokit")
            .joinpath("fixtures", "paper.json")
            .read_text()
        )
        report = run_compare(data, 12)
        assert report["equal"] is True
        assert report["first_mismatch"] is None


def test_c8_series_utilities():
    with criterion(8, "series utilities"):
        root = sqrt_series(6)
        for n in range(7):
            closed = Fraction(
                factorial(2 * n), 4**n * factorial(n) ** 2 * (1 - 2 * n)
            )
            assert root.coeffs[n] * (-1) ** n == closed

        # z -> z * sqrt(1 - s2 z^2) applied to -z^2 + s1
        inner = PowerSeries(10, [0, 0, -S2])
        twisted = series_substitute(sqrt_series(5), inner, 10).shift(1)
        target = PowerSeries.from_polynomial([S1, 0, Fraction(-1)], 10)
        result = series_substitute(target, twisted, 10)
        assert result == PowerSeries(10, [S1, 0, Fraction(-1), 0, S2])


def _random_fano(rng):
    while True:
        pts = set()
        for _ in range(rng.randint(3, 7)):
            v = (rng.randint(-4, 4), rng.randint(-4, 4))
            if v != (0, 0):
                pts.add(primitive(v))
        if len(pts) < 3:
            continue
        try:
            return validate_fano(sorted(pts))
        except (NotConvex, OriginNotInterior, NonPrimitiveVertex):
            continue


def test_c9_property_suites():
    with criterion(9, "property suites"):
        rng = random.Random(424242)

        # Smith/Hermite forms on 200 random integer matrices
        for _ in range(200):
            m = rng.randint(1, 4)
            n = rng.randint(1, 5)
            M = tuple(
                tuple(rng.randint(-30, 30) for _ in range(n)) for _ in range(m)
            )
            H, U = hnf(M)
            assert det(U) in (1, -1)
            assert mat_mul(U, M) == H
            S, P, Q = snf(M)
            assert det(P) in (1, -1) and det(Q) in (1, -1)
            assert mat_mul(mat_mul(P, M), Q) == S
            diag = [S[i][i] for i in range(min(m, n))]
            for a, b in zip(diag, diag[1:]):
                assert a >= 0 and b >= 0
                if a != 0:
                    assert b % a == 0

        # polar involution and period invariance under GL2(Z) monomial changes
        for _ in range(25):
            P = _random_fano(rng)
            back = polar(polar(P))
            assert set(back.vertices) == {
                (Fraction(x), Fraction(y)) for x, y in P.vertices
            }
        for _ in range(10):
            P = _random_fano(rng)
            f = LaurentPolynomial(
                2,
                (),
                {v: Fraction(rng.randint(1, 5)) for v in P.vertices},
            )
            base = classical_period(f, 6)
            for _ in range(3):
                g = ((1, rng.randint(-2, 2)), (0, 1))
                h = ((1, 0), (rng.randint(-2, 2), 1))
                u = mat_mul(g, h)
                if rng.random() < 0.5:
                    u = tuple(tuple(-x for x in row) for row in u)
                fu = f.monomial_substitution(u)
                assert classical_period(fu, 6).coeffs == base.coeffs

        # dual cone involution on 50 random pointed 3-cones
        done = 0
        while done < 50:
            k = rng.randint(3, 5)
            normals = [
                v
                for v in (
                    tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(k)
                )
                if any(v)
            ]
            if len(normals) < 3 or rank(normals) < 3:
                continue
            r1 = dual_cone(halfspaces(3, normals)).rays
            if len(r1) < 3 or rank(r1) < 3:
                continue
            r2 = dual_cone(halfspaces(3, list(r1))).rays
            if len(r2) < 3 or rank(r2) < 3:
                continue
            assert set(dual_cone(halfspaces(3, list(r2))).rays) == set(r1)
            done += 1

        # integer point enumeration vs brute-force box scan, 50 systems
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
                extra = tuple(rng.randint(-3, 3) for _ in range(d))
                if not any(extra):
                    continue
                normals.append(extra)
                bounds.append(rng.randint(-6, 0))
            hs = halfspaces(d, normals, bounds)
            box = product(*[range(lo[i], hi[i] + 1) for i in range(d)])
            expected = [
                p
                for p in box
                if all(dot(nrm, p) >= b for nrm, b in zip(normals, bounds))
            ]
            assert integer_points(hs) == sorted(expected)
