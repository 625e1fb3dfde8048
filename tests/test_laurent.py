import random
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fanokit.laurent
from fanokit.errors import SchemaError
from fanokit.laurent import (
    LaurentPolynomial,
    classical_period,
    edge_binomial_skeleton,
    laurent_from_json,
    laurent_to_json,
)
from fanokit.linalg import mat_mul
from fanokit.polygon import validate_fano
from fanokit.series import PowerSeries
from fanokit.symbolic import ParamPoly

HEX = [(2, 1), (1, 2), (-1, 2), (-2, -1), (-1, -2), (1, -2)]

F_PARAMS = ("a1", "a2", "b1", "b2", "c1", "c2")
A1, A2, B1, B2, C1, C2 = (ParamPoly.variable(p, F_PARAMS) for p in F_PARAMS)


def hex_laurent():
    """The six-parameter Laurent polynomial supported on the hexagon."""
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


def p2_laurent():
    # x + y + 1/(xy)
    return LaurentPolynomial(
        2, (), {(1, 0): Fraction(1), (0, 1): Fraction(1), (-1, -1): Fraction(1)}
    )


def constant_term_of_power(f, k):
    """Constant term of f^k via the multinomial theorem (independent oracle)."""
    monos = list(f.terms.items())
    total = Fraction(0)
    for combo in combinations_with_replacement(range(len(monos)), k):
        ex = sum(monos[i][0][0] for i in combo), sum(monos[i][0][1] for i in combo)
        if ex != (0, 0):
            continue
        mult = factorial(k)
        coeff = Fraction(1)
        run = 1
        for j, i in enumerate(combo):
            coeff *= monos[i][1]
            if j and combo[j] == combo[j - 1]:
                run += 1
            else:
                run = 1
            mult //= run
        total += mult * coeff
    return total


def reference_period(f, order):
    """Constant terms of f^k by the plain power loop, without pruning."""
    coeffs = [Fraction(1)]
    power = LaurentPolynomial(f.dim, f.params, {(0,) * f.dim: Fraction(1)})
    for _ in range(order):
        power = power * f
        coeffs.append(power.constant_term())
    return PowerSeries(order, coeffs)


def laurent(dim, terms):
    return LaurentPolynomial(dim, (), {e: Fraction(c) for e, c in terms.items()})


@pytest.mark.parametrize(
    "f, order",
    [
        # x + 2/x + 3
        (laurent(1, {(1,): 1, (-1,): 2, (0,): 3}), 10),
        # x + y + z + 1/(xyz) + xy/(2z) - 3
        (laurent(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (-1, -1, -1): 1,
                     (1, 1, -1): "1/2", (0, 0, 0): -3}), 8),
        # a segment support: xy + 1/(xy)
        (laurent(2, {(1, 1): 1, (-1, -1): 1}), 10),
        # the origin outside the Newton polygon: x + y
        (laurent(2, {(1, 0): 1, (0, 1): 1}), 6),
        # mixed denominators
        (laurent(2, {(1, 0): "1/2", (0, 1): "2/3", (-1, -1): "-3/4", (-1, 0): 5}), 10),
        (hex_laurent(), 4),
        # ParamPoly and Fraction coefficients side by side
        (hex_laurent().specialize({"a1": Fraction(1, 2), "b2": Fraction(-2, 3), "c1": 0}), 4),
        (p2_laurent(), 0),
        # orders 0..3, 9 and 10 pair f^a with f^(k-a) for odd and even k:
        # x + y + 1/(xy) + 2x/y - 1/2
        *((laurent(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1, (1, -1): 2, (0, 0): "-1/2"}), k)
          for k in (0, 1, 2, 3, 9, 10)),
        # 0-dimensional: the constant 3/2
        (laurent(0, {(): "3/2"}), 5),
        (laurent(1, {(1,): 1, (-1,): 2, (0,): 3}), 9),
        (laurent(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (-1, -1, -1): 1,
                     (1, 1, -1): "1/2", (0, 0, 0): -3}), 7),
        # the packing radius is set by one far exponent: x^7 + 1/x + y + 2/y + 1/(xy)
        (laurent(2, {(7, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 2, (-1, -1): 1}), 9),
        # every exponent has x-degree >= 1: all coefficients for k >= 1 are 0
        (laurent(2, {(1, -3): 1, (2, 5): -1, (1, 0): "1/2"}), 9),
    ],
    ids=["dim1", "dim3", "segment", "origin-outside", "denominators", "symbolic",
         "partly-specialized", "order0", "order0-2d", "order1", "order2", "order3",
         "order9", "order10", "dim0", "dim1-odd", "dim3-odd", "far-exponent", "one-side"],
)
def test_classical_period_matches_the_plain_power_loop(f, order):
    assert classical_period(f, order) == reference_period(f, order)


@pytest.mark.parametrize(
    "f, order, steps, products",
    [
        (hex_laurent().specialize({"a1": 1, "a2": 1, "b1": 0, "b2": 0, "c1": 0, "c2": 0}),
         12, 6, 6000),
        (hex_laurent(), 8, 4, 8162),
    ],
    ids=["specialized-order12", "symbolic-order8"],
)
def test_classical_period_multiplies_only_the_terms_that_reach_the_constant_term(
    monkeypatch, f, order, steps, products
):
    """Term products of the paper polynomial's kernel, all on ints.

    Specialized at order 12, the plain loop over f^1 .. f^12 makes 58,680;
    pruning to -e in (12 - k)*Newt(f) leaves 17,380, and building only
    f^1 .. f^6, whose pairs give every constant term, leaves 6,000.  With
    its six parameters as exponent coordinates, the symbolic order-8 period
    makes 8,162 int products, and the only ParamPolys built are the emitted
    coefficients (multiplying ParamPoly coefficients term by term built
    7,024).
    """
    seen = []
    built = []
    plain_step = fanokit.laurent._power_step
    plain_init = ParamPoly.__init__

    def counting_step(power, margins, g, mask):
        assert all(type(c) is int for c in power.values())
        assert all(type(c) is int for _, c, _ in g)
        seen.append(len(power) * len(g))
        return plain_step(power, margins, g, mask)

    def counting_init(self, *args):
        built.append(args)
        plain_init(self, *args)

    monkeypatch.setattr("fanokit.laurent._power_step", counting_step)
    monkeypatch.setattr(ParamPoly, "__init__", counting_init)
    classical_period(f, order)
    assert len(seen) == steps
    assert sum(seen) == products
    assert len(built) <= 9


def test_classical_period_rejects_a_parameter_missing_from_params():
    f = LaurentPolynomial(
        2, ("a",), {(1, 0): ParamPoly.variable("b", ("a", "b")), (-1, 0): Fraction(1)}
    )
    with pytest.raises(ValueError, match="'b'"):
        classical_period(f, 2)


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def parametric_laurent(draw):
    """A 2-D f whose coefficients mix Fractions, ParamPolys of degree <= 2 in
    1-3 parameters, and constant ParamPolys."""
    params = ("s", "t", "u")[: draw(st.integers(1, 3))]
    alphas = st.tuples(*[st.integers(0, 2)] * len(params)).filter(lambda a: sum(a) <= 2)
    coeffs = st.one_of(
        RATIONALS,
        st.dictionaries(alphas, RATIONALS, min_size=1, max_size=3).map(
            lambda t: ParamPoly(params, t)
        ),
        RATIONALS.map(lambda q: ParamPoly.constant(q, params)),
    )
    exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    return LaurentPolynomial(2, params, draw(st.dictionaries(exps, coeffs, max_size=5)))


@settings(max_examples=60, deadline=None)
@given(f=parametric_laurent(), order=st.integers(0, 8))
def test_symbolic_classical_period_property(f, order):
    assert classical_period(f, order) == reference_period(f, order)


@settings(max_examples=60, deadline=None)
@given(f=parametric_laurent(), order=st.integers(0, 8), data=st.data())
def test_symbolic_period_specializes_to_the_specialized_period(f, order, data):
    """The scalar kernel, on the specialized f, as an oracle for the symbolic one."""
    point = {p: data.draw(RATIONALS) for p in f.params}
    assert (
        classical_period(f, order).specialize(point)
        == classical_period(f.specialize(point), order)
    )


@settings(max_examples=60, deadline=None)
@given(
    terms=st.dictionaries(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        max_size=6,
    ),
    order=st.integers(0, 8),
)
def test_classical_period_property(terms, order):
    f = LaurentPolynomial(2, (), terms)
    assert classical_period(f, order) == reference_period(f, order)


UNIMODULAR_GENERATORS = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1))]


@settings(max_examples=60, deadline=None)
@given(
    terms=st.dictionaries(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        max_size=6,
    ),
    gens=st.lists(st.sampled_from(UNIMODULAR_GENERATORS), max_size=8),
    order=st.integers(0, 8),
)
def test_classical_period_is_invariant_under_unimodular_substitution(terms, gens, order):
    """GL2(Z) acts on exponents: the packed exponents of f and of f after
    x^e -> x^(g e) differ in size and sign, the period does not."""
    g = reduce(mat_mul, gens, ((1, 0), (0, 1)))
    f = LaurentPolynomial(2, (), terms)
    assert classical_period(f.monomial_substitution(g), order) == classical_period(f, order)


def test_laurent_basics():
    f = p2_laurent()
    assert f.constant_term() == 0
    g = f * f
    assert g.terms[(2, 0)] == 1
    assert g.terms[(1, 1)] == 2
    assert (0, 0) not in g.terms
    with pytest.raises(ValueError):
        LaurentPolynomial(2, (), {(1, 0, 0): 1})


def test_classical_period_p2():
    pi = classical_period(p2_laurent(), 9)
    for d in range(10):
        k, r = divmod(d, 3)
        expected = Fraction(factorial(3 * k), factorial(k) ** 3) if r == 0 else 0
        assert pi[d] == expected
    assert pi[3] == 6 and pi[6] == 90 and pi[9] == 1680


def test_classical_period_multinomial_oracle():
    rng = random.Random(20260815)
    vals = {p: Fraction(rng.randint(-3, 3)) for p in F_PARAMS}
    f = hex_laurent().specialize(vals)
    pi = classical_period(f, 5)
    for k in range(6):
        assert pi[k] == constant_term_of_power(f, k)


def test_symbolic_period_low_orders():
    pi = classical_period(hex_laurent(), 3)
    assert pi[0] == 1
    assert pi[1] == 0
    assert pi[2] == 2 * A1 * A2 + 2 * B1 * B2 + 2 * C1 * C2 + 14
    assert pi[3] == (
        6 * A1 * B1
        + 12 * A1 * C2
        + 6 * A2 * B2
        + 12 * A2 * C1
        + 24 * B1
        + 24 * B2
        + 6 * C1
        + 6 * C2
    )


def test_specialized_period_through_order_12():
    f = hex_laurent().specialize({"a1": 1, "a2": 1, "b1": 0, "b2": 0, "c1": 0, "c2": 0})
    assert f.params == ()
    pi = classical_period(f, 12)
    assert pi == PowerSeries(
        12,
        [
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
        ],
    )


def test_substitution_matches_symbolic_specialization():
    sym = classical_period(hex_laurent(), 4)
    vals = {"a1": 2, "a2": -1, "b1": 0, "b2": 3, "c1": 1, "c2": -2}
    spec = classical_period(hex_laurent().specialize(vals), 4)
    assert sym.specialize(vals) == spec


def test_period_invariant_under_unimodular_substitution():
    f = hex_laurent()
    pi = classical_period(f, 4)
    for g in [((1, 1), (0, 1)), ((0, -1), (1, 0)), ((-1, 0), (0, -1))]:
        assert classical_period(f.monomial_substitution(g), 4) == pi
    with pytest.raises(ValueError):
        f.monomial_substitution(((1, 1), (1, 1)))


def test_edge_binomial_skeleton_hexagon():
    P = validate_fano(HEX)
    skel, naming = edge_binomial_skeleton(P)
    assert len(naming) == 8
    assert (0, 0) not in skel.terms
    for v in P.vertices:
        assert skel.terms[v] == 1
    assert skel.terms[(0, 2)] == 2 and skel.terms[(0, -2)] == 2
    # lexicographic parameter naming over the interior points
    assert naming[(-1, -1)] == "p1"
    assert naming[(1, 1)] == "p8"

    # zeroing the two axis parameters and matching the rest recovers hex_laurent
    rename = {
        (1, 1): "a1",
        (-1, -1): "a2",
        (1, 0): "b1",
        (-1, 0): "b2",
        (1, -1): "c1",
        (-1, 1): "c2",
    }
    vals = {naming[(0, 1)]: 0, naming[(0, -1)]: 0}
    probe = {}
    for i, (pt, name) in enumerate(sorted(rename.items())):
        probe[pt] = Fraction(i + 2)
        vals[naming[pt]] = Fraction(i + 2)
    reduced = skel.specialize(vals)
    target = hex_laurent().specialize(
        {rename[pt]: val for pt, val in probe.items()}
    )
    assert reduced == target


def test_edge_binomial_skeleton_p2():
    P = validate_fano([(1, 0), (0, 1), (-1, -1)])
    skel, naming = edge_binomial_skeleton(P)
    assert naming == {}
    assert skel == p2_laurent()


def test_laurent_json_roundtrip():
    f = hex_laurent()
    g = laurent_from_json(laurent_to_json(f))
    assert g == f and g.params == f.params
    assert laurent_to_json(g) == laurent_to_json(f)


def test_laurent_json_errors():
    with pytest.raises(SchemaError):
        laurent_from_json({"params": []})
    with pytest.raises(SchemaError):
        laurent_from_json({"terms": [{"exp": [1, 0]}]})
    with pytest.raises(SchemaError):
        laurent_from_json({"terms": [{"exp": [1], "coeff": "1"}, {"exp": [1, 0], "coeff": "1"}]})
    with pytest.raises(SchemaError):
        laurent_from_json({"terms": []})
    with pytest.raises(SchemaError, match=r"repeated exponent \[1\]"):
        laurent_from_json({"terms": [{"exp": [1], "coeff": "1"}, {"exp": [1], "coeff": "2"}]})
    with pytest.raises(SchemaError, match="repeated parameter 'a'"):
        laurent_from_json({"params": ["a", "a"], "terms": [{"exp": [1], "coeff": "a"}]})
