import json
import random
import time
from fractions import Fraction
from functools import partial, reduce
from importlib import resources
from itertools import combinations_with_replacement, repeat
from math import comb, factorial, gcd, lcm, prod
from operator import mul, neg

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import fanokit.laurent
from fanokit.errors import SchemaError, WorkBudgetExceeded
from fanokit.laurent import (
    ROW_FIELDS,
    LaurentPolynomial,
    _chord,
    _decoded,
    _flat_terms,
    _grouped,
    _products,
    _row_frame,
    _support_bounds,
    classical_period,
    edge_binomial_skeleton,
    laurent_from_json,
    laurent_to_json,
)
from fanokit.linalg import det, dot, identity, primitive, snf, transpose, vec_sub
from fanokit.pipeline import _laurent_stage
from fanokit.polygon import convex_hull, validate_fano
from fanokit.series import PowerSeries
from fanokit.symbolic import ParamPoly, terms_str

from test_linalg import mat_mul

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


# The dict kernel the row kernel replaced, kept as a reference: f^1 ..
# f^ceil(K/2) on packed exponents with int coefficients, each term pruned by
# its margins l(e) + (K - j) * h_l >= 0, held as offset fields of one int.


def _dict_support_bounds(f):
    ls = [tuple(s if j == i else 0 for j in range(f.dim)) for i in range(f.dim) for s in (1, -1)]
    if f.dim == 2:
        hull = convex_hull(f.terms)
        ls += [(a[1] - b[1], b[0] - a[0]) for a, b in zip(hull, hull[1:] + hull[:1]) if a != b]
    return [(l, max(dot(l, e) for e in f.terms)) for l in ls] if f.terms else []


def _pack(e, base):
    return sum(k * base**i for i, k in enumerate(e))


def _fields(values, width):
    return sum(v << (width * i) for i, v in enumerate(values))


def _dict_power_step(power, margins, g, mask):
    coeffs, kept = {}, {}
    for p1, c1 in power.items():
        m1 = margins[p1]
        for p2, c2, m2 in g:
            p = p1 + p2
            c = coeffs.get(p)
            if c is not None:
                coeffs[p] = c + c1 * c2
            else:
                coeffs[p] = c1 * c2
                m = m1 + m2
                if m & mask == mask:
                    kept[p] = m
    return {p: c for p in kept if (c := coeffs[p]) != 0}, kept


def _dict_paired_constant(a, b):
    if a is b:
        c0 = a.get(0, 0)
        return c0 * c0 + 2 * sum(c * a[-p] for p, c in a.items() if p > 0 and -p in a)
    if len(a) > len(b):
        a, b = b, a
    return sum(c * b[-p] for p, c in a.items() if -p in b)


def _dict_by_x_part(power, xbase):
    out = {}
    for p, c in power.items():
        out.setdefault((p + xbase // 2) % xbase - xbase // 2, []).append((p, c))
    return out


def _dict_paired_params(a, b, denom, params, base, dim):
    sums = {}
    for px, low in a.items():
        for p, c in low:
            for q, d in b.get(-px, ()):
                sums[p + q] = sums.get(p + q, 0) + c * d
    digits = range(dim, dim + len(params))
    out = ParamPoly(params, {tuple(s // base**i % base for i in digits): Fraction(c, denom)
                             for s, c in sums.items()})
    return out if out.terms else Fraction(0)


def dict_kernel_period(f, order):
    """The classical period by the dict kernel: one dict operation per term product."""
    flat = list(_flat_terms(f))
    scale = lcm(*(q.denominator for _, q in flat))
    bounds = _dict_support_bounds(f)
    coeffs = [Fraction(1)]
    if any(h < 0 for _, h in bounds):
        return PowerSeries(order, coeffs)
    base = 2 * max(order * max((abs(k) for e, _ in flat for k in e), default=0), 1) + 1
    spans = [h - min(dot(l, e) for e in f.terms) for l, h in bounds]
    half = 1 << max([order * h for _, h in bounds] + spans, default=0).bit_length()
    width = half.bit_length()
    mask = _fields([half] * len(bounds), width)
    margins = [[dot(l, e[: f.dim]) - h for l, h in bounds] for e, _ in flat]
    g = [(_pack(e, base), int(q * scale), _fields(m, width)) for (e, q), m in zip(flat, margins)]
    view, pair = (lambda power: power), (lambda a, b, d: Fraction(_dict_paired_constant(a, b), d))
    if f.params:
        view = partial(_dict_by_x_part, xbase=base**f.dim)
        pair = partial(_dict_paired_params, params=f.params, base=base, dim=f.dim)
    raw, margins = {0: 1}, {0: _fields([order * h + half for _, h in bounds], width)}
    prev = view(raw)
    for j in range(1, (order + 1) // 2 + 1):
        raw, margins = _dict_power_step(raw, margins, g, mask)
        power = view(raw)
        for k, low in ((2 * j - 1, prev), (2 * j, power)):
            if k <= order:
                coeffs.append(pair(low, power, scale**k))
        prev = power
    return PowerSeries(order, coeffs)


AX = ParamPoly.variable("a", ("a",))


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
        # parameter parts of two row pairs cancel to 0, which must be dropped:
        # a*y^2/x^2 - 1/y^2 - x - x^2/y^2 + x^2*y^2
        (LaurentPolynomial(2, ("a",), {(-2, 2): AX, (0, -2): -1, (1, 0): -1, (2, -2): -1,
                                       (2, 2): 1}), 4),
    ],
    ids=["dim1", "dim3", "segment", "origin-outside", "denominators", "symbolic",
         "partly-specialized", "order0", "order0-2d", "order1", "order2", "order3",
         "order9", "order10", "dim0", "dim1-odd", "dim3-odd", "far-exponent", "one-side",
         "cancelling"],
)
def test_classical_period_matches_the_plain_power_loop(f, order):
    assert classical_period(f, order) == reference_period(f, order) == dict_kernel_period(f, order)


def row_fields(row, w):
    """The balanced w-bit fields of a packed row, lowest first."""
    out = []
    while row:
        out.append(((row + (1 << (w - 1))) & ((1 << w) - 1)) - (1 << (w - 1)))
        row = (row - out[-1]) >> w
    return out


def in_scaled_polygon(p, hull, s):
    """p in s * conv(hull), for a counterclockwise hull."""
    return all((b[0] - a[0]) * (p[1] - s * a[1]) >= (b[1] - a[1]) * (p[0] - s * a[0])
               for a, b in zip(hull, hull[1:] + hull[:1]))


@pytest.mark.parametrize(
    "f, order, products, rows, fields, pairs",
    [
        (hex_laurent().specialize({"a1": 1, "a2": 1, "b1": 0, "b2": 0, "c1": 0, "c2": 0}),
         12, 260, [4, 9, 13, 17, 21, 25], [10, 37, 95, 177, 283, 413], 107),
        (hex_laurent(), 8, 2720, [10, 54, 207, 634], [14, 98, 485, 1874], 17657),
    ],
    ids=["specialized-order12", "symbolic-order8"],
)
def test_classical_period_multiplies_only_the_terms_that_reach_the_constant_term(
    monkeypatch, f, order, products, rows, fields, pairs
):
    """Work of the row kernel on the paper polynomial, all on ints.

    Specialized at order 12, the plain loop over f^1 .. f^12 makes 58,680
    term products; pruning to -e in (12 - k)*Newt(f) leaves 17,380, and
    building only f^1 .. f^6 leaves 6,000, which the dict kernel made one at
    a time.  The row kernel holds those powers as 4 .. 25 rows (one per
    y) of 10 .. 413 fields along x, each field in j*Newt(f) and in
    -(12 - j)*Newt(f), and makes 260 row products, one C-level multiply-add
    each.  With its six parameters in the row keys, the symbolic order-8
    period makes 2,720 row products (the dict kernel made 8,162 int
    products), and the only ParamPolys built are the emitted coefficients.
    f^0 and each power built are decoded once, and the pairing makes one dot
    product per pair of rows whose x ranges meet at x = 0: 107 at order 12,
    17,657 symbolic.
    """
    held, made, built, powers, decoded = [], [], [], [], []
    plain_step, plain_init = fanokit.laurent._row_step, ParamPoly.__init__
    plain_trusted = ParamPoly._trusted.__func__
    plain_decoded = fanokit.laurent._decoded
    hull = convex_hull(f.terms)

    def counting_step(power, groups, w, cut):
        made.append(len(power) * len(groups))
        out = plain_step(power, groups, w, cut)
        powers.append(out)
        j = len(held) + 1
        held.append([(lo, key, row_fields(row, w)) for key, (lo, row) in out.items()])
        assert all(type(row) is int for _, row in out.values())
        if not f.params:  # the row key is y, the field index is x
            for lo, y, row in held[-1]:
                for x in range(lo, lo + len(row)):
                    assert in_scaled_polygon((x, y), hull, j)
                    assert in_scaled_polygon((-x, -y), hull, order - j)
        return out

    def counting_init(self, *args):
        built.append(args)
        plain_init(self, *args)

    def counting_trusted(cls, *args):  # the constructor for terms built here
        built.append(args)
        return plain_trusted(cls, *args)

    def counting_decoded(power, *args):
        decoded.append(power)
        return plain_decoded(power, *args)

    assert fanokit.laurent._row_frame(f, list(_flat_terms(f)), (order + 1) // 2)[0] == {
        e: e for e in f.terms}
    expected = dict_kernel_period(f, order)
    monkeypatch.setattr("fanokit.laurent._row_step", counting_step)
    monkeypatch.setattr(ParamPoly, "__init__", counting_init)
    monkeypatch.setattr(ParamPoly, "_trusted", classmethod(counting_trusted))
    monkeypatch.setattr("fanokit.laurent._decoded", counting_decoded)
    dots = checked_dots(monkeypatch)
    got = classical_period(f, order)
    monkeypatch.undo()
    assert got == expected
    assert [len(power) for power in held] == rows
    assert [sum(len(row) for *_, row in power) for power in held] == fields
    assert sum(made) == products
    assert len(built) <= 9
    assert decoded == [{0: [0, 1]}] + powers and len(decoded) == len(rows) + 1
    assert len(dots) == pairs


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
    assert classical_period(f, order) == reference_period(f, order) == dict_kernel_period(f, order)


@settings(max_examples=60, deadline=None)
@given(f=parametric_laurent(), order=st.integers(0, 8), data=st.data())
def test_symbolic_period_specializes_to_the_specialized_period(f, order, data):
    """The scalar kernel, on the specialized f, as an oracle for the symbolic one."""
    point = {p: data.draw(RATIONALS) for p in f.params}
    assert (
        classical_period(f, order).specialize(point)
        == classical_period(f.specialize(point), order)
        == dict_kernel_period(f.specialize(point), order)
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
    assert classical_period(f, order) == reference_period(f, order) == dict_kernel_period(f, order)


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
    x^e -> x^(g e) differ in size and sign, the period does not.  The frame
    maps the hull of the support through U, kept counterclockwise from its
    least point, so it is the hull of a framed support in dimension 2 and
    gives the pruning functionals that a second hull would: a period takes
    one hull."""
    g = reduce(mat_mul, gens, ((1, 0), (0, 1)))
    f = LaurentPolynomial(2, (), terms)
    fg = f.monomial_substitution(g)
    if fg.terms:
        frame, _, _, hull = fanokit.laurent._row_frame(fg, list(_flat_terms(fg)), (order + 1) // 2)
        framed = list(frame.values())
        assert hull == (convex_hull(framed) if len(framed[0]) == 2 else ())
    hulls, plain_hull = [], fanokit.laurent.convex_hull
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("fanokit.laurent.convex_hull", lambda p: hulls.append(1) or plain_hull(p))
        got = classical_period(fg, order)
    assert len(hulls) <= 1
    assert got == classical_period(f, order) == dict_kernel_period(f, order)


def summed(*polys):
    """The sum of Laurent polynomials in two variables, term by term."""
    terms = {}
    for p in polys:
        for e, c in p.terms.items():
            terms[e] = terms.get(e, 0) + c
    return LaurentPolynomial(2, (), terms)


@st.composite
def mutation_pair(draw):
    """(f, g) with g the mutation of f by the weight vector w = (0, 1) and
    the factor F = a + b*x^s, after one GL2(Z) change of both.

    f = sum_h f_h by w-degree h, with F^(-h) dividing f_h for h < 0, and
    g = sum_h f_h * F^h, so g(x, y) = f(x, y*F(x)); the powers of F come
    from the reference product LaurentPolynomial.__mul__.
    """
    nonzero = RATIONALS.filter(bool)
    s = draw(st.sampled_from([1, -1, 2]))
    F = LaurentPolynomial(2, (), {(0, 0): draw(nonzero), (s, 0): draw(nonzero)})
    f_parts, g_parts = [], []
    for h in range(-2, 3):
        xs = st.integers(-2, 2).map(lambda x, h=h: (x, h))
        part = LaurentPolynomial(2, (), draw(st.dictionaries(xs, RATIONALS, max_size=3)))
        power = reduce(lambda p, q: p * q, [F] * abs(h), LaurentPolynomial(2, (), {(0, 0): 1}))
        f_parts.append(part * power if h < 0 else part)
        g_parts.append(part * power if h > 0 else part)
    gl = reduce(mat_mul, draw(st.lists(st.sampled_from(UNIMODULAR_GENERATORS), max_size=6)),
                ((1, 0), (0, 1)))
    return summed(*f_parts).monomial_substitution(gl), summed(*g_parts).monomial_substitution(gl)


@settings(max_examples=60, deadline=None)
@given(pair=mutation_pair(), order=st.integers(0, 8))
def test_classical_period_is_invariant_under_mutation(pair, order):
    """Mutations keep the classical period (Akhtar, Coates, Galkin and
    Kasprzyk, Minkowski polynomials and mutations, arXiv:1212.1785): the
    constant term in y of f^k(x, y*F(x)) is that of f^k."""
    f, g = pair
    assert classical_period(f, order) == classical_period(g, order)


def test_classical_period_work_budget():
    f = hex_laurent().specialize({"a1": 1, "a2": 1, "b1": 0, "b2": 0, "c1": 0, "c2": 0})
    start = time.perf_counter()
    with pytest.raises(WorkBudgetExceeded, match="order 1000000000"):
        classical_period(f, 10**9)
    with pytest.raises(WorkBudgetExceeded):
        classical_period(hex_laurent(), 10**6)
    assert time.perf_counter() - start < 1.0
    # x + y (the origin outside Newt) and an f of zero coefficients need no
    # kernel, and their zero-padded series is bounded too: order 10^7 first, so
    # that a series built unbounded costs about 160 MB, not the 16 GB of 10^9
    zero = laurent_from_json(
        {"terms": [{"exp": [1, 0], "coeff": "0"}, {"exp": [0, 1], "coeff": "0"}]})
    for g in laurent(2, {(1, 0): 1, (0, 1): 1}), zero:
        start = time.perf_counter()
        for order in 10**7, 10**9:
            with pytest.raises(WorkBudgetExceeded, match=f"order {order} "):
                classical_period(g, order)
        assert time.perf_counter() - start < 1.0
        assert classical_period(g, 12) == PowerSeries(12, [1])
    # order 100 stays inside the budget; t^100 as the dict kernel gave it
    assert classical_period(f, 100)[100] == int(
        "7282190224592979637447594016514932781719947136035085708740704128850012904548870"
        "75395762868752844232585536")


def test_classical_period_on_sparse_gapped_supports():
    """Supports with long gaps along every axis: a field axis would hold about
    2jN zero fields per row of f^j, so the frame puts a zero axis in front,
    every row holds one term, and the period comes out at once."""
    N = 10**6
    cases = [
        (laurent(1, {(-N,): 1, (N,): 1, (N + 1,): 1}), 20),
        (laurent(2, {(-N, 0): 1, (N, 0): 1, (0, 1): 2, (0, -1): Fraction(1, 3), (N, N): 1}), 16),
    ]
    for f, order in cases:
        start = time.perf_counter()
        got = classical_period(f, order)
        assert time.perf_counter() - start < 1.0
        assert got == dict_kernel_period(f, order)


def test_classical_work_budget_on_a_large_3d_support():
    """The frame is chosen from a bounded set of axes, in time linear in the
    support, so a large support is refused at once and runs at low orders."""
    f = LaurentPolynomial(3, (), {
        (i, i * i % 7 - 3, i**3 % 11 - 5): Fraction(1) for i in range(-500, 500)})
    start = time.perf_counter()
    with pytest.raises(WorkBudgetExceeded):
        classical_period(f, 10**9)
    assert time.perf_counter() - start < 1.0
    assert classical_period(f, 2) == dict_kernel_period(f, 2)


@st.composite
def sparse_laurent(draw):
    """A 1-3 dimensional f on a few exponents spread over [-40, 40], some
    coefficients linear in one parameter."""
    dim = draw(st.integers(1, 3))
    params = ("s",)[: draw(st.integers(0, 1))]
    coeffs = RATIONALS.filter(bool)
    if params:
        coeffs = st.one_of(coeffs, coeffs.map(lambda q: q * ParamPoly.variable("s", params)))
    exps = st.tuples(*[st.integers(-40, 40)] * dim)
    terms = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=5))
    return LaurentPolynomial(dim, params, terms)


# x + 1/x + y + z + 1/(yz): P^1 x P^2, whose frame takes the zero axis
P1P2 = laurent(3, {(1, 0, 0): 1, (-1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, -1, -1): 1})
# the paper's f with three parameters left, the first job of perfbench family at seed 1
FAMILY_SYMBOLIC = hex_laurent().specialize(
    {"b1": Fraction(-3, 2), "b2": Fraction(-1, 3), "c2": Fraction(1, 2)})
# its second job, every parameter given, at order 14
FAMILY_SPECIALIZED = hex_laurent().specialize({
    "a1": Fraction(3, 2), "a2": Fraction(-1, 2), "b1": Fraction(3, 2), "b2": Fraction(-1, 3),
    "c1": Fraction(2, 3), "c2": Fraction(1, 3)})
# the polynomial of perfbench mirror and of the paper fixture
PAPER_F = hex_laurent().specialize({"a1": 1, "a2": 1, "b1": 0, "b2": 0, "c1": 0, "c2": 0})


@settings(max_examples=60, deadline=None)
@given(f=sparse_laurent(), order=st.integers(0, 8))
@example(f=FAMILY_SYMBOLIC, order=5)
@example(f=P1P2, order=20)
@example(f=hex_laurent(), order=6)
def test_classical_period_work_estimate_bounds_the_rows_held(f, order):
    """Every power the kernel builds holds at most the rows, and each row at
    most the fields, that the work budget was estimated from, at no more than
    the width it was estimated at.  That width holds every field of f^half,
    and of f^a * f^b for a + b <= 2 half when rows of at most ROW_FIELDS
    fields pair by products."""
    half, flat = (order + 1) // 2, list(_flat_terms(f))
    _, rows, fields, _ = fanokit.laurent._row_frame(f, flat, half)
    held, plain_step, estimate = [], fanokit.laurent._row_step, None

    def counting_step(power, groups, w, cut):
        out = plain_step(power, groups, w, cut)
        widest = max((len(row_fields(row, w)) for _, row in out.values()), default=0)
        held.append((len(out), widest, w))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("fanokit.laurent.MAX_FIELD_BITS", -1)
        try:
            classical_period(f, order)
        except WorkBudgetExceeded as err:  # "... would hold up to {work} field bits ..."
            estimate = int(str(err).split(" up to ")[1].split()[0])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("fanokit.laurent._row_step", counting_step)
        got = classical_period(f, order)
    assert got == dict_kernel_period(f, order)
    assert all(n <= rows and m <= fields for n, m, _ in held)
    if held:
        scale = lcm(*(q.denominator for _, q in flat))
        size = sum(abs(q) * scale for _, q in flat)
        top = 2 * half if fields <= ROW_FIELDS else half
        assert all(size**top < 2 ** (w - 1) and w % 64 == 0 for *_, w in held)
        assert all(half * w * rows * fields <= estimate for *_, w in held)


def checked_dots(patch):
    """Patch fanokit.laurent so that every sum inside _paired, one row pair's
    dot, is checked to pair at least one field of each row; returns the list
    that the length of each dot goes into."""
    dots, inside, plain = [], [], fanokit.laurent._paired

    def paired(a, b):
        inside.append(True)
        try:
            return plain(a, b)
        finally:
            inside.pop()

    def checked_sum(values, start=0):
        if inside:
            values = list(values)
            assert values, "a row pair dotted over x ranges that do not meet"
            dots.append(len(values))
        return sum(values, start)

    patch.setattr("fanokit.laurent._paired", paired)
    patch.setattr(fanokit.laurent, "sum", checked_sum, raising=False)
    return dots


def pairing_views(f, order):
    """classical_period(f, order) and the (view, power, w, rest_part) of f^0
    and each power it grouped for products (view "_grouped") or decoded
    ("_decoded"); every dot it makes pairs rows whose x ranges meet."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        checked_dots(patch)
        for name in ("_grouped", "_decoded"):
            plain = getattr(fanokit.laurent, name)
            patch.setattr(f"fanokit.laurent.{name}", lambda power, w, rest_part, name=name,
                          plain=plain: seen.append((name, power, w, rest_part)) or plain(
                              power, w, rest_part))
        got = classical_period(f, order)
    return got, seen


@pytest.mark.parametrize("f, order, view", [
    (FAMILY_SYMBOLIC, 5, "_grouped"),
    (P1P2, 20, "_grouped"),
    # fields of f^4 * f^4 need 192 bits, those of f^4 only 128
    (laurent(1, {(1,): 2**40 + 1, (-1,): -(3**25), (0,): -(2**35)}), 8, "_grouped"),
    (PAPER_F, 20, "_decoded"),
    (FAMILY_SPECIALIZED, 14, "_decoded"),
], ids=["family-symbolic-order5", "p1p2-order20", "wide-fields", "mirror-order20",
        "family-specialized-order14"])
def test_the_row_bound_picks_the_pairing(f, order, view):
    """Rows of f^half of at most ROW_FIELDS fields, by the frame's bound, pair
    by int products with no decode; longer rows are decoded."""
    fields = _row_frame(f, list(_flat_terms(f)), (order + 1) // 2)[2]
    assert (fields <= ROW_FIELDS) == (view == "_grouped")
    got, seen = pairing_views(f, order)
    assert {name for name, *_ in seen} == {view}
    assert got == dict_kernel_period(f, order)


@st.composite
def specialized_hex(draw):
    """hex_laurent() with some of its parameters given rational values."""
    names = draw(st.lists(st.sampled_from(F_PARAMS), unique=True))
    return hex_laurent().specialize({p: draw(RATIONALS) for p in names})


@settings(max_examples=150, deadline=None)
@given(f=st.one_of(parametric_laurent(), sparse_laurent(), specialized_hex()),
       order=st.integers(1, 8))
def test_products_and_decode_pair_the_same_powers(f, order):
    """Both pairings on the powers classical_period built, with the dict kernel
    as the oracle for the period: _products on grouped powers and _paired on
    decoded ones give equal sums for each pair of powers the period pairs.
    Decoded powers are held at a width for f^half only, so they are repacked at
    twice that width, which holds every field of f^a * f^b.  Both read the
    same (parameter part, lo, hi) prefix, and no dot meets an empty overlap."""
    got, seen = pairing_views(f, order)
    assert got == dict_kernel_period(f, order)
    if not seen:
        return
    view, _, w, rest_part = seen[0]
    event(view)
    wide = w if view == "_grouped" else 2 * w
    powers = [{k: [lo, sum(c << wide * i for i, c in enumerate(row_fields(row, w)))]
               for k, (lo, row) in power.items()} for _, power, *_ in seen]
    assert powers[0] == {0: [0, 1]}
    grouped = [_grouped(p, wide, rest_part) for p in powers]
    decoded = [_decoded(p, wide, rest_part) for p in powers]
    assert [{rp: [r[:3] for r in rows] for rp, rows in g.items()} for g in grouped] == [
        {rp: [r[:3] for r in rows] for rp, rows in d.items()} for d in decoded]
    longest = max(hi - lo for g in grouped for rows in g.values() for _, lo, hi, _ in rows)
    reads = [((1 << s >> 1) + (1 << wide - 1 << s), s)  # rounding and bias, shift
             for s in range(0, wide * (2 * longest + 1), wide)]
    for j in range(1, len(powers)):
        for i in (j - 1, j):
            if i + j <= order:
                by_products = _products(grouped[j], grouped[i], wide, reads)
                with pytest.MonkeyPatch.context() as patch:
                    checked_dots(patch)
                    by_decode = fanokit.laurent._paired(decoded[j], decoded[i])
                assert {k: v for k, v in by_products.items() if v} == {
                    k: v for k, v in by_decode.items() if v}


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


# -- the set-up around the row kernel, against references ---------------------
#
# Reference versions of the set-up helpers: every term scanned for each bound,
# lines told apart by one packed functional, Fraction(text) parsing, and the
# validating constructors.  The package's helpers must return equal values, in
# the same order, with the same coefficient types.


def reference_support_bounds(support, hull):
    dim = len(support[0]) if support else 0
    ls = [(a[1] - b[1], b[0] - a[0]) for a, b in zip(hull, hull[1:] + hull[:1])]
    if len(hull) < 3 and support:
        ls += [tuple(s * (j == i) for j in range(dim)) for i in range(dim) for s in (1, -1)]
    return [(l, max(v), min(v)) for l in ls for v in ([sum(map(mul, l, e)) for e in support],)]


def reference_flat_terms(f):
    for e, c in f.terms.items():
        names, terms = (c.params, c.terms) if isinstance(c, ParamPoly) else ((), {(): c})
        for p in set(names) - set(f.params):
            raise ValueError(f"coefficient parameter {p!r} is not in {list(f.params)}")
        for a, q in terms.items():
            yield e + tuple(map(dict(zip(names, a)).get, f.params, repeat(0))), Fraction(q)


def reference_row_frame(f, flat, half):
    support, dim = list(f.terms), f.dim
    hull = convex_hull(support) if dim == 2 else ()
    cands = {max(v, tuple(map(neg, v))) for a, b in zip(hull, hull[1:] + hull[:1]) if a != b
             for v in (primitive(vec_sub(b, a)),)}
    if dim != 2:
        low = min(support)
        cands = set(identity(dim)) | set(sorted(
            (v for s in support if s != low and gcd(*(v := vec_sub(s, low))) == 1),
            key=lambda v: (sum(map(abs, v)), v))[:8])
    big = 4 * max((abs(c) for s in support for c in s), default=0) + 1

    def lines(v):
        p = next(i for i, c in enumerate(v) if c)
        n = [v[p] * (big * max(map(abs, v))) ** i for i in range(dim)]
        n[p] -= sum(map(mul, v, n)) // v[p]
        return len({sum(map(mul, s, n)) for s in support}), sum(map(abs, v)), tuple(map(neg, v))

    top = max((sum(e[dim:]) for e, _ in flat), default=0)
    pbox = comb(half * top + len(f.params), half * top)

    def rows(keys, nlines, exts):
        return min(comb(half + keys - 1, half), pbox * min(
            comb(half + nlines - 1, half), prod(half * x + 1 for x in exts)))
    zero = rows(len(flat), len(support), [max(c) - min(c) for c in zip(*support)])
    if not cands:
        return {e: (0,) + e for e in support}, zero, 1, ()
    if (v := min(cands, key=lines)) == identity(dim)[0]:
        U = identity(dim)
    else:
        _, U, V = snf(transpose([v]))
        U = [tuple(V[0][0] * c for c in U[0])] + list(U[1:])
    cols = [[sum(map(mul, r, e)) for e in support] for r in U]
    img, groups = dict(zip(support, zip(*cols))), {}
    for e, _ in flat:
        groups.setdefault(img[e[:dim]][1:] + e[dim:], []).append(img[e[:dim]][0])
    width = max(max(xs) - min(xs) for xs in groups.values())
    n = rows(len(groups), lines(v)[0], [max(c) - min(c) for c in cols[1:]])
    if zero * len(flat) * (ROW_FIELDS + 1) < n * len(groups) * (
            ROW_FIELDS + (half * width + 1) * (width + 1)):
        return {e: (0,) + e for e in support}, zero, 1, ()
    if hull:
        hull = [img[e] for e in hull][:: 1 if len(hull) < 3 or det(U) > 0 else -1]
        hull = tuple(hull[(i := hull.index(min(hull))) :] + hull[:i])
    chord = _chord(hull) if hull else max(cols[0]) - min(cols[0])
    return img, n, half * chord + 1, hull


def reference_terms_str(items, names):
    parts = []
    for e, c in items:
        mono = "*".join(name if k == 1 else f"{name}^{k}" for name, k in zip(names, e) if k > 0)
        if isinstance(c, ParamPoly) and not c.is_constant():
            cs = str(c)
            cs = cs if ("+" not in cs and " - " not in cs) else f"({cs})"
            parts.append(f"{cs}*{mono}" if mono else cs)
        elif not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c}*{mono}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def reference_str(p):
    return reference_terms_str(((e, p.terms[e]) for e in sorted(p.terms, reverse=True)), p.params)


def reference_coeff_substitute(c, assignments):
    if not isinstance(c, ParamPoly):
        return Fraction(c)
    assignments = {k: Fraction(v) for k, v in assignments.items()}
    unknown = set(assignments) - set(c.params)
    if unknown:
        raise ValueError(f"unknown parameters {sorted(unknown)}")
    keep = [i for i, p in enumerate(c.params) if p not in assignments]
    out = {}
    for e, q in c.terms.items():
        for i, p in enumerate(c.params):
            if e[i] and p in assignments:
                q *= assignments[p] ** e[i]
        key = tuple(e[i] for i in keep)
        out[key] = out.get(key, Fraction(0)) + q
    out = ParamPoly(tuple(c.params[i] for i in keep), out)
    return out.constant_value() if not out.params else out


def reference_specialize(f, assignments):
    return LaurentPolynomial(
        f.dim,
        tuple(p for p in f.params if p not in assignments),
        {e: reference_coeff_substitute(c, assignments) for e, c in f.terms.items()},
    )


def reference_laurent_from_json(data):
    if not isinstance(data, dict) or "terms" not in data:
        raise SchemaError("laurent JSON needs a 'terms' list")
    params = tuple(data.get("params", []))
    terms, dim = {}, None
    for item in data["terms"]:
        e = tuple(item["exp"])
        dim = len(e) if dim is None else dim
        if len(e) != dim:
            raise SchemaError("inconsistent exponent arity")
        if e in terms:
            raise SchemaError(f"repeated exponent {list(e)}")
        text = str(item["coeff"]).strip()
        if text in params:
            terms[e] = ParamPoly(params, {tuple(int(p == text) for p in params): Fraction(1)})
        else:
            try:
                terms[e] = Fraction(text)
            except (ValueError, ZeroDivisionError):
                raise SchemaError(f"cannot parse coefficient {text!r}") from None
    if dim is None:
        raise SchemaError("empty Laurent polynomial")
    return LaurentPolynomial(dim, params, terms)


def shape(f):
    """Everything a Laurent polynomial holds, coefficient types and parameter
    lists included, which its == leaves out."""
    return f.dim, f.params, {e: (type(c), getattr(c, "params", None), getattr(c, "terms", c))
                             for e, c in f.terms.items()}


@st.composite
def mixed_laurent(draw):
    """Dimension 1-3, 0-3 parameters, Fraction and ParamPoly coefficients; a
    ParamPoly may use a subset of the parameters in another order."""
    dim = draw(st.integers(1, 3))
    params = tuple(draw(st.lists(st.sampled_from(("a", "b", "c", "d")), max_size=3, unique=True)))
    rational = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    terms = {}
    for e in draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=9,
                           unique=True)):
        if params and draw(st.booleans()):
            names = draw(st.permutations(params))[: draw(st.integers(0, len(params)))]
            terms[e] = ParamPoly(names, draw(st.dictionaries(
                st.tuples(*[st.integers(0, 2)] * len(names)), rational, max_size=3)))
        else:
            terms[e] = draw(rational)
    return LaurentPolynomial(dim, params, terms)


def assert_set_up_matches(f, half):
    flat = list(_flat_terms(f))
    assert flat == list(reference_flat_terms(f))
    assert all(type(q) is Fraction for _, q in flat)
    if not flat:  # classical_period stops here
        return
    got = _row_frame(f, flat, half)
    assert got == reference_row_frame(f, flat, half)
    frame, _, _, hull = got
    support = list(frame.values())
    assert _support_bounds(support, hull) == reference_support_bounds(support, hull)


@settings(max_examples=300, deadline=None)
@given(f=mixed_laurent(), half=st.integers(1, 5))
def test_set_up_helpers_match_the_references(f, half):
    """Flat terms in order, the frame dict, row and field bounds, hull, and the
    bounds list in order."""
    assert_set_up_matches(f, half)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), f=mixed_laurent())
def test_reading_and_specializing_match_the_references(data, f):
    """JSON -> LaurentPolynomial, then a partial assignment, against the
    Fraction-parsing reader and the validating constructors."""
    doc = laurent_to_json(f)
    for item in doc["terms"]:  # coefficients as plain rational literals or names
        if item["coeff"] not in f.params:
            item["coeff"] = data.draw(st.sampled_from(
                [item["coeff"]] * 3 + ["0", " -7 ", "+3/4", "1.5", "-2.5e-2", "1e3", "1_0", "1/0", "x"]))
    try:
        expected = reference_laurent_from_json(doc)
    except SchemaError as e:
        with pytest.raises(SchemaError) as got:
            laurent_from_json(doc)
        assert str(got.value) == str(e)
        return
    g = laurent_from_json(doc)
    assert shape(g) == shape(expected)
    point = data.draw(st.dictionaries(st.sampled_from(f.params), st.fractions(
        min_value=-3, max_value=3, max_denominator=4), max_size=len(f.params))) if f.params else {}
    assert shape(g.specialize(point)) == shape(reference_specialize(g, point))


# The perfbench `family` jobs of seeds 1-3 on the paper's f (fixture paper-f):
# order, then the assigned parameters; the others stay symbolic.
FAMILY_JOBS = """\
5 b1=-3/2 b2=-1/3 c2=1/2 | 14 a1=3/2 a2=-1/2 b1=3/2 b2=-1/3 c1=2/3 c2=1/3
5 a1=1/3 b2=1/3 c1=-1/2 | 4 a1=2/3 a2=-1/2 c1=2/3 c2=-3/2 | 5 a2=1/2 b1=1/3 b2=1/2
5 a2=-3/2 b2=3/2 | 5 a1=-1/2 a2=-1/3 c1=-1/2
14 a1=1/3 a2=-2/3 b1=2/3 b2=-2/3 c1=-3/2 c2=-1/2 | 5 a1=-2/3 c1=1/2 c2=1/2
4 b1=1/3 b2=-1/3 c1=1/3 c2=-1/3 | 5 a1=3/2 c1=1/3 c2=-3/2 | 5 a1=-1/3 b2=-1/2
5 a2=-1/3 b1=1/2 b2=1/2 | 14 a1=-1/3 a2=1/2 b1=-3/2 b2=-1/2 c1=1/3 c2=2/3
5 a1=-2/3 a2=2/3 b2=2/3 | 4 a1=-1/3 b1=-1/3 b2=2/3 c1=3/2 | 5 b1=-1/2 b2=3/2 c2=3/2
5 b2=-3/2 c1=-3/2 | 5 a2=3/2 b1=-3/2 c1=1/3
14 a1=-1/2 a2=-3/2 b1=-3/2 b2=1/2 c1=-2/3 c2=-1/3 | 5 a1=-1/2 a2=1/2 c2=1/2
4 a2=-3/2 b1=-3/2 b2=-3/2 c2=1/3 | 5 a2=-3/2 b1=-1/3 c2=1/2 | 5 a2=-2/3 b1=3/2
5 a1=1/3 b1=2/3 b2=1/2 | 14 a1=3/2 a2=2/3 b1=-1/2 b2=3/2 c1=2/3 c2=-2/3
5 a2=-1/2 b2=1/3 c2=1/3 | 4 a1=1/3 a2=-1/3 b2=-3/2 c2=-3/2 | 5 a1=-1/2 b2=-3/2 c2=1/2
5 a2=2/3 b2=1/2 | 5 a2=-3/2 c1=2/3 c2=1/3
14 a1=-1/3 a2=-2/3 b1=-2/3 b2=-1/3 c1=1/2 c2=-1/2 | 5 a1=-1/2 b2=2/3 c2=-3/2
4 a1=-1/3 b1=3/2 b2=-3/2 c1=-1/2 | 5 a2=1/3 b2=2/3 c1=-1/3 | 5 a1=-3/2 a2=1/3
"""


@pytest.mark.parametrize("job", FAMILY_JOBS.replace("\n", " | ").split(" | ")[:-1])
def test_family_inputs_match_the_references(job):
    """The 36 benchmark jobs: the stage's polynomial, every set-up helper, and
    the printed period, each equal to the reference's."""
    order, *pairs = job.split()
    data = json.loads(resources.files("fanokit").joinpath("fixtures", "paper-f.json").read_text())
    assign = dict(p.split("=") for p in pairs)
    f = _laurent_stage(data, assign)
    expected = reference_specialize(reference_laurent_from_json(data),
                                    {k: Fraction(v) for k, v in assign.items()})
    assert shape(f) == shape(expected)
    assert_set_up_matches(f, (int(order) + 1) // 2)
    for c in classical_period(f, int(order)).coeffs:
        assert str(c) == (reference_str(c) if isinstance(c, ParamPoly) else str(c))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), names=st.lists(st.sampled_from("abcd"), max_size=3, unique=True))
def test_terms_str_matches_the_reference(data, names):
    """Fraction, int and ParamPoly coefficients, constant or not, with or
    without a monomial, and the ParamPoly printer built on it."""
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    exps = st.tuples(*[st.integers(0, 2)] * len(names))
    inner = st.builds(lambda d: ParamPoly(("u", "v"), d), st.dictionaries(
        st.tuples(st.integers(0, 1), st.integers(0, 1)), rational, max_size=3))
    items = data.draw(st.lists(st.tuples(exps, st.one_of(rational, st.integers(-2, 2), inner)),
                               max_size=6))
    assert terms_str(items, names) == reference_terms_str(items, names)
    p = ParamPoly(names, data.draw(st.dictionaries(exps, rational, max_size=6)))
    assert str(p) == reference_str(p)
