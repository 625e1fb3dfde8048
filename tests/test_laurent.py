import random
import time
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations_with_replacement
from math import factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fanokit.laurent
from fanokit.errors import SchemaError, WorkBudgetExceeded
from fanokit.laurent import (
    LaurentPolynomial,
    _flat_terms,
    classical_period,
    edge_binomial_skeleton,
    laurent_from_json,
    laurent_to_json,
)
from fanokit.linalg import dot, mat_mul
from fanokit.polygon import convex_hull, validate_fano
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
         12, 260, [4, 9, 13, 17, 21, 25], [10, 37, 95, 177, 283, 413], 111),
        (hex_laurent(), 8, 2720, [10, 54, 207, 634], [14, 98, 485, 1874], 29745),
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
    Each power built is decoded once, and the pairing makes one dot product
    per pair of rows in its windows: 111 at order 12, 29,745 symbolic.
    """
    held, made, built, powers, decoded, dots, pairing = [], [], [], [], [], [], []
    plain_step, plain_init = fanokit.laurent._row_step, ParamPoly.__init__
    plain_decoded, plain_paired = fanokit.laurent._decoded, fanokit.laurent._paired
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

    def counting_decoded(power, *args):
        decoded.append(power)
        return plain_decoded(power, *args)

    def counting_paired(a, b):  # every sum inside the pairing is one row pair's dot
        pairing.append(True)
        try:
            return plain_paired(a, b)
        finally:
            pairing.pop()

    def counting_sum(values, start=0):
        if pairing:
            dots.append(values)
        return sum(values, start)

    assert fanokit.laurent._row_frame(f, list(_flat_terms(f)), (order + 1) // 2)[0] == {
        e: e for e in f.terms}
    expected = dict_kernel_period(f, order)
    monkeypatch.setattr("fanokit.laurent._row_step", counting_step)
    monkeypatch.setattr(ParamPoly, "__init__", counting_init)
    monkeypatch.setattr("fanokit.laurent._decoded", counting_decoded)
    monkeypatch.setattr("fanokit.laurent._paired", counting_paired)
    monkeypatch.setattr(fanokit.laurent, "sum", counting_sum, raising=False)
    got = classical_period(f, order)
    monkeypatch.undo()
    assert got == expected
    assert [len(power) for power in held] == rows
    assert [sum(len(row) for *_, row in power) for power in held] == fields
    assert sum(made) == products
    assert len(built) <= 9
    assert decoded == powers and len(decoded) == len(rows)
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


@settings(max_examples=60, deadline=None)
@given(f=sparse_laurent(), order=st.integers(0, 8))
def test_classical_period_work_estimate_bounds_the_rows_held(f, order):
    """Every power the kernel builds holds at most the rows, and each row at
    most the fields, that the work budget was estimated from."""
    half = (order + 1) // 2
    _, rows, fields, _ = fanokit.laurent._row_frame(f, list(_flat_terms(f)), half)
    held, plain_step = [], fanokit.laurent._row_step

    def counting_step(power, groups, w, cut):
        out = plain_step(power, groups, w, cut)
        widest = max((len(row_fields(row, w)) for _, row in out.values()), default=0)
        held.append((len(out), widest))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("fanokit.laurent._row_step", counting_step)
        got = classical_period(f, order)
    assert got == dict_kernel_period(f, order)
    assert all(n <= rows and m <= fields for n, m in held)


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
