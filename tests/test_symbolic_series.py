import sys
from fractions import Fraction
from math import comb

import pytest

from fanokit.series import (
    PowerSeries,
    first_mismatch,
    regularize,
    series_substitute,
    sqrt_series,
)
from fanokit.errors import WorkBudgetExceeded
from fanokit.symbolic import ParamPoly, coeff_substitute, parse_coeff, parse_rational

PARAMS = ("s1", "s2")
S1 = ParamPoly.variable("s1", PARAMS)
S2 = ParamPoly.variable("s2", PARAMS)


def test_parampoly_arithmetic():
    assert (S1 + S2) ** 2 == S1 * S1 + 2 * S1 * S2 + S2 * S2
    assert not S1 - S1
    assert 3 * S1 - S1 == 2 * S1
    assert ParamPoly.constant(Fraction(2, 3)) == Fraction(2, 3)
    assert S1 * 0 == 0
    assert 1 - S1 == -(S1 - 1)


def test_parampoly_mixed_parameter_lists():
    a = ParamPoly.variable("a", ("a",))
    # constants promote across parameter lists, genuine variables do not
    assert a + ParamPoly.constant(2, PARAMS) == a + 2
    with pytest.raises(ValueError):
        a + S1


def test_parampoly_substitute():
    p = 2 * S1 * S2 + S1 - 5
    q = p.substitute({"s1": 3})
    assert q.params == ("s2",)
    assert q == 6 * ParamPoly.variable("s2", ("s2",)) - 2
    assert p.substitute({"s1": 3, "s2": Fraction(1, 2)}) == 1
    with pytest.raises(ValueError):
        p.substitute({"zz": 1})


def test_parampoly_str():
    assert str(2 * S1 * S2 + S1 - 5) == "2*s1*s2 + s1 - 5"
    assert str(ParamPoly.constant(0, PARAMS)) == "0"
    assert str(S2 ** 3 - S1) == "-s1 + s2^3"


def test_parse_coeff():
    assert parse_coeff("a1", ("a1",)) == ParamPoly.variable("a1", ("a1",))
    assert parse_coeff("22/15", ()) == Fraction(22, 15)
    assert parse_coeff("-3", ()) == -3
    with pytest.raises(ValueError):
        parse_coeff("zzz", ())


LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize("text", [
    "0", "-3", "+5", " 7 ", "22/15", "-6/4", "1e3", "-2.5e-2", "1.5", ".5", "3/4", "1E-3",
    "٣", f"1e{LIMIT}", f"-1.5e-{LIMIT}",
])
def test_parse_rational_reads_as_fraction_does(text):
    assert parse_rational(text) == Fraction(text)
    assert type(parse_rational(text)) is Fraction


@pytest.mark.parametrize("text, error", [
    (f"1e{LIMIT + 1}", WorkBudgetExceeded), ("-2e-100000000", WorkBudgetExceeded),
    ("1/0", ZeroDivisionError), ("1/-2", ValueError), ("--1", ValueError), ("", ValueError),
    ("1e", ValueError), ("a1", ValueError),
])
def test_parse_rational_refuses(text, error):
    """An exponent past the int-string limit is refused before 10**exponent is
    built; everything else fails as Fraction(text) fails."""
    with pytest.raises(error):
        parse_rational(text)


def test_coeff_substitute_collapses():
    assert coeff_substitute(S1 + 1, {"s1": 2, "s2": 0}) == Fraction(3)
    assert coeff_substitute(Fraction(7), {}) == 7


def test_sqrt_series_first_coefficients():
    s = sqrt_series(4)
    assert list(s.coeffs) == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(-1, 8),
        Fraction(1, 16),
        Fraction(-5, 128),
    ]


def test_sqrt_series_closed_form():
    # binomial(1/2, n) = (-1)^(n-1) * C(2n, n) / (4^n * (2n - 1))
    s = sqrt_series(9)
    for n in range(10):
        expected = Fraction((-1) ** (n + 1) * comb(2 * n, n), 4 ** n * (2 * n - 1))
        assert s[n] == expected


def test_sqrt_series_squares_to_one_plus_u():
    s = sqrt_series(8)
    assert s * s == PowerSeries.from_polynomial([1, 1], 8)


def test_series_substitute_quadratic_twist():
    # substituting z*sqrt(1 - s2 z^2) for z in s1 - z^2 gives s1 - z^2 + s2 z^4
    order = 10
    inner_u = PowerSeries(order, [0, 0, -S2])
    root = series_substitute(sqrt_series(5), inner_u, order)
    h = root.shift(1)
    g = PowerSeries.from_polynomial([S1, 0, Fraction(-1)], order)
    res = series_substitute(g, h, order)
    assert res == PowerSeries(order, [S1, 0, Fraction(-1), 0, S2])


def test_series_substitute_guards():
    with pytest.raises(ValueError):
        series_substitute(sqrt_series(3), PowerSeries(3, [1, 1]), 3)
    with pytest.raises(ValueError):
        # valuation 1 inner needs outer coefficients through the full order
        series_substitute(sqrt_series(3), PowerSeries(5, [0, 1]), 5)
    # zero inner series: composition is the outer constant term
    assert series_substitute(sqrt_series(3), PowerSeries.zero(5), 5) == PowerSeries(
        5, [1]
    )


def test_powerseries_basics():
    a = PowerSeries(5, [1, 2, 3])
    assert a.coeffs == (1, 2, 3, Fraction(0), Fraction(0), Fraction(0))
    assert a[2] == 3
    with pytest.raises(IndexError):
        a[6]
    with pytest.raises(ValueError):
        PowerSeries(1, [1, 2, 3])
    with pytest.raises(ValueError):
        PowerSeries.from_polynomial([1, 2, 3], 1)
    # truncation to the smaller order on mixed arithmetic
    b = PowerSeries(3, [1])
    assert (a + b).order == 3
    assert (a * b).order == 3
    assert not any((a - a).coeffs[:5])


def test_powerseries_shift():
    s = PowerSeries(4, [1, 2, 3, 4, 5])
    assert s.shift(2).coeffs == (Fraction(0), Fraction(0), 1, 2, 3)
    assert s.shift(7) == PowerSeries.zero(4)


def test_powerseries_specialize():
    s = PowerSeries(2, [S1, 2 * S2, Fraction(3)])
    t = s.specialize({"s1": 1, "s2": Fraction(1, 2)})
    assert t == PowerSeries(2, [1, 1, 3])


def test_regularize():
    s = PowerSeries(4, [1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)])
    assert regularize(s) == PowerSeries(4, [1, 1, 1, 1, 1])


def test_first_mismatch():
    a = PowerSeries(5, [1, 2, 3])
    b = PowerSeries(5, [1, 2, 4])
    assert first_mismatch(a, b, 5) == 2
    assert first_mismatch(a, a, 5) is None
    with pytest.raises(ValueError):
        first_mismatch(a, PowerSeries(3, [1]), 5)
