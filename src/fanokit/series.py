"""Truncated power series with exact coefficients.

A PowerSeries holds coefficients c_0..c_D for an explicit truncation order D;
arithmetic truncates to the smaller order of the operands and never invents
coefficients beyond it.  Coefficients are Fractions or ParamPoly, mixed
freely.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .symbolic import Frozen, ParamPoly, coeff_substitute


class PowerSeries(Frozen):
    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        order = int(order)
        coeffs = list(coeffs)
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if len(coeffs) < order + 1:
            coeffs = coeffs + [Fraction(0)] * (order + 1 - len(coeffs))
        if len(coeffs) != order + 1:
            raise ValueError("coefficient list longer than the truncation order")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @classmethod
    def zero(cls, order):
        return cls(order, [])

    @classmethod
    def from_polynomial(cls, coeffs, order):
        """Series of an exact polynomial, zero-padded to the given order."""
        if len(coeffs) > order + 1 and any(c != 0 for c in coeffs[order + 1 :]):
            raise ValueError("polynomial degree exceeds the truncation order")
        return cls(order, list(coeffs[: order + 1]))

    def __getitem__(self, d):
        if not 0 <= d <= self.order:
            raise IndexError(f"coefficient {d} beyond truncation order {self.order}")
        return self.coeffs[d]

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        d = min(self.order, other.order)
        return PowerSeries(d, [self.coeffs[i] + other.coeffs[i] for i in range(d + 1)])

    def __sub__(self, other):
        other = self._coerce(other)
        d = min(self.order, other.order)
        return PowerSeries(d, [self.coeffs[i] - other.coeffs[i] for i in range(d + 1)])

    def __neg__(self):
        return PowerSeries(self.order, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ParamPoly)):
            return PowerSeries(self.order, [c * other for c in self.coeffs])
        d = min(self.order, other.order)
        out = [Fraction(0)] * (d + 1)
        for i, a in enumerate(self.coeffs[: d + 1]):
            if a == 0:
                continue
            for j in range(0, d + 1 - i):
                b = other.coeffs[j]
                if b == 0:
                    continue
                out[i + j] = out[i + j] + a * b
        return PowerSeries(d, out)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, PowerSeries):
            return other
        return PowerSeries(self.order, [other])

    def shift(self, k):
        """Multiply by t^k (coefficients beyond the order are dropped)."""
        if k > self.order:
            return PowerSeries.zero(self.order)
        return PowerSeries(self.order, [Fraction(0)] * k + list(self.coeffs[: self.order + 1 - k]))

    def specialize(self, assignments):
        return PowerSeries(
            self.order, [coeff_substitute(c, assignments) for c in self.coeffs]
        )

    def __str__(self):
        parts = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                parts.append(str(c))
            else:
                parts.append(f"({c})*t^{d}")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def sqrt_series(order):
    """Power series of sqrt(1+u) to the given order, exact.

    Coefficient of u^n is binomial(1/2, n); squaring the result returns
    1 + u modulo u^(order+1).
    """
    coeffs = [Fraction(1)]
    for n in range(1, order + 1):
        coeffs.append(coeffs[-1] * (Fraction(1, 2) - (n - 1)) / n)
    return PowerSeries(order, coeffs)


def series_substitute(outer, inner, order):
    """Compose outer(inner(t)) truncated at the given order.

    The inner series must have zero constant term, so that finitely many of
    its powers contribute.  When the inner valuation is v, outer coefficients
    up to floor(order/v) are needed (and checked for).
    """
    if inner.coeffs[0] != 0:
        raise ValueError("inner series must have zero constant term")
    val = next((d for d, c in enumerate(inner.coeffs) if c != 0), None)
    if val is None:
        return PowerSeries(order, [outer.coeffs[0]])
    top = order // val
    if outer.order < top:
        raise ValueError("outer series truncated below the required order")
    inner = PowerSeries(order, inner.coeffs[: order + 1])
    # Horner from the top contributing coefficient down.
    result = PowerSeries(order, [outer.coeffs[top]])
    for d in range(top - 1, -1, -1):
        result = result * inner + PowerSeries(order, [outer.coeffs[d]])
    return result


def regularize(series):
    """Scale c_d by d! (the regularized generating function)."""
    return PowerSeries(
        series.order, [factorial(d) * c for d, c in enumerate(series.coeffs)]
    )


def first_mismatch(a, b, order):
    """First order <= ``order`` where two series differ, or None when equal."""
    if a.order < order or b.order < order:
        raise ValueError("series are truncated below the comparison order")
    for d in range(order + 1):
        if a.coeffs[d] != b.coeffs[d]:
            return d
    return None
