"""Sparse exact polynomials: the shared core and ParamPoly.

SparsePoly is the one immutable map {exponent tuple: nonzero coefficient}
behind ParamPoly, laurent.LaurentPolynomial and cox.CoxPolynomial.  It owns
the constructor clean-up (exponents to int tuples, arity check, zero
coefficients dropped), the product loop over two term maps and the term
printer; it never converts a coefficient.  Its base, errors.Record, makes it
immutable.  The wrappers name the exponent coordinates and add their own
checks.

ParamPoly is a polynomial over Q in named parameters with Fraction
coefficients.  Arithmetic interoperates with plain ints and Fractions, so
series and Laurent-polynomial code can hold either numbers or ParamPoly
coefficients without special cases.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from numbers import Rational

from .errors import Record, WorkBudgetExceeded


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Rational):
        return Fraction(x)
    raise TypeError(f"expected a rational number, got {type(x).__name__}")


class SparsePoly(Record):
    """Immutable {exponent tuple: coefficient} with no zero coefficients.

    Subclasses name a last field ``terms`` after their own and call
    ``_set_terms`` once from their constructor.
    """

    def _set_terms(self, terms, arity, axes):
        clean = {}
        for e, c in dict(terms).items():
            e = tuple(map(int, e))
            if len(e) != arity:
                raise ValueError(f"exponent arity does not match {axes}")
            if c:
                clean[e] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, terms, *fields):
        """An instance over ``terms`` as given, with ``fields`` for the fields
        before ``terms``: for term maps built here, on int exponent tuples of
        the right arity with no zero coefficient, so nothing is checked."""
        self = object.__new__(cls)
        self.__dict__.update(zip(cls._fields, (*fields, terms)))
        return self

    def _product_terms(self, other):
        """Term map of self * other; exponents add, coefficients multiply."""
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prev = out.get(e)
                out[e] = c1 * c2 if prev is None else prev + c1 * c2
        return out


def terms_str(items, names):
    """Render (exponent, coefficient) pairs in the given order as a sum.

    Monomials print as ``x^2*y`` over the given names (exponents >= 0), unit
    coefficients are dropped, and a non-constant ParamPoly coefficient is
    parenthesized when it has several terms.
    """
    parts = []
    for e, c in items:
        mono = "*".join([name if k == 1 else f"{name}^{k}" for name, k in zip(names, e) if k > 0])
        cs = str(c)
        if isinstance(c, ParamPoly) and not c.is_constant():
            cs = cs if ("+" not in cs and " - " not in cs) else f"({cs})"
            parts.append(f"{cs}*{mono}" if mono else cs)
        elif not mono:
            parts.append(cs)
        elif cs == "1":  # str(c) is "1" or "-1" exactly when c is 1 or -1
            parts.append(mono)
        elif cs == "-1":
            parts.append(f"-{mono}")
        else:
            parts.append(f"{cs}*{mono}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


class ParamPoly(SparsePoly):
    params: tuple
    terms: dict

    def __init__(self, params, terms):
        object.__setattr__(self, "params", tuple(params))
        self._set_terms(
            ((e, _as_fraction(c)) for e, c in dict(terms).items()),
            len(self.params),
            "parameters",
        )

    @classmethod
    def constant(cls, value, params=()):
        params = tuple(params)
        z = (0,) * len(params)
        return cls(params, {z: _as_fraction(value)})

    @classmethod
    def variable(cls, name, params):
        params = tuple(params)
        e = tuple(1 if p == name else 0 for p in params)
        if sum(e) != 1:
            raise ValueError(f"unknown parameter {name!r}")
        return cls._trusted({e: Fraction(1)}, params)

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return all(all(k == 0 for k in e) for e in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        z = (0,) * len(self.params)
        return self.terms.get(z, Fraction(0))

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _aligned(a, b):
        """Bring two operands onto one parameter list (constants promote)."""
        if not isinstance(b, ParamPoly):
            return a, ParamPoly.constant(_as_fraction(b), a.params)
        if a.params == b.params:
            return a, b
        if b.is_constant():
            return a, ParamPoly.constant(b.constant_value(), a.params)
        if a.is_constant():
            return ParamPoly.constant(a.constant_value(), b.params), b
        raise ValueError("parameter lists differ")

    def __add__(self, other):
        a, b = ParamPoly._aligned(self, other)
        out = dict(a.terms)
        for e, c in b.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return ParamPoly(a.params, out)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly(self.params, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, ParamPoly) else -_as_fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = ParamPoly._aligned(self, other)
        return ParamPoly(a.params, a._product_terms(b))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = ParamPoly.constant(1, self.params)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, ParamPoly):
            if self.params == other.params:
                return self.terms == other.terms
            if self.is_constant() and other.is_constant():
                return self.constant_value() == other.constant_value()
            return False
        if isinstance(other, (int, Fraction, Rational)):
            return self.is_constant() and self.constant_value() == _as_fraction(other)
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.params, frozenset(self.terms.items())))

    # -- substitution -------------------------------------------------------

    def substitute(self, assignments):
        """Substitute rational values for a subset of the parameters.

        Returns a ParamPoly in the remaining parameters (possibly constant).
        """
        assignments = {k: _as_fraction(v) for k, v in assignments.items()}
        unknown = assignments.keys() - set(self.params)
        if unknown:
            raise ValueError(f"unknown parameters {sorted(unknown)}")
        values = [assignments.get(p) for p in self.params]
        keep = [i for i, v in enumerate(values) if v is None]
        out = {}
        for e, c in self.terms.items():
            for v, k in zip(values, e):
                if k and v is not None:
                    c *= v if k == 1 else v**k
            key = tuple([e[i] for i in keep])
            out[key] = out[key] + c if key in out else c
        return ParamPoly._trusted(
            {e: c for e, c in out.items() if c}, tuple(self.params[i] for i in keep)
        )

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        return terms_str(sorted(self.terms.items(), reverse=True), self.params)

    __repr__ = __str__


def coeff_substitute(c, assignments):
    """Substitute into a mixed coefficient; collapses constants to Fraction."""
    if isinstance(c, ParamPoly):
        out = c.substitute(assignments)
        return out.constant_value() if not out.params else out
    return _as_fraction(c)


def parse_rational(text):
    """Fraction(text), except that a decimal exponent past Python's int-string
    limit raises WorkBudgetExceeded before 10**exponent is built."""
    num, slash, den = text.partition("/")
    if (num[1:] if num[:1] in ("-", "+") else num).isdecimal() and (
            not slash or den.isdecimal()):
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    limit, (_, e, exp) = sys.get_int_max_str_digits(), text.lower().rpartition("e")
    try:
        if e and 0 < limit < abs(int(exp)):
            raise WorkBudgetExceeded(
                f"a decimal exponent past {limit}, Python's limit for int-string conversion")
    except ValueError:  # no exponent there: Fraction(text) decides
        pass
    return Fraction(text)


def parse_coeff(text, params):
    """Parse a JSON coefficient string: a parameter name, or a rational literal
    as Fraction reads it, an optionally signed integer, p/q or a decimal with
    an optional exponent (``-3``, ``3/4``, ``1e3``, ``-2.5e-2``).  A decimal
    exponent past Python's int-string limit (``sys.get_int_max_str_digits()``,
    4300 by default) raises WorkBudgetExceeded at once; other text that is
    not a rational raises ValueError."""
    text = str(text).strip()
    if text in params:
        return ParamPoly.variable(text, params)
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        shown = repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"
        raise ValueError(f"cannot parse coefficient {shown}") from None
