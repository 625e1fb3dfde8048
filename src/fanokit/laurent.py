"""Laurent polynomials and the classical period.

A LaurentPolynomial is a symbolic.SparsePoly over ``dim`` coordinates: it maps
integer exponent vectors to nonzero coefficients (Fractions or ParamPoly),
and takes its clean-up, immutability and product loop from that core.  The
classical period of f is the generating function of the constant terms of
its powers: pi_f(t) = sum_k [const term of f^k] t^k.

classical_period multiplies out f, f^2, ..., f^order and prunes each power
to the terms that can still reach the constant term of f^order.  A term x^e
of f^k can only if -e lies in (order - k)*Newt(f), so for any linear
functional l it is dropped when -l(e) > (order - k) * max l(a) over the
support of f; that is sound for every l.  The functionals are the +-unit
vectors and, in dimension 2, the edge normals of the Newton polygon.  When
no coefficient is a ParamPoly, the loop runs on int coefficients: with D the
lcm of the coefficient denominators it powers D*f, and the constant term of
f^k is that of (D*f)^k divided by D^k.  Symbolic and partly specialized f
keep their coefficients and are only pruned.

edge_binomial_skeleton builds the standard coefficient pattern on a Fano
polygon: 1 at vertices, binomial(l, j) at the j-th interior lattice point of
an edge of lattice length l, a fresh named parameter at each strictly
interior lattice point, and 0 at the origin.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul

from .errors import SchemaError, json_ints, json_list
from .linalg import is_unimodular, mat_vec
from .polygon import classify_lattice_point, convex_hull, lattice_points
from .series import PowerSeries
from .symbolic import ParamPoly, SparsePoly, coeff_substitute, parse_coeff


class LaurentPolynomial(SparsePoly):
    __slots__ = ("dim", "params", "terms")

    def __init__(self, dim, params, terms):
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "params", tuple(params))
        self._set_terms(terms, self.dim, "the dimension")

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __mul__(self, other):
        return LaurentPolynomial(self.dim, self.params, self._product_terms(other))

    def constant_term(self):
        return self.terms.get((0,) * self.dim, Fraction(0))

    def specialize(self, assignments):
        return LaurentPolynomial(
            self.dim,
            tuple(p for p in self.params if p not in assignments),
            {e: coeff_substitute(c, assignments) for e, c in self.terms.items()},
        )

    def monomial_substitution(self, g):
        """Exponent change x^e -> x^(g e) for a unimodular matrix g."""
        if not is_unimodular(g):
            raise ValueError("change of variables must be unimodular")
        return LaurentPolynomial(
            self.dim, self.params, {mat_vec(g, e): c for e, c in self.terms.items()}
        )

    def __str__(self):
        parts = []
        for e in sorted(self.terms, reverse=True):
            mono = "*".join(
                f"x{i+1}^{k}" for i, k in enumerate(e) if k
            ) or "1"
            parts.append(f"({self.terms[e]})*{mono}")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def _dot(l, e):
    return sum(map(mul, l, e))


def _support_bounds(f):
    """Pairs (l, max of l over the support of f) for the pruning functionals.

    The functionals are the +-unit vectors and, in dimension 2, the edge
    normals of the Newton polygon; an f without terms needs none.
    """
    if not f.terms:
        return []
    ls = [tuple(s if j == i else 0 for j in range(f.dim)) for i in range(f.dim) for s in (1, -1)]
    if f.dim == 2:
        hull = convex_hull(f.terms)
        ls += [(a[1] - b[1], b[0] - a[0]) for a, b in zip(hull, hull[1:] + hull[:1]) if a != b]
    return [(l, max(_dot(l, e) for e in f.terms)) for l in ls]


def classical_period(f, order):
    """Series of constant terms of f^k, k = 0..order, exact at every order.

    Each power drops the terms that cannot reach the constant term of
    f^order, and is taken on int coefficients when f has no ParamPoly
    coefficient; the module docstring states both rules.  A constant term
    is dropped only when it is zero.
    """
    symbolic = any(isinstance(c, ParamPoly) for c in f.terms.values())
    scale = 1 if symbolic else lcm(*(Fraction(c).denominator for c in f.terms.values()))
    g = f if symbolic else LaurentPolynomial(
        f.dim, f.params, {e: int(c * scale) for e, c in f.terms.items()}
    )
    bounds = _support_bounds(g)
    coeffs = [Fraction(1)]
    power = LaurentPolynomial(f.dim, f.params, {(0,) * f.dim: 1})
    for k in range(1, order + 1):
        limits = [(l, -(order - k) * h) for l, h in bounds]
        terms = (power * g).terms
        power = LaurentPolynomial(f.dim, f.params, {
            e: c for e, c in terms.items() if all(_dot(l, e) >= m for l, m in limits)
        })
        c = power.constant_term()
        coeffs.append(c if symbolic else Fraction(c, scale**k))
    return PowerSeries(order, coeffs)


def edge_binomial_skeleton(P, param_prefix="p"):
    """Laurent polynomial skeleton supported on a Fano polygon.

    Vertices get coefficient 1, the j-th of the l-1 interior points of an
    edge of lattice length l gets binomial(l, j), strictly interior points
    get fresh parameters named <prefix>1, <prefix>2, ... in lexicographic
    point order, and the origin gets 0.
    """
    terms = {}
    interior = []
    for p in lattice_points(P):
        kind = classify_lattice_point(P, p)
        if kind == "interior" and p != (0, 0):
            interior.append(p)
    params = tuple(f"{param_prefix}{i+1}" for i in range(len(interior)))
    for i, p in enumerate(interior):
        terms[p] = ParamPoly.variable(params[i], params)
    for v in P.vertices:
        terms[v] = Fraction(1)
    for u, v in P.edges():
        d = (v[0] - u[0], v[1] - u[1])
        l = gcd(abs(d[0]), abs(d[1]))
        step = (d[0] // l, d[1] // l)
        for j in range(1, l):
            pt = (u[0] + j * step[0], u[1] + j * step[1])
            terms[pt] = Fraction(comb(l, j))
    return LaurentPolynomial(2, params, terms), {
        p: params[i] for i, p in enumerate(interior)
    }


def laurent_from_json(data):
    """Read {"params": [...], "terms": [{"exp": [...], "coeff": "..."}]}."""
    if not isinstance(data, dict) or "terms" not in data:
        raise SchemaError("laurent JSON needs a 'terms' list")
    params = tuple(json_list(data.get("params", []), "params"))
    terms = {}
    dim = None
    for item in json_list(data["terms"], "terms"):
        if not isinstance(item, dict) or "exp" not in item or "coeff" not in item:
            raise SchemaError("each term needs 'exp' and 'coeff'")
        e = json_ints(item["exp"], "exponent")
        dim = len(e) if dim is None else dim
        if len(e) != dim:
            raise SchemaError("inconsistent exponent arity")
        try:
            terms[e] = parse_coeff(item["coeff"], params)
        except ValueError as err:
            raise SchemaError(str(err)) from None
    if dim is None:
        raise SchemaError("empty Laurent polynomial")
    return LaurentPolynomial(dim, params, terms)


def laurent_to_json(f):
    out = []
    for e in sorted(f.terms, reverse=True):
        out.append({"exp": list(e), "coeff": str(f.terms[e])})
    return {"params": list(f.params), "terms": out}
