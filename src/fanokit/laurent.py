"""Laurent polynomials and the classical period.

A LaurentPolynomial is a symbolic.SparsePoly over ``dim`` coordinates: it maps
integer exponent vectors to nonzero coefficients (Fractions or ParamPoly),
and takes its clean-up, immutability and product loop from that core.  The
classical period of f is the generating function of the constant terms of
its powers: pi_f(t) = sum_k [const term of f^k] t^k.

classical_period takes the constant terms from half the powers.  With
K = order and a = floor(k/2), const(f^k) = sum_e [f^a]_e * [f^(k-a)]_(-e),
so f^1 .. f^J, J = ceil(K/2), give every constant term through t^K: once
f^j is built, the terms of f^(2j-1) and f^(2j) are read off, and f^(j-1)
is dropped, so at most two powers are held.  Each f^j is pruned to the
terms that can still pair with a power of index at most K - j: x^e is kept
only if -l(e) <= (K - j) * h_l, h_l = max l over the support of f, for every
pruning functional l (the +-unit vectors and, in dimension 2, the edge
normals of the Newton polygon).  The rule is sound for every l, and a
kept term of f^j only needs kept terms of f^(j-1).  If some h_l < 0 the
origin lies outside Newt(f), no e pairs with -e, and every coefficient
after the first is 0.

The parameters a of f are exponent coordinates too: a ParamPoly coefficient
c(a) of x^e is flattened into its terms q * x^e * a^alpha.  Each flat
exponent (e, alpha) is packed into one int, the sum of its coordinates
times B^i in balanced base B = 2R + 1, R = K * max |coordinate| over the
flat support of f (at least 1).  Every exponent of a power up to f^K has
coordinates in [-R, R], where balanced digits are unique, so pack is
injective there, and it is linear, so a product adds two ints.  Each kept
term also carries its margins m_l = l(e) + (K - j) * h_l >= 0 as fields of
one int (l is 0 on alpha); a product's margins are its factors' margins
plus the fields l(s) - h_l of the term s of f, so the prune test is one
addition and one mask per new term.  With D the lcm of every rational
coefficient, those inside ParamPolys included, the powers are those of
D*f on int coefficients, and const(f^k) = const((D*f)^k) / D^k.

Only the pairing sees the parameters.  Without them the partner of p is
-p.  With them each power is grouped once by x-part, p = px + B^dim * pa
with px balanced; the products of terms whose x-parts cancel are summed by
packed exponent, whose digits past the x-part are alpha, in [0, R], and
each sum is unpacked into one ParamPoly over f.params per order.

edge_binomial_skeleton builds the standard coefficient pattern on a Fano
polygon: 1 at vertices, binomial(l, j) at the j-th interior lattice point of
an edge of lattice length l, a fresh named parameter at each strictly
interior lattice point, and 0 at the origin.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import comb, gcd, lcm

from .errors import SchemaError, json_ints, json_list
from .linalg import dot, is_unimodular, mat_vec
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
    return [(l, max(dot(l, e) for e in f.terms)) for l in ls]


def _pack(e, base):
    """sum e_i * base**i: an exponent vector as one int in balanced ``base``."""
    return sum(k * base**i for i, k in enumerate(e))


def _fields(values, width):
    """sum v_i * 2**(width*i): one int holding ``values`` in fields of ``width`` bits."""
    return sum(v << (width * i) for i, v in enumerate(values))


def _flat_terms(f):
    """(e + alpha, q) for the terms q * x^e * a^alpha of f, alpha over f.params."""
    for e, c in f.terms.items():
        names, terms = (c.params, c.terms) if isinstance(c, ParamPoly) else ((), {(): c})
        for p in set(names) - set(f.params):
            raise ValueError(f"coefficient parameter {p!r} is not in {list(f.params)}")
        for a, q in terms.items():
            alpha = dict(zip(names, a))
            yield e + tuple(alpha.get(p, 0) for p in f.params), Fraction(q)


def _power_step(power, margins, g, mask):
    """The next power and its margins: the terms of power * g that stay in reach.

    ``power`` and ``margins`` map packed exponents to coefficients and
    packed margins, ``g`` lists (packed exponent, coefficient, packed
    l(s) - h_l) for the terms s of f.  A product term is kept when the
    offset top bit of each margin field, ``mask``, is still set (no margin
    went negative) and its coefficient is nonzero.
    """
    coeffs = {}
    kept = {}
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


def _paired_constant(a, b):
    """sum a[p] * b[-p], over the smaller of two packed term maps.

    When a is b (an even power) each pair p, -p is taken once and doubled.
    """
    if a is b:
        c0 = a.get(0, 0)
        return c0 * c0 + 2 * sum(c * a[-p] for p, c in a.items() if p > 0 and -p in a)
    if len(a) > len(b):
        a, b = b, a
    return sum(c * b[-p] for p, c in a.items() if -p in b)


def _by_x_part(power, xbase):
    """{px: [(p, c)]}: the terms of a power by x-part px, p = px + xbase * pa."""
    out = {}
    for p, c in power.items():
        out.setdefault((p + xbase // 2) % xbase - xbase // 2, []).append((p, c))
    return out


def _paired_params(a, b, denom, params, base, dim):
    """The ParamPoly (or Fraction(0)) of const_x(a * b) / denom, a and b by x-part."""
    sums = {}
    for px, low in a.items():
        for p, c in low:
            for q, d in b.get(-px, ()):
                sums[p + q] = sums.get(p + q, 0) + c * d
    digits = range(dim, dim + len(params))
    out = ParamPoly(params, {tuple(s // base**i % base for i in digits): Fraction(c, denom)
                             for s, c in sums.items()})
    return out if out.terms else Fraction(0)


def classical_period(f, order):
    """Series of constant terms of f^k, k = 0..order, exact at every order.

    Builds only f^1 .. f^ceil(order/2), pruned, on packed exponents, with
    the parameters of f as extra coordinates, and int coefficients, holding
    two powers at a time; the module docstring states the pairing, the
    prune rule, the packing, the scaling and the unpacking into ParamPoly
    coefficients.  A zero constant term is Fraction(0).
    """
    flat = list(_flat_terms(f))
    dim = f.dim  # the margins read the x-part of a flat exponent only
    scale = lcm(*(q.denominator for _, q in flat))
    bounds = _support_bounds(f)
    coeffs = [Fraction(1)]
    if any(h < 0 for _, h in bounds):
        return PowerSeries(order, coeffs)
    base = 2 * max(order * max((abs(k) for e, _ in flat for k in e), default=0), 1) + 1
    # Every h_l >= 0 from here on.  Margins of kept terms lie in
    # [0, order*h_l] and those of candidate products in
    # [-(h_l - min l), order*h_l], inside (-half, half): stored plus `half`,
    # every field stays in [0, 2*half), so no field borrows from the next,
    # and its top bit is set exactly when the margin is >= 0.
    spans = [h - min(dot(l, e) for e in f.terms) for l, h in bounds]
    half = 1 << max([order * h for _, h in bounds] + spans, default=0).bit_length()
    width = half.bit_length()
    mask = _fields([half] * len(bounds), width)
    g = [
        (_pack(e, base), int(q * scale), _fields([dot(l, e[:dim]) - h for l, h in bounds], width))
        for e, q in flat
    ]
    view, pair = (lambda power: power), (lambda a, b, d: Fraction(_paired_constant(a, b), d))
    if f.params:
        view = partial(_by_x_part, xbase=base**f.dim)
        pair = partial(_paired_params, params=f.params, base=base, dim=f.dim)
    raw, margins = {0: 1}, {0: _fields([order * h + half for _, h in bounds], width)}
    prev = view(raw)
    for j in range(1, (order + 1) // 2 + 1):
        raw, margins = _power_step(raw, margins, g, mask)
        power = view(raw)
        for k, low in ((2 * j - 1, prev), (2 * j, power)):
            if k <= order:
                coeffs.append(pair(low, power, scale**k))
        prev = power
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
    for i, p in enumerate(params):
        if p in params[:i]:
            raise SchemaError(f"repeated parameter {p!r}")
    terms = {}
    dim = None
    for item in json_list(data["terms"], "terms"):
        if not isinstance(item, dict) or "exp" not in item or "coeff" not in item:
            raise SchemaError("each term needs 'exp' and 'coeff'")
        e = json_ints(item["exp"], "exponent")
        dim = len(e) if dim is None else dim
        if len(e) != dim:
            raise SchemaError("inconsistent exponent arity")
        if e in terms:
            raise SchemaError(f"repeated exponent {list(e)}")
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
