"""Laurent polynomials and the classical period.

A LaurentPolynomial is a symbolic.SparsePoly over ``dim`` coordinates: it maps
integer exponent vectors to nonzero coefficients (Fractions or ParamPoly),
and takes its clean-up, immutability and product loop from that core.  The
classical period of f is the generating function of the constant terms of
its powers: pi_f(t) = sum_k [const term of f^k] t^k.

classical_period takes the constant terms from half the powers: with K =
order and a = floor(k/2), const(f^k) = sum_e [f^a]_e * [f^(k-a)]_(-e), so
f^1 .. f^J, J = ceil(K/2), give every constant term through t^K, two powers
held at a time.  Each power is a set of rows of packed fields:

* Frame.  A unimodular change of exponents, which keeps the period, makes
  the field axis x run along a primitive difference v of two exponents with
  the fewest lines along it (two exponents share a line when their 2 x 2
  minors with v agree), so every power fills whole runs of fields.  If
  f's terms lie far apart along that axis, so that rows would hold mostly
  zero fields, a zero axis goes in front instead and each row is one field.
* Rows.  Each ParamPoly coefficient c(a) of x^e is flattened into its terms
  q * x^e * a^alpha, scaled to ints by the lcm D of every denominator
  (const(f^k) = const((D f)^k) / D^k) as numerator * (D / denominator).
  A power maps a row key, the other coordinates and alpha packed in
  balanced base 2R + 1 (R = K times their largest size in f: injective and
  linear), to [lo, row], where the coefficient of x^(lo + i) is the signed
  field i of w bits of the int row.
  w is a multiple of 64 above bit_length(L^J), L = sum |D c|, or above
  bit_length(L^(2J)) when rows pair by products (below), so every field,
  partial sums included, is below 2^(w-1) in size.  A step adds row * G,
  one C multiply-add, for each group G of f's terms sharing a key.
* Prune.  x^e in f^j is kept only if -l(e) <= (K - j) * h_l, h_l = max l
  over the support of f, for each functional l (the Newton polygon's edge
  normals in dimension 2, their extremes read off its vertices, else the
  +-unit vectors, off one coordinate each): a kept term of f^j
  needs only kept terms of f^(j-1).  A rounding shift below and a balanced
  mask above cut a row to its x range.  If some h_l < 0 the origin is
  outside Newt(f) and every coefficient after the first is 0.
* Pairing.  Row r of f^a pairs with row -r of f^b, parameter parts adding,
  if their x ranges meet at x = 0: lo_a + lo_b <= 0 <= hi_a + hi_b, one
  test on the (parameter part, lo, hi, ...) rows of both pairings, f^0 too.
  If a row of f^J holds at most ROW_FIELDS fields (the frame's bound), each
  such pair is one int product, whose field at x = 0 a rounding shift and a
  balanced mask read, with no decode.  Longer rows are decoded, each power
  once, all its rows in one pass: a bias sets each field's top bit, flipping
  it back leaves the field in two's complement, the joined bytes are read as
  64-bit limbs, and a row is a slice of one field tuple, also reversed; a
  pair is one slice and one sum(map(mul, ...)).  f^J keeps only rows that
  meet a row of f^(J-1) or of f^J.  Each coefficient is one Fraction per
  parameter monomial, put into a ParamPoly with no check beyond dropping zeros.
* Budget.  The work, rows x fields x w over the J powers, is at most J * w
  times bounds on f^J, found before the first power: its rows (monomials
  of degree J in f's row keys, or its parameter exponents times its lines)
  and the fields of a row (J times the longest chord of Newt(f) along x,
  plus 1), w from J * bit_length(L), or 2J * bit_length(L) for products, the
  width held.  Over MAX_FIELD_BITS it raises WorkBudgetExceeded.

laurent_from_json and specialize, like the kernel's output, build the
polynomial from terms they have checked or made, dropping only zeros.

edge_binomial_skeleton builds the standard coefficient pattern on a Fano
polygon: 1 at vertices, binomial(l, j) at the j-th interior lattice point of
an edge of lattice length l, a fresh named parameter at each strictly
interior lattice point, and 0 at the origin.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import comb, gcd, lcm, prod
from operator import add, mul, neg, sub
from sys import byteorder

from .errors import SchemaError, WorkBudgetExceeded, json_ints, json_list
from .linalg import det, identity, is_unimodular, mat_vec, snf, transpose, vec_sub
from .polygon import classify_lattice_point, convex_hull, lattice_points
from .series import PowerSeries
from .symbolic import ParamPoly, SparsePoly, coeff_substitute, parse_coeff

# Most field bits classical_period may hold, summed over the powers it builds:
# at most 5.2 * 10^8 for the paper's f at order 100, so that runs.
MAX_FIELD_BITS = 10**10
# The fixed cost of a row in fields, when the frame is chosen: a row step and
# a row pair take a few dict operations and calls next to the per-field work.
# Rows of at most this many fields pair by int products instead of a decode.
ROW_FIELDS = 16
# A series coefficient costs about 190 bytes in a CLI run, counted as these field
# bits where f needs no kernel; the kernel's budget bounds its series (w > half).
COEFF_BITS = 8 * 192


class LaurentPolynomial(SparsePoly):
    dim: int
    params: tuple
    terms: dict

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
        terms = ((e, coeff_substitute(c, assignments)) for e, c in self.terms.items())
        return LaurentPolynomial._trusted(
            {e: c for e, c in terms if c},
            self.dim,
            tuple(p for p in self.params if p not in assignments),
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


def _support_bounds(support, hull):
    """(l, max of l, min of l) over ``support`` for each pruning functional l: the
    edge normals of ``hull``, its counterclockwise hull or (), else or for a
    flat hull the +-unit vectors.  A linear l takes its extremes at vertices
    of the hull, and a unit vector's are those of a coordinate."""
    ls = [(a[1] - b[1], b[0] - a[0]) for a, b in zip(hull, hull[1:] + hull[:1])]
    out = [(l, max(v), min(v)) for l in ls for v in ([l[0] * x + l[1] * y for x, y in hull],)]
    if len(hull) < 3 and support:
        for u, c in zip(identity(len(support[0])), zip(*support)):
            out += [(u, max(c), min(c)), (tuple(map(neg, u)), -min(c), -max(c))]
    return out


def _flat_terms(f):
    """(e + alpha, q) for the terms q * x^e * a^alpha of f, alpha over f.params."""
    zeros = (0,) * len(f.params)
    for e, c in f.terms.items():
        if not isinstance(c, ParamPoly):
            yield e + zeros, c if isinstance(c, Fraction) else Fraction(c)
            continue
        if (names := c.params) != f.params:
            for p in set(names) - set(f.params):
                raise ValueError(f"coefficient parameter {p!r} is not in {list(f.params)}")
        for a, q in c.terms.items():  # a ParamPoly's coefficients are Fractions
            yield e + (a if names == f.params else tuple(
                map(dict(zip(names, a)).get, f.params, repeat(0)))), q


def _chord(hull):
    """At least the longest segment of the polygon ``hull`` along the first
    axis: the width is concave in the level, so it peaks at a vertex's, and
    each vertex ends a slanted edge unless the polygon is a level segment."""
    edges = [(a, b) for a, b in zip(hull, hull[1:] + hull[:1]) if a[1] != b[1]]
    best = max(p[0] for p in hull) - min(p[0] for p in hull) if not edges else 0
    for r in {p[1] for p in hull} if edges else ():
        xs = [a[0] + q + k for a, b in edges if (a[1] - r) * (b[1] - r) <= 0
              for q, m in (divmod((b[0] - a[0]) * (r - a[1]), b[1] - a[1]),) for k in (0, m > 0)]
        best = max(best, max(xs) - min(xs))
    return best


def _row_frame(f, flat, half):
    """(frame, rows, fields, hull): frame = {e: U e} over the exponents of f, U
    unimodular with U v = e_0 for a field axis v, or {e: (0,) + e} for a zero
    axis, upper bounds on the rows and on the fields per row of f^half, and in
    dimension 2 with a field axis the convex hull of the framed support (the
    image of f's under U, counterclockwise from its least point), else ().

    v is the primitive difference of two exponents (a hull edge in dimension
    2, else a unit vector or one of the eight shortest differences from the
    least exponent) with the fewest lines along it through the support, told
    apart by their 2 x 2 minors with v, shorter v first; the candidates are
    few, so this is linear in the support.  A zero axis replaces v when it
    costs less work, rows x groups x (ROW_FIELDS + fields x width), a step
    multiplying each row by each group of f and the fields of a row
    estimated as half times the widest group.  Rows are at most the
    monomials of degree ``half`` in f's row keys, and at most its parameter
    exponents times the fewer of the monomials of degree ``half`` in f's
    lines and the box of the rest coordinates.  A row of f^half lies in half * Newt(f), so it
    spans at most half times the longest chord of Newt(f) along v (in
    dimension 2; else along x), plus 1."""
    support, dim = list(f.terms), f.dim
    hull = convex_hull(support) if dim == 2 else ()
    cands = {max(v, (-v[0], -v[1])) for a, b in zip(hull, hull[1:] + hull[:1]) if a != b
             for g in (gcd(b[0] - a[0], b[1] - a[1]),)
             for v in (((b[0] - a[0]) // g, (b[1] - a[1]) // g),)}
    if dim != 2:
        low = min(support)
        cands = set(identity(dim)) | set(sorted(
            (v for s in support if s != low and gcd(*(v := vec_sub(s, low))) == 1),
            key=lambda v: (sum(map(abs, v)), v))[:8])
    cols = list(zip(*support))

    def lines(v):  # s - s' is in Z v, for a primitive v, when their minors agree
        p = v.index(next(filter(None, v)))
        minors = zip(*(map(sub, map(v[p].__mul__, c), map(k.__mul__, cols[p]))
                       for k, c in zip(v, cols)))
        return len(set(minors)), sum(map(abs, v)), tuple(map(neg, v))

    top = max((sum(e[dim:]) for e, _ in flat), default=0)
    pbox = comb(half * top + len(f.params), half * top)

    def rows(keys, nlines, exts):
        return min(comb(half + keys - 1, half), pbox * min(
            comb(half + nlines - 1, half), prod(half * x + 1 for x in exts)))
    zero = rows(len(flat), len(support), [max(c) - min(c) for c in cols])
    if not cands:
        return {e: (0,) + e for e in support}, zero, 1, ()
    nlines, _, v = min(map(lines, cands))  # lines() ends with -v, the tie-break
    if turned := (v := tuple(map(neg, v))) != (1,) + (0,) * (dim - 1):
        _, U, V = snf(transpose([v]))
        U = [tuple(V[0][0] * c for c in U[0])] + list(U[1:])
        cols = [[sum(map(mul, r, e)) for e in support] for r in U]
    img, groups = dict(zip(support, zip(*cols))), {}
    for e, _ in flat:
        u = img[e[:dim]]
        groups.setdefault(u[1:] + e[dim:], []).append(u[0])
    width = max(max(xs) - min(xs) for xs in groups.values())
    n = rows(len(groups), nlines, [max(c) - min(c) for c in cols[1:]])
    if zero * len(flat) * (ROW_FIELDS + 1) < n * len(groups) * (
            ROW_FIELDS + (half * width + 1) * (width + 1)):
        return {e: (0,) + e for e in support}, zero, 1, ()
    if hull and turned:  # its image under U, kept counterclockwise from the least point
        hull = [img[e] for e in hull][:: 1 if len(hull) < 3 or det(U) > 0 else -1]
        hull = tuple(hull[(i := hull.index(min(hull))) :] + hull[:i])
    chord = _chord(hull) if hull else max(cols[0]) - min(cols[0])
    return img, n, half * chord + 1, hull


def _row_step(power, groups, w, cut):
    """power * f, {row key: [lo, row]}: each row * G, for (key offset, lo, G)
    in ``groups``, added into its target row at that row's lowest lo so far,
    and each row cut to the x range ``cut`` gives (None drops it)."""
    acc = {}
    for key, (lo, row) in power.items():
        for dr, ex, g in groups:
            cur = acc.get(key + dr)
            if cur is None:
                acc[key + dr] = [lo + ex, row * g]
            elif lo + ex >= cur[0]:
                cur[1] += row * g << w * (lo + ex - cur[0])
            else:
                cur[:] = lo + ex, (cur[1] << w * (cur[0] - lo - ex)) + row * g
    for k, cur in acc.items() if cut else ():
        lo, hi = cut(k) or (cur[0], cur[0] - 1)
        if lo > cur[0]:  # a rounding shift drops the fields below lo
            cur[:] = lo, (cur[1] + (1 << w * (lo - cur[0]) - 1)) >> w * (lo - cur[0])
        half = 1 << w * (hi - cur[0] + 1) - 1 if hi >= cur[0] else 0
        cur[1] = ((cur[1] + half) & (2 * half - 1)) - half if half else 0
    return {k: cur for k, cur in acc.items() if cur[1]}


def _decoded(power, w, rest_part):
    """{rest part: [(parameter part, lo, hi, fields, fields reversed)]}: every
    row of a power, in power order, decoded in one pass over its own x range
    [lo, hi], each a slice of one tuple of the power's fields.  The unsigned
    lower limbs of a field go under its signed top limb by maps."""
    m, biases, raw = w // 64, {}, []
    for lo, row in power.values():
        n = row.bit_length() // w + 1
        if (bias := biases.get(n)) is None:
            bias = biases[n] = int.from_bytes((bytes(w // 8 - 1) + b"\x80") * n, "little")
        raw.append(((row + bias) ^ bias).to_bytes(n * w // 8, "little"))
    step = -1 if byteorder == "big" else 1  # reversed bytes read natively: the limbs reversed
    limbs = memoryview(b"".join(raw)[::step])
    fields, unsigned = limbs.cast("q")[::step], limbs.cast("Q")[::step]
    if m > 1:
        fields = fields[m - 1 :: m]
        for t in reversed(range(m - 1)):
            fields = map(add, map(mul, fields, repeat(1 << 64)), unsigned[t::m])
    fields = tuple(fields)
    rev, i, j, groups = fields[::-1], 0, len(fields), {}
    for (k, (lo, _)), b in zip(power.items(), raw):
        n = len(b) * 8 // w
        groups.setdefault(rp := rest_part(k), []).append(
            (k - rp, lo, lo + n - 1, fields[i : i + n], rev[j - n : j]))
        i, j = i + n, j - n
    return groups


def _paired(a, b):
    """{parameter part: sum over x of a row of a times a row of b at -x}, a and b
    decoded powers.  Groups pair by opposite rest parts, once if a is b, and
    rows only if their x ranges meet, as in _products.  The side that starts
    first is sliced to where the other starts, and map stops at the end of
    the shorter."""
    sums = {}
    for rp, ra in a.items():
        if (a is b and rp < 0) or (rb := b.get(-rp)) is None:
            continue
        twice = 1 + (a is b and rp != 0)
        for pa, la, ha, fa, _ in ra:
            for pb, lb, hb, _, r in rb:
                if la + lb <= 0 <= ha + hb and (d := sum(
                        map(mul, fa[-s:], r) if (s := la + hb) < 0 else map(mul, fa, r[s:]))):
                    sums[pa + pb] = sums.get(pa + pb, 0) + twice * d
    return sums


def _grouped(power, w, rest_part):
    """{rest part: [(parameter part, lo, hi, row)]}: each row of a power with its
    x range [lo, hi], hi read off the row's bit length."""
    groups = {}
    for k, (lo, row) in power.items():
        rp = rest_part(k)
        groups.setdefault(rp, []).append((k - rp, lo, lo + row.bit_length() // w, row))
    return groups


def _products(a, b, w, reads):
    """_paired on grouped powers, with no decode: each pair of rows whose x
    ranges can meet at x = 0 is one int product p, and their sum at x = 0 is
    p's field n = -lo_a - lo_b, read by a rounding shift and a balanced mask,
    reads[n] = (half of 2^s plus the bias of field n, s = n w); w holds every
    field of f^a * f^b, so those below cannot carry into it."""
    sums, mask, bias = {}, (1 << w) - 1, 1 << w - 1
    for rp, ra in a.items():
        if (a is b and rp < 0) or (rb := b.get(-rp)) is None:
            continue
        twice = 1 + (a is b and rp != 0)
        for pa, la, ha, x in ra:
            for pb, lb, hb, y in rb:
                if la + lb <= 0 <= ha + hb:
                    r, s = reads[-la - lb]
                    if d := ((x * y + r) >> s & mask) - bias:
                        sums[pa + pb] = sums.get(pa + pb, 0) + twice * d
    return sums


def _budget(order, work):
    if work > MAX_FIELD_BITS:
        raise WorkBudgetExceeded(f"the classical period to order {order} would hold up to "
                                 f"{work} field bits, over the limit of {MAX_FIELD_BITS}")


def classical_period(f, order):
    """Series of constant terms of f^k, k = 0..order, exact at every order,
    from f^1 .. f^ceil(order/2) as the module docstring says.  A zero constant
    term is Fraction(0).  Raises WorkBudgetExceeded over MAX_FIELD_BITS."""
    flat, coeffs, half = list(_flat_terms(f)), [Fraction(1)], (order + 1) // 2
    if not flat:
        _budget(order, (order + 1) * COEFF_BITS)
        return PowerSeries(order, coeffs)
    frame, max_rows, max_fields, hull = _row_frame(f, flat, half)
    scale = lcm(*(q.denominator for _, q in flat))
    flat = [(frame[e[: f.dim]] + e[f.dim :], q.numerator * (scale // q.denominator))
            for e, q in flat]
    dim, bounds = len(flat[0][0]) - len(f.params), _support_bounds(list(frame.values()), hull)
    if any(h < 0 for _, h, _ in bounds):  # the origin is outside Newt(f)
        _budget(order, (order + 1) * COEFF_BITS)
        return PowerSeries(order, coeffs)
    products = max_fields <= ROW_FIELDS  # then fields hold f^a * f^b, a + b <= 2 half
    size, top = sum(abs(c) for _, c in flat), 2 * half if products else half
    w = 64 * (top * size.bit_length() // 64 + 1)  # at least the exact w below
    _budget(order, half * w * max_rows * max_fields)
    w = 64 * ((size**top).bit_length() // 64 + 1)  # exact, now that the budget bounds half
    base = 2 * max(order * max((abs(k) for e, _ in flat for k in e[1:]), default=0), 1) + 1
    mod, rows = base ** (dim - 1), {}
    digits = [base**i for i in range(dim - 1 + len(f.params))]
    for e, c in flat:
        rows.setdefault(sum(map(mul, e[1:], digits)), []).append((e[0], c))
    groups = [(dr, lo, sum([c << w * (x - lo) for x, c in ts]))
              for dr, ts in rows.items() for lo in (min(ts)[0],)]
    off = mod // 2
    rest_part = (lambda k: (k + off) % mod - off) if f.params else (lambda k: k)
    digits = digits[dim - 1 :]

    def cuts(room, memo):  # k -> the x range of row k in the pruned region, by rest part
        def cut(k):
            if (rp := rest_part(k)) not in memo:  # balanced digits, read by rounding
                rest = [((rp + base**i // 2) // base**i + base // 2) % base - base // 2
                        for i in range(dim - 1)]
                cs = [(l[0], -room * h - sum(map(mul, l[1:], rest))) for l, h, _ in bounds]
                memo[rp] = None if any(c > 0 for l0, c in cs if l0 == 0) else (
                    max(-(-c // l0) for l0, c in cs if l0 > 0),
                    min(c // l0 for l0, c in cs if l0 < 0))
            return memo[rp]
        return cut

    def emit(sums, k):
        if not f.params:
            return Fraction(sums.get(0, 0), scale**k)
        d = scale**k
        out = {tuple([s // t % base for t in digits]): Fraction(c, d) for s, c in sums.items() if c}
        return ParamPoly._trusted(out, f.params) if out else Fraction(0)

    if products:  # reads[n] reads field n of a product of two rows of at most max_fields
        reads = [((1 << s >> 1) + (1 << w - 1 << s), s) for s in range(0, 2 * w * max_fields, w)]
    view, power = _grouped if products else _decoded, {0: [0, 1]}
    prev = view(power, w, rest_part)  # f^0
    for j in range(1, half + 1):  # the last power only pairs, so it is not pruned
        prune = j < half and any(-j * low > (order - j) * h for _, h, low in bounds)
        power = _row_step(power, groups, w, prune and cuts(order - j, {}))
        if j == half:  # then a row meets only rows of f^(j-1) and of f^j
            near = {*prev, *(rps := list(map(rest_part, power)))}
            power = {k: r for (k, r), rp in zip(power.items(), rps) if -rp in near}
        cur = view(power, w, rest_part)
        for k, low in ((2 * j - 1, prev), (2 * j, cur)):
            if k <= order:
                pairs = _products(cur, low, w, reads) if products else _paired(cur, low)
                coeffs.append(emit(pairs, k))
        prev = cur
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
        if not isinstance(p, str):
            raise SchemaError(f"parameter names must be strings, got {p!r}")
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
    return LaurentPolynomial._trusted({e: c for e, c in terms.items() if c}, dim, params)


def laurent_to_json(f):
    out = []
    for e in sorted(f.terms, reverse=True):
        out.append({"exp": list(e), "coeff": str(f.terms[e])})
    return {"params": list(f.params), "terms": out}
