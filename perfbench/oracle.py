"""Independent checks of the package's outputs.

``Checker.observe`` runs inside the timed loop and only compares a job's
output with the first output seen for the same input, which is cheap.
``Checker.verify`` runs after the timed phase and checks each distinct output
against an oracle that shares no code with the package:

* classical periods are recomputed here with a pruned power loop (a term e
  of f^k is dropped unless -e lies in (K-k) Newt(f)), on int or Fraction
  coefficients;
* symbolic coefficients through t^4 are compared with a sympy expansion, and
  at every order by evaluating them at a seeded rational point;
* quantum periods must equal the classical period of the mirror Laurent
  polynomial (the paper's theorem) and start with the golden series;
* polygon invariants must agree between a polygon and its GL2(Z) image;
* scaffold checks must hold, and everything but the basis-dependent parts
  must agree with the paper-basis run.

Each failure names the job and the first disagreement.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial

from workloads import (
    PAPER_ASSIGN,
    PAPER_EQUATION,
    PAPER_HYPERSURFACE_EXP,
    PAPER_LAURENT_TERMS,
    PAPER_PARAMS,
    PAPER_SERIES,
    PAPER_W,
    convex_hull,
    cross2,
    mat_mul,
    mat_vec,
    newton_inequalities,
)

SYMPY_ORDER = 4


def constant_terms(f, order):
    """[constant term of f^k for k = 0..order] for a dict {(i, j): coeff}."""
    ineqs = newton_inequalities(list(f))
    power = {(0, 0): 1}
    out = [1]
    items = list(f.items())
    for k in range(1, order + 1):
        rest = order - k
        nxt = {}
        for (e0, e1), c in power.items():
            for (d0, d1), a in items:
                x = (e0 + d0, e1 + d1)
                nxt[x] = nxt.get(x, 0) + c * a
        power = {
            x: c
            for x, c in nxt.items()
            if c and all(-(n[0] * x[0] + n[1] * x[1]) >= rest * b for n, b in ineqs)
        }
        out.append(power.get((0, 0), 0))
    return out


def specialized_laurent(values, terms=PAPER_LAURENT_TERMS):
    """The paper's Laurent polynomial with every parameter given a value."""
    f = {}
    for e, c in terms:
        v = Fraction(values[c]) if c in values else Fraction(c)
        if v:
            f[tuple(e)] = v
    return f


def mirror_series(order):
    """Classical period of the paper's specialized polynomial, int arithmetic."""
    f = {e: int(c) for e, c in specialized_laurent(PAPER_ASSIGN).items()}
    return constant_terms(f, order)


def _series_values(block):
    return [Fraction(c) for c in block["coeffs"]]


def _first_diff(a, b):
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return None if len(a) == len(b) else min(len(a), len(b))


def section_exponents(W, cls):
    """All a >= 0 with W a = cls, for a weight matrix with positive column sums."""
    cols = list(zip(*W))
    weight = [sum(c) for c in cols]
    out = []

    def rec(i, rem, acc):
        if i == len(cols):
            if not any(rem):
                out.append(tuple(acc))
            return
        for a in range(sum(rem) // weight[i] + 1):
            rec(i + 1, [r - a * c for r, c in zip(rem, cols[i])], acc + [a])

    rec(0, list(cls), [])
    return sorted(out)


def polar_volume(vertices):
    """Normalized volume of the polar of a Fano polygon, exact."""
    hull = convex_hull(vertices)
    pol = []
    for u, v in zip(hull, hull[1:] + hull[:1]):
        d = cross2(u, v)
        pol.append((Fraction(u[1] - v[1], d), Fraction(v[0] - u[0], d)))
    return abs(sum(cross2(a, b) for a, b in zip(pol, pol[1:] + pol[:1])))


class Checker:
    """Collects one output per input during the loop and verifies them after."""

    def __init__(self):
        self.first = {}  # key -> (job, exit code, stdout, stderr)
        self.failures = []
        self._references = {}
        self._generic = None
        self._section_list = None

    def observe(self, job, code, out, err):
        """Record a job's result; False when it differs from an earlier run."""
        seen = self.first.get(job.key)
        if seen is None:
            self.first[job.key] = (job, code, out, err)
            return True
        if (code, out) != seen[1:3]:
            self.failures.append(f"{job.key}: output differs between runs of the same input")
            return False
        return True

    def verify(self):
        """Check every distinct output; returns the set of keys that failed."""
        bad = {}
        parsed = {}
        for key, (job, code, out, err) in self.first.items():
            if code != 0:
                bad[key] = f"exit code {code}: {err.strip()[:200]}"
                continue
            try:
                parsed[key] = json.loads(out)
            except json.JSONDecodeError as e:
                bad[key] = f"output is not JSON: {e}"
        checks = {
            "compare": self._check_compare,
            "quantum": self._check_quantum,
            "classical": self._check_classical,
            "polygon": self._check_polygon,
            "scaffold": self._check_scaffold,
        }
        for key, report in parsed.items():
            job = self.first[key][0]
            try:
                msg = checks[job.kind](job, report, parsed)
            except (KeyError, TypeError, ValueError, IndexError) as e:
                msg = f"malformed report: {type(e).__name__}: {e}"
            if msg:
                bad[key] = msg
        self.failures += [f"{k}: {m}" for k, m in sorted(bad.items())]
        return set(bad)

    # -- per kind -----------------------------------------------------------

    def _reference(self, order):
        if order not in self._references:
            self._references[order] = mirror_series(order)
        return self._references[order]

    def _sections(self):
        if self._section_list is None:
            self._section_list = section_exponents(PAPER_W, mat_vec(PAPER_W, PAPER_HYPERSURFACE_EXP))
        return self._section_list

    def _check_regularized(self, series, order):
        if len(series) != order + 1:
            return f"expected {order + 1} coefficients, got {len(series)}"
        d = _first_diff(series[: len(PAPER_SERIES)], list(PAPER_SERIES)[: order + 1])
        if d is not None:
            return f"regularized series differs from the paper's at t^{d}"
        d = _first_diff(series, self._reference(order))
        if d is not None:
            return f"regularized series differs from the mirror's classical period at t^{d}"
        return None

    def _check_compare(self, job, report, parsed):
        order = job.check["order"]
        if report["order"] != order or report["equal"] is not True:
            return "compare did not report equal"
        if report["first_mismatch"] is not None:
            return "compare reports a mismatch"
        q = _series_values(report["quantum_regularized"])
        c = _series_values(report["classical"])
        if q != c:
            return "equal reported but the series differ"
        return self._check_regularized(c, order)

    def _check_quantum(self, job, report, parsed):
        order = job.check["order"]
        reg = _series_values(report["regularized"])
        period = _series_values(report["period"])
        if [factorial(d) * c for d, c in enumerate(period)] != reg:
            return "regularized series is not d! times the period"
        return self._check_regularized(reg, order)

    def _check_classical(self, job, report, parsed):
        order = job.check["order"]
        symbolic = job.check["symbolic"]
        assign = job.check["assign"]
        coeffs = report["coeffs"]
        if report["order"] != order or len(coeffs) != order + 1:
            return "wrong truncation order"
        if report["symbolic"] != bool(symbolic):
            return "symbolic flag is wrong"
        values = dict(assign)
        if symbolic:
            values.update(job.check["probe"])
            got = [evaluate(c, values) for c in coeffs]
        else:
            got = [Fraction(c) for c in coeffs]
        want = constant_terms(specialized_laurent(values), order)
        d = _first_diff(got, want)
        if d is not None:
            return f"coefficient t^{d} disagrees with the independent kernel"
        if symbolic:
            d = self._sympy_mismatch(coeffs, assign)
            if d is not None:
                return f"symbolic coefficient t^{d} disagrees with the sympy expansion"
        return None

    def _sympy_mismatch(self, coeffs, assign):
        """First order <= SYMPY_ORDER where a symbolic output differs from sympy.

        sympy is imported here, after the timed loop, so it never counts in
        peak_rss_mb.  Without sympy the check is skipped; the evaluation at a
        rational point still covers every order.
        """
        try:
            import sympy
        except ImportError:
            return None

        if self._generic is None:
            self._generic = sympy_constant_terms(SYMPY_ORDER)
        generic = self._generic
        subs = {sympy.Symbol(p): sympy.Rational(v.numerator, v.denominator) for p, v in assign.items()}
        for k in range(min(SYMPY_ORDER, len(coeffs) - 1) + 1):
            got = sympy.sympify(coeffs[k])
            if sympy.expand(got - generic[k].subs(subs)) != 0:
                return k
        return None

    def _check_polygon(self, job, report, parsed):
        verts = job.check["vertices"]
        if sorted(tuple(v) for v in report["vertices"]) != sorted(verts):
            return "vertices differ from the input polygon"
        if Fraction(str(report["polar"]["normalized_volume"])) != polar_volume(verts):
            return "normalized volume of the polar is wrong"
        if len(report["singularities"]) != len(verts):
            return "one singularity record per edge expected"
        for other_key, other in parsed.items():
            if other_key == job.key or self.first[other_key][0].check.get("pair") != job.check["pair"]:
                continue
            for field in ("singularity_multiset", "k_polystable", "symmetry_order", "qg_dimension"):
                if report[field] != other[field]:
                    return f"{field} is not invariant under GL2(Z)"
            if report["polar"]["normalized_volume"] != other["polar"]["normalized_volume"]:
                return "polar volume is not invariant under GL2(Z)"
        return None

    def _check_scaffold(self, job, report, parsed):
        U = job.check["U"]
        W = mat_mul(U, PAPER_W)
        if report.get("hull_equals_target") is not True:
            return "hull does not equal the target"
        cox = report["cox"]
        if tuple(map(tuple, cox["weight_matrix"])) != W or cox["class_basis"] != "input":
            return "weight matrix is not the requested basis"
        if tuple(cox["anticanonical"]) != tuple(sum(r) for r in W):
            return "anticanonical class is not the row sum of the basis"
        hyp = report["hypersurface"]
        if tuple(hyp["class"]) != mat_vec(W, PAPER_HYPERSURFACE_EXP):
            return "hypersurface class is wrong"
        if hyp["equation"] != PAPER_EQUATION:
            return "hypersurface equation is not the paper's"
        if sorted(map(tuple, report["sections"])) != self._sections():
            return "section monomials are not those of the hypersurface class"
        if len(report["fan"]["rays"]) != 6 or len(report["fan"]["max_cones"]) != 8:
            return "fan does not have 6 rays and 8 maximal cones"
        if ("fiber_check" in report) != job.check["fiber"]:
            return "fiber check missing or unexpected"
        if job.check["fiber"] and report["fiber_check"]["verified"] is not True:
            return "fiber avoidance not verified"
        if ("irrelevant_product_check" in report) != job.check["product"]:
            return "irrelevant product check missing or unexpected"
        if job.check["product"] and report["irrelevant_product_check"] is not True:
            return "irrelevant ideal does not match the product"
        ref = next(
            (r for k, r in parsed.items()
             if self.first[k][0].kind == "scaffold" and self.first[k][0].check["U"] == ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
            None,
        )
        if ref is not None:
            for part in ("qs", "fan", "sections", "family", "charts"):
                if report[part] != ref[part]:
                    return f"{part} changed with the class basis"
            if cox["irrelevant_generators"] != ref["cox"]["irrelevant_generators"]:
                return "irrelevant ideal changed with the class basis"
        return None


def evaluate(text, values):
    """Value of a ParamPoly rendering like '3/4*a1^2 - a2 + 14' at a point."""
    text = text.replace(" - ", " + -")
    total = Fraction(0)
    for term in text.split(" + "):
        term = term.strip()
        sign = 1
        if term.startswith("-") and not term[1:2].isdigit():
            sign, term = -1, term[1:]
        value = Fraction(sign)
        for factor in term.split("*"):
            name, _, power = factor.partition("^")
            if name in values:
                value *= Fraction(values[name]) ** int(power or 1)
            else:
                value *= Fraction(name)
        total += value
    return total


def sympy_constant_terms(order):
    """Constant terms of f^k, k <= order, of the generic paper polynomial (sympy)."""
    import sympy

    params = {p: sympy.Symbol(p) for p in PAPER_PARAMS}
    ring, X, Y, *P = sympy.ring("x y " + " ".join(PAPER_PARAMS), sympy.QQ)
    pvars = dict(zip(PAPER_PARAMS, P))
    # x^2 y^2 f has nonnegative exponents; the constant term of f^k is the
    # coefficient of x^(2k) y^(2k) in its k-th power.
    g = ring(0)
    for (i, j), c in PAPER_LAURENT_TERMS:
        coeff = pvars[c] if c in pvars else ring(int(c))
        g += coeff * X ** (i + 2) * Y ** (j + 2)
    out = []
    power = ring(1)
    for k in range(order + 1):
        ct = sympy.Integer(0)
        for monom, c in power.terms():
            if monom[0] == 2 * k and monom[1] == 2 * k:
                term = sympy.Rational(c.numerator, c.denominator)
                for p, e in zip(PAPER_PARAMS, monom[2:]):
                    term *= params[p] ** e
                ct += term
        out.append(sympy.expand(ct))
        power = power * g
    return out
