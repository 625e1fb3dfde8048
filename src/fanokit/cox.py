"""Cox/GIT presentation of a simplicial toric variety and chart analysis.

cox_presentation turns a complete simplicial fan (primitive rays plus maximal
cones) into a weight matrix presenting the class group, with the row-HNF as
the canonical basis choice.  CoxPolynomial holds homogeneous polynomials in
the Cox coordinates with rational or parameter coefficients; it is a
symbolic.SparsePoly over the variable names, with exponents >= 0, and takes
its clean-up, immutability and term printer from that core.  chart_analysis
dehomogenizes them on each maximal cone and identifies the ambient finite
quotient through the Smith normal form of the ray submatrix.
section_monomials lists the monomials of a class as the lattice points of a
polytope in the kernel of the weight matrix, through polyhedra.integer_points.
The GIT checks work in the size of the fan, not over 2^n zero-patterns:
unstable_locus_equal compares minimal generators of squarefree (so radical)
monomial ideals, and fiber_avoidance walks the faces of the maximal cones,
which are the semistable zero-patterns (Cox, arXiv:alg-geom/9210008).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, prod

from .errors import CorankError, NonSimplicial, Record, TorsionClassGroup
from .linalg import dot, hnf, integer_solver, snf, transpose
from .polyhedra import halfspaces, integer_points
from .symbolic import ParamPoly, SparsePoly, coeff_substitute, terms_str


class CoxPresentation(Record):
    """Variable names, primitive rays (rows), maximal cones, weight matrix."""

    names: tuple
    rays: tuple
    max_cones: tuple
    weights: tuple

    @property
    def num_vars(self):
        return len(self.names)

    @property
    def class_rank(self):
        return len(self.weights)

    @property
    def variable_classes(self):
        return transpose(self.weights)

    @property
    def anticanonical(self):
        return tuple(sum(row) for row in self.weights)

    def irrelevant_generators(self):
        """Per maximal cone, the squarefree monomial on the complement rays."""
        return tuple(
            tuple(nm for i, nm in enumerate(self.names) if i not in cone)
            for cone in self.max_cones
        )


def cox_presentation(rays, max_cones, names=None):
    """Weight-matrix presentation of the class group of a complete fan.

    The class group is the cokernel of the ray pairing; a free cokernel of
    rank (#rays - dim) is required, torsion is reported as an error.  The
    weight matrix is canonicalized to row Hermite normal form.
    """
    rays = tuple(tuple(r) for r in rays)
    n = len(rays)
    dim = len(rays[0])
    if names is None:
        names = tuple(f"v{i+1}" for i in range(n))
    if len(names) != n:
        raise ValueError("one name per ray required")
    S, U, _ = snf(rays)
    if n < dim or S[dim - 1][dim - 1] == 0:  # zeros end the SNF diagonal
        raise NonSimplicial("rays do not span the ambient lattice")
    for i in range(dim):
        if S[i][i] > 1:
            raise TorsionClassGroup(
                f"class group has torsion Z/{S[i][i]}; free presentation impossible"
            )
    W = tuple(U[i] for i in range(dim, n))
    W, _ = hnf(W)
    return CoxPresentation(tuple(names), rays, tuple(tuple(c) for c in max_cones), W)


def change_class_basis(cox, table):
    """Re-express the weight matrix in a caller-chosen class-group basis.

    The table must present the same relation lattice: its row-HNF has to
    agree with the canonical one.
    """
    table = tuple(tuple(int(a) for a in row) for row in table)
    if len(table) != cox.class_rank or any(
        len(row) != cox.num_vars for row in table
    ):
        raise ValueError("basis table has the wrong shape")
    if hnf(table)[0] != hnf(cox.weights)[0]:
        raise ValueError("table spans a different class-group presentation")
    return CoxPresentation(cox.names, cox.rays, cox.max_cones, table)


def minimal_generators(gens):
    """The inclusion-minimal sets among ``gens``, as frozensets."""
    gens = set(map(frozenset, gens))
    return {g for g in gens if not any(h < g for h in gens)}


def unstable_locus_equal(gens_a, gens_b):
    """Whether two squarefree monomial ideals cut the same coordinate locus.

    Squarefree monomial ideals are radical, so they cut the same locus iff
    they are equal, iff their inclusion-minimal generators agree.  Both
    lists must mention the same variables before minimizing.
    """
    gens_a = [frozenset(g) for g in gens_a]
    gens_b = [frozenset(g) for g in gens_b]
    if frozenset().union(*gens_a) != frozenset().union(*gens_b):
        raise ValueError("generator lists mention different variables")
    return minimal_generators(gens_a) == minimal_generators(gens_b)


class CoxPolynomial(SparsePoly):
    """Polynomial in Cox coordinates; exponents >= 0, insertion order kept."""

    __slots__ = ("names", "params", "terms")

    def __init__(self, names, terms, params=()):
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "params", tuple(params))
        self._set_terms(terms, len(self.names), "the variables")
        if any(k < 0 for e in self.terms for k in e):
            raise ValueError("negative exponent in a Cox polynomial")

    def __eq__(self, other):
        if not isinstance(other, CoxPolynomial):
            return NotImplemented
        return self.names == other.names and self.terms == other.terms

    def class_vector(self, weights):
        """The common class W*e of all terms; mixed classes are an error."""
        cls = None
        for e in self.terms:
            c = tuple(dot(row, e) for row in weights)
            if cls is None:
                cls = c
            elif c != cls:
                raise ValueError("polynomial is not homogeneous")
        if cls is None:
            raise ValueError("zero polynomial has no class")
        return cls

    def dehomogenize(self, keep):
        """Set the variables outside ``keep`` to 1; collisions are summed."""
        keep = tuple(keep)
        out = {}
        for e, c in self.terms.items():
            key = tuple(e[i] for i in keep)
            out[key] = out[key] + c if key in out else c
        return CoxPolynomial(
            tuple(self.names[i] for i in keep), out, self.params
        )

    def specialize(self, assignments):
        return CoxPolynomial(
            self.names,
            {e: coeff_substitute(c, assignments) for e, c in self.terms.items()},
            tuple(p for p in self.params if p not in assignments),
        )

    def __str__(self):
        return terms_str(self.terms.items(), self.names)

    __repr__ = __str__


def hypersurface_from_scaffolding(s, cox):
    """The functional h cutting out the image torus, its ray pairings, and
    the binomial equation of the embedded hypersurface.  The rays of each
    factor of the shape sum to zero, so the kernel of theta^T is spanned by
    the factors' 0/1 indicators; with one factor, h is 1 on every divisor."""
    k = len(s.shape.dims)
    if k != 1:
        raise CorankError(f"embedding has corank {k}; a hypersurface needs corank 1")
    h = (1,) * s.shape.divisor_count + (0,) * s.n_u_rank
    pairings = tuple(dot(h, ray) for ray in cox.rays)
    e_plus = tuple(max(p, 0) for p in pairings)
    e_minus = tuple(max(-p, 0) for p in pairings)
    equation = CoxPolynomial(
        cox.names, {e_plus: Fraction(1), e_minus: Fraction(-1)}
    )
    return h, pairings, equation


def section_monomials(cox, cls):
    """All exponent vectors a >= 0 with W*a = cls, in ascending lex order.

    With a0 one integer solution and the columns of K a basis of the integer
    kernel of W, these are the points a0 + K*y over the lattice points y of
    {y : a0 + K*y >= 0}, enumerated by polyhedra.integer_points in any class
    rank.  Raises Unbounded when that region is unbounded.
    """
    solve, kernel = integer_solver(cox.weights)  # one Smith form for both
    if (a0 := solve(cls)) is None:
        return ()
    rows = transpose(kernel)
    ys = integer_points(halfspaces(len(rows[0]), rows, [-a for a in a0]))
    return tuple(sorted(tuple(a + dot(r, y) for a, r in zip(a0, rows)) for y in ys))


def deformation_family(cox, equation):
    """Extend a homogeneous equation by one parameter per missing section.

    The extra section monomials, in descending lex order, receive fresh
    parameters s1, s2, ...
    """
    cls = equation.class_vector(cox.weights)
    sections = section_monomials(cox, cls)
    extras = sorted((e for e in sections if e not in equation.terms), reverse=True)
    params = tuple(f"s{i+1}" for i in range(len(extras)))
    terms = dict(equation.terms)
    for i, e in enumerate(extras):
        terms[e] = ParamPoly.variable(params[i], params)
    return CoxPolynomial(cox.names, terms, params)


class AbelianQuotient(Record):
    """Finite abelian quotient acting on chart coordinates.

    ``factors`` lists (d, weights mod d) for the nontrivial cyclic factors,
    in divisibility order.
    """

    factors: tuple

    @property
    def index(self):
        return prod(d for d, _ in self.factors)

    def equivalent(self, other):
        """Equality up to coordinate permutation and unit weight rescaling."""
        if [d for d, _ in self.factors] != [d for d, _ in other.factors]:
            return False
        if not self.factors:
            return True
        k = len(self.factors[0][1])
        for perm in permutations(range(k)):
            ok = True
            for (d, w1), (_, w2) in zip(self.factors, other.factors):
                pw = tuple(w1[p] % d for p in perm)
                units = (u for u in range(1, d) if gcd(u, d) == 1)
                if not any(
                    all((u * pw[j]) % d == w2[j] % d for j in range(k))
                    for u in units
                ):
                    ok = False
                    break
            if ok:
                return True
        return False

    def __str__(self):
        if not self.factors:
            return "smooth"
        return " x ".join(
            f"1/{d}({','.join(str(w) for w in ws)})" for d, ws in self.factors
        )


class ChartReport(Record):
    cone: tuple
    names: tuple
    quotient: AbelianQuotient
    equation: CoxPolynomial
    constant_term: object
    quasi_smooth: bool


def _numeric_part(c):
    if isinstance(c, ParamPoly):
        return c.terms.get((0,) * len(c.params), Fraction(0))
    return Fraction(c)


def _quasi_smooth_flag(eq):
    """A coordinate appears as a bare linear monomial with a parameter-free
    unit coefficient, and the equation has no parameter-free constant term."""
    n = len(eq.names)
    if _numeric_part(eq.terms.get((0,) * n, Fraction(0))) != 0:
        return False
    for j in range(n):
        e = tuple(1 if i == j else 0 for i in range(n))
        c = eq.terms.get(e)
        if c is not None and _numeric_part(c) != 0:
            return True
    return False


def chart_analysis(cox, family):
    """Per maximal cone: ambient quotient, dehomogenized equation, flags."""
    dim = len(cox.rays[0])
    reports = []
    for cone in cox.max_cones:
        sub = [cox.rays[i] for i in cone]
        S, _, V = snf(transpose(sub))
        factors = []
        for i in range(dim):
            d = S[i][i]
            if d == 0:
                raise NonSimplicial(f"cone {cone} is degenerate")
            if d > 1:
                factors.append((d, tuple(V[j][i] % d for j in range(dim))))
        quotient = AbelianQuotient(tuple(factors))
        eq = family.dehomogenize(cone)
        const = eq.terms.get((0,) * dim, Fraction(0))
        reports.append(
            ChartReport(
                tuple(cone),
                eq.names,
                quotient,
                eq,
                const,
                _quasi_smooth_flag(eq),
            )
        )
    return tuple(reports)


class FiberCheck(Record):
    verified: bool
    witness: tuple = None


def fiber_avoidance(cox, family, forced_zero):
    """Each semistable zero-pattern containing ``forced_zero``, that is each
    face of a maximal cone containing it, must leave exactly one monomial of
    the family.  The witness is the violating face whose 0/1 indicator
    vector on the variables is lexicographically least."""
    unknown = set(forced_zero) - set(cox.names)
    if unknown:
        raise ValueError(f"unknown variables {sorted(unknown)}")
    forced = frozenset(map(cox.names.index, forced_zero))
    supports = [
        frozenset(i for i, k in enumerate(e) if k > 0) for e in family.terms
    ]
    faces = set()
    for cone in cox.max_cones:
        if forced <= set(cone):
            for k in range(len(cone) + 1):
                faces.update(forced.union(t) for t in combinations(cone, k))
    for S in sorted(faces, key=lambda S: [i in S for i in range(cox.num_vars)]):
        if sum(1 for sup in supports if not sup & S) != 1:
            return FiberCheck(False, tuple(sorted(cox.names[i] for i in S)))
    return FiberCheck(True)
