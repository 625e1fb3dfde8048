"""Seeded input generation for the fanokit benchmark.

Every workload is a cycle of CLI jobs that the closed loop in ``worker.py``
runs over and over.  ``generate(name, seed)`` is a pure function of its
arguments: it returns the input files to write, the untimed warm-up job and
the job cycle, each job carrying what the oracle needs to check its output.
Nothing here imports fanokit; the package sees only the generated files.

The paper's data (the hexagon P, its scaffolding, the Laurent polynomial
family and the golden regularized series through t^12) is copied here rather
than read from the package's fixtures, so the oracle does not move when the
package does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import ceil, floor, gcd

WHY = {
    "mirror": (
        "periods compare on the paper input at order 20 under seeded GL2(Z) "
        "substitutions: the headline mirror check, dominated by the classical "
        "period's Fraction multiplication in laurent"
    ),
    "quantum-deep": (
        "periods quantum at order 44 with seeded class bases U*W: the box scan "
        "in polyhedra.integer_points dominates and its cost depends on the basis"
    ),
    "family": (
        "periods classical on the paper family with seeded symbolic subsets and "
        "rational values: the laurent kernel on ParamPoly and Fraction coefficients"
    ),
    "geometry": (
        "hundreds of short polygon and scaffold --check-hull jobs: per-call "
        "overhead in cli, pipeline, linalg, polyhedra, polygon, scaffolding and cox"
    ),
}

MIRROR_ORDER = 20
QUANTUM_ORDER = 44

# --- the paper's data -------------------------------------------------------

PAPER_P = ((2, 1), (1, 2), (-1, 2), (-2, -1), (-1, -2), (1, -2))

PAPER_SCAFFOLDING = {
    "shape": {"projective_dims": [1]},
    "n_u_rank": 1,
    "struts": [
        {"name": "x1", "divisor": [1, 1], "chi": [2]},
        {"name": "x2", "divisor": [1, 1], "chi": [-2]},
        {"name": "y1", "divisor": [-1, 2], "chi": [1]},
        {"name": "y2", "divisor": [2, -1], "chi": [-1]},
    ],
    "target": [list(v) for v in PAPER_P],
}

# Class-group basis of the paper (variables x1, x2, y1, y2, z1, z2).
PAPER_W = ((0, 0, 1, 1, 1, 1), (0, 1, 3, 1, 0, 6), (1, 0, 1, 3, 6, 0))
# The hypersurface z1*z2 - x1^2*x2^2*y1*y2 has the class of z1*z2.
PAPER_EQUATION = "z1*z2 - x1^2*x2^2*y1*y2"
PAPER_HYPERSURFACE_EXP = (0, 0, 0, 0, 1, 1)
PAPER_FIBER_CHECK = ["x1", "x2"]
PAPER_IRRELEVANT_PRODUCT = [
    ["x1", "x2", "z1"],
    ["x1", "x2", "z2"],
    ["y1", "y2"],
    ["y1", "z2"],
    ["y2", "z1"],
]

PAPER_PARAMS = ("a1", "a2", "b1", "b2", "c1", "c2")
PAPER_LAURENT_TERMS = (
    ((2, 1), "1"),
    ((1, 2), "1"),
    ((1, 1), "a1"),
    ((1, 0), "b1"),
    ((1, -1), "c1"),
    ((1, -2), "1"),
    ((0, 2), "2"),
    ((0, -2), "2"),
    ((-1, 2), "1"),
    ((-1, 1), "c2"),
    ((-1, 0), "b2"),
    ((-1, -1), "a2"),
    ((-1, -2), "1"),
    ((-2, -1), "1"),
)
PAPER_ASSIGN = {"a1": "1", "a2": "1", "b1": "0", "b2": "0", "c1": "0", "c2": "0"}
PAPER_SERIES = (
    1, 0, 16, 0, 936, 520, 76840, 131880, 7360920, 22806000,
    770459256, 3451657440, 85553394696,
)


# --- small exact lattice helpers ---------------------------------------------


def cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def mat_mul(A, B):
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*B)) for row in A)


def mat_vec(A, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in A)


def det3(M):
    (a, b, c), (d, e, f), (g, h, i) = M
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def inverse_transpose3(U):
    """U^{-T} for a unimodular 3x3 matrix: the cofactor matrix over det."""
    d = det3(U)
    cof = []
    for i in range(3):
        row = []
        for j in range(3):
            m = [[U[r][c] for c in range(3) if c != j] for r in range(3) if r != i]
            row.append((-1) ** (i + j) * (m[0][0] * m[1][1] - m[0][1] * m[1][0]) * d)
        cof.append(tuple(row))
    return tuple(cof)


def convex_hull(points):
    """Strictly convex hull, counterclockwise (monotone chain)."""
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 2:
        return tuple(pts)

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross2(
                (out[-1][0] - out[-2][0], out[-1][1] - out[-2][1]),
                (p[0] - out[-2][0], p[1] - out[-2][1]),
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(list(reversed(pts)))
    return tuple(lower[:-1] + upper[:-1])


def newton_inequalities(support):
    """Rows (n, b) with <n, x> >= b describing the hull of a 2d point set."""
    hull = convex_hull(support)
    out = []
    for u, v in zip(hull, hull[1:] + hull[:1]):
        n = (u[1] - v[1], v[0] - u[0])
        out.append((n, n[0] * u[0] + n[1] * u[1]))
    return out


def is_fano(vertices):
    """Primitive vertices in strictly convex position around the origin."""
    hull = convex_hull(vertices)
    if len(hull) < 3 or set(hull) != set(map(tuple, vertices)):
        return False
    if any(gcd(abs(x), abs(y)) != 1 for x, y in hull):
        return False
    return all(cross2(u, v) > 0 for u, v in zip(hull, hull[1:] + hull[:1]))


def random_gl2(rng, steps):
    """A product of elementary matrices with entries +-1, then a signed swap."""
    g = ((1, 0), (0, 1))
    for _ in range(steps):
        c = rng.choice((-1, 1))
        e = ((1, c), (0, 1)) if rng.random() < 0.5 else ((1, 0), (c, 1))
        g = mat_mul(e, g)
    if rng.random() < 0.5:
        g = (g[1], g[0])
    if rng.random() < 0.5:
        g = ((-g[0][0], -g[0][1]), g[1])
    return g


def random_unimodular3(rng, steps):
    """A product of elementary row operations with entries +-1, permuted."""
    U = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for _ in range(steps):
        i, j = rng.sample(range(3), 2)
        E = [[int(a == b) for b in range(3)] for a in range(3)]
        E[i][j] = rng.choice((-1, 1))
        U = mat_mul(E, U)
    perm = list(range(3))
    rng.shuffle(perm)
    return tuple(U[p] for p in perm)


def curve_cone_rays(classes):
    """Extreme rays of {l : <w, l> >= 0 for every variable class w}, rank 3.

    Every nef class is effective, so these inequalities alone cut out the
    cone of curve classes the quantum period sums over.
    """
    cands = set()
    for a, b in combinations(classes, 2):
        c = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
        g = gcd(gcd(abs(c[0]), abs(c[1])), abs(c[2]))
        if g:
            p = tuple(x // g for x in c)
            cands.update((p, tuple(-x for x in p)))
    return sorted(r for r in cands if all(sum(x * y for x, y in zip(w, r)) >= 0 for w in classes))


def quantum_box_points(U, order):
    """Points of the integer box around the degree-truncated curve cone in basis U*W.

    Curve classes change as l -> U^{-T} l.  This is the box that
    polyhedra.integer_points scans, so it predicts the cost of a job.
    """
    classes = list(zip(*PAPER_W))
    degree = tuple(
        sum(row) - sum(a * b for a, b in zip(row, PAPER_HYPERSURFACE_EXP)) for row in PAPER_W
    )
    verts = [(Fraction(0),) * 3]
    for r in curve_cone_rays(classes):
        d = sum(a * b for a, b in zip(degree, r))
        verts.append(tuple(Fraction(order * x, d) for x in r))
    M = inverse_transpose3(U)
    moved = [mat_vec(M, v) for v in verts]
    box = 1
    for i in range(3):
        vals = [v[i] for v in moved]
        box *= floor(max(vals)) - ceil(min(vals)) + 1
    return box


# --- plans ---------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One CLI run: ``argv`` with ``"{in}"`` standing for the input file path.

    Jobs with the same ``key`` have the same input and so the same output.
    """

    key: str
    kind: str
    infile: str
    argv: tuple
    check: dict = field(default_factory=dict, compare=False, hash=False)


@dataclass
class Plan:
    files: dict
    warmup: Job
    cycle: list


def _job(key, kind, infile, argv, **check):
    return Job(key, kind, infile, tuple(argv), check)


def _laurent_json(terms, params=PAPER_PARAMS):
    return {
        "params": list(params),
        "terms": [{"exp": list(e), "coeff": c} for e, c in terms],
    }


def gen_mirror(seed):
    rng = random.Random(seed)
    files = {}
    cycle = []
    for i in range(8):
        g = ((1, 0), (0, 1)) if i == 0 else random_gl2(rng, rng.randint(2, 3))
        terms = [(mat_vec(g, e), c) for e, c in PAPER_LAURENT_TERMS]
        name = f"mirror-{i}.json"
        files[name] = {
            "scaffolding": PAPER_SCAFFOLDING,
            "laurent": _laurent_json(terms),
            "assign": PAPER_ASSIGN,
        }
        argv = ["periods", "compare", "--in", "{in}", "--order", str(MIRROR_ORDER)]
        cycle.append(_job(name, "compare", name, argv, order=MIRROR_ORDER, g=g))
    rng.shuffle(cycle)
    return Plan(files, cycle[0], cycle)


def gen_quantum_deep(seed):
    """The paper basis plus three bases from each of three box-size classes.

    The cost of a job follows its scan box, which a random basis can blow up
    fifty-fold.  Every seed draws the same mix of box sizes (0.8, 1 and 1.2
    times the paper basis's box), so runs with different seeds do comparable
    work while the basis still moves the scan.
    """
    rng = random.Random(seed)
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    base = quantum_box_points(identity, QUANTUM_ORDER)
    classes = {0.8: [], 1.0: [], 1.2: []}
    while any(len(v) < 3 for v in classes.values()):
        U = random_unimodular3(rng, rng.randint(1, 3))
        ratio = round(quantum_box_points(U, QUANTUM_ORDER) / base, 1)
        if U != identity and ratio in classes and len(classes[ratio]) < 3 and U not in classes[ratio]:
            classes[ratio].append(U)
    bases = [identity] + [U for v in classes.values() for U in v]
    files = {}
    cycle = []
    for i, U in enumerate(bases):
        name = f"quantum-{i}.json"
        data = dict(PAPER_SCAFFOLDING)
        data["class_basis"] = [list(r) for r in mat_mul(U, PAPER_W)]
        files[name] = data
        argv = ["periods", "quantum", "--in", "{in}", "--order", str(QUANTUM_ORDER)]
        cycle.append(_job(name, "quantum", name, argv, order=QUANTUM_ORDER, U=U))
    rng.shuffle(cycle)
    return Plan(files, cycle[0], cycle)


def _small_rational(rng):
    while True:
        q = rng.choice((2, 3))
        p = rng.randint(-3, 3)
        if p % q:
            return Fraction(p, q)


# Family slots, in loop order: (number of symbolic parameters or None for a
# fully specialized job, truncation order).  The three symbolic k=3 jobs hold
# the middle of the latency distribution, so job_p50_s lands inside one
# cluster instead of between two.
FAMILY_SLOTS = ((3, 5), (None, 14), (3, 5), (2, 4), (3, 5), (4, 5))


def gen_family(seed):
    rng = random.Random(seed)
    name = "family.json"
    files = {name: _laurent_json(PAPER_LAURENT_TERMS)}
    cycle = []
    for rep in range(2):
        for slot, (k, order) in enumerate(FAMILY_SLOTS):
            symbolic = () if k is None else tuple(sorted(rng.sample(PAPER_PARAMS, k)))
            assign = {p: _small_rational(rng) for p in PAPER_PARAMS if p not in symbolic}
            # A rational point for the symbolic parameters, used by the oracle
            # to evaluate the symbolic output at every order.
            probe = {p: _small_rational(rng) for p in symbolic}
            argv = ["periods", "classical", "--in", "{in}", "--order", str(order)]
            if symbolic:
                argv.append("--symbolic")
            argv += [f"--assign={p}={v}" for p, v in assign.items()]
            key = f"family-{rep}-{slot}"
            cycle.append(
                _job(key, "classical", name, argv, order=order, symbolic=symbolic,
                     assign=assign, probe=probe)
            )
    return Plan(files, cycle[0], cycle)


def random_fano_polygon(rng, radius, nverts):
    """Hull of random primitive points, retried until it is Fano with nverts vertices."""
    while True:
        pts = set()
        npoints = nverts + rng.randint(0, nverts)
        while len(pts) < npoints:
            p = (rng.randint(-radius, radius), rng.randint(-radius, radius))
            if gcd(abs(p[0]), abs(p[1])) == 1:
                pts.add(p)
        hull = convex_hull(pts)
        if len(hull) == nverts and is_fano(hull):
            return hull


def gen_geometry(seed):
    """Cycle of (polygon P, polygon gP, scaffold) triples.

    Polygons take two thirds of the jobs, so job_p50_s falls inside the
    polygon cluster and the scaffold jobs make the tail.
    """
    rng = random.Random(seed)
    files = {}
    polys = []
    for i in range(40):
        radius = (2, 3, 5, 8)[i % 4]
        P = random_fano_polygon(rng, radius, 3 + i % 6)
        g = random_gl2(rng, rng.randint(1, 3))
        gP = tuple(mat_vec(g, v) for v in P)
        pair = []
        for tag, verts in (("a", P), ("b", gP)):
            verts = list(verts)
            rng.shuffle(verts)
            name = f"polygon-{i}{tag}.json"
            files[name] = {"vertices": [list(v) for v in verts]}
            pair.append(_job(name, "polygon", name, ["polygon", "--in", "{in}"],
                             vertices=tuple(sorted(verts)), pair=f"polygon-{i}"))
        polys.append(pair)
    scaffolds = []
    for i in range(20):
        U = ((1, 0, 0), (0, 1, 0), (0, 0, 1)) if i == 0 else random_unimodular3(rng, rng.randint(1, 3))
        data = dict(PAPER_SCAFFOLDING)
        data["class_basis"] = [list(r) for r in mat_mul(U, PAPER_W)]
        fiber = i == 0 or rng.random() < 0.5
        product = i == 0 or rng.random() < 0.5
        if fiber:
            data["fiber_check"] = PAPER_FIBER_CHECK
        if product:
            data["irrelevant_product"] = PAPER_IRRELEVANT_PRODUCT
        name = f"scaffold-{i}.json"
        files[name] = data
        scaffolds.append(_job(name, "scaffold", name, ["scaffold", "--in", "{in}", "--check-hull"],
                              U=U, fiber=fiber, product=product))
    cycle = []
    for i, (a, b) in enumerate(polys):
        cycle += [a, b, scaffolds[i % len(scaffolds)]]
    return Plan(files, scaffolds[0], cycle)


GENERATORS = {
    "mirror": gen_mirror,
    "quantum-deep": gen_quantum_deep,
    "family": gen_family,
    "geometry": gen_geometry,
}


def generate(workload, seed):
    return GENERATORS[workload](int(seed))
