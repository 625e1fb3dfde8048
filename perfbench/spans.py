"""Spans and counters around fanokit's layers, installed for the traced run only.

``install`` wraps each traced function in every fanokit module that holds a
reference to it, so a call is recorded where its caller looks the function
up (``fanokit.quantum.integer_points`` as well as
``fanokit.polyhedra.integer_points``); methods are wrapped on their class.
A span is ``[name, start, end, parent index, job]``; spans stay in a list in
memory and are written out when the run ends.  A layer's self time is its
spans' duration minus the part covered by their child spans.  ``problems``
checks the spans against job latencies timed outside them: every traced job
has one ``cli.main`` root span, and the self times of all spans add up to
between ``COVER_MIN`` and 1 of the summed latencies.

Counters are taken from arguments and results after the wrapped call
returns.  The costly one (which terms of f^k can still reach the constant
term of f^K) runs inside its own ``perfbench.counters`` span, so its time is
not charged to a fanokit layer.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from math import ceil, comb, floor, prod

from workloads import newton_inequalities

LINALG = ("hnf", "snf", "solve_rational", "kernel_basis", "solve_integer")
# Least share of the measured job latencies that the span self times must
# cover; the rest is the benchmark's call of cli.main and the wrapper itself.
COVER_MIN = 0.95
MODULES = (
    "cli", "pipeline", "linalg", "polyhedra", "polygon", "scaffolding",
    "cox", "laurent", "quantum", "series", "perfbench",
)

# (metric, unit, better, end-to-end metric it should move, on which workloads)
LAYER_METRICS = [
    ("cli.main.self_s", "s/job", "lower", "job_p50_s", "geometry"),
    ("pipeline.self_s", "s/job", "lower", "job_p50_s", "geometry"),
    *[
        (f"linalg.{f}.{kind}", unit, "lower", "job_p50_s", "geometry")
        for f in LINALG
        for kind, unit in (("calls", "1/job"), ("self_s", "s/job"))
    ],
    ("polyhedra.vertices.calls", "1/job", "lower", "job_p50_s", "geometry"),
    ("polyhedra.vertices.self_s", "s/job", "lower", "job_p50_s", "geometry"),
    ("polyhedra.vertices.subsets_tried", "1/job", "lower", "job_p50_s", "geometry"),
    ("polyhedra.dual_cone.calls", "1/job", "lower", "job_p50_s", "geometry"),
    ("polyhedra.dual_cone.self_s", "s/job", "lower", "job_p50_s", "geometry"),
    ("polyhedra.dual_cone.candidates", "1/job", "lower", "job_p50_s", "geometry"),
    ("polyhedra.dual_cone.rays_kept", "1/job", "higher", "job_p50_s", "geometry"),
    ("polyhedra.integer_points.self_s", "s/job", "lower", "jobs_per_s", "mirror,quantum-deep"),
    ("polyhedra.integer_points.box_points", "1/job", "lower", "jobs_per_s", "mirror,quantum-deep"),
    ("polyhedra.integer_points.kept", "1/job", "higher", "jobs_per_s", "mirror,quantum-deep"),
    ("polyhedra.integer_points.keep_ratio", "ratio", "higher", "jobs_per_s", "mirror,quantum-deep"),
    *[
        (f"polygon.{f}.self_s", "s/job", "lower", "job_p50_s", "geometry")
        for f in ("validate_fano", "singularity_report", "polar", "lattice_symmetries")
    ],
    *[
        (f"scaffolding.{f}.self_s", "s/job", "lower", "job_p50_s", "geometry")
        for f in ("build_qs", "normal_fan", "hull")
    ],
    ("cox.cox_presentation.self_s", "s/job", "lower", "job_p50_s", "geometry"),
    ("cox.chart_analysis.self_s", "s/job", "lower", "job_p50_s", "geometry"),
    ("cox.section_monomials.calls", "1/job", "lower", "job_p50_s", "geometry"),
    ("cox.section_monomials.self_s", "s/job", "lower", "job_p50_s", "geometry"),
    ("cox.section_monomials.found", "1/job", "higher", "job_p50_s", "geometry"),
    ("cox.fiber_avoidance.self_s", "s/job", "lower", "job_p50_s", "geometry"),
    ("cox.fiber_avoidance.patterns", "1/job", "lower", "job_p50_s", "geometry"),
    ("cox.unstable_locus_equal.patterns", "1/job", "lower", "job_p50_s", "geometry"),
    ("laurent.classical_period.self_s", "s/job", "lower", "jobs_per_s", "mirror,family"),
    ("laurent.mul.calls", "1/job", "lower", "jobs_per_s", "mirror,family"),
    ("laurent.mul.self_s", "s/job", "lower", "jobs_per_s", "mirror,family"),
    ("laurent.mul.term_products", "1/job", "lower", "jobs_per_s", "mirror,family"),
    ("laurent.mul.support_max", "terms", "lower", "jobs_per_s", "mirror,family"),
    ("laurent.mul.useful_ratio", "ratio", "higher", "jobs_per_s", "mirror,family"),
    ("symbolic.monomial_products", "1/job", "lower", "jobs_per_s", "family"),
    ("symbolic.coeff_terms_max", "terms", "lower", "jobs_per_s", "family"),
    ("quantum.mori_and_nef.self_s", "s/job", "lower", "jobs_per_s", "mirror,quantum-deep"),
    ("quantum.lambda_cone.self_s", "s/job", "lower", "jobs_per_s", "mirror,quantum-deep"),
    ("quantum.walls", "1/job", "higher", "jobs_per_s", "mirror,quantum-deep"),
    ("quantum.quantum_period.self_s", "s/job", "lower", "jobs_per_s", "mirror,quantum-deep"),
    ("quantum.factorials", "1/job", "lower", "jobs_per_s", "mirror,quantum-deep"),
    ("series.regularize.self_s", "s/job", "lower", "jobs_per_s", "mirror"),
    ("series.first_mismatch.self_s", "s/job", "lower", "jobs_per_s", "mirror"),
    # Share of job time spent in each module's own code: the layers an
    # optimisation of that workload has to move.
    *[(f"share.{m}", "frac", "lower", "jobs_per_s", "all") for m in MODULES],
    ("trace.untraced_jobs_per_s", "1/s", "higher", "jobs_per_s", "all"),
    ("trace.jobs_per_s", "1/s", "higher", "jobs_per_s", "all"),
    ("trace.overhead_frac", "frac", "lower", "jobs_per_s", "all"),
    ("trace.span_cover_frac", "frac", "higher", "jobs_per_s", "all"),
    ("trace.spans_per_job", "1/job", "lower", "jobs_per_s", "all"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = -1
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.period = None  # [Newton inequalities, order, k] inside classical_period
        self.last_vertices = None
        self._undo = []

    # -- wrappers -------------------------------------------------------------

    def wrap(self, name, fn, pre=None, post=None, heavy=False):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if pre is not None:
                pre(self, args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                if heavy:
                    crec = ["perfbench.counters", clock(), 0.0, stack[-1] if stack else -1, self.job]
                    spans.append(crec)
                    post(self, args, result)
                    crec[2] = clock()
                else:
                    post(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def hook(self, fn, post):
        """Counter only, no span: for calls too frequent to time one by one."""

        def hooked(*args, **kwargs):
            result = fn(*args, **kwargs)
            post(self, args, result)
            return result

        hooked.__wrapped__ = fn
        return hooked

    # -- installation -----------------------------------------------------------

    def install(self):
        for module, attr, make, only in _targets(self):
            mod = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                wrapped = make(original)
                for name, value in list(cls.__dict__.items()):
                    if value is original:
                        self._undo.append((cls, name, value))
                        setattr(cls, name, wrapped)
                continue
            original = getattr(mod, attr)
            wrapped = make(original)
            holders = [sys.modules[m] for m in only] if only else [
                m for n, m in sorted(sys.modules.items()) if n == "fanokit" or n.startswith("fanokit.")
            ]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, name, value))
                        setattr(holder, name, wrapped)

    def uninstall(self):
        for holder, name, value in reversed(self._undo):
            setattr(holder, name, value)
        self._undo.clear()

    # -- results ------------------------------------------------------------------

    def self_times(self):
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            out[name] += end - start - covered[i]
        return out

    def job_time(self):
        """Total duration of the root ``cli.main`` spans."""
        return sum(r[2] - r[1] for r in self.spans if r[3] == -1 and r[0] == "cli.main")

    def span_cover(self, latency_total):
        """Span self times as a share of job latencies timed outside the spans."""
        return sum(self.self_times().values()) / latency_total if latency_total else 0.0

    def problems(self, jobs, latency_total):
        """Why the spans of traced jobs 0 .. ``jobs`` - 1 do not account for their latency."""
        out = []
        roots = [r for r in self.spans if r[3] == -1]
        ids = sorted(r[4] for r in roots if r[0] == "cli.main")
        if ids != list(range(jobs)):
            out.append(f"{len(ids)} cli.main root spans for {jobs} traced jobs")
        if len(roots) != len(ids):
            out.append(f"{len(roots) - len(ids)} root spans outside cli.main")
        nesting = self.nesting_errors()
        if nesting:
            out.append(f"{nesting} spans not nested in their parent")
        cover = self.span_cover(latency_total)
        if not COVER_MIN <= cover <= 1:
            out.append(f"span self times cover {cover:.4f} of job latency, "
                       f"not between {COVER_MIN} and 1")
        return out

    def nesting_errors(self):
        """Spans that are not contained in their parent span."""
        bad = 0
        for name, start, end, parent, job in self.spans:
            if end < start:
                bad += 1
            elif parent >= 0:
                p = self.spans[parent]
                if start < p[1] or end > p[2] or job != p[4]:
                    bad += 1
        return bad

    def metrics(self, jobs, latency_total, traced_rate, untraced_rate):
        selfs = self.self_times()
        job_time = self.job_time()
        calls = defaultdict(int)
        for rec in self.spans:
            calls[rec[0]] += 1
        c, m = self.counts, self.maxima

        def ratio(a, b):
            return a / b if b else 0.0

        values = {
            "cli.main.self_s": selfs["cli.main"],
            "pipeline.self_s": sum(v for k, v in selfs.items() if k.startswith("pipeline.")),
            "polyhedra.integer_points.keep_ratio": ratio(
                c["polyhedra.integer_points.kept"], c["polyhedra.integer_points.box_points"]
            ),
            "laurent.mul.useful_ratio": ratio(c["laurent.mul.useful"], c["laurent.mul.terms"]),
            "laurent.mul.support_max": m["laurent.mul.support_max"],
            "symbolic.coeff_terms_max": m["symbolic.coeff_terms_max"],
        }
        for mod in MODULES:
            values[f"share.{mod}"] = ratio(
                sum(v for k, v in selfs.items() if k.split(".")[0] == mod), job_time
            )
        values.update({
            "trace.untraced_jobs_per_s": untraced_rate,
            "trace.jobs_per_s": traced_rate,
            "trace.overhead_frac": 1 - ratio(traced_rate, untraced_rate),
            "trace.span_cover_frac": self.span_cover(latency_total),
            "trace.spans_per_job": len(self.spans) / jobs,
        })
        out = {}
        for name, unit, *_ in LAYER_METRICS:
            if name in values:
                v = values[name]
                if unit.endswith("/job") and not name.startswith("trace."):
                    v = v / jobs
            elif name.endswith(".self_s"):
                v = selfs[name[: -len(".self_s")]] / jobs
            elif name.endswith(".calls"):
                v = calls[name[: -len(".calls")]] / jobs
            else:
                v = c[name] / jobs
            out[name] = {"value": v, "unit": unit}
        return out

    def dump(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# -- counters ---------------------------------------------------------------------


def _vertices_post(t, args, result):
    hs = args[0]
    t.counts["polyhedra.vertices.subsets_tried"] += comb(len(hs.normals), hs.dim)
    t.last_vertices = result


def _integer_points_post(t, args, result):
    verts = t.last_vertices or []
    box = 0
    if verts:
        box = prod(
            floor(max(v[i] for v in verts)) - ceil(min(v[i] for v in verts)) + 1
            for i in range(len(verts[0]))
        )
    t.counts["polyhedra.integer_points.box_points"] += max(box, 0)
    t.counts["polyhedra.integer_points.kept"] += len(result)


def _period_pre(t, args):
    f, order = args[0], args[1]
    ineqs = newton_inequalities(list(f.terms)) if f.dim == 2 and f.terms else None
    t.period = [ineqs, order, 0]


def _mul_post(t, args, result):
    a, b = args
    t.counts["laurent.mul.term_products"] += len(a.terms) * len(b.terms)
    n = len(result.terms)
    t.maxima["laurent.mul.support_max"] = max(t.maxima["laurent.mul.support_max"], n)
    if t.period is None or t.period[0] is None:
        return
    ineqs, order, k = t.period
    k += 1
    t.period[2] = k
    rest = order - k
    useful = sum(
        1
        for x in result.terms
        if all(-(nv[0] * x[0] + nv[1] * x[1]) >= rest * bound for nv, bound in ineqs)
    )
    t.counts["laurent.mul.useful"] += useful
    t.counts["laurent.mul.terms"] += n


def _parampoly_mul_post(t, args, result):
    a, b = args
    nb = len(b.terms) if hasattr(b, "terms") else 1
    t.counts["symbolic.monomial_products"] += len(a.terms) * nb
    t.maxima["symbolic.coeff_terms_max"] = max(t.maxima["symbolic.coeff_terms_max"], len(result.terms))


def _count(metric, measure=lambda args, result: 1):
    def post(t, args, result):
        t.counts[metric] += measure(args, result)

    return post


def _targets(t):
    """(module, attribute, wrapper factory, modules to patch or None for all)."""
    span = lambda name, **kw: (lambda fn: t.wrap(name, fn, **kw))  # noqa: E731
    hook = lambda post: (lambda fn: t.hook(fn, post))  # noqa: E731
    out = [("fanokit.cli", "main", span("cli.main"), None)]
    for f in ("run_polygon", "run_scaffold", "run_classical", "run_quantum", "run_compare"):
        out.append(("fanokit.pipeline", f, span(f"pipeline.{f}"), None))
    for f in LINALG:
        out.append(("fanokit.linalg", f, span(f"linalg.{f}"), None))
    out += [
        ("fanokit.polyhedra", "vertices", span("polyhedra.vertices", post=_vertices_post), None),
        ("fanokit.polyhedra", "dual_cone", span(
            "polyhedra.dual_cone",
            post=_count("polyhedra.dual_cone.rays_kept", lambda a, r: len(r.rays)),
        ), None),
        ("fanokit.polyhedra", "_ray_candidates", hook(
            _count("polyhedra.dual_cone.candidates", lambda a, r: len(r))
        ), ("fanokit.polyhedra",)),
        ("fanokit.polyhedra", "integer_points", span(
            "polyhedra.integer_points", post=_integer_points_post
        ), None),
    ]
    for f in ("validate_fano", "singularity_report", "polar", "lattice_symmetries"):
        out.append(("fanokit.polygon", f, span(f"polygon.{f}"), None))
    out += [
        ("fanokit.scaffolding", "scaffolding_from_json", span("scaffolding.scaffolding_from_json"), None),
        ("fanokit.scaffolding", "build_qs", span("scaffolding.build_qs"), None),
        ("fanokit.scaffolding", "normal_fan", span("scaffolding.normal_fan"), None),
        ("fanokit.scaffolding", "Scaffolding.hull", span("scaffolding.hull"), None),
    ]
    for f in ("cox_presentation", "change_class_basis", "hypersurface_from_scaffolding",
              "deformation_family", "chart_analysis"):
        out.append(("fanokit.cox", f, span(f"cox.{f}"), None))
    out += [
        ("fanokit.cox", "section_monomials", span(
            "cox.section_monomials",
            post=_count("cox.section_monomials.found", lambda a, r: len(r)),
        ), None),
        ("fanokit.cox", "fiber_avoidance", span(
            "cox.fiber_avoidance",
            post=_count(
                "cox.fiber_avoidance.patterns",
                lambda a, r: 2 ** (a[0].num_vars - len(set(a[2]))),
            ),
        ), None),
        ("fanokit.cox", "unstable_locus_equal", span(
            "cox.unstable_locus_equal",
            post=_count(
                "cox.unstable_locus_equal.patterns",
                lambda a, r: 2 ** len(set().union(*map(frozenset, a[0]))),
            ),
        ), None),
        ("fanokit.laurent", "laurent_from_json", span("laurent.laurent_from_json"), None),
        ("fanokit.laurent", "classical_period", span(
            "laurent.classical_period", pre=_period_pre,
            post=lambda t, a, r: setattr(t, "period", None),
        ), None),
        ("fanokit.laurent", "LaurentPolynomial.__mul__", span(
            "laurent.mul", post=_mul_post, heavy=True
        ), None),
        ("fanokit.symbolic", "ParamPoly.__mul__", hook(_parampoly_mul_post), None),
        ("fanokit.quantum", "walls", span(
            "quantum.walls", post=_count("quantum.walls", lambda a, r: len(r))
        ), None),
        ("fanokit.quantum", "mori_and_nef", span("quantum.mori_and_nef"), None),
        ("fanokit.quantum", "lambda_cone", span("quantum.lambda_cone"), None),
        ("fanokit.quantum", "quantum_period", span("quantum.quantum_period"), None),
        ("fanokit.quantum", "factorial", hook(_count("quantum.factorials")), ("fanokit.quantum",)),
        ("fanokit.series", "regularize", span("series.regularize"), None),
        ("fanokit.series", "first_mismatch", span("series.first_mismatch"), None),
    ]
    return out
