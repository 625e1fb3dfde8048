"""JSON-level pipeline stages shared by the CLI and the test suite.

Each run_* function takes already-parsed input JSON and returns a plain dict
that serializes deterministically: integers stay integers, every non-integer
rational is rendered as a string like "22/15", and symbolic coefficients use
their canonical string form.

The scaffolding stages read one frozen CoxStage (scaffolding, Q_S, Cox
presentation, hypersurface and its class x_class), each step computed once.
"""

from __future__ import annotations

from .cox import (
    CoxPolynomial,
    CoxPresentation,
    chart_analysis,
    change_class_basis,
    cox_presentation,
    deformation_family,
    fiber_avoidance,
    hypersurface_from_scaffolding,
    minimal_generators,
    unstable_locus_equal,
)
from .errors import NonSimplicial, Record, SchemaError, json_ints, json_list
from .laurent import classical_period, laurent_from_json
from .linalg import vec_sub
from .polygon import (
    lattice_symmetries,
    polar,
    qg_dimension,
    singularity_multiset,
    singularity_report,
    validate_fano,
    volume_and_barycenter,
)
from .polyhedra import HalfspaceSystem
from .quantum import quantum_period
from .scaffolding import (
    Scaffolding,
    build_qs,
    normal_fan,
    scaffolding_from_json,
    variable_names,
)
from .series import first_mismatch
from .symbolic import parse_rational


def _num(x):
    """JSON value for an int or a Fraction: int when integral, else 'p/q'."""
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _series_json(ps):
    return {"order": ps.order, "coeffs": [str(c) for c in ps.coeffs]}


def run_polygon(data):
    if not isinstance(data, dict) or "vertices" not in data:
        raise SchemaError("polygon JSON needs a 'vertices' list")
    P = validate_fano(
        [json_ints(v, "polygon vertex", 2) for v in json_list(data["vertices"], "vertices")]
    )
    records = singularity_report(P)
    pol = polar(P)
    volume, bary = volume_and_barycenter(pol)
    multiset = singularity_multiset(records)
    return {
        "vertices": [list(v) for v in P.vertices],
        "singularities": [
            {
                "edge": r.edge,
                "quotient": str(r.quotient),
                "length": r.length,
                "height": r.height,
                "t_count": r.t_count,
                "residue": r.residue,
                "smooth": r.is_smooth,
                "t_cone": r.is_T,
                "rigid": r.is_rigid,
            }
            for r in records
        ],
        "singularity_multiset": {str(q): n for q, n in multiset.items()},
        "polar": {
            "vertices": [[_num(c) for c in v] for v in pol.vertices],
            "normalized_volume": _num(volume),
            "barycenter": [_num(c) for c in bary],
        },
        "k_polystable": bary == (0, 0),
        "symmetry_order": len(lattice_symmetries(P)),
        "qg_dimension": qg_dimension(records),
    }


class CoxStage(Record):
    """Scaffolding -> Q_S -> Cox presentation -> hypersurface, each step once."""

    scaffolding: Scaffolding
    qs: HalfspaceSystem
    cox: CoxPresentation
    basis: str
    h: tuple
    pairings: tuple
    equation: CoxPolynomial
    x_class: tuple


def _cox_stage(data):
    s = scaffolding_from_json(data)
    qs = build_qs(s)
    fan = normal_fan(qs)
    if fan.facet_rows != tuple(range(len(qs.normals))):
        raise NonSimplicial(
            "an inequality of Q_S does not define a facet; "
            "strut names cannot transfer to rays"
        )
    cox = cox_presentation(fan.rays, fan.max_cones, variable_names(s))
    basis = "canonical"
    if "class_basis" in data:
        rows = json_list(data["class_basis"], "class_basis")
        table = [json_ints(row, "class_basis row") for row in rows]
        try:
            cox = change_class_basis(cox, table)
        except ValueError as e:
            raise SchemaError(str(e)) from None
        basis = "input"
    h, pairings, equation = hypersurface_from_scaffolding(s, cox)
    return CoxStage(
        s, qs, cox, basis, h, pairings, equation, equation.class_vector(cox.weights)
    )


def run_scaffold(data, check_hull=False):
    st = _cox_stage(data)
    cox = st.cox
    report = {}
    if check_hull:
        report["hull_equals_target"] = st.scaffolding.hull_equals_target()
    family = deformation_family(cox, st.equation)
    charts = chart_analysis(cox, family)
    irrelevant = cox.irrelevant_generators()
    report.update(
        {
            "qs": {
                "normals": [list(n) for n in st.qs.normals],
                "bounds": list(st.qs.bounds),
            },
            "fan": {
                "rays": [list(r) for r in cox.rays],
                "max_cones": [list(c) for c in cox.max_cones],
            },
            "cox": {
                "variables": list(cox.names),
                "weight_matrix": [list(row) for row in cox.weights],
                "class_basis": st.basis,
                "anticanonical": list(cox.anticanonical),
                "irrelevant_generators": [list(g) for g in irrelevant],
            },
            "hypersurface": {
                "h": list(st.h),
                "pairings": list(st.pairings),
                "equation": str(st.equation),
                "class": list(st.x_class),
                "degree": list(vec_sub(cox.anticanonical, st.x_class)),
            },
            # The family has one term per section of the equation's class.
            "sections": [list(e) for e in sorted(family.terms)],
            "family": {"equation": str(family), "params": list(family.params)},
            "charts": [
                {
                    "cone": list(c.cone),
                    "variables": list(c.names),
                    "quotient": str(c.quotient),
                    "index": c.quotient.index,
                    "equation": str(c.equation),
                    "constant_term": str(c.constant_term),
                    "quasi_smooth": c.quasi_smooth,
                }
                for c in charts
            ],
        }
    )
    if "fiber_check" in data:
        forced = tuple(str(v) for v in json_list(data["fiber_check"], "fiber_check"))
        try:
            fc = fiber_avoidance(cox, family, forced)
        except ValueError as e:
            raise SchemaError(str(e)) from None
        report["fiber_check"] = {
            "forced_zero": list(forced),
            "verified": fc.verified,
            "witness": None if fc.witness is None else list(fc.witness),
        }
    if "irrelevant_product" in data:
        factors = [
            tuple(str(v) for v in json_list(f, "irrelevant_product factor"))
            for f in json_list(data["irrelevant_product"], "irrelevant_product")
        ]
        if not factors or any(not f for f in factors):
            raise SchemaError("irrelevant_product needs nonempty factor lists")
        gens = {frozenset()}
        for f in factors:
            gens = minimal_generators({g | {v} for g in gens for v in f})
        # The all-variables monomial lies in the ideal and keeps the product's variables.
        gens.add(frozenset().union(*factors))
        try:
            report["irrelevant_product_check"] = unstable_locus_equal(irrelevant, gens)
        except ValueError as e:
            raise SchemaError(str(e)) from None
    return report


def _laurent_stage(data, assignments=None):
    """Input JSON (bare or composite) -> Laurent polynomial, specialized."""
    if not isinstance(data, dict):
        raise SchemaError("periods input must be a JSON object")
    f = laurent_from_json(data.get("laurent", data))
    assign = data.get("assign", {})
    if not isinstance(assign, dict):
        raise SchemaError(f"'assign' must be an object, got {assign!r}")
    if merged := {**assign, **(assignments or {})}:
        values = {}
        for k, v in merged.items():
            try:
                values[str(k)] = parse_rational(str(v))
            except (ValueError, ZeroDivisionError):
                raise SchemaError(f"bad assignment value {v!r} for {k}") from None
        unknown = set(values) - set(f.params)
        if unknown:
            raise SchemaError(f"assignments for unknown parameters {sorted(unknown)}")
        f = f.specialize(values)
    return f


def run_classical(data, order, symbolic=False, assignments=None):
    if order < 0:
        raise SchemaError("truncation order must be >= 0")
    f = _laurent_stage(data, assignments)
    if f.params and not symbolic:
        raise SchemaError(
            f"parameters {list(f.params)} are unassigned; "
            "pass --symbolic or assign values"
        )
    pi = classical_period(f, order)
    out = _series_json(pi)
    out["symbolic"] = bool(f.params)
    return out


def run_quantum(data, order):
    if order < 0:
        raise SchemaError("truncation order must be >= 0")
    if not isinstance(data, dict):
        raise SchemaError("periods input must be a JSON object")
    sub = data.get("scaffolding", data)
    st = _cox_stage(sub)
    G, reg = quantum_period(st.cox, st.x_class, order)
    return {"order": order, "period": _series_json(G), "regularized": _series_json(reg)}


def run_compare(data, order, assignments=None):
    if order < 0:
        raise SchemaError("truncation order must be >= 0")
    if not isinstance(data, dict) or "scaffolding" not in data or "laurent" not in data:
        raise SchemaError("compare needs input with 'scaffolding' and 'laurent'")
    f = _laurent_stage(data, assignments)
    if f.params:
        raise SchemaError(
            f"compare needs a fully specialized polynomial; "
            f"parameters {list(f.params)} are unassigned"
        )
    st = _cox_stage(data["scaffolding"])
    if f.dim != st.scaffolding.ambient_rank:
        raise SchemaError(
            f"the Laurent polynomial has rank {f.dim}, "
            f"the scaffolding's lattice rank {st.scaffolding.ambient_rank}"
        )
    _, reg = quantum_period(st.cox, st.x_class, order)
    pi = classical_period(f, order)
    miss = first_mismatch(reg, pi, order)
    return {
        "order": order,
        "equal": miss is None,
        "first_mismatch": miss,
        "quantum_regularized": _series_json(reg),
        "classical": _series_json(pi),
    }
