"""Command line front end.

Exit codes: 0 success, 2 invalid input or a request over a work budget, 3
violated mathematical precondition, 4 series comparison mismatch, 5 internal
error (a bug: any other exception, reported on one line).  JSON output has no
timing and is written by ``dumps``, byte-identical to ``json.dumps(report,
sort_keys=True, indent=2)``; the text format adds a summary and elapsed time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache
from json.encoder import encode_basestring_ascii

# The interpreter's own SHA-256: hashlib would load OpenSSL's libcrypto for one digest.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .errors import InputError, MathError, SchemaError
from .pipeline import (
    run_classical,
    run_compare,
    run_polygon,
    run_quantum,
    run_scaffold,
)

FIXTURES = ("paper-P", "paper-scaffolding", "paper-f", "paper", "paper-series")


_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, type(None): lambda _: "null",
            bool: {True: "true", False: "false"}.__getitem__}


def dumps(obj):
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, on what a report holds:
    dicts with str keys, lists, tuples, str, int, bool and None.  Another type
    raises json's TypeError, an int past the int-string limit its ValueError.
    Each item gets a trailing comma; the last one becomes the closing line.
    """
    out = []
    write, scalar = out.append, _SCALARS.get

    def container(o, indent):
        inner = indent + "  "
        if type(o) is dict:
            write("{")
            for k in sorted(o):
                write(inner + encode_basestring_ascii(k) + ": ")
                if f := scalar(type(v := o[k])):
                    write(f(v))
                else:
                    container(v, inner)
                write(",")
            out[-1] = indent + "}" if o else "{}"
        elif type(o) is list or type(o) is tuple:
            write("[")
            for v in o:
                write(inner)
                if f := scalar(type(v)):
                    write(f(v))
                else:
                    container(v, inner)
                write(",")
            out[-1] = indent + "]" if o else "[]"
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    if f := scalar(type(obj)):
        return f(obj)
    container(obj, "\n")
    return "".join(out)


def _load_input(args):
    """Return (parsed JSON, provenance dict) for --in/--fixture; both read a file."""
    if args.fixture is not None:
        if args.fixture not in FIXTURES:
            raise SchemaError(
                f"unknown fixture {args.fixture!r}; available: {', '.join(FIXTURES)}"
            )
        path = os.path.join(os.path.dirname(__file__), "fixtures", f"{args.fixture}.json")
        source = {"fixture": args.fixture}
    else:
        path, source = args.infile, {"file": args.infile}
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise SchemaError(f"cannot read input file: {e}") from None
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as e:
        raise SchemaError(f"malformed JSON: {_int_limit(e) or e}") from None
    provenance = {
        "input_sha256": sha256(raw).hexdigest(),
        "version": __version__,
    }
    provenance.update(source)
    return data, provenance


def _int_limit(e):
    """Python's int-string limit error in words a CLI user can act on, else None."""
    if isinstance(e, ValueError) and "integer string conversion" in str(e):
        return (f"a number has more than {sys.get_int_max_str_digits()} digits, "
                "Python's limit for int-string conversion")


def _parse_assignments(pairs):
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise SchemaError(f"--assign needs name=value, got {item!r}")
        name, value = item.split("=", 1)
        out[name.strip()] = value.strip()
    return out


def _coeff_line(coeffs):
    return ", ".join(str(c) for c in coeffs)


def _polygon_text(report):
    lines = [f"valid Fano polygon with {len(report['vertices'])} vertices"]
    ms = report["singularity_multiset"]
    if ms:
        body = ", ".join(f"{q} x{n}" for q, n in sorted(ms.items()))
        lines.append(f"singularities: {body}")
    else:
        lines.append("singularities: none (smooth)")
    lines.append(f"normalized volume of polar: {report['polar']['normalized_volume']}")
    bx, by = report["polar"]["barycenter"]
    lines.append(f"barycenter of polar: ({bx}, {by})")
    lines.append(f"K-polystable: {'yes' if report['k_polystable'] else 'no'}")
    lines.append(f"symmetry order: {report['symmetry_order']}")
    lines.append(f"qg_dimension: {report['qg_dimension']}")
    return lines


def _scaffold_text(report):
    lines = []
    if "hull_equals_target" in report:
        verdict = "yes" if report["hull_equals_target"] else "NO"
        lines.append(f"hull equals target polygon: {verdict}")
    rays = report["fan"]["rays"]
    lines.append(f"fan: {len(rays)} rays, {len(report['fan']['max_cones'])} maximal cones")
    for name, ray in zip(report["cox"]["variables"], rays):
        lines.append(f"  ray {name}: ({', '.join(str(c) for c in ray)})")
    lines.append(f"weight matrix ({report['cox']['class_basis']} basis):")
    for row in report["cox"]["weight_matrix"]:
        lines.append(f"  ({', '.join(str(c) for c in row)})")
    lines.append(f"anticanonical class: {tuple(report['cox']['anticanonical'])}")
    lines.append(f"equation: {report['hypersurface']['equation']}")
    lines.append(f"class of hypersurface: {tuple(report['hypersurface']['class'])}")
    lines.append(f"family: {report['family']['equation']}")
    lines.append(f"charts: {len(report['charts'])}")
    for c in report["charts"]:
        flag = "quasi-smooth" if c["quasi_smooth"] else "not quasi-smooth"
        cone = ", ".join(c["variables"])
        lines.append(f"  sigma({cone}): {c['quotient']}; {c['equation']}; {flag}")
    if "fiber_check" in report:
        fc = report["fiber_check"]
        if fc["verified"]:
            lines.append(
                "fiber avoidance: Verified for zero locus "
                f"{{{', '.join(fc['forced_zero'])}}}"
            )
        else:
            lines.append(
                f"fiber avoidance: FAILED at pattern {{{', '.join(fc['witness'])}}}"
            )
    if "irrelevant_product_check" in report:
        ok = report["irrelevant_product_check"]
        lines.append(f"irrelevant ideal matches product presentation: {'yes' if ok else 'NO'}")
    return lines


def _periods_text(mode, report):
    lines = []
    if mode == "classical":
        kind = "symbolic" if report["symbolic"] else "specialized"
        lines.append(f"classical period ({kind}), order {report['order']}:")
        lines.append(f"  coeffs: {_coeff_line(report['coeffs'])}")
    elif mode == "quantum":
        lines.append(f"quantum period, order {report['order']}:")
        lines.append(f"  coeffs: {_coeff_line(report['period']['coeffs'])}")
        lines.append(f"  regularized: {_coeff_line(report['regularized']['coeffs'])}")
    else:
        if report["equal"]:
            lines.append(f"EQUAL through t^{report['order']}")
        else:
            d = report["first_mismatch"]
            q = report["quantum_regularized"]["coeffs"][d]
            c = report["classical"]["coeffs"][d]
            lines.append(
                f"MISMATCH at t^{d}: regularized quantum {q} vs classical {c}"
            )
        lines.append(f"  quantum: {_coeff_line(report['quantum_regularized']['coeffs'])}")
        lines.append(f"  classical: {_coeff_line(report['classical']['coeffs'])}")
    return lines


@cache
def build_parser():
    """The argument parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fanokit",
        description="Exact Fano polygon, scaffolding and period computations.",
    )
    parser.add_argument("--version", action="version", version=f"fanokit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, order=False):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--in", dest="infile", metavar="FILE", help="input JSON file")
        src.add_argument("--fixture", metavar="NAME", help="bundled input fixture")
        if order:
            p.add_argument(
                "--order",
                type=int,
                default=12,
                metavar="D",
                help="truncation order (default 12)",
            )
        p.add_argument(
            "--format",
            choices=("json", "text"),
            default="json",
            help="output format (default json)",
        )
        p.add_argument("--out", metavar="FILE", help="write output to a file")

    add_io(sub.add_parser("polygon", help="validate a polygon and report invariants"))

    scaffold = sub.add_parser("scaffold", help="run the scaffolding pipeline")
    add_io(scaffold)
    scaffold.add_argument(
        "--check-hull",
        action="store_true",
        help="verify the strut hull equals the target polygon",
    )

    periods = sub.add_parser("periods", help="classical/quantum period series")
    psub = periods.add_subparsers(dest="mode", required=True)

    classical = psub.add_parser("classical", help="constant-term period of a Laurent polynomial")
    add_io(classical, order=True)
    classical.add_argument(
        "--symbolic",
        action="store_true",
        help="keep unassigned parameters symbolic",
    )

    quantum = psub.add_parser("quantum", help="factorial-sum quantum period")
    add_io(quantum, order=True)

    compare = psub.add_parser("compare", help="regularized quantum vs classical period")
    add_io(compare, order=True)
    for p in (classical, compare):
        p.add_argument(
            "--assign",
            action="append",
            metavar="NAME=VALUE",
            help="assign a rational value to a parameter (repeatable)",
        )
    return parser


def _dispatch(args):
    """Return (report dict, exit code)."""
    data, provenance = _load_input(args)
    code = 0
    if args.command == "polygon":
        report = run_polygon(data)
    elif args.command == "scaffold":
        report = run_scaffold(data, check_hull=args.check_hull)
    else:
        if args.mode == "classical":
            report = run_classical(
                data,
                args.order,
                symbolic=args.symbolic,
                assignments=_parse_assignments(args.assign),
            )
        elif args.mode == "quantum":
            report = run_quantum(data, args.order)
        else:
            report = run_compare(
                data, args.order, assignments=_parse_assignments(args.assign)
            )
            code = 0 if report["equal"] else 4
    report["provenance"] = provenance
    return report, code


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report, code = _dispatch(args)
        if args.format == "json":
            text = dumps(report) + "\n"
        else:
            lines = (_polygon_text(report) if args.command == "polygon"
                     else _scaffold_text(report) if args.command == "scaffold"
                     else _periods_text(args.mode, report))
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            text = "\n".join(lines + [f"elapsed: {elapsed_ms:.1f} ms"]) + "\n"
    except (InputError, MathError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2 if isinstance(e, InputError) else 3
    except Exception as e:
        if limit := _int_limit(e):
            print(f"error: WorkBudgetExceeded: {limit}", file=sys.stderr)
            return 2
        print(f"error: InternalError: {type(e).__name__}: {e}".replace("\n", " "), file=sys.stderr)
        return 5
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: {type(e).__name__}: cannot write output file: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
