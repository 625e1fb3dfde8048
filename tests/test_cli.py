import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import reduce
from importlib import resources
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fanokit
import fanokit.linalg
from fanokit.cli import FIXTURES, _dispatch, build_parser, dumps, main
from fanokit.linalg import mat_vec
from fanokit.pipeline import run_polygon

from test_linalg import mat_mul
from test_polygon import GL2_GENERATORS, fano_polygons

GOLDEN = Path(__file__).parent / "golden"

PAPER_F_PARAMS = ["a1", "a2", "b1", "b2", "c1", "c2"]

FIXTURE_W = [[0, 0, 1, 1, 1, 1], [0, 1, 3, 1, 0, 6], [1, 0, 1, 3, 6, 0]]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_polygon_fixture_report(capsys):
    report = run_json(capsys, "polygon", "--fixture", "paper-P")
    assert report["polar"]["normalized_volume"] == "22/15"
    assert report["polar"]["barycenter"] == [0, 0]
    assert report["singularity_multiset"] == {
        "1/3(1,1)": 2,
        "1/4(1,1)": 2,
        "1/5(1,2)": 2,
    }
    assert report["k_polystable"] is True
    assert report["symmetry_order"] == 2
    assert report["qg_dimension"] == 2
    assert len(report["singularities"]) == 6
    assert report["provenance"]["fixture"] == "paper-P"
    assert report["provenance"]["version"]


def test_polygon_text_format(capsys):
    code, out, _ = run_cli(capsys, "polygon", "--fixture", "paper-P", "--format", "text")
    assert code == 0
    assert "22/15" in out
    assert "K-polystable: yes" in out
    assert "elapsed:" in out


def test_json_output_is_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "polygon", "--fixture", "paper-P")
    _, out2, _ = run_cli(capsys, "polygon", "--fixture", "paper-P")
    assert out1 == out2
    assert "elapsed" not in out1


# Each golden file's name and the CLI run whose stdout it holds.
GOLDEN_RUNS = [
    ("polygon-paper-P", ["polygon", "--fixture", "paper-P"]),
    (
        "scaffold-paper-scaffolding-check-hull",
        ["scaffold", "--fixture", "paper-scaffolding", "--check-hull"],
    ),
    (
        "classical-paper-f-order4-symbolic",
        ["periods", "classical", "--fixture", "paper-f", "--order", "4", "--symbolic"],
    ),
    (
        "classical-paper-f-order6-symbolic-assign",
        ["periods", "classical", "--fixture", "paper-f", "--order", "6", "--symbolic",
         "--assign", "a1=1/2", "--assign", "b2=-1/3"],
    ),
    ("quantum-paper-order12", ["periods", "quantum", "--fixture", "paper", "--order", "12"]),
    ("compare-paper-order12", ["periods", "compare", "--fixture", "paper", "--order", "12"]),
    ("compare-paper-order40", ["periods", "compare", "--fixture", "paper", "--order", "40"]),
    ("quantum-paper-order60", ["periods", "quantum", "--fixture", "paper", "--order", "60"]),
    ("compare-paper-order60", ["periods", "compare", "--fixture", "paper", "--order", "60"]),
    (
        "classical-paper-f-order8-symbolic",
        ["periods", "classical", "--fixture", "paper-f", "--order", "8", "--symbolic"],
    ),
    # A threefold scaffolding (Q_S of dimension 4) and its Laurent-inversion
    # mirror; the path is relative to the repository root, as in CI.
    (
        "compare-inversion-threefold-order8",
        ["periods", "compare", "--in", "tests/golden/inversion-threefold.json", "--order", "8"],
    ),
]


@pytest.mark.parametrize("name, argv", GOLDEN_RUNS)
def test_json_output_matches_golden(capsys, monkeypatch, name, argv):
    """Byte-for-byte stdout of fixture runs, against files in tests/golden."""
    monkeypatch.chdir(GOLDEN.parent.parent)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out.encode("utf-8") == (GOLDEN / f"{name}.json").read_bytes()


def as_json(obj):
    """The writer's oracle."""
    return json.dumps(obj, sort_keys=True, indent=2)


def outcome(write, obj):
    """write(obj), or the type and message of the TypeError or ValueError it raises."""
    try:
        return write(obj)
    except (TypeError, ValueError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("argv", [argv for _, argv in GOLDEN_RUNS]
                         + [["scaffold", "--fixture", "paper-scaffolding"]])
def test_the_writer_matches_json_dumps_on_the_golden_reports(monkeypatch, argv):
    """Every report of a golden run, and scaffold without --check-hull, with its
    provenance block, written as json.dumps(sort_keys=True, indent=2) writes it."""
    monkeypatch.chdir(GOLDEN.parent.parent)
    report, _ = _dispatch(build_parser().parse_args(argv))
    assert dumps(report) == as_json(report)


@settings(max_examples=100, deadline=None)
@given(P=fano_polygons(), word=st.lists(st.sampled_from(GL2_GENERATORS), max_size=12))
def test_the_writer_matches_json_dumps_on_polygon_reports(P, word):
    """Polygon reports of random Fano polygons and their GL2(Z) images."""
    g = reduce(mat_mul, word, ((1, 0), (0, 1)))
    for verts in (P.vertices, [mat_vec(g, v) for v in P.vertices]):
        report = run_polygon({"vertices": [list(v) for v in verts]})
        report["provenance"] = {"input_sha256": "0" * 64, "version": fanokit.__version__,
                                "file": "pólygon \"1\".json"}
        assert dumps(report) == as_json(report)


LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[], [{}], ({"d": ((),)},)], {"e": [[[[]]]]},
    [True, 1, False, 0, None], {"t": True, "f": False, "n": None, "one": 1, "z": 0},
    True, None, 0, -7, "", "plain",
    {"quote \" backslash \\ newline \n nul \x00 é \U0001F600": ["\"\\\n\x00é\U0001F600"]},
    {"b": 1, "a": 2, "B": 3, "_": 4, "é": 5, "10": 6, "9": 7, "": 8, "a b": 9},
    [int("9" * LIMIT), -int("9" * LIMIT)],
    {"big": [10 ** LIMIT]},
    [-(10 ** LIMIT)],
    {"x": [Fraction(1, 2)]},
    Fraction(3),
    {"set": {1}},
], ids=["empty-dict", "empty-list", "empty-tuple", "empty-values", "nested-empties", "deep",
        "bools-next-to-ints", "bool-values", "true", "none", "zero", "negative", "empty-str",
        "str", "escapes", "key-order", "ints-at-the-limit", "int-over-the-limit",
        "negative-over-the-limit", "fraction", "bare-fraction", "set"])
def test_the_writer_matches_json_dumps_by_hand(obj):
    """Output, or the exception type and message, equal json.dumps's."""
    assert outcome(dumps, obj) == outcome(as_json, obj)


def test_internal_error_exits_5_with_one_line(capsys, monkeypatch):
    def broken(f, order):
        raise RuntimeError("kernel broke\nsecond line")

    monkeypatch.setattr("fanokit.pipeline.classical_period", broken)
    code, out, err = run_cli(capsys, "periods", "classical", "--fixture", "paper", "--order", "2")
    assert code == 5
    assert out == ""
    assert err == "error: InternalError: RuntimeError: kernel broke second line\n"


def test_polygon_smooth_square(capsys, tmp_path):
    path = tmp_path / "square.json"
    path.write_text('{"vertices": [[1,0],[0,1],[-1,0],[0,-1]]}')
    report = run_json(capsys, "polygon", "--in", str(path))
    assert report["singularity_multiset"] == {}
    assert report["symmetry_order"] == 8
    assert report["qg_dimension"] == 0
    assert all(s["smooth"] for s in report["singularities"])


def test_input_digest_covers_a_large_file(capsys, tmp_path):
    """``input_sha256`` is the SHA-256 of the input's bytes, here over more than
    a thousand 64-byte blocks: the paper's polygon padded past 64 KiB with
    whitespace, which changes no other field of the report."""
    fixture = resources.files("fanokit").joinpath("fixtures", "paper-P.json").read_bytes()
    raw = b" \t\r\n" * 8192 + fixture + b"\n" * 40000
    assert len(raw) > 64 * 1024
    path = tmp_path / "padded.json"
    path.write_bytes(raw)
    report = run_json(capsys, "polygon", "--in", str(path))
    assert report["provenance"]["input_sha256"] == hashlib.sha256(raw).hexdigest()
    expected = run_json(capsys, "polygon", "--fixture", "paper-P")
    del report["provenance"], expected["provenance"]
    assert report == expected


def test_polygon_invalid_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [[2,2],[0,1],[-1,-1]]}')
    code, _, err = run_cli(capsys, "polygon", "--in", str(bad))
    assert code == 2
    assert "NonPrimitiveVertex" in err

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, err = run_cli(capsys, "polygon", "--in", str(garbled))
    assert code == 2
    assert "SchemaError" in err

    code, _, err = run_cli(capsys, "polygon", "--in", str(tmp_path / "absent.json"))
    assert code == 2


@pytest.mark.parametrize(
    "fixture, path, value, argv",
    [
        ("paper-P", ("vertices", 0), ["a", 0], ["polygon"]),
        ("paper-P", ("vertices",), [1, 2, 3], ["polygon"]),
        ("paper-P", ("vertices", 0), [2.5, 1], ["polygon"]),
        ("paper-scaffolding", ("n_u_rank",), "x", ["scaffold"]),
        ("paper-scaffolding", ("struts", 0, "divisor"), ["a", 1], ["scaffold"]),
        ("paper-scaffolding", ("fiber_check",), 5, ["scaffold"]),
        (
            "paper-scaffolding",
            ("struts", 0),
            {"name": "x1", "divisor": [0, 0], "chi": [0]},
            ["scaffold"],
        ),
        ("paper-f", ("terms", 2, "coeff"), "x", ["periods", "classical", "--symbolic"]),
        ("paper-f", ("terms", 2, "coeff"), "1/0", ["periods", "classical", "--symbolic"]),
        ("paper-f", ("terms", 2, "exp"), ["a", 1], ["periods", "classical", "--symbolic"]),
        ("paper-f", None, None, ["periods", "classical", "--symbolic", "--assign", "a1=1/0"]),
        ("paper", ("assign", "a1"), "1/0", ["periods", "compare"]),
        ("paper", ("laurent",), {"terms": 5}, ["periods", "compare"]),
        (
            "paper",
            ("laurent",),
            {
                "params": ["a1", "a2", "b1", "b2", "c1", "c2"],
                "terms": [{"exp": [1], "coeff": "1"}, {"exp": [-1], "coeff": "1"}],
            },
            ["periods", "compare"],
        ),
        (
            "paper-f",
            ("terms",),
            [{"exp": [1], "coeff": "1"}, {"exp": [1], "coeff": "2"}],
            ["periods", "classical", "--symbolic"],
        ),
        (
            "paper-f",
            ("params",),
            ["a1", "a2", "b1", "b2", "c1", "c2", "d", "d"],
            ["periods", "classical", "--symbolic", "--order", "2"],
        ),
        *(
            ("paper-f", ("params",), [*PAPER_F_PARAMS, name],
             ["periods", "classical", "--symbolic", "--order", "2"])
            for name in ({}, [1], 1, None, True)
        ),
        (
            "paper",
            ("laurent", "params"),
            [*PAPER_F_PARAMS, {}],
            ["periods", "compare", "--order", "2", "--assign", "a1=2"],
        ),
        (None, None, b"\xff", ["polygon"]),
        (None, None, b"[" * 100000, ["polygon"]),
    ],
    ids=[
        "vertex-string", "vertices-flat", "vertex-float", "n_u_rank-string",
        "divisor-string", "fiber_check-int", "strut-all-zero", "coeff-unknown-name",
        "coeff-div-zero", "exp-string", "assign-div-zero", "file-assign-div-zero",
        "terms-int", "laurent-wrong-rank", "exp-repeated", "param-repeated",
        "param-object", "param-list", "param-int", "param-null", "param-bool",
        "file-param-object-assign",
        "invalid-utf8", "deep-nesting",
    ],
)
def test_malformed_json_is_a_schema_error(capsys, tmp_path, fixture, path, value, argv):
    """A fixture with one field replaced by a value of the wrong type or
    an invalid number exits 2 with one error line, never a traceback.  Raw
    bytes with no fixture (not UTF-8, nested too deeply) are the whole file."""
    infile = tmp_path / "bad.json"
    if fixture is None:
        infile.write_bytes(value)
    else:
        data = json.loads(
            resources.files("fanokit").joinpath("fixtures", f"{fixture}.json").read_text()
        )
        if path is not None:
            node = data
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        infile.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, *argv, "--in", str(infile))
    assert code == 2
    assert out == ""
    assert err.startswith("error: SchemaError: ")
    assert err.count("\n") == 1


def test_unwritable_out_file(capsys, tmp_path):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, "polygon", "--fixture", "paper-P", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: FileNotFoundError: cannot write output file: ")
    assert err.count("\n") == 1
    assert not target.parent.exists()


def test_class_rank_four(capsys, tmp_path):
    """A fifth strut w gives class rank 4, and a sixth v class rank 5: the
    scaffold report is computed, and the quantum side matches the mirror.
    The moment segment of w shifted by its chi is the point (1, 3), that of
    v the point (-1, -3), so each adds one term x^(1, 3) or x^(-1, -3) with
    coefficient 1 to the paper's Laurent polynomial (Coates, Kasprzyk and
    Prince, Laurent inversion), and compare reads EQUAL at orders 12 and 16."""
    fixtures = resources.files("fanokit").joinpath("fixtures")
    scaffolding = json.loads(fixtures.joinpath("paper-scaffolding.json").read_text())
    for key in ("class_basis", "fiber_check", "irrelevant_product", "target"):
        del scaffolding[key]
    paper = json.loads(fixtures.joinpath("paper.json").read_text())
    for strut, exp in (({"name": "w", "divisor": [-1, 1], "chi": [3]}, [1, 3]),
                       ({"name": "v", "divisor": [1, -1], "chi": [-3]}, [-1, -3])):
        scaffolding["struts"].append(strut)
        paper["scaffolding"] = scaffolding
        paper["laurent"]["terms"].append({"exp": exp, "coeff": "1"})
        rank = len(scaffolding["struts"]) - 1
        scaffold_in = tmp_path / f"rank{rank}.json"
        scaffold_in.write_text(json.dumps(scaffolding))
        compare_in = tmp_path / f"compare{rank}.json"
        compare_in.write_text(json.dumps(paper))

        report = run_json(capsys, "scaffold", "--in", str(scaffold_in))
        assert len(report["cox"]["weight_matrix"]) == rank
        if rank == 4:
            assert len(report["sections"]) == 3
            assert report["family"]["params"] == ["s1"]
        for order in (12, 16):
            result = run_json(capsys, "periods", "compare", "--in", str(compare_in),
                              "--order", str(order))
            assert result["equal"] and result["first_mismatch"] is None
            assert len(result["classical"]["coeffs"]) == order + 1
        quantum = run_json(capsys, "periods", "quantum", "--in", str(scaffold_in), "--order", "16")
        assert quantum["regularized"] == result["quantum_regularized"]


@pytest.mark.parametrize("factors", [10, 40])
def test_many_shape_factors_fail_fast(capsys, tmp_path, factors):
    """Ten and forty P^1 factors, a Q_S of dimension 21 and 81, exit 2 within
    a second: dual_cone's budget counts the factors * 2 + 2 Bareiss minors
    each candidate line of the homogenized cone takes.  The nef check reads
    the divisor degrees instead of building all 2^factors moment vertices."""
    struts = [
        {"name": "a", "divisor": [1] * (2 * factors), "chi": [0]},
        {"name": "b", "divisor": [0] * (2 * factors), "chi": [1]},
    ]
    infile = tmp_path / f"p1x{factors}.json"
    infile.write_text(
        json.dumps({"shape": {"projective_dims": [1] * factors}, "n_u_rank": 1, "struts": struts})
    )
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "scaffold", "--in", str(infile))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: WorkBudgetExceeded: the cone of {2 * factors + 3} "
                          f"inequalities in dimension {2 * factors + 2} would take ")
    assert err.count("\n") == 1


def test_unknown_fixture(capsys):
    """--fixture takes a name from FIXTURES, checked before any file is opened,
    so a path to a bundled file or to any other file is refused."""
    for name in "nope", "../paper-P", "fixtures/paper-P", "paper-P.json", "/etc/passwd":
        code, out, err = run_cli(capsys, "polygon", "--fixture", name)
        assert code == 2 and out == ""
        assert "unknown fixture" in err
    bundled = Path(fanokit.__file__).parent / "fixtures"
    assert set(FIXTURES) == {p.stem for p in bundled.glob("*.json")}


def test_scaffold_fixture_report(capsys):
    report = run_json(capsys, "scaffold", "--fixture", "paper-scaffolding")
    assert report["hypersurface"]["equation"] == "z1*z2 - x1^2*x2^2*y1*y2"
    assert report["hypersurface"]["h"] == [1, 1, 0]
    assert report["hypersurface"]["pairings"] == [-2, -2, -1, -1, 1, 1]
    assert report["hypersurface"]["class"] == [2, 6, 6]
    assert report["hypersurface"]["degree"] == [2, 5, 5]
    assert report["cox"]["weight_matrix"] == FIXTURE_W
    assert report["cox"]["class_basis"] == "input"
    assert report["cox"]["anticanonical"] == [4, 11, 11]
    assert len(report["charts"]) == 8
    assert len(report["sections"]) == 4
    assert report["family"]["params"] == ["s1", "s2"]
    assert report["fiber_check"] == {
        "forced_zero": ["x1", "x2"],
        "verified": True,
        "witness": None,
    }
    assert report["irrelevant_product_check"] is True
    assert "hull_equals_target" not in report
    flags = [c["quasi_smooth"] for c in report["charts"]]
    assert flags.count(True) == 4


def test_irrelevant_product_with_many_redundant_factors(capsys, tmp_path):
    """Twenty redundant (y1, y2) factors: the product is minimized factor by
    factor, never expanded to 72 * 2^20 generators."""
    data = json.loads(
        resources.files("fanokit").joinpath("fixtures", "paper-scaffolding.json").read_text()
    )
    data["irrelevant_product"] += [["y1", "y2"]] * 20
    infile = tmp_path / "redundant.json"
    infile.write_text(json.dumps(data))
    start = time.perf_counter()
    report = run_json(capsys, "scaffold", "--in", str(infile))
    assert time.perf_counter() - start < 1.0
    assert report["irrelevant_product_check"] is True


BIG_FAN_STRUTS = (
    "1,1|2 1,1|-2 -1,2|1 2,-1|-1 7,-6|7 2,0|4 1,-1|9 -4,4|-6 7,-6|5 -2,2|2 "
    "4,-1|3 5,-3|8 1,0|6 5,-4|10 6,-4|9 6,-6|11 0,2|-2 0,2|-1 3,-3|10 -3,3|-1"
)


def big_fan_input():
    """A scaffolding with 22 Cox variables and 40 maximal cones."""
    names = ["x1", "x2", "y1", "y2"] + [f"w{i}" for i in range(1, 17)]
    struts = []
    for name, token in zip(names, BIG_FAN_STRUTS.split()):
        divisor, chi = token.split("|")
        struts.append(
            {"name": name, "divisor": [int(a) for a in divisor.split(",")], "chi": [int(chi)]}
        )
    return {"shape": {"projective_dims": [1]}, "n_u_rank": 1, "struts": struts}


def test_fiber_check_on_a_22_variable_fan(capsys, tmp_path):
    """A fiber check on 22 Cox variables walks the faces of 40 cones instead
    of 2^20 zero-patterns."""
    infile = tmp_path / "big.json"
    infile.write_text(json.dumps({**big_fan_input(), "fiber_check": ["x1", "y1"]}))
    start = time.perf_counter()
    report = run_json(capsys, "scaffold", "--in", str(infile))
    assert time.perf_counter() - start < 5.0
    assert len(report["cox"]["variables"]) == 22
    assert len(report["fan"]["max_cones"]) == 40
    assert report["fiber_check"] == {
        "forced_zero": ["x1", "y1"],
        "verified": True,
        "witness": None,
    }


def test_irrelevant_product_of_the_primitive_collections(capsys, tmp_path):
    """The irrelevant ideal is the intersection of the primes of the
    primitive collections (the minimal non-faces; Batyrev).  On the
    22-variable fan these are 172 factors, whose full product would have
    about 2^171 terms."""
    infile = tmp_path / "big.json"
    infile.write_text(json.dumps(big_fan_input()))
    report = run_json(capsys, "scaffold", "--in", str(infile))
    names = report["cox"]["variables"]
    cones = [set(c) for c in report["fan"]["max_cones"]]

    def is_face(S):
        return any(S <= c for c in cones)

    collections = [
        S
        for k in (2, 3, 4)  # a simplicial 3-fan has none larger
        for S in map(set, combinations(range(len(names)), k))
        if not is_face(S) and all(is_face(S - {i}) for i in S)
    ]
    assert len(collections) == 172
    factors = [[names[i] for i in sorted(S)] for S in collections]
    infile.write_text(json.dumps({**big_fan_input(), "irrelevant_product": factors}))
    start = time.perf_counter()
    report = run_json(capsys, "scaffold", "--in", str(infile))
    assert time.perf_counter() - start < 2.0
    assert report["irrelevant_product_check"] is True
    factors[0] = factors[0][:1] + factors[1][:1]
    infile.write_text(json.dumps({**big_fan_input(), "irrelevant_product": factors}))
    assert run_json(capsys, "scaffold", "--in", str(infile))["irrelevant_product_check"] is False


def test_scaffold_check_hull(capsys):
    report = run_json(
        capsys, "scaffold", "--fixture", "paper-scaffolding", "--check-hull"
    )
    assert report["hull_equals_target"] is True
    code, out, _ = run_cli(
        capsys,
        "scaffold",
        "--fixture",
        "paper-scaffolding",
        "--check-hull",
        "--format",
        "text",
    )
    assert code == 0
    assert "hull equals target polygon: yes" in out


def test_scaffold_input_errors(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    missing.write_text(
        '{"shape": {"projective_dims": [1]}, "n_u_rank": 1,'
        ' "struts": [{"name": "x1", "divisor": [1, 1]}]}'
    )
    code, _, err = run_cli(capsys, "scaffold", "--in", str(missing))
    assert code == 2
    assert "SchemaError" in err

    unbounded = tmp_path / "unbounded.json"
    unbounded.write_text(
        '{"shape": {"projective_dims": [1, 1]}, "n_u_rank": 1,'
        ' "struts": [{"name": "a", "divisor": [1, 1, 1, 1], "chi": [0]}]}'
    )
    code, _, err = run_cli(capsys, "scaffold", "--in", str(unbounded))
    assert code == 3
    assert err == "error: Unbounded: region has a nontrivial recession cone\n"


def test_scaffold_strut_named_like_a_shape_variable(capsys, tmp_path):
    data = json.loads(
        resources.files("fanokit")
        .joinpath("fixtures", "paper-scaffolding.json")
        .read_text()
    )
    data["struts"][0]["name"] = "z1"
    del data["fiber_check"], data["irrelevant_product"]
    infile = tmp_path / "clash.json"
    infile.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "scaffold", "--in", str(infile))
    assert code == 2
    assert out == ""
    assert err.startswith("error: SchemaError: ") and "'z1'" in err
    assert err.count("\n") == 1


def test_scaffold_math_error(capsys, tmp_path):
    unbounded = tmp_path / "unbounded.json"
    unbounded.write_text(
        '{"shape": {"projective_dims": [1]}, "n_u_rank": 1,'
        ' "struts": [{"name": "a", "divisor": [1, 1], "chi": [0]}]}'
    )
    code, _, err = run_cli(capsys, "scaffold", "--in", str(unbounded))
    assert code == 3
    assert "Unbounded" in err


def test_periods_classical_symbolic(capsys):
    report = run_json(
        capsys,
        "periods",
        "classical",
        "--fixture",
        "paper-f",
        "--order",
        "3",
        "--symbolic",
    )
    assert report["symbolic"] is True
    assert report["coeffs"][0] == "1"
    assert report["coeffs"][1] == "0"
    assert report["coeffs"][2] == "2*a1*a2 + 2*b1*b2 + 2*c1*c2 + 14"
    assert (
        report["coeffs"][3]
        == "6*a1*b1 + 12*a1*c2 + 6*a2*b2 + 12*a2*c1 + 24*b1 + 24*b2 + 6*c1 + 6*c2"
    )


def test_periods_classical_requires_assignment(capsys):
    code, _, err = run_cli(
        capsys, "periods", "classical", "--fixture", "paper-f", "--order", "2"
    )
    assert code == 2
    assert "unassigned" in err


def test_periods_classical_assignments(capsys):
    report = run_json(
        capsys,
        "periods",
        "classical",
        "--fixture",
        "paper-f",
        "--order",
        "4",
        "--assign",
        "a1=1",
        "--assign",
        "a2=1",
        "--assign",
        "b1=0",
        "--assign",
        "b2=0",
        "--assign",
        "c1=0",
        "--assign",
        "c2=0",
    )
    assert report["coeffs"] == ["1", "0", "16", "0", "936"]
    assert report["symbolic"] is False

    code, _, err = run_cli(
        capsys,
        "periods",
        "classical",
        "--fixture",
        "paper-f",
        "--order",
        "2",
        "--assign",
        "zz=1",
    )
    assert code == 2
    assert "unknown parameters" in err


def test_periods_classical_of_a_polynomial_that_specializes_to_zero(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text('{"params": ["a"], "terms": [{"exp": [1, 0], "coeff": "a"}]}')
    report = run_json(
        capsys, "periods", "classical", "--in", str(path), "--order", "3", "--assign", "a=0"
    )
    assert report["coeffs"] == ["1", "0", "0", "0"]
    assert report["symbolic"] is False


def test_periods_classical_composite_fixture(capsys):
    report = run_json(
        capsys, "periods", "classical", "--fixture", "paper", "--order", "4"
    )
    assert report["coeffs"] == ["1", "0", "16", "0", "936"]


def test_periods_quantum(capsys):
    report = run_json(
        capsys, "periods", "quantum", "--fixture", "paper", "--order", "4"
    )
    assert report["period"]["coeffs"] == ["1", "0", "8", "0", "39"]
    assert report["regularized"]["coeffs"] == ["1", "0", "16", "0", "936"]
    code, out, _ = run_cli(
        capsys,
        "periods",
        "quantum",
        "--fixture",
        "paper",
        "--order",
        "4",
        "--format",
        "text",
    )
    assert code == 0
    assert "regularized: 1, 0, 16, 0, 936" in out


def test_periods_compare_equal(capsys):
    code, out, _ = run_cli(
        capsys,
        "periods",
        "compare",
        "--fixture",
        "paper",
        "--order",
        "8",
        "--format",
        "text",
    )
    assert code == 0
    assert "EQUAL through t^8" in out

    report = run_json(
        capsys, "periods", "compare", "--fixture", "paper", "--order", "6"
    )
    assert report["equal"] is True
    assert report["first_mismatch"] is None
    assert report["quantum_regularized"]["coeffs"] == report["classical"]["coeffs"]


def test_periods_compare_mismatch(capsys):
    code, out, _ = run_cli(
        capsys,
        "periods",
        "compare",
        "--fixture",
        "paper",
        "--order",
        "4",
        "--assign",
        "a1=2",
        "--format",
        "text",
    )
    assert code == 4
    assert "MISMATCH at t^2" in out


def test_periods_bad_order(capsys):
    code, _, err = run_cli(
        capsys, "periods", "quantum", "--fixture", "paper", "--order", "-1"
    )
    assert code == 2
    assert "order" in err


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "polygon", "--fixture", "paper-P", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    saved = json.loads(target.read_text())
    assert saved["polar"]["normalized_volume"] == "22/15"


def test_series_fixture_is_golden(capsys):
    report = run_json(
        capsys, "periods", "quantum", "--fixture", "paper", "--order", "12"
    )
    from importlib import resources

    golden = json.loads(
        resources.files("fanokit").joinpath("fixtures", "paper-series.json").read_text()
    )
    assert report["regularized"] == golden


def test_assign_parse_error(capsys):
    code, _, err = run_cli(
        capsys,
        "periods",
        "classical",
        "--fixture",
        "paper-f",
        "--order",
        "2",
        "--assign",
        "a1",
    )
    assert code == 2
    assert "name=value" in err


ASSIGN_ALL = ["--assign", "a1=1", "--assign", "a2=1", "--assign", "b1=0",
              "--assign", "b2=0", "--assign", "c1=0", "--assign", "c2=0"]


def test_consecutive_calls_share_no_parser_state(capsys):
    """The parser is built once per process; --assign lists, subcommand
    options and defaults do not carry from one main call into the next."""
    argvs = [
        ["periods", "classical", "--fixture", "paper-f", "--order", "4", *ASSIGN_ALL],
        ["periods", "classical", "--fixture", "paper-f", "--order", "2", "--assign", "a1=1"],
        ["periods", "compare", "--fixture", "paper", "--order", "4", "--assign", "a1=2"],
        ["periods", "compare", "--fixture", "paper", "--order", "4"],
        ["scaffold", "--fixture", "paper-scaffolding", "--check-hull"],
        ["scaffold", "--fixture", "paper-scaffolding"],
        ["periods", "classical", "--fixture", "paper-f", "--order", "3", "--symbolic"],
        ["polygon", "--fixture", "paper-P"],
    ]
    assert build_parser() is build_parser()
    consecutive = [run_cli(capsys, *argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert consecutive == fresh
    assert [code for code, _, _ in fresh] == [0, 2, 4, 0, 0, 0, 0, 0]


def test_quantum_work_budget_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "periods", "quantum", "--fixture", "paper", "--order", "100000"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: WorkBudgetExceeded: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("periods", "classical", "--fixture", "paper"),
    ("periods", "classical", "--fixture", "paper-f", "--symbolic"),
], ids=["specialized", "symbolic"])
def test_classical_work_budget_exits_2_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--order", "1000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: WorkBudgetExceeded: ") and err.count("\n") == 1


def fixture_json(name):
    return json.loads(resources.files("fanokit").joinpath("fixtures", f"{name}.json").read_text())


def many_struts(n):
    """The paper scaffolding plus n seeded struts, most of them redundant."""
    data = fixture_json("paper-scaffolding")
    rng = random.Random(0)
    extra = [
        {"name": f"w{i}", "divisor": [rng.randint(0, 40), rng.randint(0, 40)],
         "chi": [rng.randint(-40, 40)]}
        for i in range(n)
    ]
    return {"shape": data["shape"], "n_u_rank": 1, "struts": data["struts"] + extra}


def test_many_struts_exceed_the_dual_cone_budget_at_once(capsys, tmp_path):
    """C(167, 3) * 167 ray checks are refused before the first; 44 struts
    (C(47, 3) * 47 checks) stay inside the budget and reach the facet check."""
    infile = tmp_path / "struts.json"
    infile.write_text(json.dumps(many_struts(160)))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "scaffold", "--in", str(infile))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: WorkBudgetExceeded: ") and err.count("\n") == 1
    infile.write_text(json.dumps(many_struts(40)))
    code, out, err = run_cli(capsys, "scaffold", "--in", str(infile))
    assert code == 3 and err.startswith("error: NonSimplicial: ")


DIGITS = str(sys.get_int_max_str_digits())


@pytest.mark.parametrize("text, argv, kind, needle", [
    ('{"vertices": [[2, 1], [1, 2], [-1, 2], [-2, -1], [-1, -2], [1, -2]], "note": '
     + "9" * 5001 + "}", ["polygon"], "SchemaError", DIGITS),
    (json.dumps({"params": [], "terms": [{"exp": [1, 0], "coeff": "7" * 4000},
                                         {"exp": [-1, 0], "coeff": "1"}]}),
     ["periods", "classical", "--order", "4"], "WorkBudgetExceeded", DIGITS),
    (json.dumps({"vertices": [[1, 0], [0, 1], [-int("1" * 2200), -1]]}), ["polygon"],
     "WorkBudgetExceeded", DIGITS),
    (json.dumps({"params": [], "terms": [{"exp": [1, 0], "coeff": "7" * 5000},
                                         {"exp": [-1, 0], "coeff": "1"}]}),
     ["periods", "classical", "--order", "4"], "SchemaError", "(5000 characters)"),
], ids=["input-key", "classical-coeffs", "polygon-polar", "coeff-string"])
def test_numbers_past_the_int_string_limit_exit_2(capsys, tmp_path, text, argv, kind, needle):
    """A JSON integer too long to parse is malformed input; a valid input
    whose result holds a number too long to print is refused, naming the limit.
    Either way the one line is short and names nothing a CLI user cannot set."""
    infile = tmp_path / "big.json"
    infile.write_text(text)
    code, out, err = run_cli(capsys, *argv, "--in", str(infile))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {kind}: ") and needle in err and err.count("\n") == 1
    assert len(err.rstrip("\n")) <= 200 and "set_int_max_str_digits" not in err


BIG_EXPONENT = "1e100000000"


@pytest.mark.parametrize("doc, extra", [
    ({"params": [], "terms": [{"exp": [1, 0], "coeff": BIG_EXPONENT},
                              {"exp": [-1, 0], "coeff": "1"}]}, []),
    ("paper-f", ["--symbolic", "--assign", f"a1={BIG_EXPONENT}"]),
    ("paper-f", ["--symbolic"]),
], ids=["coefficient", "assign-option", "assign-json"])
def test_a_decimal_exponent_past_the_int_string_limit_exits_2(tmp_path, doc, extra):
    """Fraction(text) builds 10**exponent before anything can refuse it; the one
    rational parser refuses an exponent past the limit first.  Each case runs
    in a child process with a timeout, so a hang fails instead of stalling."""
    if doc == "paper-f":
        doc = fixture_json("paper-f")
        if "--assign" not in extra:
            doc = {"laurent": doc, "assign": {"a1": BIG_EXPONENT}}
    infile = tmp_path / "big.json"
    infile.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(fanokit.__file__).parent.parent))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "fanokit.cli", "periods", "classical", "--in", str(infile),
         "--order", "4", *extra],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert time.perf_counter() - start < 10
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: WorkBudgetExceeded: a decimal exponent past {DIGITS}, "
                           "Python's limit for int-string conversion\n")


@pytest.mark.parametrize("value, same", [("1e3", "1000"), ("-2.5e-2", "-1/40"), ("3/4", "0.75")])
def test_rational_assignments_stay_accepted(capsys, value, same):
    """An exponent within the limit, a decimal and p/q read as Fraction reads them."""
    a, b = (run_json(capsys, "periods", "classical", "--fixture", "paper-f", "--order", "4",
                     "--symbolic", "--assign", f"a1={v}") for v in (value, same))
    assert a["coeffs"] == b["coeffs"] and a["coeffs"][2] != "0"


def test_other_value_errors_still_exit_5(capsys, monkeypatch):
    def broken(f, order):
        raise ValueError("kernel broke")

    monkeypatch.setattr("fanokit.pipeline.classical_period", broken)
    code, out, err = run_cli(capsys, "periods", "classical", "--fixture", "paper", "--order", "2")
    assert (code, out, err) == (5, "", "error: InternalError: ValueError: kernel broke\n")


REDUNDANT_STRUT = {"name": "w", "divisor": [1, 1], "chi": [3]}


@pytest.mark.parametrize("fixture, patch, argv, code, needle", [
    ("paper-scaffolding",
     {"struts": fixture_json("paper-scaffolding")["struts"] + [REDUNDANT_STRUT]},
     ["scaffold"], 3, "an inequality of Q_S does not define a facet"),
    ("paper", {"assign": [1, 2]}, ["periods", "compare"], 2, "'assign' must be an object"),
    ("paper", None, ["periods", "classical", "--order", "-1"], 2, "order"),
    ("paper", None, ["periods", "compare", "--order", "-1"], 2, "order"),
    ("paper-scaffolding", {"fiber_check": ["z1"]}, ["scaffold", "--format", "text"], 0,
     "fiber avoidance: FAILED at pattern {z1}"),
], ids=["redundant-strut", "assign-list", "classical-order", "compare-order", "fiber-fails"])
def test_cli_error_paths(capsys, tmp_path, fixture, patch, argv, code, needle):
    """Each exits with its code; an error is one stderr line, a failed fiber
    check a line of the text report."""
    if patch is None:
        source = ["--fixture", fixture]
    else:
        infile = tmp_path / "in.json"
        infile.write_text(json.dumps({**fixture_json(fixture), **patch}))
        source = ["--in", str(infile)]
    got, out, err = run_cli(capsys, *argv, *source)
    assert got == code
    if code:
        assert out == "" and needle in err and err.count("\n") == 1
    else:
        assert err == "" and needle in out.splitlines()


@pytest.mark.parametrize("argv, calls", [
    (["periods", "compare", "--fixture", "paper", "--order", "20"], 1),
    (["scaffold", "--fixture", "paper-scaffolding", "--check-hull"], 10),
    (["polygon", "--fixture", "paper-P"], 0),
], ids=["compare", "scaffold", "polygon"])
def test_smith_forms_per_job(capsys, monkeypatch, argv, calls):
    """Every module's binding of linalg.snf, wrapped.  The Cox stage takes one,
    for the class group: dual_cone reads pointedness off its candidate lines, so
    neither Q_S's homogenized cone nor the quantum cone takes one.  scaffold
    adds one for the section lattice's kernel and solution together and the
    eight chart lattices.  polygon takes none: each edge's quotient is a closed form in the
    edge's determinant and one modular inverse."""
    seen, plain = [], fanokit.linalg.snf
    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("fanokit") and getattr(mod, "snf", None) is plain:
            monkeypatch.setattr(mod, "snf", lambda M: seen.append(1) or plain(M))
    run_json(capsys, *argv)
    assert len(seen) == calls


FUZZ_RUNS = [
    ("paper-P", ["polygon"]),
    ("paper-scaffolding", ["scaffold", "--check-hull"]),
    ("paper-f", ["periods", "classical", "--symbolic"]),
    ("paper-f", ["periods", "classical", "--assign", "a1=1/2", "--assign", "b2=3"]),
    ("paper", ["periods", "compare"]),
    ("paper", ["periods", "quantum"]),
    ("paper-series", ["periods", "quantum"]),
]

SMALL_JSON = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["", "x", "a1", "z1", "1/2", "1/0", "-1"]),
    st.none(),
    st.floats(-3, 3),
    st.booleans(),
    st.lists(st.one_of(st.integers(-3, 3), st.sampled_from(["a1", "x"]), st.none(), st.just({})),
             max_size=3),
    st.dictionaries(st.sampled_from(["name", "exp", "coeff", "a1"]), st.integers(-3, 3),
                    max_size=2),
)


@st.composite
def mutated_fixtures(draw):
    """(mutated JSON, argv): a walk from the root of a fixture, one random
    child at a time, stops at a random depth; the value there is replaced by
    a small JSON value or dropped, or the last list element on the way is
    duplicated."""
    fixture, argv = draw(st.sampled_from(FUZZ_RUNS))
    fixtures = resources.files("fanokit").joinpath("fixtures")
    data = json.loads(fixtures.joinpath(f"{fixture}.json").read_text())
    how = draw(st.sampled_from(["replace", "drop", "duplicate"]))
    steps, node = [], data  # (container, key) from the root down
    while isinstance(node, (dict, list)) and node and (
            (not steps and how != "replace") or draw(st.integers(0, 3))):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        steps.append((node, key))
        node = node[key]
    if not steps:  # only a replacement stops at the root
        return draw(SMALL_JSON), argv
    container, key = steps[-1]
    if how == "replace":
        container[key] = draw(SMALL_JSON)
    elif how == "drop":
        del container[key]
    elif lists := [(c, k) for c, k in steps if isinstance(c, list)]:
        container, key = lists[-1]
        container.insert(key, container[key])
    return data, argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=mutated_fixtures(), order=st.integers(0, 6))
def test_mutated_fixtures_exit_with_one_line(case, order):
    """A fixture with one value replaced, dropped or duplicated gives a result
    (exit 0 or 4) or a one-line error (exit 2 or 3), never an internal error."""
    data, argv = case
    if argv[0] == "periods":
        argv = argv + ["--order", str(order)]
    with tempfile.TemporaryDirectory() as tmp:
        infile = Path(tmp) / "in.json"
        infile.write_text(json.dumps(data))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([*argv, "--in", str(infile)])
    assert code in (0, 2, 3, 4), err.getvalue()
    assert err.getvalue().count("\n") <= 1
