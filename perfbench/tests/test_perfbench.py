"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import fanokit.cli as cli  # noqa: E402
import fanokit.polyhedra  # noqa: E402
import fanokit.quantum  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import LAYER_METRICS, Tracer  # noqa: E402
from worker import run_job  # noqa: E402

WORKLOADS = tuple(workloads.GENERATORS)


def _summary(plan):
    return (plan.files, [(j.key, j.argv, j.check) for j in plan.cycle], plan.warmup.key)


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    assert _summary(workloads.generate(name, 7)) == _summary(workloads.generate(name, 7))
    assert _summary(workloads.generate(name, 7)) != _summary(workloads.generate(name, 8))


def test_generated_inputs_are_valid():
    for seed in range(5):
        geo = workloads.generate("geometry", seed)
        polys = [d["vertices"] for n, d in geo.files.items() if n.startswith("polygon-")]
        assert len(polys) == 80
        assert all(workloads.is_fano([tuple(v) for v in vs]) for vs in polys)
        scaffold_bases = [j.check["U"] for j in geo.cycle if j.kind == "scaffold"]
        quantum_bases = [j.check["U"] for j in workloads.generate("quantum-deep", seed).cycle]
        identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert identity in scaffold_bases and identity in quantum_bases
        assert all(abs(workloads.det3(U)) == 1 for U in scaffold_bases + quantum_bases)
        for job in workloads.generate("mirror", seed).cycle:
            (a, b), (c, d) = job.check["g"]
            assert abs(a * d - b * c) == 1
        for job in workloads.generate("family", seed).cycle:
            assert all(v.denominator > 1 for v in job.check["assign"].values())


def test_independent_kernel_matches_the_paper():
    assert oracle.mirror_series(12) == list(workloads.PAPER_SERIES)
    generic = oracle.sympy_constant_terms(2)
    assert str(generic[2]) == "2*a1*a2 + 2*b1*b2 + 2*c1*c2 + 14"


def _paths(plan, tmp_path):
    paths = {}
    for name, data in plan.files.items():
        (tmp_path / name).write_text(json.dumps(data))
        paths[name] = str(tmp_path / name)
    return paths


def _outputs(plan, jobs, tmp_path):
    paths = _paths(plan, tmp_path)
    return [(job, *run_job(cli, job, paths)) for job in jobs]


def _verify(plan, results, plant=None):
    """Failed keys after feeding results, optionally with one report altered."""
    checker = oracle.Checker()
    for job, code, out, err in results:
        if plant is not None and job.key == plant[0]:
            report = json.loads(out)
            plant[1](report)
            out = json.dumps(report)
        checker.observe(job, code, out, err)
    return checker.verify()


def _small(job, **changes):
    argv = list(job.argv)
    for flag, value in changes.items():
        argv[argv.index(flag) + 1] = value
    check = dict(job.check)
    if "--order" in changes:
        check["order"] = int(changes["--order"])
    return workloads.Job(job.key, job.kind, job.infile, tuple(argv), check)


def test_oracle_rejects_planted_errors_in_periods(tmp_path):
    mirror = workloads.generate("mirror", 3)
    jobs = [_small(j, **{"--order": "8"}) for j in mirror.cycle[:2]]
    results = _outputs(mirror, jobs, tmp_path)
    assert _verify(mirror, results) == set()
    key = jobs[1].key

    def wrong_coeff(r):
        r["classical"]["coeffs"][6] = "76841"
        r["quantum_regularized"]["coeffs"][6] = "76841"

    assert _verify(mirror, results, (key, wrong_coeff)) == {key}
    assert _verify(mirror, results, (key, lambda r: r.update(equal=False))) == {key}

    family = workloads.generate("family", 3)
    jobs = [_small(j, **{"--order": "5"}) for j in family.cycle[:4]]
    results = _outputs(family, jobs, tmp_path)
    assert _verify(family, results) == set()
    for job in jobs:
        def plant(r):
            r["coeffs"][-1] = r["coeffs"][-1] + " + 1/7"
        assert _verify(family, results, (job.key, plant)) == {job.key}
    symbolic = next(j for j in jobs if j.check["symbolic"])

    def low_order(r):
        r["coeffs"][2] = r["coeffs"][2] + " + 2"

    assert _verify(family, results, (symbolic.key, low_order)) == {symbolic.key}


def test_oracle_rejects_planted_errors_in_geometry(tmp_path):
    geo = workloads.generate("geometry", 3)
    jobs = geo.cycle[:6] + [geo.warmup]
    results = _outputs(geo, jobs, tmp_path)
    assert _verify(geo, results) == set()
    a, b = geo.cycle[:2]
    assert _verify(geo, results, (b.key, lambda r: r.update(symmetry_order=97))) >= {b.key}
    assert _verify(geo, results, (a.key, lambda r: r["polar"].update(normalized_volume="1/7"))) >= {a.key}
    for scaffold in (geo.cycle[5], geo.warmup):
        key = scaffold.key
        assert _verify(geo, results, (key, lambda r: r["cox"]["weight_matrix"].reverse())) == {key}
        assert _verify(geo, results, (key, lambda r: r["sections"].pop())) >= {key}
        if scaffold.check["fiber"]:
            assert _verify(geo, results, (key, lambda r: r["fiber_check"].update(verified=False))) >= {key}


def test_observe_flags_outputs_that_change_between_runs():
    plan = workloads.generate("mirror", 1)
    checker = oracle.Checker()
    job = plan.cycle[0]
    assert checker.observe(job, 0, "{}", "")
    assert not checker.observe(job, 0, "{ }", "")
    assert checker.failures


def test_evaluate_reads_parampoly_renderings():
    values = {"a1": Fraction(1, 2), "b2": Fraction(-3)}
    assert oracle.evaluate("3/4*a1^2 - a1*b2 + 14", values) == Fraction(3, 16) + Fraction(3, 2) + 14
    assert oracle.evaluate("-b2 - 1/2", values) == Fraction(5, 2)


def _traced(tmp_path, without_cli_main=False):
    """A tracer over three jobs, and the jobs' latency timed outside the spans."""
    geo = workloads.generate("geometry", 2)
    quantum = workloads.generate("quantum-deep", 2)
    tracer = Tracer()
    tracer.install()
    if without_cli_main:
        cli.main = cli.main.__wrapped__
    latency = 0.0
    try:
        for i, (plan, job) in enumerate(
            [(geo, geo.cycle[0]), (geo, geo.warmup), (quantum, _small(quantum.warmup, **{"--order": "12"}))]
        ):
            paths = _paths(plan, tmp_path)
            tracer.job = i
            t0 = time.perf_counter()
            assert run_job(cli, job, paths)[0] == 0
            latency += time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return tracer, latency


def test_tracer_nests_spans_and_restores_the_package(tmp_path):
    original = fanokit.quantum.integer_points
    tracer, latency = _traced(tmp_path)
    assert fanokit.quantum.integer_points is original is fanokit.polyhedra.integer_points
    assert tracer.problems(3, latency) == []
    metrics = tracer.metrics(3, latency, 1.0, 1.0)
    assert 0.95 <= metrics["trace.span_cover_frac"]["value"] <= 1
    assert metrics["cox.section_monomials.calls"]["value"] == pytest.approx(2 / 3)
    assert metrics["polyhedra.integer_points.kept"]["value"] == pytest.approx(72 / 3)
    assert set(metrics) == {m[0] for m in LAYER_METRICS}


def test_trace_check_fails_on_time_outside_the_spans(tmp_path):
    tracer, latency = _traced(tmp_path)
    assert tracer.problems(4, latency)  # a traced job without its root span
    assert tracer.problems(3, 1.2 * latency)  # job time the spans do not cover
    tracer, latency = _traced(tmp_path, without_cli_main=True)
    assert not hasattr(cli.main, "__wrapped__")
    problems = tracer.problems(3, latency)
    assert any("cli.main root spans" in p for p in problems)
    assert any("outside cli.main" in p for p in problems)


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in bench["workloads"])
    assert [m["name"] for m in bench["per_layer"]] == [m[0] for m in LAYER_METRICS]
    assert [m["name"] for m in bench["end_to_end"]] == ["setup_s", "jobs_per_s", "job_p50_s", "peak_rss_mb"]
    setup = bench["end_to_end"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mirror", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
