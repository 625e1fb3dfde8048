"""One workload run, in a fresh process started by ``run.py``.

Writes the generated inputs under ``.perfbench_work/`` in the checkout, runs
one untimed warm-up job, then a closed loop with one client: each job is a
call of ``fanokit.cli.main(argv)`` in this process, started when the previous
one returns, over the job cycle until ``--seconds`` have passed.  Outputs are
checked after the loop.  With ``--trace 1`` the loop runs for twice as long,
alternating untraced and traced blocks of the same jobs, and the spans go to
``.perfbench_traces/``.

Prints one JSON line: the metrics plus an ``info`` block for the summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from oracle import Checker
from workloads import generate


def run_job(cli, job, paths):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    argv = [paths[job.infile] if a == "{in}" else a for a in job.argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # a crash is a failed job, not a failed benchmark
            code = f"exception {type(e).__name__}: {e}"
    return code, out.getvalue(), err.getvalue()


def timed_job(cli, job, paths, checker, latencies, keys):
    """Run one job, append its latency, and its key unless its output changed."""
    t0 = time.perf_counter()
    code, out, err = run_job(cli, job, paths)
    latencies.append(time.perf_counter() - t0)
    keys.append(job.key if checker.observe(job, code, out, err) else None)


def closed_loop(cli, plan, paths, checker, seconds):
    """Run the job cycle for ``seconds``; returns (latencies, keys, elapsed)."""
    latencies, keys = [], []
    clock = time.perf_counter
    start = clock()
    i = 0
    while True:
        timed_job(cli, plan.cycle[i % len(plan.cycle)], paths, checker, latencies, keys)
        i += 1
        if clock() - start >= seconds:
            return latencies, keys, clock() - start


def paired_blocks(cli, plan, paths, checker, seconds, tracer):
    """Alternate untraced and traced blocks over the same jobs for 2 * ``seconds``.

    Each untraced block runs jobs for at least half a second; the traced
    block that follows reruns exactly those jobs, so both sides see the same
    mix and the same spell of the machine.  Returns {traced: (latencies,
    keys, elapsed)}; installing and removing the wrappers is not timed.
    """
    clock = time.perf_counter
    sides = {False: ([], [], [0.0]), True: ([], [], [0.0])}
    start = clock()
    i = 0
    while clock() - start < 2 * seconds:
        latencies, keys, elapsed = sides[False]
        block = []
        t0 = clock()
        while not block or clock() - t0 < 0.5:
            block.append(plan.cycle[i % len(plan.cycle)])
            i += 1
            timed_job(cli, block[-1], paths, checker, latencies, keys)
        elapsed[0] += clock() - t0
        latencies, keys, elapsed = sides[True]
        tracer.install()
        try:
            t0 = clock()
            for job in block:
                tracer.job += 1
                timed_job(cli, job, paths, checker, latencies, keys)
            elapsed[0] += clock() - t0
        finally:
            tracer.uninstall()
    return {k: (lat, keys, el[0]) for k, (lat, keys, el) in sides.items()}


def tail(latencies):
    """Latency at the highest percentile with at least 10 samples beyond it."""
    n = len(latencies)
    if n < 100:
        return None
    ordered = sorted(latencies)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "beyond": 10, "jobs": n}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    root = Path(__file__).resolve().parent.parent

    sys.path.insert(0, str(root / "src"))
    import fanokit.cli as cli

    if Path(cli.__file__).resolve().parent != root / "src" / "fanokit":
        raise SystemExit(f"fanokit imported from {cli.__file__}, not from the checkout")

    plan = generate(args.workload, args.seed)
    (root / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".perfbench_work"))
    try:
        paths = {}
        for name, data in plan.files.items():
            path = workdir / name
            path.write_text(json.dumps(data, indent=1), encoding="utf-8")
            paths[name] = str(path)
        checker = Checker()
        code, out, err = run_job(cli, plan.warmup, paths)
        warm_ok = checker.observe(plan.warmup, code, out, err)

        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            sides = paired_blocks(cli, plan, paths, checker, args.seconds, tracer)
            latencies, keys, elapsed = sides[False]
            t_latencies, t_keys, t_elapsed = sides[True]
        else:
            latencies, keys, elapsed = closed_loop(cli, plan, paths, checker, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        bad = checker.verify()
        warm_ok = warm_ok and plan.warmup.key not in bad

        def failures(ks):
            return sum(1 for k in ks if k is None or k in bad)

        failed = failures(keys)
        attempted = len(keys)
        info = {
            "failed_frac": failed / attempted,
            "job_tail": tail(latencies),
            "failures": checker.failures[:10],
            "cycle": len(plan.cycle),
        }
        correct = warm_ok and not checker.failures
        if args.trace:
            t_failed = failures(t_keys)
            metrics = tracer.metrics(
                len(t_keys),
                sum(t_latencies),
                (len(t_keys) - t_failed) / t_elapsed,
                (attempted - failed) / elapsed,
            )
            problems = tracer.problems(len(t_keys), sum(t_latencies))
            info["failures"] += [f"trace: {msg}" for msg in problems]
            correct = correct and not problems
            trace_dir = root / ".perfbench_traces"
            trace_dir.mkdir(exist_ok=True)
            tracer.dump(trace_dir / f"{args.workload}-seed{args.seed}.jsonl.gz")
            attempted += len(t_keys)
            failed += t_failed
        else:
            metrics = {
                "jobs_per_s": {"value": (attempted - failed) / elapsed, "unit": "1/s"},
                "job_p50_s": {"value": statistics.median(latencies), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
