"""The fanokit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N    # every BENCHMARK.json workload

Run from the root of a checkout; the package is imported from ``src/``.
Each workload run is one fresh child process (``worker.py``) running a closed
loop with one client; see ``workloads.py`` for why each workload exists.

With ``--trace 0`` the result carries the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of the time ``import
  fanokit.cli`` takes, which every CLI invocation pays before any work;
* ``jobs_per_s``: jobs completed and oracle-checked per second of the loop;
* ``job_p50_s``: median job latency;
* ``peak_rss_mb``: peak resident memory of the workload process.

With ``--trace 1`` it carries the per-layer metrics of ``spans.py`` from
traced blocks of jobs, and the tracing overhead against untraced blocks of
the same jobs.  Human
readable lines come first; the last line of stdout is the JSON result.
``failed_frac`` and ``job_tail_s`` (where at least 100 jobs ran) are printed
in those lines: a failure count of 0 and a tail of a dozen jobs make poor
regression gates, and the JSON result carries ``attempted`` and ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# quantum-deep is not gated: on a shared 2-core host, runs of 20 s spread too
# widely, and three workloads of 30 s fit the time budget of a full
# regression check where four do not.  It stays runnable by name for work on
# polyhedra.integer_points.
GATED = tuple(w["name"] for w in BENCH["workloads"])
WORKLOADS = GATED + ("quantum-deep",)
SETUP_SAMPLES = 30
# Time a worker may take beyond its loop: start-up, inputs, warm-up job and
# output checks.
DEADLINE_MARGIN_S = 100

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import fanokit.cli; "
    "print(time.perf_counter() - t)"
)


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_times(n):
    """Import times of fanokit.cli in n fresh interpreters."""
    samples = []
    for _ in range(n):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def run_worker(workload, seed, seconds, trace, deadline):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload}: worker did not finish in time") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, deadline):
    """The JSON result for one workload run, with its ``info`` block.

    Half the set-up samples are taken before the worker and half after it,
    so set-up time is sampled across the run rather than in one burst.
    """
    if trace:
        return run_worker(workload, seed, seconds, trace, deadline)
    import_times(1)  # untimed: fills the file cache and any bytecode cache
    before = import_times(SETUP_SAMPLES // 2)
    result = run_worker(workload, seed, seconds, trace, deadline)
    setup_s = statistics.median(before + import_times(SETUP_SAMPLES - SETUP_SAMPLES // 2))
    result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **result["metrics"]}
    return result


def summary_lines(workload, result):
    info = result["info"]
    lines = [f"== {workload}: correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']} (job cycle of {info['cycle']})"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    lines.append(f"  {'failed_frac':40s} {info['failed_frac']:.6g}")
    t = info["job_tail"]
    if t is None:
        lines.append(f"  {'job_tail_s':40s} n/a (fewer than 100 jobs)")
    else:
        lines.append(f"  {'job_tail_s':40s} {t['value']:.6g} s at p{t['percentile']:.2f}, "
                     f"{t['beyond']} of {t['jobs']} jobs beyond")
    lines += [f"  failure: {f}" for f in info["failures"]]
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "fanokit" / "cli.py").is_file():
        print(f"error: no fanokit sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = GATED if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + (1 + args.trace) * args.seconds + DEADLINE_MARGIN_S
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            for line in summary_lines(name, results[name]):
                print(line, flush=True)
    except (RuntimeError, subprocess.SubprocessError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for r in results.values():
        r.pop("info")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
