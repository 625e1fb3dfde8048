"""Run the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/steady.py --runs 10 [--write FILE]

It runs every workload of BENCHMARK.json for its ``run_seconds``, with seeds
1 .. ``--runs``.  For every workload and end-to-end metric it prints the median and the
spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the bound in BENCHMARK.json.  Workloads are interleaved seed by seed, so a
slow spell of the machine spreads over all of them.  ``--write`` also makes
one traced run per workload and stores every value, the summary, the
per-layer metrics and the layer map of ``spans.py`` as a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 1


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--write", metavar="FILE")
    args = p.parse_args(argv)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = range(FIRST_SEED, FIRST_SEED + args.runs)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    def run(w, seed, trace):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"{w} seed {seed}: incorrect output")
        return result

    values = {w: {m: [] for m in bounds} for w in workloads}
    for seed in seeds:
        for w in workloads:
            result = run(w, seed, 0)
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            row = " ".join(f"{m}={result['metrics'][m]['value']:.5g}" for m in bounds)
            print(f"{w:13s} seed {seed:3d} {row}", flush=True)

    summary = {}
    print(f"\n{'workload':13s} {'metric':12s} {'median':>10s} {'spread':>7s} {'bound':>6s}")
    for w in workloads:
        summary[w] = {}
        for m, bound in bounds.items():
            med, sp = statistics.median(values[w][m]), spread(values[w][m])
            summary[w][m] = {"median": med, "spread": sp, "bound": bound}
            flag = "" if sp < bound / 3 else ("  above a third of the bound" if sp < bound else "  ABOVE BOUND")
            print(f"{w:13s} {m:12s} {med:10.5g} {sp:7.3f} {bound:6.2f}{flag}")
    if args.write:
        sys.path.insert(0, str(HERE))
        from spans import LAYER_METRICS

        layer_map = {
            name: {"unit": unit, "moves": moves, "on": on.split(",")}
            for name, unit, _, moves, on in LAYER_METRICS
        }
        per_layer = {
            w: {k: m["value"] for k, m in run(w, FIRST_SEED, 1)["metrics"].items()}
            for w in workloads
        }
        baseline = {
            "seconds": seconds,
            "seeds": list(seeds),
            "summary": summary,
            "values": values,
            "per_layer": {"seed": FIRST_SEED, "metrics": per_layer},
            "layer_map": layer_map,
        }
        Path(args.write).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
