"""Repeat the benchmark over many seeds, round-robin across workloads.

Usage (from the repository root):

    python3 bench/sets.py --seeds 10 --first-seed 100 --label parent
    python3 bench/sets.py --seeds 10 --first-seed 200 --label again --compare parent

Each pass runs every workload of BENCHMARK.json once with the pass's seed
and the file's ``run_seconds``, so a slow phase of the machine hits every
workload alike.  Prints, per workload and end-to-end metric, the median,
the quartiles and the quartile spread as a share of the median, and writes
everything to .bench_out/sets-LABEL.json.
``--compare`` reports how far each median moved from an earlier set,
against the metric's bound in BENCHMARK.json.  The calibration time is
recorded per pass as context only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run


def spread(values) -> float:
    """(q3 - q1) / median, with the quartiles of statistics.quantiles."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--label", default="set")
    parser.add_argument("--compare", default=None, help="label of an earlier set")
    args = parser.parse_args(argv)
    names = [w["name"] for w in run.SPEC["workloads"]]
    seconds = run.SPEC["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in run.SPEC["end_to_end"]}

    results = {name: [] for name in names}
    calibration = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        calibration.append(run.calibration_s())
        for name in names:
            proc = subprocess.run(
                [sys.executable, os.path.join(run.BENCH, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=run.HARD_LIMIT_S + 10)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                result["detail"] = json.loads(lines[-2])["detail"]
            except (IndexError, ValueError):
                result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                          "detail": {"exit_code": proc.returncode,
                                     "stderr": proc.stderr[-2000:]}}
            result["seed"] = seed
            results[name].append(result)
            vals = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"seed {seed} {name}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {vals}", flush=True)

    summary = {}
    for name in names:
        summary[name] = {}
        for metric in bounds:
            vals = [r["metrics"][metric]["value"] for r in results[name] if r["correct"]]
            if len(vals) < 2:
                continue
            summary[name][metric] = dict(run.quartiles(vals), spread=spread(vals))
    doc = {"label": args.label, "seconds": seconds, "calibration_s": calibration,
           "summary": summary, "results": results}
    os.makedirs(run.OUT, exist_ok=True)
    with open(os.path.join(run.OUT, f"sets-{args.label}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)

    earlier = None
    if args.compare:
        with open(os.path.join(run.OUT, f"sets-{args.compare}.json"), encoding="utf-8") as fh:
            earlier = json.load(fh)["summary"]
    print(f"calibration_s per pass: {[round(c, 4) for c in calibration]}")
    for name in names:
        for metric, s in summary[name].items():
            line = (f"{name:12s} {metric:12s} median {s['median']:.4f} "
                    f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} n {s['n']} "
                    f"spread {s['spread']:.3f} (bound {bounds[metric]})")
            if earlier and metric in earlier.get(name, {}):
                change = s["median"] / earlier[name][metric]["median"] - 1.0
                line += f" vs {args.compare}: {change:+.3f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
