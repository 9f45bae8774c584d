"""Record the reference key scalars of every workload variant.

Usage (from the repository root, on the commit the references belong to):

    python3 bench/record_reference.py

Runs each variant's operations once and rewrites bench/reference.json for
every workload.  The committed file was recorded from the commit that
introduced the benchmark; re-record only when a change is meant to alter
the program's results.
"""

import json
import os
import shutil
import sys

import run
import workloads


def record(w: workloads.Workload, variant: int) -> dict:
    rdir = os.path.join(run.OUT, f"reference-{w.name}-{variant}")
    shutil.rmtree(rdir, ignore_errors=True)
    os.makedirs(rdir)
    config = os.path.join(rdir, "workload.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(workloads.config_text(w, variant))
    out = {}
    try:
        for op in w.ops:
            odir = os.path.join(rdir, op)
            argv = [sys.executable, "-m", "llbopt.cli"] + workloads.op_argv(
                op, config, odir, rdir, workloads.cli_seed(w, variant))
            err = os.path.join(rdir, f"{op}.err")
            _, _, code = run.run_process(argv, err, run.HARD_LIMIT_S)
            problems = workloads.check_outputs(w, op, odir, ref={})
            if code != 0 or problems:
                raise SystemExit(f"{w.name} variant {variant} {op}: exit {code} "
                                 f"{run.last_line(err)} {problems}")
            out[op] = workloads.key_scalars(op, odir)
    finally:
        shutil.rmtree(rdir, ignore_errors=True)
    return out


def main() -> int:
    ref = {}
    for name, w in sorted(workloads.WORKLOADS.items()):
        ref[name] = {str(v): record(w, v) for v in range(workloads.N_VARIANTS)}
        print(f"{name}: {ref[name]}", flush=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
