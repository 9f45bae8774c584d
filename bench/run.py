"""llbopt benchmark: runs one workload through the real CLI and prints its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload pipeline-1d --seed 1 --seconds 44 --trace 0

Every operation is a fresh ``python -m llbopt.cli`` process, as users run
it.  A run repeats rounds of the workload's operations until ``--seconds``
would be exceeded and reports medians over rounds.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
rounds (see traced_cli.py) and prints the per-layer metrics.  The last
line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import spans
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(BENCH, "reference.json")

# A run ends within this many seconds; the slowest round is well under it.
HARD_LIMIT_S = 170.0

# Every run makes at least this many rounds, so that its medians shrug off
# one round caught by a slow phase of the machine.
MIN_ROUNDS = 3

# An untraced run probes the set-up before each of its first rounds only,
# which leaves the rest of its time to rounds.
SETUP_PROBES = 3

# Children run single-threaded so that timings do not depend on how many
# cores the BLAS pool sees.
THREAD_CAPS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                "VECLIB_MAXIMUM_THREADS")}

def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# BENCHMARK.json names every metric this file prints, with its unit
SPEC = _spec()
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# units of measured quantities; a metric with any other unit is a count
MEASURED_UNITS = ("s", "ns", "1/s", "share")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_process(argv, stderr_path, timeout):
    """Run one child to completion; returns (wall s, peak RSS MB, exit code)."""
    t0 = time.perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                env=child_env(), cwd=ROOT)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def last_line(path) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError:
        return ""
    return lines[-1] if lines else ""


def quartiles(values) -> dict:
    """Median, quartiles and sample count of a list of numbers."""
    vals = sorted(values)
    if len(vals) == 1:
        q1 = med = q3 = vals[0]
    else:
        q1, med, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
    return {"median": med, "q1": q1, "q3": q3, "n": len(vals)}


def calibration_s(reps: int = 3) -> float:
    """Time of a fixed numpy loop: context for machine drift, never used to
    rescale a result."""
    a = np.linspace(0.0, 1.0, 64 * 64 * 3).reshape(64, 64, 3)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(1000):
            p = np.pad(a, ((1, 1), (0, 0), (0, 0)), mode="edge")
            b = p[2:] - 2.0 * a + p[:-2]
            float(np.sum(b * b))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_caps": THREAD_CAPS,
        "calibration_s": calibration_s(),
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

class Run:
    """One benchmark run: its operations, their timings and their failures."""

    def __init__(self, workload: str, seed: int, seconds: int, traced: bool,
                 t0: float | None = None):
        self.w = workloads.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.variant = workloads.variant_of(seed)
        self.cli_seed = workloads.cli_seed(self.w, self.variant)
        with open(REFERENCE, encoding="utf-8") as fh:
            self.ref = json.load(fh).get(workload, {}).get(str(self.variant), {})
        # the run's clock; main() starts it before the environment probe
        self.t0 = time.perf_counter() if t0 is None else t0
        self.dir = os.path.join(OUT, f"run-{workload}-{seed}-{os.getpid()}")
        self.config = os.path.join(self.dir, "workload.cfg")
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.setup_s: list = []
        self.op_s: dict = {op: [] for op in self.w.ops}
        self.round_s: list = []
        self.traced_round_s: list = []
        self.peak_rss_mb = 0.0
        self.layer_rounds: list = []
        self.trace_docs: list = []

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.t0)

    def prepare(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(workloads.config_text(self.w, self.variant))
        # compile and cache the package once; users do not pay this per run
        run_process([sys.executable, "-c", "import llbopt.cli"],
                    os.path.join(self.dir, "warmup.err"), self.remaining())

    def setup_probe(self, k: int) -> bool:
        self.attempted += 1
        err = os.path.join(self.dir, f"setup{k}.err")
        wall, _, code = run_process(
            [sys.executable, os.path.join(BENCH, "setup_probe.py"), self.config],
            err, self.remaining())
        if code != 0:
            self.failed += 1
            self.errors.append(f"setup probe: exit {code}: {last_line(err)}")
            return False
        self.setup_s.append(wall)
        return True

    def round(self, k: int, traced: bool) -> bool:
        """One pass over the workload's operations; False after a failure."""
        rdir = os.path.join(self.dir, f"round{k}")
        os.makedirs(rdir)
        total = 0.0
        docs = []
        walls = {}
        for i, op in enumerate(self.w.ops):
            self.attempted += 1
            out = os.path.join(rdir, op)
            args = workloads.op_argv(op, self.config, out, rdir, self.cli_seed)
            err = os.path.join(rdir, f"{op}.err")
            span_path = os.path.join(rdir, f"{op}.spans.json")
            if traced:
                run_id = f"{self.w.name}-seed{self.seed}-round{k}-{op}"
                argv = [sys.executable, os.path.join(BENCH, "traced_cli.py"),
                        span_path, run_id] + args
            else:
                argv = [sys.executable, "-m", "llbopt.cli"] + args
            wall, rss, code = run_process(argv, err, self.remaining())
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            problems = ([f"{op}: exit {code}: {last_line(err)}"] if code != 0 else
                        workloads.check_outputs(self.w, op, out, self.ref.get(op)))
            if traced and code == 0:
                with open(span_path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                doc.update(op=op, wall_s=wall)
                docs.append(doc)
                problems += sweep_check(doc, self.w.steps)
            if problems:
                # the round's later operations were due too: count them failed
                self.attempted += len(self.w.ops) - i - 1
                self.failed += len(self.w.ops) - i
                self.errors += problems
                return False
            total += wall
            walls[op] = wall
        if traced:
            self.traced_round_s.append(total)
            self.layer_rounds.append(self.layer_metrics(docs, rdir, total))
            self.trace_docs += docs
        else:
            self.round_s.append(total)
            for op, wall in walls.items():
                self.op_s[op].append(wall)
        shutil.rmtree(rdir, ignore_errors=True)
        return True

    def layer_metrics(self, docs, rdir, round_wall) -> dict:
        """Per-layer metrics of one traced round."""
        w = self.w
        m = {name: 0 for name in PER_LAYER}
        agg: dict = {}
        for doc in docs:
            summ = spans.summarize(doc)
            calls = _calls(summ)
            cmd = f"cli.{doc['op'].replace('-', '_')}"
            m[f"{cmd}.s"] = doc["wall_s"]
            m[f"{cmd}.forward_sweeps"] = calls["forward"]
            m[f"{cmd}.adjoint_sweeps"] = calls["adjoint"]
            m[f"{cmd}.tangent_sweeps"] = calls["tangent"]
            m[f"{cmd}.implicit_solves"] = calls["solves"]
            if doc["op"] == "optimize":
                iters = workloads.key_scalars("optimize", os.path.join(rdir, "optimize"))["iterations"]
                # sweeps of the optimizer itself: not the set-up target sweep
                setup = spans.nested_count(doc, "llb.simulate", "config.build_targets")
                m["optimize.iterations"] = iters
                if iters:
                    m["optimize.sweeps_per_accepted_step"] = (
                        calls["forward"] + calls["adjoint"] + calls["tangent"] - setup) / iters
            if doc["op"] == "certify":
                rows = workloads.read_csv(os.path.join(rdir, "certify", "curvature.csv"))
                if rows:
                    m["certify.fd_valid_ratio"] = sum(r["fd_valid"] == "true" for r in rows) / len(rows)
            for name, a in summ.items():
                t = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
                for key in t:
                    t[key] += a[key]
            m["grid.write_field.bytes"] += doc["bytes_written"]
            m["trace.spans"] += len(doc["names"])
            m["trace.missing_targets"] = max(m["trace.missing_targets"], len(doc["missing"]))

        def get(span, key):
            return agg.get(span, {}).get(key, 0)

        for name in PER_LAYER:
            span, _, key = name.rpartition(".")
            if key in ("calls", "s", "self_s") and (span in spans.TARGETS or span == spans.SOLVE_SPAN):
                m[name] = get(span, key)
        lap = "grid.laplacian_values"
        sweep_steps = w.steps * (get("llb.simulate", "calls") + get("adjoint.solve_adjoint", "calls")
                                 + get("tangent.solve_tangent", "calls"))
        if sweep_steps:
            m[f"{lap}.calls_per_step"] = get(lap, "calls") / sweep_steps
        if get(lap, "calls"):
            m[f"{lap}.ns_per_cell"] = get(lap, "s") / (get(lap, "calls") * w.nodes) * 1e9
        m["llb.implicit_solve.share"] = get(spans.SOLVE_SPAN, "s") / round_wall
        if get("llb.simulate", "s"):
            m["llb.cell_steps_per_s"] = (w.nodes * w.steps * get("llb.simulate", "calls")
                                         / get("llb.simulate", "s"))
        return m

    def measure(self) -> None:
        """Rounds until the next one would overrun ``seconds``, and at
        least MIN_ROUNDS.  The next round is taken to last as long as the
        longest so far, so that a run ends within ``seconds``.  A traced run
        pairs each traced round with an untraced one, so that
        trace.overhead_s compares rounds that met the same phase of the
        machine."""
        self.prepare()
        k = 0
        longest = 0.0
        while True:
            if self.traced:
                t = time.perf_counter()
                ok = self.round(k, traced=False) and self.round(k + 1, traced=True)
                k += 2
            else:
                ok = k >= SETUP_PROBES or self.setup_probe(k)
                t = time.perf_counter()
                ok = ok and self.round(k, traced=False)
                k += 1
            if not ok:
                return
            longest = max(longest, time.perf_counter() - t)
            elapsed = time.perf_counter() - self.t0
            if elapsed + 2 * longest > HARD_LIMIT_S:
                return
            done = len(self.traced_round_s) if self.traced else len(self.round_s)
            if done >= MIN_ROUNDS and elapsed + longest > self.seconds:
                return

    def metrics(self) -> dict:
        if not self.traced:
            values = {"wall_s": statistics.median(self.round_s),
                      "setup_s": statistics.median(self.setup_s),
                      "peak_rss_mb": self.peak_rss_mb}
            return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        values = {}
        for name, unit in PER_LAYER.items():
            series = [r[name] for r in self.layer_rounds]
            if unit in MEASURED_UNITS:
                values[name] = statistics.median(series)
            elif len(set(series)) != 1:
                self.errors.append(f"{name} differs between traced rounds: {series}")
                values[name] = series[0]
            else:
                values[name] = series[0]
        values["trace.overhead_s"] = (statistics.median(self.traced_round_s)
                                      - statistics.median(self.round_s))
        return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}

    def detail(self) -> dict:
        return {
            "workload": self.w.name, "seed": self.seed, "variant": self.variant,
            "cli_seed": self.cli_seed, "traced": self.traced,
            "rounds": len(self.round_s) + len(self.traced_round_s),
            "round_s": quartiles(self.round_s) if self.round_s else None,
            "round_samples_s": self.round_s,
            "setup_s": quartiles(self.setup_s) if self.setup_s else None,
            "op_s": {op.replace("-", "_") + "_s": quartiles(v)
                     for op, v in self.op_s.items() if v},
            "ops_failed": self.failed / max(self.attempted, 1),
            "errors": self.errors,
        }

    def write_trace(self) -> None:
        path = os.path.join(OUT, f"trace-{self.w.name}-seed{self.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.w.name, "seed": self.seed,
                       "processes": self.trace_docs}, fh)


def sweep_check(doc, steps: int) -> list:
    """Implicit solves must equal K x (forward + tangent + adjoint sweeps).

    A sweep reached through an unwrapped import site breaks the equality,
    so a missed site fails here instead of silently undercounting.
    """
    if spans.SOLVE_SPAN in doc["missing"]:
        return []
    calls = _calls(spans.summarize(doc))
    sweeps = calls["forward"] + calls["tangent"] + calls["adjoint"]
    if calls["solves"] != steps * sweeps:
        return [f"{doc.get('op', 'process')}: sweep-count self-check failed: "
                f"{calls['solves']} implicit solves != K={steps} x {sweeps} sweeps {calls}"]
    return []


def _calls(summary) -> dict:
    def n(span):
        return summary.get(span, {}).get("calls", 0)
    return {"forward": n("llb.simulate"), "adjoint": n("adjoint.solve_adjoint"),
            "tangent": n("tangent.solve_tangent"), "solves": n(spans.SOLVE_SPAN)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "llbopt", "cli.py")):
        print(f"bench: no llbopt sources under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    t0 = time.perf_counter()
    env = environment()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), t0)
    try:
        run.measure()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    metrics = {}
    if not run.errors:
        metrics = run.metrics()
    if run.traced:
        run.write_trace()
    detail = run.detail()
    print(f"{run.w.name} seed={run.seed} variant={run.variant} rounds={detail['rounds']} "
          f"ops={run.attempted} failed={run.failed}")
    for name, mv in metrics.items():
        print(f"  {name:48s} {mv['value']:.6g} {mv['unit']}")
    for err in run.errors:
        print(f"  error: {err}")
    print(json.dumps({"environment": env, "detail": detail}))
    print(json.dumps({"correct": not run.errors, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
