"""Benchmark workloads: config generation, CLI invocations and output checks.

Each workload maps the benchmark seed to one of ``N_VARIANTS`` input
variants.  A variant fixes the generated config file and the ``--seed``
handed to the CLI, so every variant has reference values recorded once
from the seed commit (``reference.json``) and every run can check its
outputs against them.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

N_VARIANTS = 8

# Relative tolerance for key scalars against the recorded references.  The
# exact-vs-CG implicit solve differs by about 1e-12, which this passes; a
# wrong solver, stencil or sweep moves these scalars far more.
REL_TOL = 1e-6
ABS_TOL = 1e-12

# pipeline-1d hands these to the CLI as --seed.  check-grad's relative error
# is ill-conditioned when the random direction is nearly orthogonal to the
# gradient: on the 1D config below, seed 0 gives 1.7e-2, seed 11 gives
# 1.1e-3 and seeds 4, 6, 7, 8, 9, 13 sit within a factor 2 of the 1e-3
# tolerance, so they are left out.
CLI_SEEDS_1D = (1, 2, 3, 5, 10, 12, 14, 15)

# demos/configs/stock1d.cfg with time.T cut from 0.25 to 0.08 (K = 80) and
# grid.cells from 64 to 16, so that one optimize -> certify -> check-grad
# pass takes about 7 s instead of 35 s and a run holds four to eight.  The
# sweep counts of every subcommand are those of the stock config; with
# time.T = 0.05 the optimizer's line search stalls.
STOCK1D = """\
grid.dim = 1
grid.cells = 16
grid.lengths = 1.0
time.T = 0.08
time.dt = 1e-3
init.kind = expr
init.expr_x = 0.4*cos(pi*x)
init.expr_y = 0.2
init.expr_z = 0
coils.count = 2
coil.1.kind = gaussian
coil.1.center = 0.3
coil.1.width = 0.15
coil.1.axis = 0
coil.2.kind = gaussian
coil.2.center = 0.7
coil.2.width = 0.15
coil.2.axis = 1
bounds.lower = -5
bounds.upper = 5
control.kind = constant
control.value = 0.5 -0.4
targets.md_kind = run
targets.md_init_kind = expr
targets.md_init_expr_x = 0.22*cos(pi*x) + 0.12
targets.md_init_expr_y = 0.23
targets.md_init_expr_z = 0
certify.c_go = 0.05
certify.c4n = 1.2
certify.ctilde = 0.01
certify.n_dirs = 5
"""


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple          # CLI subcommands, run in this order in every round
    dim: int
    cells: int
    steps: int

    @property
    def nodes(self) -> int:
        return self.cells ** self.dim


WORKLOADS = {
    "pipeline-1d": Workload(
        "pipeline-1d", ("optimize", "certify", "check-grad"), 1, 16, 80),
    "simulate-2d": Workload(
        "simulate-2d", ("simulate",), 2, 64, 100),
    "gradient-3d": Workload(
        "gradient-3d", ("check-grad",), 3, 20, 50),
}


def variant_of(seed: int) -> int:
    """The input variant a benchmark seed selects."""
    return int(np.random.default_rng(seed).integers(N_VARIANTS))


def _num(x: float) -> str:
    return repr(round(float(x), 4))


def _generated_config(w: Workload, variant: int) -> str:
    """Random 2D/3D problem of the stock shape: two Gaussian coils, a
    Neumann-compatible cosine initial state and a target from a run.

    The coil width, the control's magnitude and the amplitude ranges are
    held fixed or narrow: they set how many CG iterations an implicit solve
    takes, so wide ranges would make one variant's run up to 15% slower
    than another's.  Coil placement, axes, control signs and the shapes'
    phases still vary."""
    rng = np.random.default_rng(1000 * w.dim + variant)
    axes = "xyz"[:w.dim]

    def cosine_expr(amp_lo, amp_hi):
        a = rng.uniform(amp_lo, amp_hi)
        return "*".join([_num(a)] + [f"cos(pi*{ax})" for ax in axes])

    coil_axes = rng.permutation(3)[:2]
    lines = [
        f"grid.dim = {w.dim}",
        f"grid.cells = {w.cells}",
        "grid.lengths = 1.0",
        f"time.T = {w.steps / 1000!r}",
        "time.dt = 1e-3",
        "init.kind = expr",
        f"init.expr_x = {cosine_expr(0.3, 0.4)}",
        f"init.expr_y = {_num(rng.uniform(0.15, 0.25))}",
        f"init.expr_z = {_num(rng.choice([-0.1, 0.1]))}*cos(pi*{axes[-1]})",
        "coils.count = 2",
    ]
    for k in (1, 2):
        center = " ".join(_num(c) for c in rng.uniform(0.25, 0.75, w.dim))
        lines += [
            f"coil.{k}.kind = gaussian",
            f"coil.{k}.center = {center}",
            f"coil.{k}.width = 0.15",
            f"coil.{k}.axis = {int(coil_axes[k - 1])}",
        ]
    lines += [
        "bounds.lower = -5",
        "bounds.upper = 5",
        "control.kind = constant",
        "control.value = " + " ".join(_num(v) for v in 0.45 * rng.choice([-1.0, 1.0], 2)),
        "targets.md_kind = run",
        "targets.md_init_kind = expr",
        f"targets.md_init_expr_x = {cosine_expr(0.15, 0.25)} + {_num(rng.uniform(0.05, 0.1))}",
        f"targets.md_init_expr_y = {_num(rng.uniform(0.15, 0.25))}",
        "targets.md_init_expr_z = 0",
    ]
    if "simulate" in w.ops:
        lines.append("output.diagnostics_every = 50")
    return "\n".join(lines) + "\n"


def cli_seed(w: Workload, variant: int) -> int:
    # 2D/3D: seeds 8-15, because check-grad is ill-conditioned along the
    # directions of CLI seeds 0 and 4 on the 3D config (rel err 4e-3, 2e-2)
    return CLI_SEEDS_1D[variant] if w.dim == 1 else N_VARIANTS + variant


def config_text(w: Workload, variant: int) -> str:
    """The config file a variant runs on; the CLI seed is written into it too."""
    body = STOCK1D if w.dim == 1 else _generated_config(w, variant)
    return body + f"seed = {cli_seed(w, variant)}\n"


def op_argv(op: str, config: str, out_dir: str, round_dir: str, seed: int) -> list:
    """Arguments to ``python -m llbopt.cli`` for one operation of a round."""
    argv = [op, "--config", config, "--out", out_dir, "--seed", str(seed), "--quiet"]
    if op == "certify":
        argv += ["--control", os.path.join(round_dir, "optimize", "control.csv")]
    return argv


# ---------------------------------------------------------------------------
# output parsing
# ---------------------------------------------------------------------------

def read_csv(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_report(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.strip().partition("=")
            out[key] = value
    return out


def read_llbfield(path, w: Workload) -> np.ndarray:
    """Payload of an LLBFIELD snapshot; raises ValueError on a bad file."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        payload = fh.read()
    if header != ["LLBFIELD", "v1", str(w.dim)] + [str(w.cells)] * w.dim:
        raise ValueError(f"{os.path.basename(path)}: bad header {header}")
    vals = np.frombuffer(payload, dtype="<f8")
    if vals.size != 3 * w.nodes:
        raise ValueError(f"{os.path.basename(path)}: {vals.size} floats, "
                         f"expected {3 * w.nodes}")
    return vals


def key_scalars(op: str, out_dir: str) -> dict:
    """The scalars of one operation's outputs that are compared with the
    recorded reference."""
    if op == "optimize":
        hist = read_csv(os.path.join(out_dir, "history.csv"))
        return {"iterations": len(hist) - 1, "cost": float(hist[-1]["cost"]),
                "tracking": float(hist[-1]["tracking"])}
    if op == "certify":
        rep = read_report(os.path.join(out_dir, "report.txt"))
        out = {k: float(rep[k]) for k in ("go_lhs", "min_rayleigh", "smallness_max",
                                          "factor.m_l2_h1", "factor.phi_l2_l2",
                                          "constant.C2", "constant.C3")}
        out["go_status"] = rep["go_status"]
        return out
    if op == "check-grad":
        row = read_csv(os.path.join(out_dir, "checkgrad.csv"))[0]
        return {"fd_slope": float(row["fd_slope"]),
                "adjoint_slope": float(row["adjoint_slope"])}
    if op == "simulate":
        diag = read_csv(os.path.join(out_dir, "diagnostics.csv"))
        return {"l2_sq": float(diag[-1]["l2_sq"]), "grad_sq": float(diag[-1]["grad_sq"]),
                "l4_quart": float(diag[-1]["l4_quart"]),
                "min_defect": min(float(r["defect"]) for r in diag)}
    raise ValueError(f"no key scalars for {op!r}")


def _close(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def check_outputs(w: Workload, op: str, out_dir: str, ref: dict | None) -> list:
    """Every problem found in one operation's outputs (empty when correct).

    Checks the CLI's own thresholds where the subcommand does not enforce
    them itself, internal consistency, and the key scalars against ``ref``.
    """
    errors = []
    try:
        got = key_scalars(op, out_dir)
        if op == "optimize":
            res = float(read_csv(os.path.join(out_dir, "history.csv"))[-1]["residual"])
            if not res <= 1e-6:  # solver.opt_tol default; the configs keep it
                errors.append(f"optimize residual {res:.3e} > opt_tol 1e-6")
            read_llbfield(os.path.join(out_dir, "state_final.llbfield"), w)
            if len(read_csv(os.path.join(out_dir, "control.csv"))) != w.steps + 1:
                errors.append("control.csv: wrong row count")
        elif op == "certify":
            for s in read_csv(os.path.join(out_dir, "curvature.csv")):
                if s["fd_valid"] == "true" and not float(s["rel_err"]) <= 1e-2:
                    errors.append(f"curvature direction {s['direction']}: "
                                  f"rel err {s['rel_err']} > checks.curvature_tol")
        elif op == "simulate":
            diag = read_csv(os.path.join(out_dir, "diagnostics.csv"))
            if len(diag) != w.steps + 1:
                errors.append("diagnostics.csv: wrong row count")
            if max(float(r["defect"]) for r in diag) > 0:
                errors.append("positive energy defect in diagnostics.csv")
            snaps = sorted(f for f in os.listdir(out_dir) if f.startswith("state_"))
            if len(snaps) != w.steps // 50 + 2:
                errors.append(f"{len(snaps)} snapshots, expected {w.steps // 50 + 2}")
            final = read_llbfield(os.path.join(out_dir, "state_final.llbfield"), w)
            l2_sq = float(np.sum(final * final)) / w.nodes
            if not (np.all(np.isfinite(final)) and _close(l2_sq, got["l2_sq"])):
                errors.append("state_final.llbfield disagrees with diagnostics.csv")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{op}: unreadable output: {exc}"]
    if ref is None:
        errors.append(f"{op}: no reference values recorded")
        return errors
    for key, want in ref.items():
        have = got.get(key)
        if have is None or not _close(have, want):
            errors.append(f"{op}: {key} = {have!r}, reference {want!r}")
    return errors
