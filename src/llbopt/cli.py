"""Command-line entry point: experiment orchestration and output management.

Subcommands: simulate, optimize, certify, check-grad, check-taylor,
check-curvature, convergence, oracle.  Every run writes a manifest
(config hash, seed and the versions of llbopt, numpy and python, plus
scipy's for ``oracle``, whose output scipy computes) into its output
directory; identical config + seed produces bit-identical CSV
outputs.  Start-up imports neither scipy nor OpenSSL: the config hash is
the interpreter's builtin SHA-256.

Exit codes: 0 success, 2 config validation failure, 3 solver blow-up (state
over the threshold, non-finite tangent or costate), stalled descent or a
failed Galerkin-oracle integration, 4 verification check beyond tolerance.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

# the interpreter's builtin SHA-256 (_sha2 from 3.12, _sha256 before), as
# random.py takes _sha512: hashlib would load OpenSSL's libcrypto
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import __version__
from .certify import (
    check_sampling_box,
    critical_cone_mask,
    curvature,
    fooc_sample_min,
    global_and_uniqueness_report,
    second_order_scan,
)
from .coils import ControlPath, control_inner_rms
from .config import (SCHEMA, ConfigError, RunConfig, control_csv_header, parse_config,
                     read_control_csv, read_input)
from .grid import Grid, VectorField, frame_norms, laplacian_values, write_field
from .llb import (
    BlowUpError,
    EnergyTally,
    OracleError,
    StalledDescentError,
    simulate,
    simulate_galerkin,
)
from .optimize import ReducedProblem, projected_gradient_descent, reduced_state, streamed_cost
from .tangent import LinearizationPoint, loglog_slope, taylor_remainder_order

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_CHECK = 4


class CheckFailure(RuntimeError):
    """A verification battery exceeded its tolerance."""


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) + "\n")


def write_manifest(out_dir, subcommand, config_path, seed):
    with open(config_path, "rb") as fh:
        digest = sha256(fh.read()).hexdigest()
    versions = {
        "llbopt": __version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    if subcommand in _WITH_SCIPY:
        import scipy
        versions["scipy"] = scipy.__version__
    manifest = {
        "subcommand": subcommand,
        "config": os.path.abspath(config_path),
        "config_sha256": digest,
        "seed": int(seed),
        "versions": versions,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def smooth_directions(n_steps, dt, coeffs):
    """Smooth-in-time control directions on K+1 time nodes, one column per
    coil: c0 + c1 sin(2 pi t / T) + c2 cos(pi t / T), with (c0, c1, c2)
    the coil's row of ``coeffs`` (shape (N, 3))."""
    t = np.arange(n_steps + 1) * dt
    T = max(n_steps * dt, dt)
    c0, c1, c2 = np.asarray(coeffs, dtype=float).T
    return (c0 + c1 * np.sin(2 * np.pi * t / T)[:, None]
            + c2 * np.cos(np.pi * t / T)[:, None])


def _forward_setup(cfg: RunConfig):
    """What a forward sweep needs: grid, sim, coils, m0 and U."""
    grid = cfg.build_grid()
    sim = cfg.build_sim()
    coils = cfg.build_coils(grid)
    m0 = cfg.build_initial(grid)
    U = cfg.build_control(sim.n_steps, coils.n_coils)
    return grid, sim, coils, m0, U


def _setup(cfg: RunConfig):
    """``(problem, U)`` for the subcommands that evaluate the cost; the
    targets take a forward sweep when ``targets.md_kind = run``."""
    grid, sim, coils, m0, U = _forward_setup(cfg)
    return ReducedProblem(m0, sim, coils, cfg.build_targets(grid, coils, sim)), U


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: RunConfig, out_dir, quiet):
    grid, sim, coils, m0, U = _forward_setup(cfg)
    K, every = sim.n_steps, cfg["output.diagnostics_every"]
    tally = EnergyTally(grid, sim.dt, K)
    snapshots = {}

    def consume(j, m):
        tally.add(j, m)
        if (every > 0 and j % every == 0) or j == K:
            snapshots[j] = m

    # one streamed sweep; every file is written after it, so a blow-up
    # leaves no diagnostics and no snapshot
    simulate(m0, U, coils, sim, consume=consume)
    ledger = tally.finish(U, coils)
    rows = zip(ledger["t"], ledger["l2_sq"], ledger["grad_sq"],
               ledger["l4_quart"], ledger["u_sq"], ledger["defect"])
    write_csv(os.path.join(out_dir, "diagnostics.csv"),
              ["t", "l2_sq", "grad_sq", "l4_quart", "u_sq", "defect"], rows)
    if every > 0:
        for j in range(0, K + 1, every):
            write_field(os.path.join(out_dir, f"state_{j:06d}.llbfield"),
                        VectorField(grid, snapshots[j]))
    write_field(os.path.join(out_dir, "state_final.llbfield"),
                VectorField(grid, snapshots[K]))
    if not quiet:
        print(f"simulate: {K} steps, final |m|_L2^2 = "
              f"{ledger['l2_sq'][-1]:.6g}, max defect = {ledger['defect'].max():.3g}")
    return EXIT_OK


def cmd_optimize(cfg: RunConfig, out_dir, quiet):
    problem, U0 = _setup(cfg)
    state, history = projected_gradient_descent(
        U0, problem, tol=cfg["solver.opt_tol"], max_iters=cfg["solver.opt_max_iters"],
        max_halvings=cfg["solver.max_halvings"])
    U = state.U
    write_csv(os.path.join(out_dir, "history.csv"),
              ["iter", "cost", "tracking", "terminal", "control", "residual", "step"],
              [(h.iteration, h.cost.total, h.cost.tracking, h.cost.terminal,
                h.cost.control, h.residual, h.step) for h in history])
    rows = [[t] + list(U.intensities[j]) + list(U.lower[j]) + list(U.upper[j])
            for j, t in enumerate(U.times)]
    write_csv(os.path.join(out_dir, "control.csv"), control_csv_header(U.n_coils), rows)
    write_field(os.path.join(out_dir, "state_final.llbfield"),
                state.traj.frame(state.traj.n_steps))
    final = history[-1]
    if not quiet:
        print(f"optimize: {final.iteration} iterations, cost {final.cost.total:.8g}, "
              f"residual {final.residual:.3e}")
    return EXIT_OK


def write_curvature(out_dir, samples):
    write_csv(os.path.join(out_dir, "curvature.csv"),
              ["direction", "q_adj", "q_fd", "rel_err", "fd_valid"],
              [(s.direction_id, s.q_adj, s.q_fd, s.rel_err, s.fd_valid)
               for s in samples])


def cmd_certify(cfg: RunConfig, out_dir, quiet, control_csv=None):
    missing = [key for key in ("certify.c_go", "certify.c4n")
               if cfg.get(key) is None]
    if missing:
        raise ConfigError([f"{key}: required for the certify subcommand"
                           for key in missing])
    problem, U = _setup(cfg)
    # the key that gave the box: an infinite lower bound of the config is
    # bounds.lower, any other fault of its box bounds.upper
    box_key = "bounds.upper" if np.all(np.isfinite(U.lower)) else "bounds.lower"
    if control_csv is not None:
        intens, lower, upper = read_input("--control", read_control_csv, control_csv,
                                          U.times, U.n_coils)
        if lower is not None:
            box_key = "--control"
            U = read_input("--control", ControlPath, intens, lower, upper, U.dt)
        else:
            U = U.with_intensities(intens)
    read_input(box_key, check_sampling_box, U)
    state = reduced_state(U, problem, keep_costate=True)
    cone = critical_cone_mask(U, state.grad, tol_active=cfg.get("certify.tol_active"),
                              tol_upsilon=cfg.get("certify.tol_upsilon"))
    # a trivial sampled cone reads min_rayleigh=unset; the first-order
    # report still stands
    min_rayleigh, samples = second_order_scan(
        state, cone, cfg["certify.n_dirs"], np.random.default_rng(cfg.seed),
        cfg["certify.eps_fd"])
    # the variational-inequality samples first, then the Lipschitz pairs, from one stream
    rng = np.random.default_rng(cfg.seed + 1)
    fooc_min = fooc_sample_min(U, state.grad, cfg["certify.n_fooc_samples"], rng)
    # each analysis constant is the keyword its certify.<name> key names
    report = global_and_uniqueness_report(state, rng, **{
        name: cfg.get(f"certify.{name}") for name in ("c_go", "c4n", "c2", "c3", "ctilde")})

    lines = {"pf_residual": state.residual, "fooc_min_sample": fooc_min,
             "min_rayleigh": min_rayleigh, **report}
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        for k, v in lines.items():
            if v is None:
                v = "unset"
            fh.write(f"{k}={v if isinstance(v, str) else _fmt(v)}\n")

    n = U.n_coils
    write_csv(os.path.join(out_dir, "upsilon.csv"),
              ["t"] + [f"upsilon_{i+1}" for i in range(n)],
              [[t] + list(state.grad[j]) for j, t in enumerate(U.times)])
    write_csv(os.path.join(out_dir, "masks.csv"),
              ["t"] + [f"mask_{i+1}" for i in range(n)],
              [[t] + list(cone[j]) for j, t in enumerate(U.times)])
    write_curvature(out_dir, samples)
    if not quiet:
        ray = "n/a" if min_rayleigh is None else f"{min_rayleigh:.6g}"
        print(f"certify: pf_residual {state.residual:.3e}, "
              f"min rayleigh {ray}, GO {report['go_status']}, "
              f"ULOC {report['uloc_status']}")
    return EXIT_OK


def cmd_check_grad(cfg: RunConfig, out_dir, quiet):
    problem, U = _setup(cfg)
    rng = np.random.default_rng(cfg.seed)
    h = smooth_directions(U.n_steps, U.dt, rng.standard_normal((U.n_coils, 3)))
    # the state streams its costate and is dropped with its trajectory here,
    # so the run holds two trajectories at most, and the +/-eps
    # forwards run as one batched sweep that keeps no trajectory
    grad = reduced_state(U, problem).grad
    eps = cfg["checks.grad_eps"]
    shifted = np.stack([U.intensities + eps * h, U.intensities - eps * h])
    (cp, cm), blown_at = streamed_cost(ControlPath(shifted, -np.inf, np.inf, U.dt), problem)
    for t in blown_at:  # +eps first, the order they ran in one at a time
        if np.isfinite(t):
            raise BlowUpError("state blow-up", t)
    fd = (cp.total - cm.total) / (2 * eps)
    ad = control_inner_rms(grad, h, U.dt)
    rel = abs(fd - ad) / max(abs(fd), 1e-300)
    write_csv(os.path.join(out_dir, "checkgrad.csv"),
              ["eps", "fd_slope", "adjoint_slope", "rel_err"],
              [(eps, fd, ad, rel)])
    tol = cfg["checks.grad_tol"]
    if not quiet:
        print(f"check-grad: rel err {rel:.3e} (tol {tol:g})")
    if not np.isfinite(rel) or rel > tol:
        raise CheckFailure(f"gradient check failed: rel err {rel:.3e} > {tol:g}")
    return EXIT_OK


def cmd_check_taylor(cfg: RunConfig, out_dir, quiet):
    grid, sim, coils, m0, U = _forward_setup(cfg)
    traj = simulate(m0, U, coils, sim)
    point = LinearizationPoint(traj, U, coils)
    rng = np.random.default_rng(cfg.seed)
    dU = smooth_directions(sim.n_steps, sim.dt, rng.standard_normal((coils.n_coils, 3)))
    result = taylor_remainder_order(point, dU, cfg["checks.taylor_eps"], cfg=sim)
    write_csv(os.path.join(out_dir, "taylor.csv"),
              ["eps", "remainder", "first_difference"],
              zip(result.epsilons, result.remainders, result.first_differences))
    min_slope = cfg["checks.taylor_min_slope"]
    if not quiet:
        print(f"check-taylor: remainder order {result.remainder_order:.3f}, "
              f"first-difference order {result.first_difference_order:.3f}")
    if not result.remainder_order >= min_slope:
        raise CheckFailure(
            f"Taylor check failed: remainder order {result.remainder_order:.3f} "
            f"< {min_slope:g}")
    return EXIT_OK


def cmd_check_curvature(cfg: RunConfig, out_dir, quiet):
    problem, U = _setup(cfg)
    rng = np.random.default_rng(cfg.seed)
    n_dirs = cfg["certify.n_dirs"]
    hs = np.stack([smooth_directions(U.n_steps, U.dt, rng.standard_normal((U.n_coils, 3)))
                   for _ in range(n_dirs)])
    samples = curvature(reduced_state(U, problem, keep_costate=True), hs, cfg["certify.eps_fd"])
    write_curvature(out_dir, samples)
    tol = cfg["checks.curvature_tol"]
    worst = max((s.rel_err for s in samples if s.fd_valid), default=float("nan"))
    if not quiet:
        print(f"check-curvature: worst rel err {worst:.3e} over {n_dirs} directions")
    if not np.isfinite(worst) or worst > tol:
        raise CheckFailure(f"curvature check failed: worst rel err {worst:.3e} > {tol:g}")
    return EXIT_OK


def temporal_self_convergence(cfg: RunConfig):
    """Self-convergence of the forward solver under four dt halvings.

    Returns (dts, errors, order): error_k compares the final frame at dt_k
    against dt_k / 2.
    """
    n_levels = 4
    grid, sim0, coils, m0, U0 = _forward_setup(cfg)
    dts = [sim0.dt / 2**k for k in range(n_levels + 1)]
    finals = []
    for dt in dts:
        sim = dataclasses.replace(sim0, dt=dt)
        steps = sim.n_steps
        stride = round(sim0.dt / dt)
        intens = np.repeat(U0.intensities, stride, axis=0)[:steps + 1]
        intens[-1] = U0.intensities[-1]
        U = ControlPath(intens, -np.inf, np.inf, dt)
        # each frame replaces the one before, so only the final one is held
        last = {}
        simulate(m0, U, coils, sim, consume=lambda j, m: last.update(m=m))
        finals.append(last["m"])
    errors = np.sqrt(frame_norms(grid, (a - b for a, b in zip(finals, finals[1:]))))
    return dts[:n_levels], errors, loglog_slope(dts[:n_levels], errors)


LAPLACIAN_RESOLUTIONS = (16, 32, 64, 128, 256)
"""Cell counts of the spatial study in :func:`spatial_laplacian_order`."""


def spatial_laplacian_order(L: float):
    """Observed order of the Laplacian eigenvalue of cos(pi x / L) over the
    1D grids of :data:`LAPLACIAN_RESOLUTIONS` cells."""
    target = -(np.pi / L) ** 2
    hs, errs = [], []
    for n in LAPLACIAN_RESOLUTIONS:
        g = Grid((n,), (L,))
        x = g.axis_coords(0)
        f = np.zeros(g.shape + (3,))
        f[..., 0] = np.cos(np.pi * x / L)
        lap = laplacian_values(g, f)
        lam = float(np.sum(lap * f) / np.sum(f * f))
        hs.append(g.spacing[0])
        errs.append(abs(lam - target))
    return hs, errs, loglog_slope(hs, errs)


def cmd_convergence(cfg: RunConfig, out_dir, quiet):
    dts, terrs, t_order = temporal_self_convergence(cfg)
    hs, serrs, s_order = spatial_laplacian_order(cfg["grid.lengths"][0])
    rows = [("temporal", dt, err) for dt, err in zip(dts, terrs)]
    rows += [("spatial", h, err) for h, err in zip(hs, serrs)]
    write_csv(os.path.join(out_dir, "convergence.csv"),
              ["study", "resolution", "error"], rows)
    write_csv(os.path.join(out_dir, "orders.csv"),
              ["study", "observed_order"],
              [("temporal", t_order), ("spatial", s_order)])
    t_lo, t_hi = cfg["checks.temporal_order_range"]
    s_lo, s_hi = cfg["checks.spatial_order_range"]
    if not quiet:
        print(f"convergence: temporal order {t_order:.3f} (want [{t_lo}, {t_hi}]), "
              f"spatial order {s_order:.3f} (want [{s_lo}, {s_hi}])")
    if not (t_lo <= t_order <= t_hi):
        raise CheckFailure(f"temporal order {t_order:.3f} outside [{t_lo}, {t_hi}]")
    if not (s_lo <= s_order <= s_hi):
        raise CheckFailure(f"spatial order {s_order:.3f} outside [{s_lo}, {s_hi}]")
    return EXIT_OK


def cmd_oracle(cfg: RunConfig, out_dir, quiet):
    grid, sim, coils, m0, U = _forward_setup(cfg)
    modes = cfg["checks.oracle_modes"]
    if modes > grid.node_count:
        raise ConfigError([f"checks.oracle_modes: must be at most the grid's "
                           f"{grid.node_count} nodes, got {modes}"])
    traj = simulate(m0, U, coils, sim)
    oracle = simulate_galerkin(m0, U, coils, sim, modes)
    disc = np.sqrt(frame_norms(grid, (a - b for a, b in zip(traj.frames, oracle.frames))))
    write_csv(os.path.join(out_dir, "oracle.csv"), ["t", "l2_discrepancy"],
              zip(traj.times, disc))
    tol = cfg["checks.oracle_tol"]
    worst = float(disc.max())
    if not quiet:
        print(f"oracle: max L2 discrepancy {worst:.3e} (tol {tol:g})")
    if worst > tol:
        raise CheckFailure(f"Galerkin oracle disagreement {worst:.3e} > {tol:g}")
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "optimize": cmd_optimize,
    "certify": cmd_certify,
    "check-grad": cmd_check_grad,
    "check-taylor": cmd_check_taylor,
    "check-curvature": cmd_check_curvature,
    "convergence": cmd_convergence,
    "oracle": cmd_oracle,
}

# the checks that differentiate along coil directions: with no coil there is
# no direction, and the check would pass or fail on nothing
_ALONG_COILS = ("check-grad", "check-taylor", "check-curvature")

# the subcommands whose outputs scipy computes, the only ones that load it
# and record its version in the manifest
_WITH_SCIPY = ("oracle",)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="llbopt",
        description="LLB optimal-control solver and certification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--quiet", action="store_true")
        if name == "certify":
            p.add_argument("--control", default=None,
                           help="control CSV (defaults to the config control block)")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            valid, rule = SCHEMA["seed"].check  # the config key's own rule
            if not valid(args.seed):
                raise ConfigError([f"--seed: {rule}, got {args.seed}"])
            cfg.raw["seed"] = args.seed
        try:
            os.makedirs(args.out, exist_ok=True)
            write_manifest(args.out, args.command, args.config, cfg.seed)
        except OSError as exc:
            raise ConfigError([f"--out: cannot write the output directory "
                               f"{args.out}: {exc.strerror or exc}"]) from None
        if args.command in _ALONG_COILS and cfg["coils.count"] == 0:
            raise ConfigError([f"coils.count: {args.command} needs at least one coil"])
        if args.command == "certify":
            return _COMMANDS[args.command](cfg, args.out, args.quiet,
                                           control_csv=args.control)
        return _COMMANDS[args.command](cfg, args.out, args.quiet)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BlowUpError, StalledDescentError, OracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except CheckFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
