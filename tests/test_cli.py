import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import llbopt.adjoint
import llbopt.certify
import llbopt.cli
import llbopt.llb
from llbopt.cli import main, smooth_directions
from llbopt.coils import ControlPath, gaussian_coil, uniform_coil
from llbopt.config import (COIL_SCHEMA, REQUIRED, SCHEMA, ConfigError, RunConfig,
                           parse_config, read_control_csv)
from llbopt.grid import Grid, encode_record, read_field
from llbopt.llb import BlowUpError, SimConfig, energy_ledger, simulate
from llbopt.optimize import ReducedProblem, TrackingTargets

from conftest import peak_rise, trajectory_bytes
from test_imports import ORDER

STOCK = """
grid.dim = 1
grid.cells = 32
grid.lengths = 1.0
time.T = 0.25
time.dt = 2.5e-3
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
certify.ctilde = 4.0
certify.n_dirs = 3
seed = 7
"""


# a 3D problem of the same shape: 12^3 cells and K = 50, so one stored
# trajectory is 2.1 MB
STOCK3D = """
grid.dim = 3
grid.cells = 12
grid.lengths = 1.0
time.T = 0.05
time.dt = 1e-3
init.kind = expr
init.expr_x = 0.33*cos(pi*x)*cos(pi*y)*cos(pi*z)
init.expr_y = 0.2
init.expr_z = 0.1*cos(pi*z)
coils.count = 2
coil.1.kind = gaussian
coil.1.center = 0.3 0.46 0.53
coil.1.width = 0.15
coil.1.axis = 0
coil.2.kind = gaussian
coil.2.center = 0.63 0.27 0.74
coil.2.width = 0.15
coil.2.axis = 1
bounds.lower = -5
bounds.upper = 5
control.kind = constant
control.value = -0.45 -0.45
targets.md_kind = run
targets.md_init_kind = expr
targets.md_init_expr_x = 0.18*cos(pi*x)*cos(pi*y)*cos(pi*z) + 0.08
targets.md_init_expr_y = 0.21
targets.md_init_expr_z = 0
seed = 14
"""


# the stock problem on 16^2 cells, K = 40
STOCK2D = """
grid.dim = 2
grid.cells = 16
time.T = 0.04
time.dt = 1e-3
init.kind = expr
init.expr_x = 0.35*cos(pi*x)*cos(pi*y)
init.expr_y = 0.2
init.expr_z = 0.1*cos(pi*y)
coils.count = 2
coil.1.kind = gaussian
coil.1.center = 0.3 0.6
coil.1.width = 0.15
coil.1.axis = 0
coil.2.kind = gaussian
coil.2.center = 0.7 0.4
coil.2.width = 0.15
coil.2.axis = 2
control.kind = constant
control.value = 0.45 -0.45
targets.md_kind = run
targets.md_init_kind = expr
targets.md_init_expr_x = 0.2*cos(pi*x)*cos(pi*y) + 0.1
"""


@pytest.fixture
def stock_cfg(tmp_path):
    path = tmp_path / "stock.cfg"
    path.write_text(STOCK)
    return str(path)


def count_sweeps(monkeypatch):
    """Count ``simulate`` and ``solve_adjoint`` calls through every llbopt
    import site; returns the live counts."""
    counts = {"simulate": 0, "solve_adjoint": 0}
    for real in (llbopt.llb.simulate, llbopt.adjoint.solve_adjoint):
        def counted(*args, _real=real, **kwargs):
            counts[_real.__name__] += 1
            return _real(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "llbopt" and getattr(mod, real.__name__, None) is real:
                monkeypatch.setattr(mod, real.__name__, counted)
    return counts


class TestParseConfig:
    def test_minimal_valid(self, tmp_path):
        path = tmp_path / "min.cfg"
        path.write_text("grid.dim = 1\ngrid.cells = 8\ntime.T = 0.1\ntime.dt = 0.01\n")
        cfg = parse_config(path)
        # documented defaults applied
        assert cfg["solver.opt_tol"] == 1e-6
        assert cfg["grid.lengths"] == [1.0]
        assert cfg.seed == 0

    def test_all_violations_reported(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(
            "grid.dim = 1\ngrid.cells = 8\ntime.T = 1.0\ntime.dt = 0.3\n"
            "mystery.key = 1\ncoils.count = 1\ncoil.1.kind = gaussian\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        text = str(err.value)
        assert "time.dt" in text
        assert "mystery.key" in text
        assert "coil.1.center" in text
        # a negative dt is reported once, not also as not dividing T
        path.write_text(
            "grid.dim = 1\ngrid.cells = 8\ntime.T = 1.0\ntime.dt = -1\n"
            "mystery.key = 1\ncoils.count = 1\ncoil.1.kind = uniform\ncoil.1.axis = 3\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.errors == ["line 5: unknown key 'mystery.key'",
                                    "time.dt: must be positive, got -1.0",
                                    "coil.1.axis: must be 0, 1 or 2, got 3"]

    def test_one_control_value_spreads_to_every_coil(self, tmp_path):
        path = tmp_path / "spread.cfg"
        path.write_text("grid.dim = 1\ngrid.cells = 8\ntime.T = 0.1\ntime.dt = 0.01\n"
                        "coils.count = 2\ncoil.1.kind = uniform\ncoil.2.kind = uniform\n"
                        "control.kind = constant\ncontrol.value = 0.5\n")
        cfg = parse_config(path)
        assert cfg["control.value"] == [0.5, 0.5]
        assert np.all(cfg.build_control(10, 2).intensities == 0.5)

    def test_coil_file_wrong_grid_named(self, tmp_path):
        from llbopt.grid import Grid, VectorField, write_field
        write_field(tmp_path / "coil.llbfield",
                    VectorField.zero(Grid((16,), (1.0,))))
        path = tmp_path / "c.cfg"
        path.write_text(
            "grid.dim = 1\ngrid.cells = 8\ntime.T = 0.1\ntime.dt = 0.01\n"
            "coils.count = 1\ncoil.1.kind = file\ncoil.1.path = coil.llbfield\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "coil 1" in str(err.value) and "does not match" in str(err.value)

    def test_neumann_check(self, tmp_path):
        # x e1 has unit normal derivative at both ends: rejected when checked
        base = ("grid.dim = 1\ngrid.cells = 32\ntime.T = 0.1\ntime.dt = 0.01\n"
                "init.kind = expr\ninit.expr_x = x\n")
        ok = tmp_path / "ok.cfg"
        ok.write_text(base)
        parse_config(ok)
        strict = tmp_path / "strict.cfg"
        strict.write_text(base + "init.check_ic = true\n")
        with pytest.raises(ConfigError, match="Neumann"):
            parse_config(strict)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("grid.dim = 1\ngrid.dim = 2\ngrid.cells = 8\n"
                        "time.T = 0.1\ntime.dt = 0.01\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_trajectory_file_target_roundtrip(self, tmp_path):
        from llbopt import CoilSet, ControlPath, Grid, SimConfig, simulate
        from llbopt.config import write_trajectory
        from conftest import cosine_initial
        grid = Grid((16,), (1.0,))
        sim = SimConfig(T=0.1, dt=0.01)
        traj = simulate(cosine_initial(grid),
                        ControlPath.zeros(sim.n_steps, 0, sim.dt),
                        CoilSet.empty(grid), sim)
        write_trajectory(tmp_path / "md.llbtraj", traj)
        cfg_path = tmp_path / "t.cfg"
        cfg_path.write_text(
            "grid.dim = 1\ngrid.cells = 16\ntime.T = 0.1\ntime.dt = 0.01\n"
            "init.kind = expr\ninit.expr_x = 0.4*cos(pi*x)\ninit.expr_y = 0.2\n"
            "targets.md_kind = file\ntargets.md_path = md.llbtraj\n")
        cfg = parse_config(cfg_path)
        g = cfg.build_grid()
        targets = cfg.build_targets(g, cfg.build_coils(g), cfg.build_sim())
        np.testing.assert_allclose(targets.m_d, traj.values, rtol=0)
        # momega defaults to the final target frame
        np.testing.assert_allclose(targets.m_omega, traj.values[-1], rtol=0)

    def test_constant_target_holds_one_frame(self, tmp_path):
        # m_d is a read-only view of one frame at every step: building the
        # targets allocates m_d's frame and m_Omega's, not K+1 frames
        path = tmp_path / "const.cfg"
        path.write_text("grid.dim = 2\ngrid.cells = 32\ntime.T = 0.1\ntime.dt = 1e-3\n"
                        "targets.md_kind = constant\ntargets.md_value = 0.1 0.2 0.3\n")
        cfg = parse_config(path)
        grid, sim = cfg.build_grid(), cfg.build_sim()
        coils, K = cfg.build_coils(grid), sim.n_steps
        frame = trajectory_bytes(grid, K) / (K + 1)
        for build in (lambda: cfg.build_targets(grid, coils, sim),
                      lambda: TrackingTargets.constant(grid, (0.1, 0.2, 0.3), K)):
            targets, peak = peak_rise(build)
            assert peak < 3 * frame
            assert targets.m_d.shape == (K + 1,) + grid.shape + (3,)
            assert not targets.m_d.flags.writeable
            assert np.all(targets.m_d == [0.1, 0.2, 0.3])
            assert np.all(targets.m_omega == [0.1, 0.2, 0.3])


class TestSubcommands:
    def test_simulate_zero_data(self, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("grid.dim = 1\ngrid.cells = 8\ntime.T = 0.1\ntime.dt = 0.01\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        diag = np.loadtxt(out / "diagnostics.csv", delimiter=",", skiprows=1)
        assert np.all(diag[:, 1:] == 0.0)
        assert (out / "manifest.json").exists()

    def test_optimize_and_certify(self, stock_cfg, tmp_path):
        out = tmp_path / "opt"
        assert main(["optimize", "--config", stock_cfg, "--out", str(out),
                     "--quiet"]) == 0
        hist = np.loadtxt(out / "history.csv", delimiter=",", skiprows=1, ndmin=2)
        assert hist[-1, 6 - 1] <= 1e-6  # residual column
        intens, lower, upper = read_control_csv(out / "control.csv",
                                                np.arange(101) * 2.5e-3, 2)
        assert intens.shape == (101, 2)
        assert np.all(lower == -5) and np.all(upper == 5)

        cert = tmp_path / "cert"
        assert main(["certify", "--config", stock_cfg, "--out", str(cert),
                     "--control", str(out / "control.csv"), "--quiet"]) == 0
        report = dict(line.split("=", 1)
                      for line in (cert / "report.txt").read_text().splitlines())
        assert float(report["pf_residual"]) <= 1e-6
        assert report["go_status"] in ("PASS", "FAIL")
        assert (cert / "upsilon.csv").exists()
        assert (cert / "masks.csv").exists()
        assert (cert / "curvature.csv").exists()

        # the same control without its bound columns keeps the config's box,
        # which is the one optimize wrote: every output is the same
        short = tmp_path / "short.csv"
        short.write_text("".join(",".join(line.split(",")[:3]) + "\n"
                                 for line in (out / "control.csv").read_text().splitlines()))
        cert_short = tmp_path / "cert_short"
        assert main(["certify", "--config", stock_cfg, "--out", str(cert_short),
                     "--control", str(short), "--quiet"]) == 0
        for name in ("report.txt", "upsilon.csv", "masks.csv", "curvature.csv"):
            assert (cert_short / name).read_bytes() == (cert / name).read_bytes(), name

    def test_masks_csv_is_the_sampled_cone(self, stock_cfg, tmp_path, monkeypatch):
        out = tmp_path / "opt"
        assert main(["optimize", "--config", stock_cfg, "--out", str(out), "--quiet"]) == 0
        projected = []
        real = llbopt.certify.project_onto_cone
        monkeypatch.setattr(llbopt.certify, "project_onto_cone",
                            lambda h, cone: projected.append(cone) or real(h, cone))
        cert = tmp_path / "cert"
        assert main(["certify", "--config", stock_cfg, "--out", str(cert),
                     "--control", str(out / "control.csv"), "--quiet"]) == 0
        # the scan projects first, onto one cone; fooc_min last, onto the
        # box's tangent cone
        *scan, tangent = projected
        cone = scan[0]
        assert all(c is cone for c in scan)
        labels = np.loadtxt(cert / "masks.csv", delimiter=",", skiprows=1, dtype=str)[:, 1:]
        assert np.array_equal(labels, cone)
        assert np.all(labels == "free")  # a converged interior optimum
        assert tangent is not cone and np.all(tangent == "free")

    def test_tol_upsilon_reaches_the_scan(self, stock_cfg, tmp_path):
        # a zero-rule tolerance of 0 pins every coordinate where Upsilon is
        # nonzero, so the scan samples the trivial cone
        path = tmp_path / "pinned.cfg"
        path.write_text(open(stock_cfg).read() + "certify.tol_upsilon = 0\n")
        out = tmp_path / "cert"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["certify", "--config", str(path), "--out", str(out),
                         "--quiet"]) == 0
        assert "min_rayleigh=unset\n" in (out / "report.txt").read_text()
        assert (out / "curvature.csv").read_text() == "direction,q_adj,q_fd,rel_err,fd_valid\n"
        masks = np.loadtxt(out / "masks.csv", delimiter=",", skiprows=1, dtype=str)[:, 1:]
        assert np.all(masks == "zero")

    def test_optimize_sweep_counts(self, stock_cfg, tmp_path, monkeypatch):
        # forwards: the set-up target run, the start and one per line-search
        # trial; adjoints: the start and one per accepted step.  The accepted
        # trial's forward sweep is reused, also for state_final.llbfield.
        counts = count_sweeps(monkeypatch)
        out = tmp_path / "opt"
        assert main(["optimize", "--config", stock_cfg, "--out", str(out),
                     "--quiet"]) == 0
        steps = np.loadtxt(out / "history.csv", delimiter=",", skiprows=1,
                           ndmin=2)[:-1, 6]
        assert steps.size > 0
        trials = int(sum(round(np.log2(1.0 / s)) + 1 for s in steps))  # from step 1
        assert counts == {"simulate": 2 + trials, "solve_adjoint": steps.size + 1}

    def test_check_grad(self, stock_cfg, tmp_path):
        out = tmp_path / "cg"
        assert main(["check-grad", "--config", stock_cfg, "--out", str(out),
                     "--quiet"]) == 0
        rows = np.loadtxt(out / "checkgrad.csv", delimiter=",", skiprows=1, ndmin=2)
        assert rows[0, 3] <= 1e-3

    def test_check_grad_sweep_counts(self, stock_cfg, tmp_path, monkeypatch):
        # forwards: the set-up target run, the base point and the +/-eps
        # pair as one batch; adjoints: the base point
        counts = count_sweeps(monkeypatch)
        assert main(["check-grad", "--config", stock_cfg, "--out", str(tmp_path / "cg"),
                     "--quiet"]) == 0
        assert counts == {"simulate": 3, "solve_adjoint": 1}

    @pytest.mark.parametrize("command", ["check-grad", "optimize"])
    def test_holds_two_trajectories(self, tmp_path, command):
        # the targets and the state: the costate is paired frame by frame as
        # the adjoint sweep makes it, the +/-eps forwards of check-grad keep
        # no trajectory, and optimize drops a rejected trial's trajectory
        # and the previous iterate's before the next forward sweep
        path = tmp_path / "stock3d.cfg"
        path.write_text(STOCK3D)
        cfg = parse_config(str(path))
        one = trajectory_bytes(cfg.build_grid(), cfg.build_sim().n_steps)
        assert one >= 2e6
        argv = [command, "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]
        # a first run imports numpy.random and fills the solver caches, which
        # would otherwise count here or not depending on the tests run before
        assert main(argv) == 0
        code, peak = peak_rise(main, argv)
        assert code == 0
        assert peak < 2.5 * one

    @pytest.mark.parametrize("eps", [20.0, 100.0])
    def test_exit_3_when_a_shifted_forward_blows_up(self, stock_cfg, tmp_path, capsys, eps):
        # eps = 20 blows up the -eps member only; eps = 100 both, the -eps
        # one first.  The message names the member the forwards, run one at
        # a time, would have stopped at (+eps first), at its own time.
        path = tmp_path / "wide.cfg"
        path.write_text(open(stock_cfg).read() + f"checks.grad_eps = {eps}\n")
        cfg = parse_config(str(path))
        grid, sim = cfg.build_grid(), cfg.build_sim()
        coils, m0 = cfg.build_coils(grid), cfg.build_initial(grid)
        U = cfg.build_control(sim.n_steps, coils.n_coils)
        rng = np.random.default_rng(cfg.seed)
        h = smooth_directions(sim.n_steps, sim.dt, rng.standard_normal((coils.n_coils, 3)))
        blown = []
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            for sign in (1.0, -1.0):
                shifted = ControlPath(U.intensities + sign * eps * h, -np.inf, np.inf, sim.dt)
                try:
                    simulate(m0, shifted, coils, sim)
                except BlowUpError as exc:
                    blown.append(f"error: {exc}\n")
            code = main(["check-grad", "--config", str(path),
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert len(blown) == (1 if eps == 20.0 else 2)
        assert code == 3
        assert capsys.readouterr().err == blown[0]

    @pytest.mark.parametrize("command, forwards", [
        ("simulate", 1), ("check-taylor", 6), ("convergence", 5), ("oracle", 1)])
    def test_forward_only_subcommands_build_no_targets(self, stock_cfg, tmp_path,
                                                       monkeypatch, command, forwards):
        # check-taylor: the point and one per taylor_eps; convergence: one
        # per dt level.  None of them reads the md_kind = run target.
        counts = count_sweeps(monkeypatch)
        monkeypatch.setattr(RunConfig, "build_targets",
                            lambda *args: pytest.fail("targets built"))
        path = tmp_path / "fwd.cfg"
        # this counts sweeps: the oracle's accuracy is not under test here
        path.write_text(open(stock_cfg).read() + "checks.oracle_tol = 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main([command, "--config", str(path), "--out", str(tmp_path / "o"),
                         "--quiet"]) == 0
        assert counts == {"simulate": forwards, "solve_adjoint": 0}

    @pytest.mark.parametrize("command, forwards, adjoints", [
        ("certify", 4, 3), ("check-curvature", 3, 2)])
    def test_certify_and_check_curvature_sweep_counts(self, stock_cfg, tmp_path, monkeypatch,
                                                      command, forwards, adjoints):
        # the set-up target run comes first in both; certify adds the
        # control, the finite-difference batch and the Lipschitz batch
        counts = count_sweeps(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main([command, "--config", stock_cfg, "--out", str(tmp_path / "o"),
                         "--quiet"]) == 0
        assert counts == {"simulate": forwards, "solve_adjoint": adjoints}

    @pytest.mark.parametrize("command, code", [("certify", 0), ("check-curvature", 4)])
    def test_huge_fd_step_invalidates_the_samples_without_an_overflow_warning(
            self, stock_cfg, tmp_path, command, code):
        # the shifted controls' norms overflow to inf: every Q_fd is invalid,
        # which certify reports and check-curvature fails on, and stderr
        # holds no numpy overflow warning
        path = tmp_path / "huge.cfg"
        path.write_text(open(stock_cfg).read() + "certify.eps_fd = 1e300\n")
        out = tmp_path / "o"
        src = os.path.dirname(os.path.dirname(llbopt.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        run = subprocess.run([sys.executable, "-m", "llbopt.cli", command, "--config",
                              str(path), "--out", str(out), "--quiet"],
                             capture_output=True, text=True, env=env)
        assert run.returncode == code
        assert "overflow" not in run.stderr
        rows = np.loadtxt(out / "curvature.csv", delimiter=",", skiprows=1, dtype=str, ndmin=2)
        assert len(rows) > 0 and np.all(rows[:, 4] == "false")

    def test_setup_builds_the_problem_with_one_target_run(self, stock_cfg, monkeypatch):
        # cli._setup(parse_config(path)) is the whole set-up of the subcommands
        # that evaluate the cost, and the benchmark's set-up probe runs it by
        # that name: one build_targets call, whose md_kind = run target is
        # the one forward sweep
        counts = count_sweeps(monkeypatch)
        built = []
        real = RunConfig.build_targets
        monkeypatch.setattr(RunConfig, "build_targets",
                            lambda self, *args: built.append(args) or real(self, *args))
        problem, U = llbopt.cli._setup(parse_config(stock_cfg))
        assert len(built) == 1
        assert counts == {"simulate": 1, "solve_adjoint": 0}
        assert isinstance(problem, ReducedProblem)
        assert len(problem.targets.m_d) == U.n_steps + 1 == problem.sim.n_steps + 1

    @pytest.mark.parametrize("text", [STOCK, STOCK2D, STOCK3D], ids=["1d", "2d", "3d"])
    def test_simulate_outputs_match_a_stored_sweep(self, tmp_path, text):
        # the streamed ledger and snapshots equal energy_ledger and the
        # frames of a stored sweep, bit for bit
        path = tmp_path / "fwd.cfg"
        path.write_text(text + "output.diagnostics_every = 7\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        cfg = parse_config(str(path))
        grid, sim = cfg.build_grid(), cfg.build_sim()
        coils = cfg.build_coils(grid)
        U = cfg.build_control(sim.n_steps, coils.n_coils)
        traj = simulate(cfg.build_initial(grid), U, coils, sim)
        led = energy_ledger(traj, U, coils)
        diag = np.loadtxt(out / "diagnostics.csv", delimiter=",", skiprows=1)
        for c, name in enumerate(["t", "l2_sq", "grad_sq", "l4_quart", "u_sq", "defect"]):
            np.testing.assert_array_equal(diag[:, c], led[name], err_msg=name)
        K = sim.n_steps
        snaps = sorted(f.name for f in out.iterdir() if f.name.startswith("state_"))
        assert snaps == [f"state_{j:06d}.llbfield" for j in range(0, K + 1, 7)] + [
            "state_final.llbfield"]
        for j in list(range(0, K + 1, 7)) + [K]:
            name = "state_final" if j == K else f"state_{j:06d}"
            np.testing.assert_array_equal(read_field(out / f"{name}.llbfield", grid).values,
                                          traj.values[j])

    def test_simulate_holds_no_trajectory(self, tmp_path):
        path = tmp_path / "stock3d.cfg"
        path.write_text(STOCK3D)
        cfg = parse_config(str(path))
        one = trajectory_bytes(cfg.build_grid(), cfg.build_sim().n_steps)
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]
        assert main(argv) == 0  # fills the solver caches
        code, peak = peak_rise(main, argv)
        assert code == 0
        assert peak < 0.5 * one

    def test_simulate_blowup_writes_no_outputs(self, tmp_path, capsys):
        # |m| = 20 grows about 3x in the first step and blows up a few
        # steps later, after frames that the snapshot cadence would keep
        cfg = tmp_path / "blow.cfg"
        cfg.write_text(
            "grid.dim = 1\ngrid.cells = 8\ntime.T = 1.0\ntime.dt = 1e-2\n"
            "init.kind = constant\ninit.value = 20 0 0\noutput.diagnostics_every = 1\n")
        out = tmp_path / "o"
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert code == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: state blow-up at t=0\.0[2-9]\n", err)
        assert sorted(f.name for f in out.iterdir()) == ["manifest.json"]

    def test_check_taylor(self, stock_cfg, tmp_path):
        out = tmp_path / "ct"
        assert main(["check-taylor", "--config", stock_cfg, "--out", str(out),
                     "--quiet"]) == 0
        rows = np.loadtxt(out / "taylor.csv", delimiter=",", skiprows=1, ndmin=2)
        assert rows.shape[1] == 3

    def test_check_curvature(self, stock_cfg, tmp_path):
        out = tmp_path / "cc"
        assert main(["check-curvature", "--config", stock_cfg, "--out", str(out),
                     "--quiet"]) == 0
        rows = np.loadtxt(out / "curvature.csv", delimiter=",", skiprows=1,
                          ndmin=2, usecols=(1, 2, 3))
        assert np.all(rows[:, 2] <= 1e-2)

    def test_snapshot_cadence(self, tmp_path):
        cfg = tmp_path / "snap.cfg"
        cfg.write_text("grid.dim = 1\ngrid.cells = 8\ntime.T = 0.1\n"
                       "time.dt = 0.01\noutput.diagnostics_every = 5\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        assert (out / "state_000000.llbfield").exists()
        assert (out / "state_000005.llbfield").exists()
        assert (out / "state_000010.llbfield").exists()

    def test_convergence(self, stock_cfg, tmp_path):
        out = tmp_path / "conv"
        # stock dt = 5e-3 is already in the asymptotic range
        assert main(["convergence", "--config", stock_cfg, "--out", str(out),
                     "--quiet"]) == 0
        orders = (out / "orders.csv").read_text().splitlines()
        assert orders[0] == "study,observed_order"

    def test_oracle_small_amplitude(self, tmp_path):
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text(
            "grid.dim = 1\ngrid.cells = 64\ntime.T = 0.2\ntime.dt = 2e-4\n"
            "init.kind = expr\ninit.expr_x = 0.08*cos(pi*x)\n"
            "init.expr_y = 0.05\ninit.expr_z = 0\n"
            "coils.count = 1\ncoil.1.kind = uniform\ncoil.1.axis = 1\n"
            "control.kind = constant\ncontrol.value = 0.1\n"
            "checks.oracle_modes = 6\nchecks.oracle_tol = 2e-3\n")
        out = tmp_path / "orc"
        assert main(["oracle", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0

    def test_convergence_of_a_still_state_exits_4_in_one_line(self, tmp_path, capsys):
        # zero data keep the state at 0, so every self-convergence error is 0
        # and the temporal order is undefined, not a log of zero
        cfg = tmp_path / "still.cfg"
        cfg.write_text("grid.dim = 1\ngrid.cells = 8\ntime.T = 0.01\ntime.dt = 1e-3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would add lines to stderr
            assert main(["convergence", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--quiet"]) == 4
        assert capsys.readouterr().err == "error: temporal order nan outside [0.9, 1.1]\n"

    def test_exit_2_on_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid.dim = 7\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key", ["solver.warn_dt_factor", "solver.armijo_c1",
                                     "solver.step0"])
    def test_fixed_solver_constants_are_unknown_keys(self, tmp_path, capsys, key):
        cfg = tmp_path / "fixed.cfg"
        cfg.write_text(f"grid.dim = 1\ngrid.cells = 8\ntime.T = 0.1\ntime.dt = 0.01\n"
                       f"{key} = 0.5\n")
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: invalid configuration: line 5: unknown key {key!r}\n")

    def test_oracle_modes_bind_only_the_oracle(self, tmp_path):
        # the default 8 oracle modes exceed 4 nodes; only oracle refuses
        cfg = tmp_path / "small.cfg"
        cfg.write_text("grid.dim = 1\ngrid.cells = 4\ntime.T = 0.1\ntime.dt = 0.01\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s"),
                     "--quiet"]) == 0
        assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 2

    def test_certify_requires_constants(self, tmp_path, capsys):
        cfg = tmp_path / "noconst.cfg"
        cfg.write_text("grid.dim = 1\ngrid.cells = 8\ntime.T = 0.1\n"
                       "time.dt = 0.01\n")
        assert main(["certify", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "certify.c_go" in capsys.readouterr().err

    def test_exit_3_on_blowup(self, tmp_path):
        cfg = tmp_path / "blow.cfg"
        cfg.write_text(
            "grid.dim = 1\ngrid.cells = 8\ntime.T = 1.0\ntime.dt = 1e-2\n"
            "init.kind = constant\ninit.value = 2000 0 0\n")
        with pytest.warns(RuntimeWarning):
            code = main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 3

    def test_exit_3_on_stalled_descent(self, tmp_path, capsys):
        # cut to T = 0.05, the stock problem's line search stalls with the
        # residual stuck above solver.opt_tol; the one line says where
        cfg = tmp_path / "stall.cfg"
        cfg.write_text(STOCK.replace("time.T = 0.25", "time.T = 0.05"))
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 3
        err = capsys.readouterr().err
        stalled = re.fullmatch(r"error: stalled descent: no sufficient decrease after 40 "
                               r"halvings at iteration \d+, natural residual (\S+) above "
                               r"tolerance 1e-06\n", err)
        assert stalled and float(stalled.group(1)) > 1e-6

    def test_exit_3_on_tangent_blowup_in_certify(self, stock_cfg, tmp_path,
                                                 monkeypatch, capsys):
        # an infinite direction drives the real tangent sweep non-finite;
        # certify must report a blow-up, not a degenerate cone.  The stock
        # config's control is not stationary, so the scan warns first.
        real = llbopt.certify.solve_tangent
        monkeypatch.setattr(llbopt.certify, "solve_tangent",
                            lambda point, h: real(point, np.full_like(h, np.inf)))
        with np.errstate(all="ignore"), \
                pytest.warns(RuntimeWarning, match="first-order residual 0.641"):
            code = main(["certify", "--config", stock_cfg,
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: tangent state became non-finite at t=")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_exit_3_on_failed_oracle_integration(self, tmp_path, monkeypatch, capsys):
        import types

        import scipy.integrate

        monkeypatch.setattr(
            scipy.integrate, "solve_ivp",
            lambda *args, **kwargs: types.SimpleNamespace(
                success=False, message="Required step size is less than spacing"))
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("grid.dim = 1\ngrid.cells = 8\ntime.T = 0.1\ntime.dt = 0.01\n")
        code = main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--quiet"])
        assert code == 3
        err = capsys.readouterr().err
        assert err == ("error: Galerkin oracle integration failed: "
                       "Required step size is less than spacing\n")

    def test_exit_4_on_failed_check(self, stock_cfg, tmp_path):
        # impossible tolerance forces a check failure
        text = open(stock_cfg).read() + "checks.grad_tol = 1e-12\n"
        cfg = tmp_path / "tight.cfg"
        cfg.write_text(text)
        assert main(["check-grad", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 4


def field_records(cells, count, value=0.1):
    """``count`` LLBFIELD records of a constant field on ``cells`` cells."""
    grid = Grid((cells,), (1.0,))
    return b"".join(encode_record(grid, np.full(grid.shape + (3,), value))
                    for _ in range(count))


# K = 20 steps on 16 cells, so a target trajectory file holds 21 records
INPUT_BASE = ("grid.dim = 1\ngrid.cells = 16\ntime.T = 0.2\ntime.dt = 0.01\n"
              "certify.c_go = 0.05\ncertify.c4n = 1.2\n")
MD_FILE = "targets.md_kind = file\ntargets.md_path = in.dat\n"
UNIFORM_COIL = "coils.count = 1\ncoil.1.kind = uniform\n"
THREE_COILS = ("coils.count = 3\nbounds.lower = -1\nbounds.upper = 1\n"
               + "".join(f"coil.{k}.kind = uniform\n" for k in (1, 2, 3)))


def control_table(header, *rows):
    """A control CSV on INPUT_BASE's 21 time nodes: the header, then each
    row's values after a t column that counts 0, 0.01, ..., 0.2."""
    lines = [header] + [f"{j * 0.01:.2f},{row}" for j, row in enumerate(rows)]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("key, config, content, command", [
    ("targets.md_path", MD_FILE, field_records(16, 20), "optimize"),
    ("targets.md_path", MD_FILE, field_records(16, 26), "optimize"),
    ("targets.md_path", MD_FILE, b"LLBFIELD v2 1 16\n" + field_records(16, 21), "optimize"),
    ("init.path", "init.kind = file\ninit.path = in.dat\n", field_records(8, 1), "simulate"),
    ("targets.momega_path", "targets.momega_kind = file\ntargets.momega_path = in.dat\n",
     field_records(8, 1), "optimize"),
    ("coil.1.path", "coils.count = 1\ncoil.1.kind = file\ncoil.1.path = in.dat\n",
     b"not a snapshot", "simulate"),
    ("control.path", "control.kind = csv\ncontrol.path = in.dat\n", b"t\n0\n0.01\n",
     "simulate"),
    ("--control", "", b"t\n0\n0.01\n", "certify"),
    ("--control", "", b"t\n", "certify"),
    ("--control", "", None, "certify"),
    ("--control", "coils.count = 1\ncoil.1.kind = uniform\nbounds.lower = -1\n"
     "bounds.upper = 1\n", control_table("t,U_1,a_1,b_1", *["0,1,-1"] * 21), "certify"),
    ("targets.md_path", MD_FILE, field_records(16, 1, np.nan) + field_records(16, 20),
     "optimize"),
    ("control.path", UNIFORM_COIL + "control.kind = csv\ncontrol.path = in.dat\n",
     control_table("t,U_1", "nan", *["0"] * 20), "simulate"),
    ("--control", UNIFORM_COIL + "bounds.lower = -1\nbounds.upper = 1\n",
     control_table("t,U_1", "nan", *["0"] * 20), "certify"),
    ("--control", UNIFORM_COIL, control_table("t,U_1,a_1,b_1", *["0,nan,1"] * 21), "certify"),
    # rows 0.5 apart on a dt = 0.01 config, and a NaN time
    ("control.path", UNIFORM_COIL + "control.kind = csv\ncontrol.path = in.dat\n",
     b"t,U_1\n" + b"".join(b"%g,0\n" % (0.5 * j) for j in range(21)), "simulate"),
    ("--control", UNIFORM_COIL + "bounds.lower = -1\nbounds.upper = 1\n",
     control_table("t,U_1", *["0"] * 21).replace(b"0.00,", b"nan,"), "certify"),
    # headers whose column count fits: one coil's bounded control on three
    # coils, and a one-coil table under other names
    ("--control", THREE_COILS, control_table("t,U_1,a_1,b_1", *["0,-1,1"] * 21), "certify"),
    ("control.path", THREE_COILS + "control.kind = csv\ncontrol.path = in.dat\n",
     control_table("t,U_1,a_1,b_1", *["0,-1,1"] * 21), "simulate"),
    ("--control", UNIFORM_COIL + "bounds.lower = -1\nbounds.upper = 1\n",
     control_table("time,V", *["0"] * 21), "certify"),
    ("control.path", UNIFORM_COIL + "control.kind = csv\ncontrol.path = in.dat\n",
     control_table("time,V", *["0"] * 21), "simulate"),
], ids=["md-K-frames", "md-K+5-frames", "md-bad-header", "init-wrong-grid",
        "momega-wrong-grid", "coil-bad-header", "control-short", "flag-short",
        "flag-no-rows", "flag-missing", "flag-empty-box",
        "md-nan-frame", "control-nan-intensity", "flag-nan-intensity", "flag-nan-bound",
        "control-t-off-grid", "flag-nan-time",
        "flag-one-coil-header-on-three-coils", "control-one-coil-header-on-three-coils",
        "flag-unnamed-header", "control-unnamed-header"])
def test_unreadable_input_file_exits_2_naming_the_key(tmp_path, capsys, key, config,
                                                      content, command):
    data = tmp_path / "in.dat"
    if content is not None:
        data.write_bytes(content)
    cfg = tmp_path / "in.cfg"
    cfg.write_text(INPUT_BASE + config)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]
    if key == "--control":
        argv += ["--control", str(data)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would add lines to stderr
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid configuration: {key}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("config, content", [
    (UNIFORM_COIL, None),  # the default box, -inf .. inf
    (UNIFORM_COIL + "bounds.lower = -1e308\nbounds.upper = 1e308\n", None),
    (UNIFORM_COIL + "bounds.lower = -1\nbounds.upper = 1\n",
     control_table("t,U_1,a_1,b_1", *["0,-inf,1"] * 21)),
    # a finite box whose width upper - lower overflows
    (UNIFORM_COIL, control_table("t,U_1,a_1,b_1", *["0,-1e308,1e308"] * 21)),
], ids=["infinite-bounds", "overflowing-width", "flag-infinite-bound",
        "flag-overflowing-width"])
def test_certify_accepts_an_open_box(tmp_path, capsys, config, content):
    cfg = tmp_path / "in.cfg"
    cfg.write_text(INPUT_BASE + config)
    argv = ["certify", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]
    if content is not None:
        (tmp_path / "in.dat").write_bytes(content)
        argv += ["--control", str(tmp_path / "in.dat")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    assert capsys.readouterr().err == ""
    report = dict(line.split("=", 1)
                  for line in (tmp_path / "o" / "report.txt").read_text().splitlines())
    assert np.isfinite(float(report["fooc_min"]))


@pytest.mark.parametrize("sub", ["", "sub"], ids=["a-file", "under-a-file"])
def test_unusable_output_directory_exits_2_naming_out(stock_cfg, tmp_path, capsys, sub):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / sub if sub else taken
    assert main(["simulate", "--config", stock_cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration: --out: ")
    assert err.count("\n") == 1
    assert taken.read_text() == "not a directory\n"


def test_bad_bool_names_the_type(tmp_path, capsys):
    cfg = tmp_path / "bool.cfg"
    cfg.write_text(INPUT_BASE + "init.check_ic = maybe\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: invalid configuration: line 7: init.check_ic: cannot parse 'maybe' as bool\n")


# one coil in a finite box: without the key under test, every subcommand
# runs past its set-up
ONE_COIL_BOX = ("coils.count = 1\ncoil.1.kind = uniform\n"
                "bounds.lower = -1\nbounds.upper = 1\n")
TWO_COILS = ("coils.count = 2\ncoil.1.kind = uniform\n"
             "coil.2.kind = uniform\ncoil.2.axis = 1\n")
EXPR_INIT = "init.kind = expr\n"
# each path key and the kind that requires it
PATH_KEYS = {"coil.1.path": "coils.count = 1\ncoil.1.kind = file\n",
             "control.path": "control.kind = csv\n",
             "init.path": "init.kind = file\n",
             "targets.md_path": "targets.md_kind = file\n",
             "targets.momega_path": "targets.momega_kind = file\n"}


def test_simulate_reads_no_target_input(tmp_path):
    # target files the other subcommands reject (a short trajectory, a
    # field on another grid) leave simulate's outputs as they are
    targets = "targets.momega_kind = file\ntargets.momega_path = om.dat\n"
    runs = {}
    for name, md, om in (("good", field_records(16, 21), field_records(16, 1)),
                         ("bad", field_records(16, 20), field_records(8, 1))):
        d = tmp_path / name
        d.mkdir()
        (d / "in.dat").write_bytes(md)
        (d / "om.dat").write_bytes(om)
        (d / "in.cfg").write_text(INPUT_BASE + MD_FILE + targets + EXPR_INIT
                                  + "init.expr_x = 0.3*cos(pi*x)\n"
                                  + "output.diagnostics_every = 5\n")
        assert main(["simulate", "--config", str(d / "in.cfg"), "--out", str(d / "o"),
                     "--quiet"]) == 0
        runs[name] = {f.name: f.read_bytes() for f in (d / "o").iterdir()
                      if f.name != "manifest.json"}
    assert len(runs["good"]) == 7  # diagnostics, 5 snapshots and the final state
    assert runs["bad"] == runs["good"]


@pytest.mark.parametrize("key, config, command", [
    ("bounds", TWO_COILS + "bounds.lower = 5\nbounds.upper = 1 2\n", "simulate"),
    ("bounds", TWO_COILS + "bounds.lower = 5\nbounds.upper = 1 2\n", "optimize"),
    ("init.expr_x", EXPR_INIT + "init.expr_x = foo\n", "simulate"),
    ("init.expr_y", EXPR_INIT + "init.expr_y = x +\n", "simulate"),
    ("init.expr_z", EXPR_INIT + "init.expr_z = 1/0*x\n", "simulate"),
    ("targets.md_expr_x", "targets.md_kind = expr\ntargets.md_expr_x = foo*t\n", "optimize"),
    ("init.expr_x", EXPR_INIT + "init.expr_x = 1/(x-x)\n", "simulate"),
    ("init.expr_x", EXPR_INIT + "init.expr_x = x[:3]\n", "simulate"),
    ("checks.oracle_modes", "checks.oracle_modes = 0\n", "oracle"),
    ("checks.oracle_modes", "checks.oracle_modes = 17\n", "oracle"),
    ("checks.temporal_order_range", "checks.temporal_order_range = 0.9\n", "convergence"),
    ("checks.spatial_order_range", "checks.spatial_order_range = 2.1 1.9\n", "convergence"),
    ("checks.taylor_eps", "checks.taylor_eps = 0.1\n", "check-taylor"),
    ("checks.taylor_eps", "checks.taylor_eps = 0.1 -0.01\n", "check-taylor"),
    ("checks.taylor_eps", "checks.taylor_eps = 0.1 0.1\n", "check-taylor"),
    ("solver.max_halvings", "solver.max_halvings = -1\n", "optimize"),
    ("time.dt", "time.dt = nan\n", "simulate"),
    ("time.T", "time.T = nan\n", "simulate"),
    ("grid.lengths", "grid.lengths = nan\n", "simulate"),
    ("init.value", "init.kind = constant\ninit.value = nan 0 0\n", "simulate"),
    ("targets.md_value", "targets.md_kind = constant\ntargets.md_value = nan 0 0\n",
     "optimize"),
    ("targets.md_init_value", "targets.md_kind = run\ntargets.md_init_kind = constant\n"
     "targets.md_init_value = 0 -inf 0\n", "optimize"),
    ("targets.momega_value", "targets.momega_kind = constant\n"
     "targets.momega_value = 0 inf 0\n", "optimize"),
    ("coils.count", "", "check-curvature"),
    ("coils.count", "", "check-grad"),
    ("coils.count", "", "check-taylor"),
    ("checks.grad_tol", "checks.grad_tol = nan\n", "check-grad"),
    ("checks.curvature_tol", "checks.curvature_tol = nan\n", "check-curvature"),
    ("checks.oracle_tol", "checks.oracle_tol = nan\n", "oracle"),
    ("time.T", "time.T = inf\n", "simulate"),
    ("coil.1.amplitude", "coils.count = 1\ncoil.1.kind = uniform\ncoil.1.amplitude = inf\n",
     "simulate"),
    ("coil.1.width", "coils.count = 1\ncoil.1.kind = gaussian\ncoil.1.center = 0.5\n"
     "coil.1.width = nan\n", "simulate"),
    ("grid.lengths", "grid.lengths = inf\n", "simulate"),
    ("bounds.lower", "bounds.lower = nan\n", "optimize"),
    ("solver.blowup_threshold", "solver.blowup_threshold = nan\n", "simulate"),
    ("checks.taylor_eps", "checks.taylor_eps = inf 0.1\n", "check-taylor"),
    ("certify.c_go", "certify.c_go = inf\n", "certify"),
    ("seed", ONE_COIL_BOX + "seed = -3\n", "check-grad"),
    ("--seed", ONE_COIL_BOX, "certify"),
    ("certify.tol_active", ONE_COIL_BOX + "certify.tol_active = -1\n", "certify"),
    ("certify.tol_upsilon", ONE_COIL_BOX + "certify.tol_upsilon = -1\n", "certify"),
    ("solver.blowup_threshold", "solver.blowup_threshold = -1\n", "simulate"),
    ("certify.c_go", ONE_COIL_BOX + "certify.c_go = -1\n", "certify"),
    ("certify.c4n", ONE_COIL_BOX + "certify.c4n = 0\n", "certify"),
    ("certify.c2", ONE_COIL_BOX + "certify.c2 = -1\n", "certify"),
    ("certify.c3", ONE_COIL_BOX + "certify.c3 = -1\n", "certify"),
    ("certify.ctilde", ONE_COIL_BOX + "certify.ctilde = 0\n", "certify"),
    ("certify.ctilde", ONE_COIL_BOX + "certify.ctilde = -1\n", "certify"),
    ("grid.dim", "grid.dim = 4\n", "simulate"),
    ("time.dt", "time.dt = -1\n", "simulate"),
    ("time.T", "time.T = -1\n", "simulate"),
    ("coils.count", "coils.count = -1\n", "simulate"),
    ("coil.1.kind", "coils.count = 1\ncoil.1.kind = bogus\n", "simulate"),
    ("coil.1.axis", "coils.count = 1\ncoil.1.kind = uniform\ncoil.1.axis = 5\n", "simulate"),
    ("coil.1.width", "coils.count = 1\ncoil.1.kind = gaussian\ncoil.1.center = 0.5\n"
     "coil.1.width = -1\n", "simulate"),
    # T / dt overflows to inf: no step count
    ("time.dt", "time.dt = 1e-320\n", "simulate"),
    ("checks.grad_tol", "checks.grad_tol = -1\n", "check-grad"),
    ("checks.curvature_tol", "checks.curvature_tol = -1\n", "check-curvature"),
    ("checks.oracle_tol", "checks.oracle_tol = -1\n", "oracle"),
    ("init.neumann_tol", "init.check_ic = true\ninit.neumann_tol = -1\n", "simulate"),
    ("grid.cells", "grid.cells = 8.5\n", "simulate"),
    ("grid.cells", "grid.cells = 8 8\n", "simulate"),
    ("grid.lengths", "grid.lengths = 1 2\n", "simulate"),
    ("bounds.lower", TWO_COILS + "bounds.lower = -1 -1 -1\n", "simulate"),
    ("bounds.upper", TWO_COILS + "bounds.upper = 1 1 1\n", "simulate"),
    ("control.value", TWO_COILS + "control.kind = constant\ncontrol.value = 1 2 3\n",
     "simulate"),
    ("coil.1.kind", "coils.count = 1\ncoil.1.axis = 1\n", "simulate"),
    ("coil.2.kind", "coils.count = 1\ncoil.1.kind = uniform\ncoil.2.kind = uniform\n",
     "simulate"),
    ("init.value", "init.kind = constant\n", "simulate"),
    # INPUT_BASE has six lines, so the config's own line is line 7
    ("line 7", "grid.cells 8\n", "simulate"),
    ("line 7", "coil.one.kind = uniform\n", "simulate"),
    *[(key, kind, "simulate") for key, kind in PATH_KEYS.items()],
    *[(key, kind + f"{key} = nowhere.dat\n", "simulate") for key, kind in PATH_KEYS.items()],
], ids=["bounds-broadcast-simulate", "bounds-broadcast-optimize", "expr-name",
        "expr-syntax", "expr-zero-division", "md-expr-name", "expr-not-finite",
        "expr-wrong-shape", "oracle-modes-0", "oracle-modes-over-nodes",
        "temporal-range-one-value", "spatial-range-reversed", "taylor-one-eps",
        "taylor-negative-eps", "taylor-repeated-eps", "halvings-negative",
        "dt-nan", "T-nan", "lengths-nan", "init-value-nan",
        "md-value-nan", "md-init-value-inf", "momega-value-inf",
        "check-curvature-no-coils", "check-grad-no-coils",
        "check-taylor-no-coils", "grad-tol-nan", "curvature-tol-nan", "oracle-tol-nan",
        "T-inf", "coil-amplitude-inf", "coil-width-nan", "lengths-inf", "lower-nan",
        "blowup-threshold-nan", "taylor-eps-inf", "c-go-inf",
        "seed-negative",
        "flag-seed-negative", "tol-active-negative", "tol-upsilon-negative",
        "blowup-threshold-negative", "c-go-negative", "c4n-zero", "c2-negative",
        "c3-negative", "ctilde-zero", "ctilde-negative", "dim-4", "dt-negative",
        "T-negative", "coils-count-negative", "coil-kind-bogus", "coil-axis-5",
        "coil-width-negative", "dt-step-count-overflows", "grad-tol-negative",
        "curvature-tol-negative", "oracle-tol-negative", "neumann-tol-negative",
        "cells-not-integer", "cells-wrong-count", "lengths-wrong-count",
        "lower-wrong-count", "upper-wrong-count", "control-value-wrong-count",
        "coil-without-kind", "coil-index-past-count", "init-constant-without-value",
        "line-without-equals", "coil-index-not-integer"]
    + [f"{key}-{what}" for what in ("missing", "not-found") for key in PATH_KEYS])
def test_bad_config_exits_2_naming_the_key(tmp_path, capsys, key, config, command):
    # 16 cells, so 17 oracle modes over-resolve the grid
    cfg = tmp_path / "bad.cfg"
    given = {line.split("=")[0].strip() for line in config.splitlines()}
    cfg.write_text("".join(line + "\n" for line in INPUT_BASE.splitlines()
                           if line.split("=")[0].strip() not in given) + config)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]
    if key == "--seed":
        argv += ["--seed", "-1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would add lines to stderr
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid configuration: {key}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


DOCS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "docs", "config.md")
STOCK1D = os.path.join(os.path.dirname(DOCS), os.pardir, "demos", "configs", "stock1d.cfg")


def table_cells(line):
    """The cells of a markdown table row; a ``|`` inside backticks or after
    a backslash does not split."""
    cells, cell, code, prev = [], "", False, ""
    for ch in line.strip()[1:]:
        if ch == "`":
            code = not code
        if ch == "|" and not code and prev != "\\":
            cells.append(cell.strip())
            cell = ""
        else:
            cell += ch
        prev = ch
    return cells


def documented_defaults():
    """(key, default cell) for each key in docs/config.md's key tables, with
    ``*`` and comma lists expanded; ``coil.<k>.`` is kept as the prefix."""
    rows, column = [], None
    with open(DOCS, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("|"):
                column = None
                continue
            cells = table_cells(line)
            if cells[0] == "key":
                column = cells.index("default")
            elif column is not None and cells[0].startswith("`"):
                for name in re.findall(r"`([^`]+)`", cells[0]):
                    names = [name[:-1] + c for c in "xyz"] if name.endswith("*") else [name]
                    rows += [(n, cells[column]) for n in names]
    return rows


def test_docs_key_tables_match_the_schema():
    rows = documented_defaults()
    keys = {key for key, _ in rows if not key.startswith("coil.<k>.")}
    coil_fields = {key[len("coil.<k>."):] for key, _ in rows if key.startswith("coil.<k>.")}
    assert keys == set(SCHEMA)
    assert coil_fields == set(COIL_SCHEMA)
    for key, cell in rows:
        spec = (COIL_SCHEMA[key[len("coil.<k>."):]] if key.startswith("coil.<k>.")
                else SCHEMA[key])
        literal = re.fullmatch(r"`([^`]+)`[^`]*", cell)
        if cell == "required":
            assert spec.default is REQUIRED, key
        elif cell == "—":
            assert spec.default is None, key
        elif literal and ".." not in literal.group(1):  # one literal, not a range
            assert spec.parse(literal.group(1)) == spec.default, key


def test_library_defaults_repeat_the_schema():
    # the schema decides every CLI default; a library default that repeats
    # one must agree with it
    assert (inspect.signature(SimConfig).parameters["blowup_threshold"].default
            == SCHEMA["solver.blowup_threshold"].default)
    for coil in (gaussian_coil, uniform_coil):
        assert (inspect.signature(coil).parameters["amplitude"].default
                == COIL_SCHEMA["amplitude"].default), coil.__name__


def documented_report_keys():
    """(key, condition) for each row of docs/config.md's report.txt table, in
    file order; the condition is None for a line written on every run, or
    (config key, whether the line needs it set)."""
    rows, inside = [], False
    with open(DOCS, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("|"):
                inside = False
                continue
            cells = table_cells(line)
            if cells[0] == "report.txt key":
                inside = True
            elif inside and cells[0].startswith("`"):
                when = re.fullmatch(r"`(certify\.\w+)` (set|unset)", cells[1])
                assert when or cells[1] == "always", cells[1]
                rows.append((cells[0].strip("`"),
                             when and (when.group(1), when.group(2) == "set")))
    return rows


def certify_stock1d(tmp_path, drop=(), add=""):
    """Run certify on demos/configs/stock1d.cfg without the keys starting
    with one of ``drop`` and with the lines ``add``; returns the config's
    parsed keys and the ``report.txt`` lines as (key, value) pairs."""
    lines = [line for line in open(STOCK1D, encoding="utf-8").read().splitlines()
             if not line.split("=")[0].strip().startswith(drop)]
    path = tmp_path / "stock1d.cfg"
    path.write_text("\n".join(lines) + "\n" + add)
    given = parse_config(str(path)).raw
    out = tmp_path / "cert"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the base control is not stationary
        assert main(["certify", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    return given, [tuple(line.split("=", 1))
                   for line in (out / "report.txt").read_text().splitlines()]


@pytest.mark.parametrize("drop, add", [
    (("certify.c2", "certify.c3", "certify.ctilde"), ""),
    ((), "certify.c2 = 0.01\ncertify.c3 = 0.01\n"),
], ids=["without-c2-c3-ctilde", "with-c2-c3-ctilde"])
def test_docs_report_table_matches_a_certify_run(tmp_path, drop, add):
    given, report = certify_stock1d(tmp_path, drop, add)
    expected = [key for key, when in documented_report_keys()
                if when is None or (when[0] in given) == when[1]]
    assert [key for key, _ in report] == expected


@pytest.mark.parametrize("drop, add", [
    (("coil", "control."), "coils.count = 0\n"),
    (("bounds.", "control."), "bounds.lower = 0\nbounds.upper = 0\n"),
], ids=["no-coils", "coincident-bounds"])
def test_fooc_min_is_unset_without_a_feasible_direction(tmp_path, drop, add):
    _, report = certify_stock1d(tmp_path, drop, add)
    assert dict(report)["fooc_min"] == "unset"


def test_fooc_min_on_the_default_open_box(tmp_path):
    # no bounds: T is the whole space, so fooc_min is -||Upsilon||, which
    # the clamp residual ||Upsilon|| / sqrt(T) measures too
    _, report = certify_stock1d(tmp_path, ("bounds.",))
    report = dict(report)
    fooc = float(report["fooc_min"])
    assert np.isfinite(fooc) and fooc < 0
    assert fooc == pytest.approx(
        -float(report["pf_residual"]) * np.sqrt(float(report["factor.T"])), rel=1e-9)
    assert report["factor.c_ab"] == "inf"


@pytest.mark.parametrize("add, unset", [
    ("", {"constant.C2", "constant.C3"}),
    ("certify.c2 = 0.01\n", {"constant.C3"}),
], ids=["both-estimated", "c3-estimated"])
def test_lipschitz_estimate_is_unset_without_a_pair(tmp_path, add, unset):
    # with no coil every drawn pair has U1 = U2: a maximum over no pairs
    # reads unset, not 0, and so does the uniqueness bound built from it
    _, report = certify_stock1d(tmp_path, ("coil", "control."), "coils.count = 0\n" + add)
    report = dict(report)
    assert {key for key in ("constant.C2", "constant.C3") if report[key] == "unset"} == unset
    assert report["uloc_lhs"] == "unset"
    assert report["uloc_status"] == "INDETERMINATE"


class TestDeterminism:
    def test_identical_config_seed_bit_identical_csv(self, stock_cfg, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["optimize", "--config", stock_cfg, "--out", str(out),
                         "--quiet"]) == 0
            outs.append(out)
        for fname in ("history.csv", "control.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_seed_override_recorded(self, stock_cfg, tmp_path):
        out = tmp_path / "seeded"
        assert main(["simulate", "--config", stock_cfg, "--out", str(out),
                     "--seed", "99", "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99
        assert "config_sha256" in manifest
        assert manifest["versions"]["llbopt"]


def loaded_after_cli_import(names, argv=None):
    """Which of the modules ``names`` a fresh process has loaded once it
    has imported ``llbopt.cli`` and, given ``argv``, run its ``main`` on
    them to exit code 0."""
    run = "" if argv is None else f"assert llbopt.cli.main({list(argv)!r}) == 0; "
    code = (f"import sys, llbopt.cli; {run}"
            f"print(' '.join(m for m in {tuple(names)!r} if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(llbopt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    return out.stdout.split()


def test_cli_import_skips_slow_scipy_modules():
    # the implicit solve is numpy-only and the ODE oracle imports
    # scipy.integrate on use, so start-up never loads these
    assert loaded_after_cli_import(("scipy.fft", "scipy.integrate", "scipy.special")) == []


def test_cli_import_loads_every_module():
    # a tracer that wraps functions once llbopt.cli is imported finds each
    # module in sys.modules only if that import loaded it
    names = [f"llbopt.{name}" for name in ORDER]
    assert loaded_after_cli_import(names) == names


def test_cli_import_skips_scipy_and_openssl():
    # the manifest's config hash is the builtin SHA-256, not hashlib's
    # OpenSSL one, and only oracle records the scipy version
    assert loaded_after_cli_import(("scipy", "_hashlib")) == []


@pytest.mark.parametrize("command", ["simulate", "optimize"])
def test_stock_run_loads_no_scipy_openssl_or_numpy_random(command, tmp_path):
    # neither a forward sweep nor the descent draws or integrates anything
    argv = [command, "--config", STOCK1D, "--out", str(tmp_path / "o"), "--quiet"]
    assert loaded_after_cli_import(("scipy", "_hashlib", "numpy.random"), argv) == []


def read_manifest(argv):
    assert main(argv + ["--quiet"]) == 0
    out = argv[argv.index("--out") + 1]
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_manifest_hashes_the_config_and_lists_no_scipy_outside_oracle(stock_cfg, tmp_path):
    manifest = read_manifest(["simulate", "--config", stock_cfg, "--out", str(tmp_path)])
    with open(stock_cfg, "rb") as fh:
        assert manifest["config_sha256"] == hashlib.sha256(fh.read()).hexdigest()
    assert sorted(manifest["versions"]) == ["llbopt", "numpy", "python"]
    assert manifest["versions"]["numpy"] == np.__version__


def test_oracle_manifest_records_the_scipy_version(tmp_path):
    import scipy
    cfg = tmp_path / "oracle.cfg"
    cfg.write_text(
        "grid.dim = 1\ngrid.cells = 16\ntime.T = 0.01\ntime.dt = 1e-3\n"
        "init.kind = expr\ninit.expr_x = 0.08*cos(pi*x)\n"
        "init.expr_y = 0.05\ninit.expr_z = 0\n"
        "checks.oracle_modes = 4\nchecks.oracle_tol = 1e-2\n")
    manifest = read_manifest(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert manifest["versions"]["scipy"] == scipy.__version__
