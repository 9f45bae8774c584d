import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import llbopt.adjoint
import llbopt.certify
import llbopt.llb
from llbopt.cli import main, smooth_directions
from llbopt.coils import ControlPath
from llbopt.config import (COIL_SCHEMA, REQUIRED, SCHEMA, ConfigError, RunConfig,
                           parse_config, read_control_csv)
from llbopt.grid import Grid, encode_record, read_field
from llbopt.llb import BlowUpError, energy_ledger, simulate

from conftest import peak_rise, trajectory_bytes

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
certify.n_fooc_samples = 50
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
        intens, lower, upper = read_control_csv(out / "control.csv", 100, 2)
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

    def test_masks_csv_is_the_sampled_cone(self, stock_cfg, tmp_path, monkeypatch):
        out = tmp_path / "opt"
        assert main(["optimize", "--config", stock_cfg, "--out", str(out), "--quiet"]) == 0
        projected = []
        real = llbopt.certify.project_onto_cone
        monkeypatch.setattr(llbopt.certify, "project_onto_cone",
                            lambda h, masks: projected.append(masks) or real(h, masks))
        cert = tmp_path / "cert"
        assert main(["certify", "--config", stock_cfg, "--out", str(cert),
                     "--control", str(out / "control.csv"), "--quiet"]) == 0
        masks = projected[0]
        assert all(m is masks for m in projected)
        labels = np.loadtxt(cert / "masks.csv", delimiter=",", skiprows=1, dtype=str)[:, 1:]
        expected = np.select([masks.zero, masks.nonneg, masks.nonpos],
                             ["zero", "nonneg", "nonpos"], "free")
        assert np.array_equal(labels, expected)
        assert np.all(labels == "free")  # a converged interior optimum

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
        trials = int(sum(round(np.log2(1.0 / s)) + 1 for s in steps))  # step0 = 1
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

    def test_check_grad_holds_three_trajectories(self, tmp_path):
        # the targets, the base state and its costate; the +/-eps forwards
        # keep no trajectory
        path = tmp_path / "stock3d.cfg"
        path.write_text(STOCK3D)
        cfg = parse_config(str(path))
        one = trajectory_bytes(cfg.build_grid(), cfg.build_sim().n_steps)
        assert one >= 2e6
        argv = ["check-grad", "--config", str(path), "--out", str(tmp_path / "cg"), "--quiet"]
        # a first run imports numpy.random and fills the solver caches, which
        # would otherwise count here or not depending on the tests run before
        assert main(argv) == 0
        code, peak = peak_rise(main, argv)
        assert code == 0
        assert peak < 3.5 * one

    @pytest.mark.parametrize("eps", [20.0, 100.0])
    def test_exit_3_when_a_shifted_forward_blows_up(self, stock_cfg, tmp_path, capsys, eps):
        # eps = 20 blows up the -eps member only; eps = 100 both, the -eps
        # one first.  The message names the member the forwards, run one at
        # a time, would have stopped at (+eps first), at its own time.
        path = tmp_path / "wide.cfg"
        path.write_text(open(stock_cfg).read() + f"checks.grad_eps = {eps}\n")
        cfg = parse_config(str(path))
        grid, sim = cfg.build_grid(), cfg.build_sim()
        coils, opt = cfg.build_coils(grid), cfg.build_optimize(cfg.build_initial(grid))
        U = cfg.build_control(sim.n_steps, coils.n_coils)
        h = smooth_directions(sim.n_steps, coils.n_coils, sim.dt,
                              np.random.default_rng(cfg.seed))
        blown = []
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            for sign in (1.0, -1.0):
                shifted = ControlPath(U.intensities + sign * eps * h, -np.inf, np.inf, sim.dt)
                try:
                    simulate(opt.m0, shifted, coils, sim)
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

    def test_exit_2_on_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid.dim = 7\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

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


def field_records(cells, count):
    """``count`` LLBFIELD records of a constant field on ``cells`` cells."""
    grid = Grid((cells,), (1.0,))
    return b"".join(encode_record(grid, np.full(grid.shape + (3,), 0.1))
                    for _ in range(count))


# K = 20 steps on 16 cells, so a target trajectory file holds 21 records
INPUT_BASE = ("grid.dim = 1\ngrid.cells = 16\ntime.T = 0.2\ntime.dt = 0.01\n"
              "certify.c_go = 0.05\ncertify.c4n = 1.2\n")
MD_FILE = "targets.md_kind = file\ntargets.md_path = in.dat\n"


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
     "bounds.upper = 1\n", b"t,U_1,a_1,b_1\n" + b"0,0,-inf,1\n" * 21, "certify"),
    ("--control", "coils.count = 1\ncoil.1.kind = uniform\nbounds.lower = -1\n"
     "bounds.upper = 1\n", b"t,U_1,a_1,b_1\n" + b"0,0,1,-1\n" * 21, "certify"),
], ids=["md-K-frames", "md-K+5-frames", "md-bad-header", "init-wrong-grid",
        "momega-wrong-grid", "coil-bad-header", "control-short", "flag-short",
        "flag-no-rows", "flag-missing", "flag-infinite-bound", "flag-empty-box"])
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


def test_bad_bool_names_the_type(tmp_path, capsys):
    cfg = tmp_path / "bool.cfg"
    cfg.write_text(INPUT_BASE + "init.check_ic = maybe\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: invalid configuration: line 7: init.check_ic: cannot parse 'maybe' as bool\n")


TWO_COILS = ("coils.count = 2\ncoil.1.kind = uniform\n"
             "coil.2.kind = uniform\ncoil.2.axis = 1\n")
EXPR_INIT = "init.kind = expr\n"


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
    ("certify.n_fooc_samples", "certify.n_fooc_samples = -3\n", "certify"),
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
    ("bounds.lower", "coils.count = 1\ncoil.1.kind = uniform\n", "certify"),
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
], ids=["bounds-broadcast-simulate", "bounds-broadcast-optimize", "expr-name",
        "expr-syntax", "expr-zero-division", "md-expr-name", "expr-not-finite",
        "expr-wrong-shape", "oracle-modes-0", "oracle-modes-over-nodes",
        "temporal-range-one-value", "spatial-range-reversed", "taylor-one-eps",
        "taylor-negative-eps", "taylor-repeated-eps", "halvings-negative",
        "fooc-samples-negative", "dt-nan", "T-nan", "lengths-nan", "init-value-nan",
        "md-value-nan", "md-init-value-inf", "momega-value-inf",
        "certify-infinite-bounds", "check-curvature-no-coils", "check-grad-no-coils",
        "check-taylor-no-coils", "grad-tol-nan", "curvature-tol-nan", "oracle-tol-nan",
        "T-inf", "coil-amplitude-inf", "coil-width-nan", "lengths-inf", "lower-nan",
        "blowup-threshold-nan", "taylor-eps-inf", "c-go-inf"])
def test_bad_config_exits_2_naming_the_key(tmp_path, capsys, key, config, command):
    # 16 cells, so 17 oracle modes over-resolve the grid
    cfg = tmp_path / "bad.cfg"
    given = {line.split("=")[0].strip() for line in config.splitlines()}
    cfg.write_text("".join(line + "\n" for line in INPUT_BASE.splitlines()
                           if line.split("=")[0].strip() not in given) + config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would add lines to stderr
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid configuration: {key}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


DOCS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "docs", "config.md")


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
        import json
        out = tmp_path / "seeded"
        assert main(["simulate", "--config", stock_cfg, "--out", str(out),
                     "--seed", "99", "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99
        assert "config_sha256" in manifest
        assert manifest["versions"]["llbopt"]


def test_cli_import_skips_slow_scipy_modules():
    # the implicit solve is numpy-only and the ODE oracle imports
    # scipy.integrate on use, so start-up never loads these
    code = ("import sys, llbopt.cli; "
            "print(' '.join(m for m in ('scipy.fft', 'scipy.integrate', "
            "'scipy.special') if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(llbopt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == ""
