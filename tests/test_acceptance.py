"""Acceptance battery: one test per criterion, each printing a PASS/FAIL
line with the measured quantity against its pinned tolerance."""

import time

import numpy as np
import pytest

from llbopt.adjoint import solve_adjoint
from llbopt.coils import CoilSet, ControlPath, control_inner_rms, synthesize_values, uniform_coil
from llbopt.grid import Grid, VectorField, cross, laplacian_values, time_integral
from llbopt.llb import SimConfig, energy_ledger, simulate, simulate_galerkin
from llbopt.optimize import forward_cost, projected_gradient_descent, reduced_state
from llbopt.certify import curvature, fooc_sample_min, smallness_monitor
from llbopt.cli import smooth_directions
from llbopt.tangent import LinearizationPoint, solve_tangent, taylor_remainder_order

from conftest import cosine_initial, tracking_problem, two_gaussian_coils


def report(num, ok, desc, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc} ({detail})")
    assert ok, f"criterion {num}: {desc}: {detail}"


@pytest.fixture(scope="module")
def stock_converged(stock_problem):
    p, U0, cfg = stock_problem
    tic = time.perf_counter()
    state, history = projected_gradient_descent(U0, p, **cfg)
    U = state.U
    return U, history, time.perf_counter() - tic


def test_criterion_01_constant_field_exact_solution():
    grid = Grid((16,), (1.0,))
    cfg = SimConfig(T=0.5, dt=1e-4)
    tic = time.perf_counter()
    traj = simulate(VectorField.constant(grid, (1, 0, 0)),
                    ControlPath.zeros(cfg.n_steps, 0, cfg.dt),
                    CoilSet.empty(grid), cfg)
    elapsed = time.perf_counter() - tic
    exact = np.sqrt(np.exp(-1.0) / (2.0 - np.exp(-1.0)))
    got = float(np.linalg.norm(traj.values[-1][0]))
    rel = abs(got - exact) / exact
    report(1, rel <= 1e-4 and elapsed < 5.0,
           "constant-field radial ODE oracle",
           f"rel err {rel:.3e} <= 1e-4, runtime {elapsed:.2f}s < 5s")


def test_criterion_02_steady_state_under_aligned_control():
    grid = Grid((8,), (1.0,))
    cfg = SimConfig(T=10.0, dt=1e-3)
    coils = CoilSet.from_fields([uniform_coil(grid, 0)])
    U = ControlPath.constant([2.0], cfg.n_steps, cfg.dt)
    traj = simulate(VectorField.constant(grid, (0.5, 0, 0)), U, coils, cfg)
    err = float(np.abs(traj.values[-1] - np.array([1.0, 0.0, 0.0])).max())
    report(2, err <= 1e-3, "steady state m -> e1 under u0 = 2",
           f"Linf err {err:.3e} <= 1e-3")


def test_criterion_03_spatial_order():
    hs, errs = [], []
    for n in (16, 32, 64, 128, 256):
        grid = Grid((n,), (1.0,))
        x = grid.axis_coords(0)
        f = np.zeros(grid.shape + (3,))
        f[..., 0] = np.cos(np.pi * x)
        lap = laplacian_values(grid, f)
        lam = float(np.sum(lap * f) / np.sum(f * f))
        hs.append(grid.spacing[0])
        errs.append(abs(lam + np.pi**2))
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    report(3, 1.9 <= slope <= 2.1, "Laplacian eigenvalue spatial order",
           f"observed order {slope:.3f} in [1.9, 2.1]")


def test_criterion_04_temporal_order():
    grid = Grid((32,), (1.0,))
    m0 = cosine_initial(grid)
    coils = two_gaussian_coils(grid)
    dts = [1e-2 / 2**k for k in range(5)]
    finals = []
    for dt in dts:
        cfg = SimConfig(T=0.5, dt=dt)
        U = ControlPath.constant([0.4, -0.3], cfg.n_steps, dt)
        finals.append(simulate(m0, U, coils, cfg).values[-1])
    w = grid.cell_volume
    errs = [float(np.sqrt(w * np.sum((finals[k] - finals[k + 1]) ** 2)))
            for k in range(4)]
    slope = float(np.polyfit(np.log(dts[:4]), np.log(errs), 1)[0])
    report(4, 0.9 <= slope <= 1.1, "forward-solver temporal self-convergence",
           f"observed order {slope:.3f} in [0.9, 1.1] over dt 1e-2..1.25e-3")


def test_criterion_05_energy_inequality():
    worst_defect_ratio = 0.0
    for dim, n in ((1, 64), (2, 32)):
        grid = Grid((n,) * dim, (1.0,) * dim)
        cfg = SimConfig(T=0.5, dt=1e-3)
        coils = two_gaussian_coils(grid)
        U = ControlPath.constant([0.5, -0.4], cfg.n_steps, cfg.dt)
        m0 = cosine_initial(grid, 0.6)
        traj = simulate(m0, U, coils, cfg)
        led = energy_ledger(traj, U, coils)
        bound = 0.02 * max(1.0, led["l2_sq"][0])
        worst_defect_ratio = max(worst_defect_ratio,
                                 float(led["defect"].max()) / bound)
    # uncontrolled decay
    grid = Grid((64,), (1.0,))
    cfg = SimConfig(T=0.5, dt=1e-3)
    U0 = ControlPath.zeros(cfg.n_steps, 0, cfg.dt)
    traj = simulate(cosine_initial(grid, 0.8), U0, CoilSet.empty(grid), cfg)
    l2 = energy_ledger(traj, U0, CoilSet.empty(grid))["l2_sq"]
    monotone = bool(np.all(np.diff(l2) <= 1e-10 * max(l2.max(), 1.0)))
    report(5, worst_defect_ratio <= 1.0 and monotone,
           "integrated energy inequality and uncontrolled decay",
           f"defect/bound {worst_defect_ratio:.3f} <= 1, monotone={monotone}")


def _gradient_rel_err(dim, n, dt):
    p, U0, cfg = tracking_problem(n=n, dt=dt, T=0.25, dim=dim)
    U = U0.with_intensities(U0.intensities + np.array([0.5, -0.4]))
    g = reduced_state(U, p).grad
    h = smooth_directions(U.n_steps, U.dt,
                          [(0.6, 0.4, -0.2), (-0.5, 0.1, 0.3)])
    eps = 1e-4
    cp, _ = forward_cost(U.with_intensities(U.intensities + eps * h), p)
    cm, _ = forward_cost(U.with_intensities(U.intensities - eps * h), p)
    fd = (cp.total - cm.total) / (2 * eps)
    return abs(fd - control_inner_rms(g, h, U.dt)) / abs(fd)


def test_criterion_06_adjoint_gradient_check():
    tic = time.perf_counter()
    rel_1d = _gradient_rel_err(1, 64, 1e-3)
    rel_1d_fine = _gradient_rel_err(1, 64, 2.5e-4)
    rel_2d = _gradient_rel_err(2, 32, 1e-3)
    elapsed = time.perf_counter() - tic
    ok = rel_1d <= 1e-3 and rel_2d <= 3e-3 and rel_1d_fine < rel_1d and elapsed < 120
    report(6, ok, "reduced gradient vs central finite differences",
           f"1D {rel_1d:.2e} <= 1e-3, 2D {rel_2d:.2e} <= 3e-3, "
           f"refined {rel_1d_fine:.2e} < {rel_1d:.2e}, runtime {elapsed:.1f}s")


def _duality_gap(dt, T=0.25):
    grid = Grid((64,), (1.0,))
    cfg = SimConfig(T=T, dt=dt)
    K = cfg.n_steps
    coils = two_gaussian_coils(grid)
    U = ControlPath.constant([0.4, -0.3], K, dt)
    traj = simulate(cosine_initial(grid, 0.8), U, coils, cfg)
    point = LinearizationPoint(traj, U, coils)
    t = np.arange(K + 1) * dt
    dU = np.stack([0.8 + 0.5 * np.sin(2 * np.pi * t / T),
                   -0.6 + 0.4 * np.cos(np.pi * t / T)], axis=1)
    z = solve_tangent(point, dU)
    x = grid.axis_coords(0)
    g = np.zeros((K + 1,) + grid.shape + (3,))
    g[..., 0] = np.cos(np.pi * x)
    g[..., 1] = 0.5
    phi_T = np.zeros(grid.shape + (3,))
    phi_T[..., 2] = np.cos(np.pi * x)
    phi = solve_adjoint(point, lambda j: g[j], VectorField(grid, phi_T))
    w = grid.cell_volume
    gz = np.array([w * np.sum(g[j] * z.values[j]) for j in range(K + 1)])
    lhs = w * np.sum(phi_T * z.values[-1]) - time_integral(gz, dt)
    rhs_series = np.empty(K + 1)
    for j in range(K + 1):
        du = synthesize_values(dU[j], coils)
        m = traj.values[j]
        rhs_series[j] = w * np.sum((du + np.cross(m, du)) * phi.values[j])
    rhs = time_integral(rhs_series, dt)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def test_criterion_07_duality_identity():
    gap = _duality_gap(1e-3)
    gap_fine = _duality_gap(2.5e-4)
    ratio = gap / gap_fine
    report(7, gap <= 1e-2 and ratio >= 4.0,
           "tangent/adjoint duality pairing",
           f"residual {gap:.3e} <= 1e-2, shrink x{ratio:.2f} >= 4 under dt/4")


def test_criterion_08_frechet_taylor_test():
    grid = Grid((32,), (1.0,))
    cfg = SimConfig(T=0.25, dt=2e-3)
    coils = two_gaussian_coils(grid)
    U = ControlPath.constant([0.4, -0.3], cfg.n_steps, cfg.dt)
    traj = simulate(cosine_initial(grid), U, coils, cfg)
    point = LinearizationPoint(traj, U, coils)
    dU = smooth_directions(cfg.n_steps, cfg.dt,
                           [(0.8, 0.5, 0.0), (-0.6, 0.0, 0.4)])
    eps = [1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3]
    result = taylor_remainder_order(point, dU, eps, cfg=cfg)
    ok = (result.remainder_order >= 1.9
          and 0.9 <= result.first_difference_order <= 1.1)
    report(8, ok, "Taylor remainder vs Lipschitz first difference",
           f"remainder slope {result.remainder_order:.3f} >= 1.9, "
           f"first-difference slope {result.first_difference_order:.3f} ~ 1.0")


def test_criterion_09_projected_gradient_optimization(stock_problem, stock_converged):
    p, U0, cfg = stock_problem
    U, history, elapsed = stock_converged
    costs = [h.cost.total for h in history]
    strict = all(b < a for a, b in zip(costs, costs[1:]))
    residual = history[-1].residual
    iters = history[-1].iteration
    upsilon = reduced_state(U, p).grad
    fooc = fooc_sample_min(U, upsilon, 200, np.random.default_rng(2024))
    ok = (residual <= 1e-6 and iters <= 500 and strict
          and fooc >= -1e-6 and elapsed < 300)
    report(9, ok, "projected gradient on the stock tracking problem",
           f"residual {residual:.2e} <= 1e-6 in {iters} iters, strict "
           f"decrease={strict}, FOOC min {fooc:.2e} >= -1e-6, "
           f"runtime {elapsed:.1f}s")


def test_criterion_10_curvature_consistency(stock_problem, stock_converged):
    p, U0, cfg = stock_problem
    U, _, _ = stock_converged
    state = reduced_state(U, p, keep_costate=True)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(5):
        h = smooth_directions(U.n_steps, U.dt, rng.standard_normal((2, 3)))
        s, = curvature(state, h[None], eps_fd=1e-3)
        assert s.fd_valid
        worst = max(worst, s.rel_err)
    h = smooth_directions(U.n_steps, U.dt, [(0.7, 0.2, 0.0), (-0.5, 0.0, 0.3)])
    q1 = curvature(state, h[None], eps_fd=1e-3)[0].q_adj
    q2 = curvature(state, 2.0 * h[None], eps_fd=1e-3)[0].q_adj
    scaling_err = abs(q2 - 4.0 * q1) / abs(4.0 * q1)
    report(10, worst <= 1e-2 and scaling_err <= 1e-10,
           "second-derivative adjoint assembly vs second differences",
           f"worst rel err {worst:.2e} <= 1e-2 over 5 directions, "
           f"quadratic scaling err {scaling_err:.2e} <= 1e-10")


def test_criterion_11_cross_product_identities():
    # on grid.cross, the cross product the sweeps run
    rng = np.random.default_rng(11)
    a, b, c = rng.uniform(-1.0, 1.0, (3, 10_000, 3))
    e1 = np.abs(np.einsum("ij,ij->i", a, cross(b, c))
                + np.einsum("ij,ij->i", cross(b, a), c)).max()
    e2 = np.abs(np.einsum("ij,ij->i", a, cross(a, b))).max()
    lhs = cross(a, cross(b, c))
    rhs = (np.einsum("ij,ij->i", a, c)[:, None] * b
           - np.einsum("ij,ij->i", a, b)[:, None] * c)
    e3 = np.abs(lhs - rhs).max()
    worst = max(e1, e2, e3)
    report(11, worst <= 1e-12, "vector cross-product identities",
           f"max violation {worst:.2e} <= 1e-12 over 10^4 triples")


def test_criterion_12_galerkin_oracle():
    grid = Grid((128,), (1.0,))
    cfg = SimConfig(T=0.25, dt=1e-4)
    x = grid.axis_coords(0)
    vals = np.zeros(grid.shape + (3,))
    vals[..., 0] = 0.08 * np.cos(np.pi * x)
    vals[..., 1] = 0.05
    vals[..., 2] = 0.04 * np.cos(2 * np.pi * x)
    m0 = VectorField(grid, vals)
    coils = CoilSet.from_fields([uniform_coil(grid, 1)])
    U = ControlPath.constant([0.1], cfg.n_steps, cfg.dt)
    traj = simulate(m0, U, coils, cfg)
    oracle = simulate_galerkin(m0, U, coils, cfg, n_modes=8)
    w = grid.cell_volume
    disc = max(float(np.sqrt(w * np.sum((traj.values[j] - oracle.values[j]) ** 2)))
               for j in range(traj.n_steps + 1))
    report(12, disc <= 1e-3, "cosine-Galerkin ODE oracle agreement",
           f"Linf-in-time L2 discrepancy {disc:.3e} <= 1e-3 at dt=1e-4, h=1/128")


def test_criterion_13_smallness_monitor_and_blowup(tmp_path):
    grid = Grid((16, 16, 16), (1.0, 1.0, 1.0))
    cfg = SimConfig(T=1.0, dt=5e-3)
    coords = grid.meshgrid()
    vals = np.zeros(grid.shape + (3,))
    vals[..., 0] = 0.1 * np.cos(np.pi * coords[0])
    vals[..., 1] = 0.05 * np.cos(np.pi * coords[1])
    m0 = VectorField(grid, vals)
    coils = CoilSet.from_fields([uniform_coil(grid, 0, 0.05)])
    U = ControlPath.constant([1.0], cfg.n_steps, cfg.dt)
    traj = simulate(m0, U, coils, cfg)
    mon = smallness_monitor(traj)
    no_growth = bool(mon.max() <= 2.0 * mon[0])

    # deliberately large data must trip the blow-up detector (CLI exit 3)
    from llbopt.cli import main
    blow_cfg = tmp_path / "blow3d.cfg"
    blow_cfg.write_text(
        "grid.dim = 3\ngrid.cells = 16 16 16\ngrid.lengths = 1 1 1\n"
        "time.T = 1.0\ntime.dt = 5e-3\n"
        "init.kind = constant\ninit.value = 2000 0 0\n")
    with pytest.warns(RuntimeWarning):
        code = main(["simulate", "--config", str(blow_cfg),
                     "--out", str(tmp_path / "out"), "--quiet"])
    report(13, no_growth and code == 3,
           "3D smallness monitor and blow-up detector",
           f"max |lap m|^2 ratio {mon.max() / mon[0]:.3f} <= 2, "
           f"blow-up exit code {code} == 3")
