import numpy as np
import pytest
from numpy.testing import assert_allclose

from llbopt.coils import ControlPath, control_inner_rms
from llbopt.grid import Grid
from llbopt.llb import SimConfig, simulate
from llbopt.optimize import (
    OptimizeConfig,
    TrackingTargets,
    evaluate_cost,
    natural_residual,
    forward_cost,
    projected_gradient_descent,
    reduced_state,
)

from conftest import cosine_initial, smooth_time_profiles, tracking_problem, two_gaussian_coils


class TestEvaluateCost:
    def test_zero_residuals(self):
        grid = Grid((8,), (1.0,))
        cfg = SimConfig(T=0.1, dt=1e-2)
        coils = two_gaussian_coils(grid)
        U = ControlPath.zeros(10, 2, 1e-2)
        traj = simulate(cosine_initial(grid), U, coils, cfg)
        targets = TrackingTargets.from_trajectory(traj)
        c = evaluate_cost(traj, U, targets)
        assert c.total == 0.0

    def test_unit_offset_tracking(self):
        # |m - m_d| = 1 on the unit square for T = 1: tracking = 1/2
        grid = Grid((8, 8), (1.0, 1.0))
        K, dt = 10, 0.1
        vals = np.zeros((K + 1,) + grid.shape + (3,))
        traj_vals = vals.copy()
        traj_vals[..., 0] = 1.0
        from llbopt.grid import Trajectory
        traj = Trajectory(grid, dt, traj_vals)
        targets = TrackingTargets(vals, traj_vals[-1])
        U = ControlPath.zeros(K, 0, dt)
        c = evaluate_cost(traj, U, targets)
        assert c.tracking == pytest.approx(0.5, rel=1e-12)
        assert c.terminal == 0.0
        assert c.total == pytest.approx(0.5, rel=1e-12)

    def test_control_energy(self):
        grid = Grid((8,), (1.0,))
        K, dt = 10, 0.1
        from llbopt.grid import Trajectory
        vals = np.zeros((K + 1,) + grid.shape + (3,))
        traj = Trajectory(grid, dt, vals)
        targets = TrackingTargets(vals.copy(), vals[-1].copy())
        U = ControlPath.constant([2.0], K, dt)
        c = evaluate_cost(traj, U, targets)
        assert c.control == pytest.approx(2.0, rel=1e-12)

    def test_breakdown_sums(self):
        grid, sim, coils, m0, U0, targets, cfg = tracking_problem(n=16, dt=1e-2, T=0.2)
        U = U0.with_intensities(U0.intensities + 0.5)
        cost, traj = forward_cost(U, coils, targets, cfg)
        assert cost.total == pytest.approx(
            cost.tracking + cost.terminal + cost.control, rel=1e-12)
        assert cost.tracking >= 0 and cost.terminal >= 0 and cost.control >= 0

    def test_shape_mismatch(self):
        grid = Grid((8,), (1.0,))
        from llbopt.grid import Trajectory
        traj = Trajectory(grid, 0.1, np.zeros((3,) + grid.shape + (3,)))
        targets = TrackingTargets(np.zeros((5,) + grid.shape + (3,)),
                                  np.zeros(grid.shape + (3,)))
        with pytest.raises(ValueError, match="incompatibilit"):
            evaluate_cost(traj, ControlPath.zeros(2, 0, 0.1), targets)


class TestReducedGradient:
    def test_zero_residual_gradient_is_u(self):
        # matched targets make the adjoint vanish; gradient reduces to U
        grid, sim, coils, m0, U0, _, cfg = tracking_problem(n=16, dt=1e-2, T=0.2)
        U = U0.with_intensities(U0.intensities + 0.7)
        traj = simulate(m0, U, coils, sim)
        targets = TrackingTargets.from_trajectory(traj)
        g = reduced_state(U, coils, targets, cfg).grad
        assert_allclose(g, U.intensities, atol=1e-12)

    def test_matches_central_difference(self):
        grid, sim, coils, m0, U0, targets, cfg = tracking_problem(n=64, dt=1e-3, T=0.25)
        U = U0.with_intensities(U0.intensities + np.array([0.5, -0.4]))
        g = reduced_state(U, coils, targets, cfg).grad
        h = smooth_time_profiles(sim.n_steps, sim.dt,
                                 [(0.6, 0.4, -0.2), (-0.5, 0.1, 0.3)])
        eps = 1e-4
        cp, _ = forward_cost(U.with_intensities(U.intensities + eps * h),
                             coils, targets, cfg)
        cm, _ = forward_cost(U.with_intensities(U.intensities - eps * h),
                             coils, targets, cfg)
        fd = (cp.total - cm.total) / (2 * eps)
        ad = control_inner_rms(g, h, sim.dt)
        assert abs(fd - ad) / abs(fd) <= 1e-3

    def test_no_coils_degenerate(self):
        grid = Grid((8,), (1.0,))
        sim = SimConfig(T=0.1, dt=1e-2)
        from llbopt.coils import CoilSet
        coils = CoilSet.empty(grid)
        U = ControlPath.zeros(10, 0, 1e-2)
        m0 = cosine_initial(grid)
        traj = simulate(m0, U, coils, sim)
        targets = TrackingTargets.constant(grid, (0.1, 0, 0), 10)
        cfg = OptimizeConfig(m0=m0, sim=sim)
        g = reduced_state(U, coils, targets, cfg).grad
        assert g.shape == (11, 0)
        cost = evaluate_cost(traj, U, targets)
        assert cost.control == 0.0 and cost.tracking > 0


class TestProjectedGradientDescent:
    def test_converges_on_stock_problem(self, stock_problem):
        grid, sim, coils, m0, U0, targets, cfg = stock_problem
        state, history = projected_gradient_descent(U0, coils, targets, cfg)
        U = state.U
        assert history[-1].residual <= cfg.tol
        assert history[-1].iteration <= cfg.max_iters
        costs = [h.cost for h in history]
        assert all(b < a for a, b in zip(costs, costs[1:]))
        assert U.is_feasible()

    def test_immediate_return_at_fixed_point(self, stock_problem):
        grid, sim, coils, m0, U0, targets, cfg = stock_problem
        state, history = projected_gradient_descent(U0, coils, targets, cfg)
        U = state.U
        state2, history2 = projected_gradient_descent(U, coils, targets, cfg)
        U2 = state2.U
        assert len(history2) == 1
        assert history2[0].iteration == 0
        assert_allclose(U2.intensities, U.intensities, rtol=0)

    def test_decoupled_quadratic_clamps_to_zero(self):
        # matched targets: gradient = U, minimizer = clamp(0) = 0
        grid, sim, coils, m0, U0, _, cfg = tracking_problem(n=16, dt=1e-2, T=0.2)
        traj = simulate(m0, U0.with_intensities(np.zeros_like(U0.intensities)),
                        coils, sim)
        targets = TrackingTargets.from_trajectory(traj)
        start = U0.with_intensities(U0.intensities + 1.5)
        state, history = projected_gradient_descent(start, coils, targets, cfg)
        U = state.U
        assert np.abs(U.intensities).max() <= 1e-6

    def test_infeasible_start_projected(self, stock_problem):
        grid, sim, coils, m0, U0, targets, cfg = stock_problem
        bad = ControlPath(U0.intensities + 100.0, U0.lower, U0.upper, U0.dt)
        state, history = projected_gradient_descent(
            bad, coils, targets,
            OptimizeConfig(m0=m0, sim=sim, tol=1e-4, max_iters=50))
        U = state.U
        assert U.is_feasible()
        assert history[-1].residual <= 1e-4

    def test_fixed_point_is_projection_formula(self, stock_problem):
        # at U*, U* = P_box(-pairing) within the stopping tolerance
        grid, sim, coils, m0, U0, targets, cfg = stock_problem
        state, _ = projected_gradient_descent(U0, coils, targets, cfg)
        U = state.U
        g = reduced_state(U, coils, targets, cfg).grad
        from llbopt.coils import project_box
        pairing = g - U.intensities
        clamp = project_box(-pairing, U.lower, U.upper)
        from llbopt.coils import control_norm_rms
        gap = control_norm_rms(U.intensities - clamp, U.dt) / np.sqrt(U.final_time)
        assert gap <= cfg.tol

    def test_returned_state_is_the_final_control_bit_for_bit(self, stock_problem):
        # the state comes from the accepted trial's forward sweep, not a
        # fresh one, and must be exactly what a fresh evaluation gives
        grid, sim, coils, m0, U0, targets, cfg = stock_problem
        state, history = projected_gradient_descent(U0, coils, targets, cfg)
        assert len(history) > 1
        assert np.array_equal(state.traj.values,
                              simulate(m0, state.U, coils, sim).values)
        fresh = reduced_state(state.U, coils, targets, cfg)
        assert np.array_equal(state.grad, fresh.grad)
        assert state.residual == fresh.residual == history[-1].residual

    def test_natural_residual_zero_iff_fixed_point(self):
        U = ControlPath(np.array([[0.0], [0.5]]), -1.0, 1.0, 1.0)
        g = np.array([[0.0], [0.0]])
        assert natural_residual(U, g) == 0.0
        g2 = np.array([[0.1], [0.0]])
        assert natural_residual(U, g2) > 0.0

    def test_converges_in_2d(self):
        grid, sim, coils, m0, U0, targets, cfg = tracking_problem(
            n=16, dt=1e-2, T=0.3, dim=2)
        state, history = projected_gradient_descent(U0, coils, targets, cfg)
        U = state.U
        assert history[-1].residual <= cfg.tol
        assert U.is_feasible()
