import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from llbopt.adjoint import tracking_adjoint
from llbopt.cli import smooth_directions
from llbopt.coils import ControlPath, control_inner_rms, control_norm_rms
from llbopt.grid import Grid, Trajectory, cross, time_integral
from llbopt.llb import SimConfig, blowup_times, simulate
from llbopt.optimize import (
    CostBreakdown,
    CostTally,
    ReducedProblem,
    TrackingTargets,
    coil_pairing,
    evaluate_cost,
    natural_residual,
    forward_cost,
    projected_gradient_descent,
    reduced_state,
    streamed_cost,
)

from conftest import (
    batch_shapes,
    cosine_initial,
    grids,
    matched,
    peak_rise,
    tracking_problem,
    trajectory_bytes,
    two_gaussian_coils,
)


def evaluate_cost_full(traj, U, targets):
    """The cost in its earlier form, which built the trajectory-sized
    difference and its square; the same roundings."""
    w = traj.grid.cell_volume
    diff = traj.values - targets.m_d
    per_frame = w * np.sum(diff.reshape(diff.shape[0], -1) ** 2, axis=1)
    tracking = 0.5 * time_integral(per_frame, traj.dt)
    dT = traj.values[-1] - targets.m_omega
    terminal = 0.5 * w * float(np.sum(dT * dT))
    control = 0.5 * control_norm_rms(U.intensities, U.dt) ** 2
    return CostBreakdown(tracking, terminal, control)


class TestReducedProblem:
    def test_coils_on_another_grid_rejected(self):
        p, _, _ = tracking_problem(n=16, dt=1e-2, T=0.2)
        with pytest.raises(ValueError, match="coil/grid incompatibility"):
            ReducedProblem(p.m0, p.sim, two_gaussian_coils(Grid((8,), (1.0,))), p.targets)

    @pytest.mark.parametrize("cells, n_steps", [(16, 21), (16, 19), (8, 20)],
                             ids=["K+1", "K-1", "other-grid"])
    def test_targets_off_the_problem_rejected(self, cells, n_steps):
        p, _, _ = tracking_problem(n=16, dt=1e-2, T=0.2)
        targets = TrackingTargets.constant(Grid((cells,), (1.0,)), (0.1, 0, 0), n_steps)
        with pytest.raises(ValueError, match="target/grid incompatibility"):
            ReducedProblem(p.m0, p.sim, p.coils, targets)

    def test_state_carries_its_problem(self):
        p, U0, _ = tracking_problem(n=16, dt=1e-2, T=0.2)
        assert reduced_state(U0, p).problem is p
        with pytest.raises(AttributeError):
            p.targets = matched(p, U0).targets


class TestCostTally:
    @settings(max_examples=40, deadline=None)
    @given(grids(), batch_shapes, st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_matches_full_size_form_bit_for_bit(self, g, batch, K, seed):
        # each member of a batch of frames, summed frame by frame, costs
        # what the earlier whole-trajectory formula gives that member
        rng = np.random.default_rng(seed)
        dt = 0.1
        values = rng.standard_normal(batch + (K + 1,) + g.shape + (3,)) * 10.0 ** rng.uniform(
            -8, 8, batch + (K + 1,) + g.shape + (3,))
        targets = TrackingTargets(rng.standard_normal((K + 1,) + g.shape + (3,)),
                                  rng.standard_normal(g.shape + (3,)))
        intensities = rng.standard_normal(batch + (K + 1, 2))
        tally = CostTally(targets, g, dt, K)
        for j, m in enumerate(np.moveaxis(values, len(batch), 0)):
            tally.add(j, m)
        costs = tally.costs(ControlPath(intensities, -np.inf, np.inf, dt))
        for idx, cost in zip(np.ndindex(batch), costs if batch else [costs]):
            member = ControlPath(intensities[idx], -np.inf, np.inf, dt)
            traj = Trajectory(g, dt, values[idx])
            assert cost == evaluate_cost_full(traj, member, targets)
            assert evaluate_cost(traj, member, targets) == cost


class TestStreamedCost:
    def test_equals_evaluate_cost_on_the_stored_trajectory(self):
        p, U0, cfg = tracking_problem(n=16, dt=1e-2, T=0.2)
        U = U0.with_intensities(U0.intensities + np.array([0.5, -0.4]))
        stored = evaluate_cost(simulate(p.m0, U, p.coils, p.sim), U, p.targets)
        cost, blown_at = streamed_cost(U, p)
        assert cost == stored and np.isinf(blown_at)
        assert forward_cost(U, p)[0] == stored
        stack = np.stack([U.intensities, U.intensities + 0.3, -U.intensities])
        paths = ControlPath(stack, -np.inf, np.inf, U.dt)
        costs, blown_at = streamed_cost(paths, p)
        members = simulate(p.m0, paths, p.coils, p.sim).values
        for cost, values, intensities in zip(costs, members, stack):
            member = ControlPath(intensities, -np.inf, np.inf, U.dt)
            assert cost == evaluate_cost(Trajectory(p.m0.grid, U.dt, values), member,
                                         p.targets)
        assert np.all(np.isinf(blown_at))

    def test_blown_member_costs_nan_at_its_own_time(self):
        p, U0, cfg = tracking_problem(n=16, dt=1e-2, T=0.2)
        stack = np.stack([U0.intensities + 0.5, U0.intensities + 1e9])
        paths = ControlPath(stack, -np.inf, np.inf, U0.dt)
        with np.errstate(all="ignore"):
            (ok, blown), blown_at = streamed_cost(paths, p)
            expected = blowup_times(simulate(p.m0, paths, p.coils, p.sim))
        assert np.isfinite(ok.total) and np.isnan(blown.total)
        assert np.array_equal(blown_at, expected) and np.isfinite(blown_at[1])

    def test_cost_only_forward_keeps_no_trajectory(self):
        # 12^3 cells and K = 50: one trajectory is 2.1 MB
        p, U0, cfg = tracking_problem(n=12, dt=1e-3, T=0.05, dim=3)
        one = trajectory_bytes(p.m0.grid, p.sim.n_steps)
        assert one >= 2e6
        U = U0.with_intensities(U0.intensities + np.array([0.5, -0.4]))
        pair = ControlPath(np.stack([U.intensities, -U.intensities]), -np.inf, np.inf, U.dt)
        for paths in (U, pair):
            _, rise = peak_rise(streamed_cost, paths, p)
            assert rise < 0.5 * one
        # the forward that keeps its state adds that one trajectory only
        _, rise = peak_rise(forward_cost, U, p)
        assert rise < 1.5 * one


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
        p, U0, cfg = tracking_problem(n=16, dt=1e-2, T=0.2)
        U = U0.with_intensities(U0.intensities + 0.5)
        cost, traj = forward_cost(U, p)
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
        p, U0, cfg = tracking_problem(n=16, dt=1e-2, T=0.2)
        U = U0.with_intensities(U0.intensities + 0.7)
        g = reduced_state(U, matched(p, U)).grad
        assert_allclose(g, U.intensities, atol=1e-12)

    def test_matches_central_difference(self):
        p, U0, cfg = tracking_problem(n=64, dt=1e-3, T=0.25)
        U = U0.with_intensities(U0.intensities + np.array([0.5, -0.4]))
        g = reduced_state(U, p).grad
        h = smooth_directions(U.n_steps, U.dt,
                              [(0.6, 0.4, -0.2), (-0.5, 0.1, 0.3)])
        eps = 1e-4
        cp, _ = forward_cost(U.with_intensities(U.intensities + eps * h), p)
        cm, _ = forward_cost(U.with_intensities(U.intensities - eps * h), p)
        fd = (cp.total - cm.total) / (2 * eps)
        ad = control_inner_rms(g, h, U.dt)
        assert abs(fd - ad) / abs(fd) <= 1e-3

    @pytest.mark.parametrize("dim, n", [(1, 16), (2, 8), (3, 6)])
    def test_streamed_gradient_matches_a_stored_costate_bit_for_bit(self, dim, n):
        # the reference stores the whole costate, then pairs it frame by frame
        p, U0, _ = tracking_problem(n=n, dt=1e-2, T=0.2, dim=dim)
        U = U0.with_intensities(U0.intensities + np.array([0.5, -0.4]))
        streamed = reduced_state(U, p)
        kept = reduced_state(U, p, keep_costate=True)
        phi = tracking_adjoint(streamed.traj, U, p.coils, p.targets.m_d, p.targets.m_omega)
        pairing = np.array([coil_pairing(cross(f, m) + f, p.coils)
                            for m, f in zip(streamed.traj.values, phi.values)])
        assert streamed.phi is None
        assert np.array_equal(kept.phi.values, phi.values)
        for state in (streamed, kept):
            assert np.array_equal(state.grad, U.intensities + pairing)
            assert state.residual == natural_residual(U, U.intensities + pairing)

    def test_no_coils_degenerate(self):
        grid = Grid((8,), (1.0,))
        sim = SimConfig(T=0.1, dt=1e-2)
        from llbopt.coils import CoilSet
        coils = CoilSet.empty(grid)
        U = ControlPath.zeros(10, 0, 1e-2)
        m0 = cosine_initial(grid)
        traj = simulate(m0, U, coils, sim)
        targets = TrackingTargets.constant(grid, (0.1, 0, 0), 10)
        g = reduced_state(U, ReducedProblem(m0, sim, coils, targets)).grad
        assert g.shape == (11, 0)
        cost = evaluate_cost(traj, U, targets)
        assert cost.control == 0.0 and cost.tracking > 0


class TestProjectedGradientDescent:
    def test_converges_on_stock_problem(self, stock_problem):
        p, U0, cfg = stock_problem
        state, history = projected_gradient_descent(U0, p, **cfg)
        U = state.U
        assert history[-1].residual <= cfg["tol"]
        assert history[-1].iteration <= cfg["max_iters"]
        costs = [h.cost.total for h in history]
        assert all(b < a for a, b in zip(costs, costs[1:]))
        assert U.is_feasible()

    def test_immediate_return_at_fixed_point(self, stock_problem):
        p, U0, cfg = stock_problem
        state, history = projected_gradient_descent(U0, p, **cfg)
        U = state.U
        state2, history2 = projected_gradient_descent(U, p, **cfg)
        U2 = state2.U
        assert len(history2) == 1
        assert history2[0].iteration == 0
        assert_allclose(U2.intensities, U.intensities, rtol=0)

    def test_decoupled_quadratic_clamps_to_zero(self):
        # matched targets: gradient = U, minimizer = clamp(0) = 0
        p, U0, cfg = tracking_problem(n=16, dt=1e-2, T=0.2)
        p = matched(p, U0.with_intensities(np.zeros_like(U0.intensities)))
        start = U0.with_intensities(U0.intensities + 1.5)
        state, history = projected_gradient_descent(start, p, **cfg)
        U = state.U
        assert np.abs(U.intensities).max() <= 1e-6

    def test_infeasible_start_projected(self, stock_problem):
        p, U0, cfg = stock_problem
        bad = ControlPath(U0.intensities + 100.0, U0.lower, U0.upper, U0.dt)
        state, history = projected_gradient_descent(bad, p, **{**cfg, "tol": 1e-4,
                                                               "max_iters": 50})
        U = state.U
        assert U.is_feasible()
        assert history[-1].residual <= 1e-4

    def test_fixed_point_is_projection_formula(self, stock_problem):
        # at U*, U* = P_box(-pairing) within the stopping tolerance
        p, U0, cfg = stock_problem
        state, _ = projected_gradient_descent(U0, p, **cfg)
        U = state.U
        g = reduced_state(U, p).grad
        from llbopt.coils import project_box
        pairing = g - U.intensities
        clamp = project_box(-pairing, U.lower, U.upper)
        from llbopt.coils import control_norm_rms
        gap = control_norm_rms(U.intensities - clamp, U.dt) / np.sqrt(U.final_time)
        assert gap <= cfg["tol"]

    def test_returned_state_is_the_final_control_bit_for_bit(self, stock_problem):
        # the state comes from the accepted trial's forward sweep, not a
        # fresh one, and must be exactly what a fresh evaluation gives
        p, U0, cfg = stock_problem
        state, history = projected_gradient_descent(U0, p, **cfg)
        assert len(history) > 1
        assert np.array_equal(state.traj.values,
                              simulate(p.m0, state.U, p.coils, p.sim).values)
        fresh = reduced_state(state.U, p)
        assert np.array_equal(state.grad, fresh.grad)
        assert state.residual == fresh.residual == history[-1].residual

    def test_natural_residual_zero_iff_fixed_point(self):
        U = ControlPath(np.array([[0.0], [0.5]]), -1.0, 1.0, 1.0)
        g = np.array([[0.0], [0.0]])
        assert natural_residual(U, g) == 0.0
        g2 = np.array([[0.1], [0.0]])
        assert natural_residual(U, g2) > 0.0

    def test_converges_in_2d(self):
        p, U0, cfg = tracking_problem(n=16, dt=1e-2, T=0.3, dim=2)
        state, history = projected_gradient_descent(U0, p, **cfg)
        U = state.U
        assert history[-1].residual <= cfg["tol"]
        assert U.is_feasible()
