import numpy as np
import pytest

import llbopt.certify
from llbopt.adjoint import tracking_adjoint
from llbopt.coils import CoilSet, ControlPath, control_norm_rms, uniform_coil
from llbopt.grid import Grid, Trajectory, VectorField
from llbopt.llb import BlowUpError, SimConfig, simulate
from llbopt.optimize import (
    OptimizeConfig,
    TrackingTargets,
    projected_gradient_descent,
    reduced_state,
)
from llbopt.tangent import LinearizationPoint, solve_tangent, trajectory_h1_distance
from llbopt.certify import (
    UserConstants,
    critical_cone_mask,
    curvature,
    fooc_sample_min,
    global_and_uniqueness_report,
    project_onto_cone,
    second_order_scan,
    smallness_monitor,
    trajectory_norms,
)

from conftest import smooth_time_profiles, tracking_problem


@pytest.fixture(scope="module")
def converged(stock_problem):
    grid, sim, coils, m0, U0, targets, cfg = stock_problem
    state, history = projected_gradient_descent(U0, coils, targets, cfg)
    U = state.U
    return U, history, stock_problem


class TestFirstOrderResidual:
    def test_residual_at_converged_control(self, converged):
        U, history, (grid, sim, coils, m0, U0, targets, cfg) = converged
        rs = reduced_state(U, coils, targets, cfg)
        res, upsilon = rs.residual, rs.grad
        assert res <= cfg.tol
        assert upsilon.shape == U.intensities.shape

    def test_zero_residual_regime(self):
        # matched targets, zero interior control: Upsilon = 0 exactly
        grid, sim, coils, m0, U0, _, cfg = tracking_problem(n=16, dt=1e-2, T=0.2)
        traj = simulate(m0, U0, coils, sim)
        targets = TrackingTargets.from_trajectory(traj)
        rs = reduced_state(U0, coils, targets, cfg)
        res, upsilon = rs.residual, rs.grad
        assert res == 0.0
        assert np.all(upsilon == 0.0)

    def test_perturbation_raises_residual_linearly(self, converged):
        U, history, (grid, sim, coils, m0, U0, targets, cfg) = converged
        delta = 1e-3
        bumped = U.intensities.copy()
        j, i = bumped.shape[0] // 2, 0
        bumped[j, i] += delta
        res = reduced_state(U.with_intensities(bumped),
                            coils, targets, cfg).residual
        # natural residual of an interior coordinate responds ~ identically
        from llbopt.grid import time_integral
        spike = np.zeros_like(bumped)
        spike[j, i] = delta
        expected = control_norm_rms(spike, U.dt) / np.sqrt(U.final_time)
        assert res == pytest.approx(expected, rel=0.3)


class TestConeMasks:
    def make_path(self, u, lo=-1.0, hi=1.0):
        u = np.asarray(u, dtype=float).reshape(-1, 1)
        return ControlPath(u, lo, hi, 0.5)

    def test_interior_zero_upsilon_all_free(self):
        U = self.make_path([0.0, 0.2, -0.3])
        ups = np.zeros_like(U.intensities)
        masks = critical_cone_mask(U, ups)
        assert np.all(masks.free)

    def test_lower_active_with_positive_upsilon_forced_zero(self):
        U = self.make_path([-1.0, 0.0])
        ups = np.array([[0.5], [0.0]])
        masks = critical_cone_mask(U, ups, tol_active=1e-10, tol_upsilon=1e-6)
        assert masks.zero[0, 0] and not masks.nonneg[0, 0]
        assert masks.free[1, 0]

    def test_upper_active_with_negative_upsilon_forced_zero(self):
        U = self.make_path([1.0])
        ups = np.array([[-0.4]])
        masks = critical_cone_mask(U, ups, tol_active=1e-10, tol_upsilon=1e-6)
        assert masks.zero[0, 0]

    def test_active_bounds_sign_constrained(self):
        U = self.make_path([-1.0, 1.0])
        ups = np.zeros_like(U.intensities)
        masks = critical_cone_mask(U, ups, tol_active=1e-10, tol_upsilon=1e-6)
        assert masks.nonneg[0, 0] and masks.nonpos[1, 0]

    def test_monotone_in_upsilon_tolerance(self):
        rng = np.random.default_rng(0)
        U = ControlPath(rng.uniform(-1, 1, (20, 2)), -1.0, 1.0, 0.1)
        ups = rng.standard_normal((21, 2)) * 1e-3
        # note: intensities get 21 rows after broadcast; rebuild consistently
        U = ControlPath(rng.uniform(-1, 1, (21, 2)), -1.0, 1.0, 0.1)
        loose = critical_cone_mask(U, ups, tol_upsilon=1e-4)
        tight = critical_cone_mask(U, ups, tol_upsilon=1e-2)
        # enlarging tol_upsilon never forces more coordinates to zero
        assert np.all(tight.zero <= loose.zero)

    def test_projection_onto_cone(self):
        U = self.make_path([-1.0, 1.0, 0.0])
        ups = np.array([[0.0], [0.0], [5.0]])
        masks = critical_cone_mask(U, ups, tol_active=1e-10, tol_upsilon=1e-6)
        h = np.array([[-2.0], [3.0], [4.0]])
        p = project_onto_cone(h, masks)
        assert p[0, 0] == 0.0    # nonneg at lower bound
        assert p[1, 0] == 0.0    # nonpos at upper bound
        assert p[2, 0] == 0.0    # forced by upsilon


class TestCurvature:
    def test_quadratic_scaling_exact(self, converged):
        U, history, (grid, sim, coils, m0, U0, targets, cfg) = converged
        h = smooth_time_profiles(sim.n_steps, sim.dt,
                                 [(0.7, 0.2, 0.0), (-0.5, 0.0, 0.3)])
        s1 = curvature(U, coils, targets, h, cfg)
        s2 = curvature(U, coils, targets, 2.0 * h, cfg)
        assert s2.q_adj == pytest.approx(4.0 * s1.q_adj, rel=1e-10)

    def test_sign_invariance(self, converged):
        U, history, (grid, sim, coils, m0, U0, targets, cfg) = converged
        h = smooth_time_profiles(sim.n_steps, sim.dt,
                                 [(0.4, -0.3, 0.0), (0.2, 0.0, 0.6)])
        s1 = curvature(U, coils, targets, h, cfg)
        s2 = curvature(U, coils, targets, -h, cfg)
        assert s2.q_adj == pytest.approx(s1.q_adj, rel=1e-10)

    def test_adjoint_matches_second_difference(self, converged):
        U, history, (grid, sim, coils, m0, U0, targets, cfg) = converged
        rng = np.random.default_rng(3)
        for _ in range(3):
            c = rng.standard_normal((2, 3))
            h = smooth_time_profiles(sim.n_steps, sim.dt, [tuple(r) for r in c])
            s = curvature(U, coils, targets, h, cfg, eps_fd=1e-3)
            assert s.fd_valid
            assert s.rel_err <= 1e-2

    def test_bilinearity_identity(self, converged):
        # Q(h1+h2) + Q(h1-h2) = 2 Q(h1) + 2 Q(h2)
        U, history, (grid, sim, coils, m0, U0, targets, cfg) = converged
        h1 = smooth_time_profiles(sim.n_steps, sim.dt,
                                  [(0.5, 0.1, 0.0), (0.0, -0.4, 0.2)])
        h2 = smooth_time_profiles(sim.n_steps, sim.dt,
                                  [(-0.2, 0.0, 0.3), (0.6, 0.2, 0.0)])
        q = {}
        for name, h in (("p", h1 + h2), ("m", h1 - h2), ("1", h1), ("2", h2)):
            q[name] = curvature(U, coils, targets, h, cfg).q_adj
        lhs = q["p"] + q["m"]
        rhs = 2 * q["1"] + 2 * q["2"]
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_stack_matches_single_directions(self, converged):
        U, history, (grid, sim, coils, m0, U0, targets, cfg) = converged
        rng = np.random.default_rng(11)
        hs = np.stack([smooth_time_profiles(sim.n_steps, sim.dt,
                                            [tuple(r) for r in rng.standard_normal((2, 3))])
                       for _ in range(3)])
        samples = curvature(U, coils, targets, hs, cfg)
        assert len(samples) == 3
        for h, s in zip(hs, samples):
            ref = curvature(U, coils, targets, h, cfg)
            assert s.fd_valid and ref.fd_valid
            assert s.q_adj == pytest.approx(ref.q_adj, rel=1e-12)
            assert s.q_fd == pytest.approx(ref.q_fd, rel=1e-6)

    def test_exploding_direction_invalidates_only_its_fd(self, converged):
        U, history, (grid, sim, coils, m0, U0, targets, cfg) = converged
        h = smooth_time_profiles(sim.n_steps, sim.dt, [(0.5, 0.1, 0.0), (0.0, -0.4, 0.2)])
        hs = np.stack([h, 1e9 * h, -h])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.warns(RuntimeWarning, match="marginally resolved"):
            samples = curvature(U, coils, targets, hs, cfg)
        assert [s.fd_valid for s in samples] == [True, False, True]
        assert np.isnan(samples[1].q_fd) and np.isnan(samples[1].rel_err)
        assert np.isfinite(samples[1].q_adj)
        for b in (0, 2):
            ref = curvature(U, coils, targets, hs[b], cfg)
            assert samples[b].q_fd == pytest.approx(ref.q_fd, rel=1e-6)
            assert samples[b].rel_err <= 1e-2

    def test_closed_form_constant_problem(self):
        # zero base, zero costate, one constant unit coil, h = 1:
        # Q = 2T - 1/2 + e^{-2T}/2
        grid = Grid((8,), (1.0,))
        T, dt = 1.0, 1e-3
        sim = SimConfig(T=T, dt=dt)
        K = sim.n_steps
        coils = CoilSet.from_fields([uniform_coil(grid, 0)])
        m0 = VectorField.zero(grid)
        U = ControlPath.zeros(K, 1, dt)
        targets = TrackingTargets(np.zeros((K + 1,) + grid.shape + (3,)),
                                  np.zeros(grid.shape + (3,)))
        cfg = OptimizeConfig(m0=m0, sim=sim)
        h = np.ones((K + 1, 1))
        s = curvature(U, coils, targets, h, cfg)
        expected = 2 * T - 0.5 + 0.5 * np.exp(-2 * T)
        assert s.q_adj == pytest.approx(expected, rel=1e-2)

    def test_zero_direction_rejected(self, converged):
        U, history, (grid, sim, coils, m0, U0, targets, cfg) = converged
        with pytest.raises(ValueError, match="nonzero"):
            curvature(U, coils, targets, np.zeros_like(U.intensities), cfg)


class TestSecondOrderScan:
    def test_decoupled_regime_min_near_one(self):
        # matched targets: costate vanishes and Q(h) >= ||h||^2
        grid, sim, coils, m0, U0, _, cfg = tracking_problem(n=16, dt=5e-3, T=0.25)
        traj = simulate(m0, U0, coils, sim)
        targets = TrackingTargets.from_trajectory(traj)
        mr, samples = second_order_scan(U0, coils, targets, 5, cfg,
                                        rng=np.random.default_rng(1))
        assert reduced_state(U0, coils, targets, cfg).residual == 0.0
        assert mr >= 1.0 - 0.02

    def test_trivial_cone_detected(self):
        grid, sim, coils, m0, U0, _, cfg = tracking_problem(n=16, dt=1e-2, T=0.2)
        traj = simulate(m0, U0, coils, sim)
        targets = TrackingTargets.from_trajectory(traj)
        # a point box (a = b) pins every direction coordinate to zero
        pinned = ControlPath(np.full_like(U0.intensities, 0.7),
                             0.7, 0.7, U0.dt)
        with pytest.raises(ValueError, match="cone numerically trivial"):
            second_order_scan(pinned, coils, targets, 4, cfg,
                              rng=np.random.default_rng(2))

    def test_scan_at_converged_control_positive(self, converged):
        U, history, (grid, sim, coils, m0, U0, targets, cfg) = converged
        mr, samples = second_order_scan(U, coils, targets, 4, cfg,
                                        rng=np.random.default_rng(3))
        assert len(samples) == 4
        assert mr > 0


    def test_batches_within_budget_match_one_batch(self, converged, monkeypatch):
        U, history, (grid, sim, coils, m0, U0, targets, cfg) = converged
        one_batch = second_order_scan(U, coils, targets, 4, cfg,
                                      rng=np.random.default_rng(3))[1]
        calls = {"tangent": 0, "forward": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(llbopt.certify, "solve_tangent",
                            counted("tangent", llbopt.certify.solve_tangent))
        monkeypatch.setattr(llbopt.certify, "streamed_cost",
                            counted("forward", llbopt.certify.streamed_cost))
        # room for four trajectories: tangent batches of 2 (z and phi' each);
        # the 8 finite-difference forwards keep no trajectory, so one sweep
        monkeypatch.setattr(llbopt.certify, "BUDGET", 4 * U0.intensities.shape[0]
                            * grid.node_count * 3 * 8)
        chunked = second_order_scan(U, coils, targets, 4, cfg,
                                    rng=np.random.default_rng(3))[1]
        assert calls == {"tangent": 2, "forward": 1}
        assert [s.direction_id for s in chunked] == [s.direction_id for s in one_batch]
        for a, b in zip(chunked, one_batch):
            assert a.q_adj == pytest.approx(b.q_adj, rel=1e-12)
            assert a.q_fd == pytest.approx(b.q_fd, rel=1e-6)


class TestLipschitzPairs:
    def test_batched_pairs_match_pairwise_sweeps(self, converged):
        U, history, (grid, sim, coils, m0, U0, targets, cfg) = converged
        c2, c3 = llbopt.certify._estimate_lipschitz_pair(
            U, coils, targets, cfg, np.random.default_rng(12))
        # reference: the pairs one sweep at a time
        rng = np.random.default_rng(12)
        state_best = costate_best = 0.0
        for _ in range(3):
            U1, U2 = (ControlPath(U.intensities + 0.2 * rng.standard_normal(U.intensities.shape),
                                  -np.inf, np.inf, U.dt) for _ in range(2))
            denom = control_norm_rms(U1.intensities - U2.intensities, U.dt)
            t1, t2 = (simulate(m0, V, coils, sim) for V in (U1, U2))
            state_best = max(state_best, trajectory_h1_distance(t1, t2) / denom)
            p1, p2 = (tracking_adjoint(t, V, coils, targets.m_d, targets.m_omega)
                      for t, V in ((t1, U1), (t2, U2)))
            nrm = trajectory_norms(Trajectory(grid, U.dt, p1.values - p2.values))
            costate_best = max(costate_best,
                               np.sqrt(nrm["linf_l2"] ** 2 + nrm["l2_h1"] ** 2) / denom)
        assert c2 == pytest.approx(state_best**2, rel=1e-12)
        assert c3 == pytest.approx(costate_best**2, rel=1e-12)

    def test_member_blowup_raises(self, converged):
        U, history, (grid, sim, coils, m0, U0, targets, cfg) = converged
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.warns(RuntimeWarning, match="marginally resolved"), \
                pytest.raises(BlowUpError, match="state blow-up"):
            llbopt.certify._estimate_lipschitz_pair(
                U, coils, targets, cfg, np.random.default_rng(13), spread=1e7)


    def test_stable_under_resampling(self):
        grid, sim, coils, m0, U0, targets, cfg = tracking_problem(n=24, dt=5e-3, T=0.2)
        rng = np.random.default_rng(3)
        small, large = (np.sqrt(llbopt.certify._estimate_lipschitz_pair(
            U0, coils, targets, cfg, rng, n_pairs=n, spread=0.3)[0]) for n in (4, 8))
        assert small > 0
        # doubling the sample count moves the max ratio by a bounded factor
        assert abs(large - small) <= 0.25 * max(large, small)

    def test_difference_quotient_approaches_derivative(self):
        # one pair U + s*d1, U + s*d2: as s -> 0 the state ratio tends to
        # the tangent's ||z(d1 - d2)|| / ||d1 - d2||
        grid, sim, coils, m0, U0, targets, cfg = tracking_problem(n=24, dt=5e-3, T=0.2)
        rng = np.random.default_rng(4)
        direction = rng.standard_normal(U0.intensities.shape) - rng.standard_normal(
            U0.intensities.shape)
        point = LinearizationPoint(simulate(m0, U0, coils, sim), U0, coils)
        z = solve_tangent(point, direction)
        zero = Trajectory(grid, sim.dt, np.zeros_like(z.values))
        expected = trajectory_h1_distance(z, zero) / control_norm_rms(direction, sim.dt)
        errs = []
        for spread in (1e-1, 1e-2):
            c2, _ = llbopt.certify._estimate_lipschitz_pair(
                U0, coils, targets, cfg, np.random.default_rng(4), n_pairs=1,
                spread=spread)
            errs.append(abs(np.sqrt(c2) - expected) / expected)
        assert errs[-1] < errs[0]
        assert errs[-1] <= 1e-2


class TestGlobalUniquenessReport:
    def test_zero_residual_go_pass_any_constant(self):
        grid, sim, coils, m0, U0, _, cfg = tracking_problem(n=16, dt=1e-2, T=0.2)
        traj = simulate(m0, U0, coils, sim)
        targets = TrackingTargets.from_trajectory(traj)
        rep = global_and_uniqueness_report(
            U0, coils, targets, cfg,
            UserConstants(go_constant=1e9, c4n=1.0, c2=1.0, c3=1.0),
            rng=np.random.default_rng(4))
        assert rep.go_lhs == 0.0
        assert rep.go_status == "PASS"
        assert rep.go_status_strict == "PASS"

    def test_cab_value(self):
        # a = -1, b = 1, two coils, T = 1: ||a||^2 + ||b||^2 = 4
        grid, sim, coils, m0, U0, targets, cfg = tracking_problem(
            n=16, dt=0.05, T=1.0, lower=-1.0, upper=1.0)
        rep = global_and_uniqueness_report(
            U0, coils, targets, cfg,
            UserConstants(go_constant=0.1, c4n=1.0, c2=1.0, c3=1.0),
            rng=np.random.default_rng(5), n_fooc_samples=10)
        assert rep.factors["c_ab"] == pytest.approx(4.0, rel=1e-12)

    def test_uloc_flips_with_horizon(self):
        # fixed constants: shrinking T turns the comparison around
        def report_at(T):
            grid, sim, coils, m0, U0, targets, cfg = tracking_problem(
                n=16, dt=T / 20, T=T, lower=-1.0, upper=1.0)
            return global_and_uniqueness_report(
                U0, coils, targets, cfg,
                UserConstants(go_constant=0.1, c4n=0.5, c2=1.0, c3=1.0),
                rng=np.random.default_rng(6), n_fooc_samples=10)

        long_run = report_at(4.0)
        short_run = report_at(0.1)
        assert long_run.uloc_status == "FAIL"
        assert short_run.uloc_status == "PASS"

    def test_estimated_constants_indeterminate(self, converged):
        U, history, (grid, sim, coils, m0, U0, targets, cfg) = converged
        rep = global_and_uniqueness_report(
            U, coils, targets, cfg, UserConstants(go_constant=0.1, c4n=1.0),
            rng=np.random.default_rng(7), n_fooc_samples=20)
        assert rep.uloc_status == "INDETERMINATE"
        assert rep.constants_used["C2_source"] == "estimated"
        assert rep.constants_used["C2"] > 0

    def test_report_reproducible(self, converged):
        U, history, (grid, sim, coils, m0, U0, targets, cfg) = converged
        reps = [global_and_uniqueness_report(
            U, coils, targets, cfg,
            UserConstants(go_constant=0.1, c4n=1.0, c2=1.0, c3=1.0),
            rng=np.random.default_rng(8), n_fooc_samples=25)
            for _ in range(2)]
        assert reps[0].go_lhs == reps[1].go_lhs
        assert reps[0].fooc_min_sample == reps[1].fooc_min_sample
        assert reps[0].uloc_lhs == reps[1].uloc_lhs
        assert reps[0].factors == reps[1].factors

    def test_missing_required_constants_error(self, converged):
        U, history, (grid, sim, coils, m0, U0, targets, cfg) = converged
        with pytest.raises(ValueError, match="no estimator fallback"):
            global_and_uniqueness_report(U, coils, targets, cfg,
                                         UserConstants(c2=1.0, c3=1.0),
                                         rng=np.random.default_rng(0),
                                         n_fooc_samples=5)

    def test_smallness_monitor_decay(self):
        grid = Grid((8, 8, 8), (1.0, 1.0, 1.0))
        sim = SimConfig(T=0.2, dt=1e-2)
        coords = grid.meshgrid()
        vals = np.zeros(grid.shape + (3,))
        vals[..., 0] = 0.1 * np.cos(np.pi * coords[0])
        m0 = VectorField(grid, vals)
        traj = simulate(m0, ControlPath.zeros(sim.n_steps, 0, sim.dt),
                        CoilSet.empty(grid), sim)
        mon = smallness_monitor(traj)
        assert mon[0] > 0
        assert mon.max() <= 2.0 * mon[0]


class TestActiveConstraints:
    def test_binding_bounds_satisfy_sign_conditions(self):
        # bounds tight enough that most of the optimum sits on the upper
        # bound: there Upsilon must be <= 0 and the cone pins the direction
        grid, sim, coils, m0, U0, targets, cfg = tracking_problem(
            n=32, dt=5e-3, T=0.5, lower=-0.004, upper=0.004)
        state, history = projected_gradient_descent(U0, coils, targets, cfg)
        U = state.U
        rs = reduced_state(U, coils, targets, cfg)
        res, ups = rs.residual, rs.grad
        assert res <= cfg.tol
        at_upper = np.abs(U.upper - U.intensities) <= 1e-12
        at_lower = np.abs(U.intensities - U.lower) <= 1e-12
        assert at_upper.sum() > 0
        assert np.all(ups[at_upper] <= 1e-10)
        if at_lower.any():
            assert np.all(ups[at_lower] >= -1e-10)
        # variational inequality holds with margin once constraints bind
        fooc = fooc_sample_min(U, ups, 100, np.random.default_rng(1))
        assert fooc >= -1e-6
        # decisively nonzero Upsilon pins the active coordinates
        masks = critical_cone_mask(U, ups)
        assert np.all(masks.zero[at_upper])


class TestFOOCSampling:
    def test_nonnegative_at_fixed_point(self, converged):
        U, history, (grid, sim, coils, m0, U0, targets, cfg) = converged
        upsilon = reduced_state(U, coils, targets, cfg).grad
        val = fooc_sample_min(U, upsilon, 200, np.random.default_rng(9))
        assert val >= -1e-6

    def test_needs_finite_bounds(self):
        U = ControlPath(np.zeros((3, 1)), -np.inf, np.inf, 0.5)
        with pytest.raises(ValueError, match="finite box"):
            fooc_sample_min(U, np.zeros((3, 1)), 5, np.random.default_rng(0))
