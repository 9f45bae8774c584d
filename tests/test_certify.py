import numpy as np
import pytest

import llbopt.certify
from llbopt.adjoint import tracking_adjoint
from llbopt.coils import CoilSet, ControlPath, control_norm_rms, uniform_coil
from llbopt.grid import Grid, VectorField
from llbopt.llb import BlowUpError, SimConfig, simulate
from llbopt.optimize import (
    ReducedProblem,
    TrackingTargets,
    projected_gradient_descent,
    reduced_state,
)
from llbopt.tangent import LinearizationPoint, solve_tangent
from llbopt.cli import smooth_directions
from llbopt.certify import (
    critical_cone_mask,
    curvature,
    fooc_sample_min,
    global_and_uniqueness_report,
    project_onto_cone,
    second_order_scan,
    smallness_monitor,
    space_time_norms,
)

from conftest import matched, tracking_problem


@pytest.fixture(scope="module")
def converged(stock_problem):
    p, U0, cfg = stock_problem
    opt, _ = projected_gradient_descent(U0, p, **cfg)
    # the certificates read the costate, which the optimizer's state streams
    state = reduced_state(opt.U, p, forward=(opt.cost, opt.traj), keep_costate=True)
    return state, stock_problem


def scan_at(state, n_dirs, rng):
    """:func:`second_order_scan` at ``state`` over its default cone."""
    cone = critical_cone_mask(state.U, state.grad)
    return second_order_scan(state, cone, n_dirs, rng, 1e-3)


class TestFirstOrderResidual:
    def test_residual_at_converged_control(self, converged):
        state, (p, U0, cfg) = converged
        assert state.residual <= cfg["tol"]
        assert state.grad.shape == state.U.intensities.shape

    def test_zero_residual_regime(self):
        # matched targets, zero interior control: Upsilon = 0 exactly
        p, U0, cfg = tracking_problem(n=16, dt=1e-2, T=0.2)
        rs = reduced_state(U0, matched(p, U0))
        res, upsilon = rs.residual, rs.grad
        assert res == 0.0
        assert np.all(upsilon == 0.0)

    def test_perturbation_raises_residual_linearly(self, converged):
        state, (p, U0, cfg) = converged
        U = state.U
        delta = 1e-3
        bumped = U.intensities.copy()
        j, i = bumped.shape[0] // 2, 0
        bumped[j, i] += delta
        res = reduced_state(U.with_intensities(bumped), p).residual
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
        cone = critical_cone_mask(U, ups)
        assert np.all(cone == "free")

    def test_lower_active_with_positive_upsilon_forced_zero(self):
        U = self.make_path([-1.0, 0.0])
        ups = np.array([[0.5], [0.0]])
        cone = critical_cone_mask(U, ups, tol_active=1e-10, tol_upsilon=1e-6)
        assert cone[0, 0] == "zero"  # not nonneg: the zero rule dominates
        assert cone[1, 0] == "free"

    def test_upper_active_with_negative_upsilon_forced_zero(self):
        U = self.make_path([1.0])
        ups = np.array([[-0.4]])
        cone = critical_cone_mask(U, ups, tol_active=1e-10, tol_upsilon=1e-6)
        assert cone[0, 0] == "zero"

    def test_active_bounds_sign_constrained(self):
        U = self.make_path([-1.0, 1.0])
        ups = np.zeros_like(U.intensities)
        cone = critical_cone_mask(U, ups, tol_active=1e-10, tol_upsilon=1e-6)
        assert cone[0, 0] == "nonneg" and cone[1, 0] == "nonpos"

    def test_monotone_in_upsilon_tolerance(self):
        rng = np.random.default_rng(0)
        U = ControlPath(rng.uniform(-1, 1, (20, 2)), -1.0, 1.0, 0.1)
        ups = rng.standard_normal((21, 2)) * 1e-3
        # note: intensities get 21 rows after broadcast; rebuild consistently
        U = ControlPath(rng.uniform(-1, 1, (21, 2)), -1.0, 1.0, 0.1)
        loose = critical_cone_mask(U, ups, tol_upsilon=1e-4)
        tight = critical_cone_mask(U, ups, tol_upsilon=1e-2)
        # enlarging tol_upsilon never forces more coordinates to zero
        assert np.all((tight == "zero") <= (loose == "zero"))

    def test_projection_onto_cone(self):
        U = self.make_path([-1.0, 1.0, 0.0])
        ups = np.array([[0.0], [0.0], [5.0]])
        cone = critical_cone_mask(U, ups, tol_active=1e-10, tol_upsilon=1e-6)
        h = np.array([[-2.0], [3.0], [4.0]])
        p = project_onto_cone(h, cone)
        assert p[0, 0] == 0.0    # nonneg at lower bound
        assert p[1, 0] == 0.0    # nonpos at upper bound
        assert p[2, 0] == 0.0    # forced by upsilon


class TestCurvature:
    def test_quadratic_scaling_exact(self, converged):
        state, (p, U0, cfg) = converged
        h = smooth_directions(U0.n_steps, U0.dt,
                              [(0.7, 0.2, 0.0), (-0.5, 0.0, 0.3)])
        s1, s2 = curvature(state, np.stack([h, 2.0 * h]), 1e-3)
        assert s2.q_adj == pytest.approx(4.0 * s1.q_adj, rel=1e-10)

    def test_sign_invariance(self, converged):
        state, (p, U0, cfg) = converged
        h = smooth_directions(U0.n_steps, U0.dt,
                              [(0.4, -0.3, 0.0), (0.2, 0.0, 0.6)])
        s1, s2 = curvature(state, np.stack([h, -h]), 1e-3)
        assert s2.q_adj == pytest.approx(s1.q_adj, rel=1e-10)

    def test_adjoint_matches_second_difference(self, converged):
        state, (p, U0, cfg) = converged
        rng = np.random.default_rng(3)
        hs = np.stack([smooth_directions(U0.n_steps, U0.dt, rng.standard_normal((2, 3)))
                       for _ in range(3)])
        for s in curvature(state, hs, 1e-3):
            assert s.fd_valid
            assert s.rel_err <= 1e-2

    def test_bilinearity_identity(self, converged):
        # Q(h1+h2) + Q(h1-h2) = 2 Q(h1) + 2 Q(h2)
        state, (p, U0, cfg) = converged
        h1 = smooth_directions(U0.n_steps, U0.dt,
                               [(0.5, 0.1, 0.0), (0.0, -0.4, 0.2)])
        h2 = smooth_directions(U0.n_steps, U0.dt,
                               [(-0.2, 0.0, 0.3), (0.6, 0.2, 0.0)])
        qp, qm, q1, q2 = (s.q_adj for s in curvature(
            state, np.stack([h1 + h2, h1 - h2, h1, h2]), 1e-3))
        assert qp + qm == pytest.approx(2 * q1 + 2 * q2, rel=1e-8)

    def test_stack_matches_single_directions(self, converged):
        state, (p, U0, cfg) = converged
        rng = np.random.default_rng(11)
        hs = np.stack([smooth_directions(U0.n_steps, U0.dt, rng.standard_normal((2, 3)))
                       for _ in range(3)])
        samples = curvature(state, hs, 1e-3)
        assert [s.direction_id for s in samples] == [0, 1, 2]
        for h, s in zip(hs, samples):
            ref, = curvature(state, h[None], 1e-3)
            assert s.fd_valid and ref.fd_valid
            assert s.q_adj == pytest.approx(ref.q_adj, rel=1e-12)
            assert s.q_fd == pytest.approx(ref.q_fd, rel=1e-6)

    def test_exploding_direction_invalidates_only_its_fd(self, converged):
        state, (p, U0, cfg) = converged
        h = smooth_directions(U0.n_steps, U0.dt, [(0.5, 0.1, 0.0), (0.0, -0.4, 0.2)])
        hs = np.stack([h, 1e9 * h, -h])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.warns(RuntimeWarning, match="marginally resolved"):
            samples = curvature(state, hs, 1e-3)
        assert [s.fd_valid for s in samples] == [True, False, True]
        assert np.isnan(samples[1].q_fd) and np.isnan(samples[1].rel_err)
        assert np.isfinite(samples[1].q_adj)
        for b in (0, 2):
            ref, = curvature(state, hs[[b]], 1e-3)
            assert samples[b].q_fd == pytest.approx(ref.q_fd, rel=1e-6)
            assert samples[b].rel_err <= 1e-2

    def test_step_with_an_overflowing_square_invalidates_every_fd(self, converged):
        state, (p, U0, cfg) = converged
        h = smooth_directions(U0.n_steps, U0.dt, [(0.5, 0.1, 0.0), (0.0, -0.4, 0.2)])
        s, = curvature(state, h[None], 1e300)
        ref, = curvature(state, h[None], 1e-3)
        assert not s.fd_valid and np.isnan(s.q_fd) and np.isnan(s.rel_err)
        assert s.q_adj == ref.q_adj

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
        state = reduced_state(U, ReducedProblem(m0, sim, coils, targets), keep_costate=True)
        s, = curvature(state, np.ones((1, K + 1, 1)), 1e-3)
        expected = 2 * T - 0.5 + 0.5 * np.exp(-2 * T)
        assert s.q_adj == pytest.approx(expected, rel=1e-2)

    def test_zero_direction_rejected(self, converged):
        state, (p, U0, cfg) = converged
        with pytest.raises(ValueError, match="nonzero"):
            curvature(state, np.zeros((1,) + state.U.intensities.shape), 1e-3)

    def test_state_without_its_costate_rejected(self, converged):
        state, (p, U0, cfg) = converged
        streamed = reduced_state(state.U, p, forward=(state.cost, state.traj))
        assert streamed.phi is None
        hs = np.ones((1,) + state.U.intensities.shape)
        with pytest.raises(ValueError, match="keep_costate=True"):
            curvature(streamed, hs, 1e-3)
        with pytest.raises(ValueError, match="keep_costate=True"):
            global_and_uniqueness_report(streamed, np.random.default_rng(0), c_go=1.0, c4n=1.0)

    def test_unstacked_direction_rejected(self, converged):
        # one input shape: a single direction is a stack of one
        state, (p, U0, cfg) = converged
        with pytest.raises(ValueError, match=r"expected \(B, K\+1, N\)"):
            curvature(state, np.ones(state.U.intensities.shape), 1e-3)


class TestSecondOrderScan:
    def test_decoupled_regime_min_near_one(self):
        # matched targets: costate vanishes and Q(h) >= ||h||^2
        p, U0, cfg = tracking_problem(n=16, dt=5e-3, T=0.25)
        state = reduced_state(U0, matched(p, U0), keep_costate=True)
        mr, samples = scan_at(state, 5, np.random.default_rng(1))
        assert state.residual == 0.0
        assert mr >= 1.0 - 0.02

    def test_trivial_cone_detected(self):
        p, U0, cfg = tracking_problem(n=16, dt=1e-2, T=0.2)
        # a point box (a = b) pins every direction coordinate to zero
        pinned = ControlPath(np.full_like(U0.intensities, 0.7),
                             0.7, 0.7, U0.dt)
        state = reduced_state(pinned, matched(p, U0), keep_costate=True)
        # a minimum over no samples is None
        assert scan_at(state, 4, np.random.default_rng(2)) == (None, [])

    def test_scan_at_converged_control_positive(self, converged):
        state, _ = converged
        mr, samples = scan_at(state, 4, np.random.default_rng(3))
        assert len(samples) == 4
        assert mr > 0

    def test_samples_the_cone_it_is_given(self, converged, monkeypatch):
        # the scan projects onto the caller's masks, not a cone of its own
        state, _ = converged
        free = critical_cone_mask(state.U, state.grad)
        only_first = critical_cone_mask(state.U, state.grad)
        only_first[:, 1:] = "zero"
        seen = []
        real = llbopt.certify.curvature
        monkeypatch.setattr(llbopt.certify, "curvature",
                            lambda state, hs, *args: seen.append(hs) or real(state, hs, *args))
        for cone in (free, only_first):
            second_order_scan(state, cone, 3, np.random.default_rng(3), 1e-3)
        assert np.all(seen[0][:, :, 1] != 0)
        assert np.all(seen[1][:, :, 1] == 0) and np.all(seen[1][:, :, 0] != 0)

    def test_batches_within_budget_match_one_batch(self, converged, monkeypatch):
        state, (p, U0, cfg) = converged
        one_batch = scan_at(state, 4, np.random.default_rng(3))[1]
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
        # room for two trajectories: tangent batches of 2 (z each; phi' is
        # paired per frame); the 8 finite-difference forwards keep no
        # trajectory, so one sweep
        monkeypatch.setattr(llbopt.certify, "BUDGET", 2 * U0.intensities.shape[0]
                            * p.m0.grid.node_count * 3 * 8)
        chunked = scan_at(state, 4, np.random.default_rng(3))[1]
        assert calls == {"tangent": 2, "forward": 1}
        assert [s.direction_id for s in chunked] == [s.direction_id for s in one_batch]
        for a, b in zip(chunked, one_batch):
            assert a.q_adj == pytest.approx(b.q_adj, rel=1e-12)
            assert a.q_fd == pytest.approx(b.q_fd, rel=1e-6)


class TestLipschitzPairs:
    def test_batched_pairs_match_pairwise_sweeps(self, converged):
        state, (p, U0, cfg) = converged
        U, grid, coils, targets = state.U, p.m0.grid, p.coils, p.targets
        c2, c3 = llbopt.certify._estimate_lipschitz_pair(U, p, np.random.default_rng(12))
        # reference: the pairs one sweep at a time
        rng = np.random.default_rng(12)
        state_best = costate_best = 0.0
        for _ in range(3):
            U1, U2 = (ControlPath(U.intensities + 0.2 * rng.standard_normal(U.intensities.shape),
                                  -np.inf, np.inf, U.dt) for _ in range(2))
            denom = control_norm_rms(U1.intensities - U2.intensities, U.dt)
            t1, t2 = (simulate(p.m0, V, coils, p.sim) for V in (U1, U2))
            dm = space_time_norms(grid, t1.values - t2.values, U.dt)
            state_best = max(state_best, dm["linf_h1"] / denom)
            p1, p2 = (tracking_adjoint(t, V, coils, targets.m_d, targets.m_omega)
                      for t, V in ((t1, U1), (t2, U2)))
            nrm = space_time_norms(grid, p1.values - p2.values, U.dt)
            costate_best = max(costate_best,
                               np.sqrt(nrm["linf_l2"] ** 2 + nrm["l2_h1"] ** 2) / denom)
        assert c2 == pytest.approx(state_best**2, rel=1e-12)
        assert c3 == pytest.approx(costate_best**2, rel=1e-12)

    def test_member_blowup_raises(self, converged):
        state, (p, U0, cfg) = converged
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.warns(RuntimeWarning, match="marginally resolved"), \
                pytest.raises(BlowUpError, match="state blow-up"):
            llbopt.certify._estimate_lipschitz_pair(
                state.U, p, np.random.default_rng(13), spread=1e7)


    def test_stable_under_resampling(self):
        p, U0, cfg = tracking_problem(n=24, dt=5e-3, T=0.2)
        rng = np.random.default_rng(3)
        small, large = (np.sqrt(llbopt.certify._estimate_lipschitz_pair(
            U0, p, rng, n_pairs=n, spread=0.3)[0]) for n in (4, 8))
        assert small > 0
        # doubling the sample count moves the max ratio by a bounded factor
        assert abs(large - small) <= 0.25 * max(large, small)

    def test_difference_quotient_approaches_derivative(self):
        # one pair U + s*d1, U + s*d2: as s -> 0 the state ratio tends to
        # the tangent's ||z(d1 - d2)|| / ||d1 - d2||
        p, U0, cfg = tracking_problem(n=24, dt=5e-3, T=0.2)
        grid, sim = p.m0.grid, p.sim
        rng = np.random.default_rng(4)
        direction = rng.standard_normal(U0.intensities.shape) - rng.standard_normal(
            U0.intensities.shape)
        point = LinearizationPoint(simulate(p.m0, U0, p.coils, sim), U0, p.coils)
        z = solve_tangent(point, direction)
        expected = (space_time_norms(grid, z.frames, sim.dt)["linf_h1"]
                    / control_norm_rms(direction, sim.dt))
        errs = []
        for spread in (1e-1, 1e-2):
            c2, _ = llbopt.certify._estimate_lipschitz_pair(
                U0, p, np.random.default_rng(4), n_pairs=1, spread=spread)
            errs.append(abs(np.sqrt(c2) - expected) / expected)
        assert errs[-1] < errs[0]
        assert errs[-1] <= 1e-2


def report_at(state, constants, seed, n_fooc_samples=200):
    """The report.txt entries from the first-order sample on: ``fooc_min_sample``
    (:func:`fooc_sample_min`), then :func:`global_and_uniqueness_report` at
    ``state`` with the keyword ``constants``, drawing from one generator
    seeded ``seed``, as ``certify`` does."""
    rng = np.random.default_rng(seed)
    fooc = fooc_sample_min(state.U, state.grad, n_fooc_samples, rng)
    return {"fooc_min_sample": fooc,
            **global_and_uniqueness_report(state, rng, **constants)}


def factors(report):
    """The ``factor.*`` entries of a report."""
    return {k: v for k, v in report.items() if k.startswith("factor.")}


def initial_state(problem):
    """The reduced state at a :func:`tracking_problem`'s initial control."""
    p, U0, cfg = problem
    return reduced_state(U0, p, keep_costate=True)


class TestGlobalUniquenessReport:
    def test_zero_residual_go_pass_any_constant(self):
        p, U0, cfg = tracking_problem(n=16, dt=1e-2, T=0.2)
        rep = report_at(reduced_state(U0, matched(p, U0), keep_costate=True),
                        dict(c_go=1e9, c4n=1.0, c2=1.0, c3=1.0), 4)
        assert rep["go_lhs"] == 0.0
        assert rep["go_status"] == "PASS"
        assert rep["go_status_strict"] == "PASS"

    def test_cab_value(self):
        # a = -1, b = 1, two coils, T = 1: ||a||^2 + ||b||^2 = 4
        problem = tracking_problem(n=16, dt=0.05, T=1.0, lower=-1.0, upper=1.0)
        rep = report_at(initial_state(problem),
                        dict(c_go=0.1, c4n=1.0, c2=1.0, c3=1.0), 5,
                        n_fooc_samples=10)
        assert rep["factor.c_ab"] == pytest.approx(4.0, rel=1e-12)

    def test_uloc_flips_with_horizon(self):
        # fixed constants: shrinking T turns the comparison around
        def report_for(T):
            problem = tracking_problem(n=16, dt=T / 20, T=T, lower=-1.0, upper=1.0)
            return report_at(initial_state(problem),
                             dict(c_go=0.1, c4n=0.5, c2=1.0, c3=1.0), 6,
                             n_fooc_samples=10)

        long_run = report_for(4.0)
        short_run = report_for(0.1)
        assert long_run["uloc_status"] == "FAIL"
        assert short_run["uloc_status"] == "PASS"

    def test_estimated_constants_indeterminate(self, converged):
        state, _ = converged
        rep = report_at(state, dict(c_go=0.1, c4n=1.0), 7, n_fooc_samples=20)
        assert rep["uloc_status"] == "INDETERMINATE"
        assert rep["constant.C2_source"] == "estimated"
        assert rep["constant.C2"] > 0

    def test_report_reproducible(self, converged):
        state, _ = converged
        reps = [report_at(state, dict(c_go=0.1, c4n=1.0, c2=1.0, c3=1.0), 8,
                          n_fooc_samples=25)
                for _ in range(2)]
        assert reps[0]["go_lhs"] == reps[1]["go_lhs"]
        assert reps[0]["fooc_min_sample"] == reps[1]["fooc_min_sample"]
        assert reps[0]["uloc_lhs"] == reps[1]["uloc_lhs"]
        assert factors(reps[0]) == factors(reps[1])

    def test_missing_required_constants_error(self, converged):
        state, _ = converged
        with pytest.raises(ValueError, match="no estimator fallback"):
            report_at(state, dict(c2=1.0, c3=1.0), 0, n_fooc_samples=5)

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
        p, U0, cfg = tracking_problem(n=32, dt=5e-3, T=0.5, lower=-0.004, upper=0.004)
        state, history = projected_gradient_descent(U0, p, **cfg)
        U = state.U
        rs = reduced_state(U, p)
        res, ups = rs.residual, rs.grad
        assert res <= cfg["tol"]
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
        cone = critical_cone_mask(U, ups)
        assert np.all(cone[at_upper] == "zero")


class TestFOOCSampling:
    def test_nonnegative_at_fixed_point(self, converged):
        state, _ = converged
        val = fooc_sample_min(state.U, state.grad, 200, np.random.default_rng(9))
        assert val >= -1e-6

    def test_no_draw_is_none(self):
        # a minimum over no samples: none drawn, or every draw V = U (no coils)
        U = ControlPath(np.zeros((3, 1)), -1.0, 1.0, 0.5)
        assert fooc_sample_min(U, np.zeros((3, 1)), 0, np.random.default_rng(0)) is None
        U = ControlPath(np.zeros((3, 0)), -1.0, 1.0, 0.5)
        assert fooc_sample_min(U, np.zeros((3, 0)), 5, np.random.default_rng(0)) is None

    def test_needs_finite_bounds(self):
        U = ControlPath(np.zeros((3, 1)), -np.inf, np.inf, 0.5)
        with pytest.raises(ValueError, match="finite box"):
            fooc_sample_min(U, np.zeros((3, 1)), 5, np.random.default_rng(0))

    def test_needs_a_finite_box_width(self):
        # finite bounds whose width upper - lower overflows
        U = ControlPath(np.zeros((3, 1)), -1e308, 1e308, 0.5)
        with pytest.raises(ValueError, match="finite box"):
            fooc_sample_min(U, np.zeros((3, 1)), 5, np.random.default_rng(0))
