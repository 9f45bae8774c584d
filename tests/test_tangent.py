import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from llbopt.certify import space_time_norms
from llbopt.cli import smooth_directions
from llbopt.coils import CoilSet, ControlPath, synthesize_values, uniform_coil
from llbopt.grid import Grid, Trajectory, VectorField, cross, laplacian_values
from llbopt.llb import BlowUpError, SimConfig, implicit_solve, simulate
from llbopt.tangent import (
    LinearizationPoint,
    solve_tangent,
    taylor_remainder_order,
)

from conftest import cosine_initial, grids, stencil_form_bound, two_gaussian_coils


def zero_point(grid, K, dt, coils):
    """Linearization around the identically zero trajectory and control."""
    base = Trajectory(grid, dt, np.zeros((K + 1,) + grid.shape + (3,)))
    baseU = ControlPath.zeros(K, coils.n_coils, dt)
    return LinearizationPoint(base, baseU, coils)


def generic_point(n=32, dt=2e-3, T=0.25):
    grid = Grid((n,), (1.0,))
    cfg = SimConfig(T=T, dt=dt)
    coils = two_gaussian_coils(grid)
    U = ControlPath.constant([0.4, -0.3], cfg.n_steps, dt)
    traj = simulate(cosine_initial(grid), U, coils, cfg)
    return LinearizationPoint(traj, U, coils), cfg


def solve_tangent_reference(point, dU, stencil=False):
    """The tangent sweep written out: from z(0) = 0, each step solves
    (I - dt lap_h) z_{j+1} = rhs_j = z_j + dt (z x (lap m + u) + m x (lap z + du)
    - 2 (m.z) m - (1+|m|^2) z + du), the terms summed in the order
    :func:`solve_tangent` sums them, with lap z the stencil at every step
    (``stencil``) or at step 0 only and (z_j - rhs_{j-1}) / dt, read off the
    previous solve, after it."""
    grid, dt, K = point.grid, point.dt, point.n_steps
    dvals = point.direction_values(dU)
    out = np.zeros(dvals.shape[:-2] + (K + 1,) + grid.shape + (3,))
    frames = np.moveaxis(out, -grid.dim - 2, 0)
    directions = np.moveaxis(dvals, -2, 0)
    rhs = None
    for j in range(K):
        m, z = point.base_traj.frames[j], frames[j]
        lap_z = laplacian_values(grid, z) if stencil or j == 0 else (z - rhs) / dt
        u = synthesize_values(point.base_control.intensities[j], point.coils)
        du = synthesize_values(directions[j], point.coils)
        mag_sq = np.sum(m * m, axis=-1, keepdims=True)
        m_dot_z = np.sum(m * z, axis=-1, keepdims=True)
        rhs = z + dt * (cross(z, laplacian_values(grid, m) + u) + cross(m, lap_z + du)
                        - 2.0 * m_dot_z * m - (1.0 + mag_sq) * z + du)
        frames[j + 1] = implicit_solve(grid, dt, rhs)
    return out


def two_dimensional_point():
    """A point around a 2D base state with unequal spacings."""
    grid = Grid((10, 6), (1.0, 0.7))
    K, dt = 20, 5e-3
    coils = two_gaussian_coils(grid)
    U = ControlPath(0.4 * np.random.default_rng(5).standard_normal((K + 1, 2)),
                    -np.inf, np.inf, dt)
    traj = simulate(cosine_initial(grid), U, coils, SimConfig(T=K * dt, dt=dt))
    return LinearizationPoint(traj, U, coils)


class TestSolveTangent:
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_matches_the_written_out_step_bit_for_bit(self, batch):
        point = two_dimensional_point()
        dU = np.random.default_rng(6).standard_normal(batch + (point.n_steps + 1, 2))
        assert np.array_equal(solve_tangent(point, dU).values,
                              solve_tangent_reference(point, dU))

    @settings(max_examples=25, deadline=None)
    @given(grids(), st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_within_rounding_of_the_stencil_form(self, g, B, K, seed):
        rng = np.random.default_rng(seed)
        dt = 1e-2
        coils = CoilSet.from_fields([VectorField(g, 0.5 + rng.random(g.shape + (3,)))])
        U = ControlPath(0.1 * rng.standard_normal((K + 1, 1)), -np.inf, np.inf, dt)
        m0 = VectorField(g, 0.1 * rng.standard_normal(g.shape + (3,)))
        point = LinearizationPoint(simulate(m0, U, coils, SimConfig(T=K * dt, dt=dt)), U, coils)
        dU = rng.standard_normal((B, K + 1, 1))
        z = solve_tangent(point, dU).values
        assert np.array_equal(z, solve_tangent_reference(point, dU))
        ref = solve_tangent_reference(point, dU, stencil=True)
        assert np.abs(z - ref).max() <= stencil_form_bound(g, K, dt, ref)

    def test_zero_increment(self):
        point, _ = generic_point(n=16, dt=5e-3)
        z = solve_tangent(point, np.zeros((point.n_steps + 1, 2)))
        assert np.all(z.values == 0)

    def test_constant_coefficient_closed_form(self):
        # around the zero state, z' + z = u0 gives z(t) = u0 (1 - e^{-t})
        grid = Grid((16,), (1.0,))
        dt, T = 1e-3, 1.0
        K = round(T / dt)
        coils = CoilSet.from_fields([uniform_coil(grid, 0)])
        point = zero_point(grid, K, dt, coils)
        z = solve_tangent(point, np.ones((K + 1, 1)))
        expected = 1.0 - np.exp(-1.0)
        assert z.values[-1][0, 0] == pytest.approx(expected, abs=1e-3)
        assert_allclose(z.values[-1][..., 1:], 0.0, atol=1e-14)

    def test_overflow_raises_blowup(self):
        # |m|^2 overflows to inf, so (1+|m|^2) z is nan already at z = 0
        grid = Grid((8,), (1.0,))
        K, dt = 5, 1e-2
        coils = CoilSet.from_fields([uniform_coil(grid, 0)])
        base = Trajectory(grid, dt, np.full((K + 1,) + grid.shape + (3,), 1e200))
        point = LinearizationPoint(base, ControlPath.zeros(K, 1, dt), coils)
        with np.errstate(all="ignore"), \
                pytest.raises(BlowUpError, match="tangent state became non-finite") as exc:
            solve_tangent(point, np.ones((K + 1, 1)))
        assert exc.value.time == pytest.approx(dt)

    def test_batched_matches_stacked(self):
        point, _ = generic_point(n=16, dt=5e-3)
        stack = np.random.default_rng(2).standard_normal((3, point.n_steps + 1, 2))
        z = solve_tangent(point, stack)
        assert z.values.shape == (3,) + point.base_traj.values.shape
        for b in range(3):
            ref = solve_tangent(point, stack[b])
            assert_allclose(z.values[b], ref.values, rtol=1e-13,
                            atol=1e-13 * np.abs(ref.values).max())

    @pytest.mark.parametrize("K, B", [(1, 2), (5, 6), (5, 2)],
                             ids=["B=K+1=2", "B=K+1=6", "B!=K+1"])
    def test_batched_base_matches_per_member_sweeps(self, K, B):
        # B base trajectories, their controls and one direction each: the
        # base frames are read along time, not along the batch axis
        grid, dt = Grid((10,), (1.0,)), 1e-2
        coils = two_gaussian_coils(grid)
        rng = np.random.default_rng(8)
        U = ControlPath(0.4 * rng.standard_normal((B, K + 1, 2)), -np.inf, np.inf, dt)
        traj = simulate(cosine_initial(grid), U, coils, SimConfig(T=K * dt, dt=dt))
        dU = rng.standard_normal((B, K + 1, 2))
        z = solve_tangent(LinearizationPoint(traj, U, coils), dU).values
        assert z.shape == traj.values.shape
        for b in range(B):
            member = LinearizationPoint(Trajectory(grid, dt, traj.values[b]),
                                        ControlPath(U.intensities[b], -np.inf, np.inf, dt),
                                        coils)
            assert np.array_equal(z[b], solve_tangent(member, dU[b]).values)

    def test_linearity(self):
        point, _ = generic_point(n=24, dt=5e-3)
        rng = np.random.default_rng(0)
        dU = rng.standard_normal((point.n_steps + 1, 2))
        z1 = solve_tangent(point, dU)
        z2 = solve_tangent(point, 2.0 * dU)
        scale = max(np.abs(z2.values).max(), 1.0)
        assert_allclose(z2.values, 2.0 * z1.values, atol=1e-12 * scale)

    def test_superposition(self):
        point, _ = generic_point(n=24, dt=5e-3)
        rng = np.random.default_rng(1)
        a = rng.standard_normal((point.n_steps + 1, 2))
        b = rng.standard_normal((point.n_steps + 1, 2))
        zab = solve_tangent(point, a + b)
        za = solve_tangent(point, a)
        zb = solve_tangent(point, b)
        scale = max(np.abs(zab.values).max(), 1.0)
        assert_allclose(zab.values, za.values + zb.values, atol=1e-11 * scale)


class TestTaylor:
    def test_remainder_order(self):
        point, cfg = generic_point()
        dU = smooth_directions(point.n_steps, point.dt,
                               [(0.8, 0.5, 0.0), (-0.6, 0.0, 0.4)])
        eps = [1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3]
        result = taylor_remainder_order(point, dU, eps, cfg=cfg)
        assert result.remainder_order >= 1.9
        assert result.first_difference_order == pytest.approx(1.0, abs=0.05)

    def test_zero_direction_zero_remainder(self):
        point, cfg = generic_point(n=16, dt=5e-3)
        dU = np.zeros((point.n_steps + 1, 2))
        result = taylor_remainder_order(point, dU, [1e-1, 1e-2], cfg=cfg)
        assert np.all(result.remainders == 0)

    def test_central_difference_consistency(self):
        # ||(m_{+eps} - m_{-eps}) / 2eps - z|| = O(eps^2)
        point, cfg = generic_point(n=24, dt=2e-3)
        dU = smooth_directions(point.n_steps, point.dt,
                               [(0.5, 0.3, 0.0), (-0.4, 0.0, 0.2)])
        z = solve_tangent(point, dU)
        m0 = point.base_traj.frame(0)
        errs = []
        epsilons = [1e-1, 3e-2, 1e-2]
        for eps in epsilons:
            tp = simulate(m0, point.base_control.with_intensities(
                point.base_control.intensities + eps * dU), point.coils, cfg)
            tm = simulate(m0, point.base_control.with_intensities(
                point.base_control.intensities - eps * dU), point.coils, cfg)
            diff = (tp.values - tm.values) / (2 * eps) - z.values
            errs.append(space_time_norms(point.grid, diff, point.dt)["linf_h1"])
        slope = np.polyfit(np.log(epsilons), np.log(errs), 1)[0]
        assert slope >= 1.9

    def test_directional_derivative_bounded(self):
        # ||z|| / ||dU|| stays bounded and stable over random unit directions
        point, _ = generic_point(n=24, dt=2e-3)
        rng = np.random.default_rng(2)
        from llbopt.coils import control_norm_rms
        ratios = []
        for _ in range(8):
            dU = rng.standard_normal((point.n_steps + 1, 2))
            dU /= control_norm_rms(dU, point.dt)
            z = solve_tangent(point, dU)
            ratios.append(space_time_norms(point.grid, z.frames, point.dt)["linf_h1"])
        ratios = np.asarray(ratios)
        assert np.all(np.isfinite(ratios))
        assert ratios.max() / ratios.min() < 50
