import numpy as np
import pytest
from numpy.testing import assert_allclose

from llbopt.certify import space_time_norms
from llbopt.coils import CoilSet, ControlPath, uniform_coil
from llbopt.grid import Grid, Trajectory
from llbopt.llb import BlowUpError, SimConfig, simulate
from llbopt.tangent import (
    LinearizationPoint,
    solve_tangent,
    taylor_remainder_order,
)

from conftest import cosine_initial, smooth_time_profiles, two_gaussian_coils


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


class TestSolveTangent:
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
        dU = smooth_time_profiles(point.n_steps, point.dt,
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
        dU = smooth_time_profiles(point.n_steps, point.dt,
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
