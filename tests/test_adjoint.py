import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from llbopt.adjoint import solve_adjoint, solve_costate_derivative, tracking_adjoint
from llbopt.coils import CoilSet, ControlPath, uniform_coil, synthesize_values
from llbopt.grid import Grid, Trajectory, VectorField, cross, laplacian_values, time_integral
from llbopt.llb import BlowUpError, SimConfig, implicit_solve, simulate
from llbopt.tangent import LinearizationPoint, solve_tangent

from conftest import (cosine_initial, frame_source, peak_rise, trajectory_bytes,
                      two_gaussian_coils)


def solve_adjoint_full_source(p, rhs, terminal):
    """The backward sweep in its earlier form: the whole source array
    ``rhs`` built up front and the coupling summed as one expression; the
    same operations in the same order as :func:`solve_adjoint`, whose
    Laplacian of c = phi x m is folded into the implicit solve."""
    grid, dt, K = p.grid, p.dt, p.n_steps
    cell = grid.dim + 1
    batch = np.broadcast_shapes(p.base_traj.values.shape[:-cell - 1],
                                p.base_control.intensities.shape[:-2],
                                rhs.shape[:-cell - 1], terminal.values.shape[:-cell])
    out = np.empty(batch + (K + 1,) + grid.shape + (3,))
    frames = np.moveaxis(out, -cell - 1, 0)
    sources = np.moveaxis(rhs, -cell - 1, 0)
    controls = np.moveaxis(p.base_control.intensities, -2, 0)
    frames[K] = phi = terminal.values
    for j in range(K - 1, -1, -1):
        m = p.base_traj.frames[j]
        lap_m = laplacian_values(grid, m)
        u = synthesize_values(controls[j], p.coils)
        mag_sq = np.sum(m * m, axis=-1, keepdims=True)
        m_dot_phi = np.sum(m * phi, axis=-1, keepdims=True)
        c = cross(phi, m)
        step = cross(lap_m + u, phi) - (1.0 + mag_sq) * phi - 2.0 * m_dot_phi * m
        step -= sources[j]
        step *= dt
        step += phi
        step += c
        frames[j] = phi = implicit_solve(grid, dt, step) - c
    return out


def costate_derivative_source(point, z, phi, dU):
    """The costate-derivative source in its earlier form: every frame of
    every member stored in one ``batch + (K+1,) + grid.shape + (3,)`` array."""
    grid, K = point.grid, point.n_steps
    dvals = point.direction_values(dU)
    rhs = np.empty(dvals.shape[:-2] + (K + 1,) + grid.shape + (3,))
    rhs_frames = np.moveaxis(rhs, -grid.dim - 2, 0)
    directions = np.moveaxis(dvals, -2, 0)
    for j in range(K + 1):
        m, zj, pj = point.base_traj.values[j], z.frames[j], phi.values[j]
        du = synthesize_values(directions[j], point.coils)
        m_dot_z = np.sum(m * zj, axis=-1, keepdims=True)
        z_dot_p = np.sum(zj * pj, axis=-1, keepdims=True)
        m_dot_p = np.sum(m * pj, axis=-1, keepdims=True)
        rhs_frames[j] = (-laplacian_values(grid, cross(pj, zj))
                         - cross(laplacian_values(grid, zj) + du, pj)
                         + 2.0 * m_dot_z * pj + 2.0 * z_dot_p * m + 2.0 * m_dot_p * zj
                         - zj)
    return rhs


def two_dimensional_base(batch=()):
    """A 2D base state (batched when ``batch`` is given), its control, the
    coils and random tracking targets."""
    grid = Grid((10, 6), (1.0, 0.7))
    K, dt = 20, 5e-3
    coils = two_gaussian_coils(grid)
    rng = np.random.default_rng(5)
    U = ControlPath(0.4 * rng.standard_normal(batch + (K + 1, 2)), -np.inf, np.inf, dt)
    traj = simulate(cosine_initial(grid), U, coils, SimConfig(T=K * dt, dt=dt))
    m_d = rng.standard_normal((K + 1,) + grid.shape + (3,))
    return grid, traj, U, coils, m_d, rng.standard_normal(grid.shape + (3,))


class TestStreamedSources:
    @pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
    def test_tracking_adjoint_matches_full_source_bit_for_bit(self, batch):
        grid, traj, U, coils, m_d, m_omega = two_dimensional_base(batch)
        phi = tracking_adjoint(traj, U, coils, m_d, m_omega)
        point = LinearizationPoint(traj, U, coils)
        rhs = -(traj.values - m_d)
        terminal = VectorField(grid, traj.frames[-1] - m_omega)
        assert np.array_equal(phi.values,
                              solve_adjoint(point, frame_source(grid, rhs), terminal).values)
        assert np.array_equal(phi.values, solve_adjoint_full_source(point, rhs, terminal))

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_costate_derivative_matches_full_source_bit_for_bit(self, batch):
        grid, traj, U, coils, m_d, m_omega = two_dimensional_base()
        point = LinearizationPoint(traj, U, coils)
        phi = tracking_adjoint(traj, U, coils, m_d, m_omega)
        dU = np.random.default_rng(6).standard_normal(batch + U.intensities.shape)
        z = solve_tangent(point, dU)
        phi_prime = solve_costate_derivative(point, z, phi, dU)
        rhs = costate_derivative_source(point, z, phi, dU)
        terminal = VectorField(grid, z.frames[-1].copy())
        assert np.array_equal(phi_prime.values,
                              solve_adjoint(point, frame_source(grid, rhs), terminal).values)
        assert np.array_equal(phi_prime.values,
                              solve_adjoint_full_source(point, rhs, terminal))


class TestStreamedMemory:
    def test_streamed_tracking_adjoint_peak(self):
        # 12^3 cells, K = 50, the stored base trajectory and targets made
        # beforehand and a consumer that keeps nothing: the sweep peaked at
        # 7.88 frames with three cross products a step, and reads 7.86 with two
        g = Grid((12, 12, 12), (1.0, 1.0, 1.0))
        cfg = SimConfig(T=0.05, dt=1e-3)
        coils = two_gaussian_coils(g)
        U = ControlPath.constant([0.4, -0.3], cfg.n_steps, cfg.dt)
        traj = simulate(cosine_initial(g), U, coils, cfg)
        m_d = 0.5 * traj.values
        # a first sweep fills the solver caches, which would otherwise count
        tracking_adjoint(traj, U, coils, m_d, m_d[-1], consume=lambda j, phi: None)
        kept, peak = peak_rise(tracking_adjoint, traj, U, coils, m_d, m_d[-1],
                               consume=lambda j, phi: None)
        assert kept is None
        assert peak < 8.1 * trajectory_bytes(g, 0)


def zero_base(grid, K, dt, coils):
    traj = Trajectory(grid, dt, np.zeros((K + 1,) + grid.shape + (3,)))
    U = ControlPath.zeros(K, coils.n_coils, dt)
    return traj, U


class TestSolveAdjoint:
    def test_homogeneous_is_zero(self):
        grid = Grid((12,), (1.0,))
        K, dt = 40, 5e-3
        coils = two_gaussian_coils(grid)
        cfg = SimConfig(T=K * dt, dt=dt)
        U = ControlPath.constant([0.3, -0.2], K, dt)
        traj = simulate(cosine_initial(grid), U, coils, cfg)
        point = LinearizationPoint(traj, U, coils)
        phi = solve_adjoint(point, lambda j: 0.0, VectorField.zero(grid))
        assert np.all(phi.values == 0)

    def test_constant_coefficient_closed_form(self):
        # around the zero state with m_d = e1: phi(t) = (e^{t-T} - 1) e1
        grid = Grid((12,), (1.0,))
        dt, T = 1e-3, 1.0
        K = round(T / dt)
        coils = CoilSet.from_fields([uniform_coil(grid, 0)])
        traj, U = zero_base(grid, K, dt, coils)
        m_d = np.broadcast_to(np.array([1.0, 0.0, 0.0]),
                              traj.values.shape).copy()
        phi = tracking_adjoint(traj, U, coils, m_d, np.zeros(grid.shape + (3,)))
        expected = np.exp(-1.0) - 1.0
        assert phi.values[0][0, 0] == pytest.approx(expected, abs=1e-3)
        assert_allclose(phi.values[0][..., 1:], 0.0, atol=1e-14)

    def test_linear_in_data(self):
        grid = Grid((16,), (1.0,))
        K, dt = 50, 4e-3
        coils = two_gaussian_coils(grid)
        cfg = SimConfig(T=K * dt, dt=dt)
        U = ControlPath.constant([0.4, -0.3], K, dt)
        traj = simulate(cosine_initial(grid), U, coils, cfg)
        rng = np.random.default_rng(0)
        g1 = rng.standard_normal(traj.values.shape)
        g2 = rng.standard_normal(traj.values.shape)
        p1 = rng.standard_normal(grid.shape + (3,))
        p2 = rng.standard_normal(grid.shape + (3,))
        point = LinearizationPoint(traj, U, coils)
        phi_sum = solve_adjoint(point, lambda j: g1[j] + g2[j], VectorField(grid, p1 + p2))
        phi_1 = solve_adjoint(point, lambda j: g1[j], VectorField(grid, p1))
        phi_2 = solve_adjoint(point, lambda j: g2[j], VectorField(grid, p2))
        scale = max(np.abs(phi_sum.values).max(), 1.0)
        assert_allclose(phi_sum.values, phi_1.values + phi_2.values,
                        atol=1e-11 * scale)

    def test_overflow_raises_blowup(self):
        # |m|^2 overflows to inf, so the first backward step is non-finite
        grid = Grid((8,), (1.0,))
        K, dt = 5, 1e-2
        coils = CoilSet.from_fields([uniform_coil(grid, 0)])
        traj = Trajectory(grid, dt, np.full((K + 1,) + grid.shape + (3,), 1e200))
        U = ControlPath.zeros(K, 1, dt)
        point = LinearizationPoint(traj, U, coils)
        with np.errstate(all="ignore"), \
                pytest.raises(BlowUpError, match="costate became non-finite") as exc:
            solve_adjoint(point, lambda j: 0.0, VectorField.constant(grid, (1.0, 0.0, 0.0)))
        assert exc.value.time == pytest.approx((K - 1) * dt)

    def test_batched_matches_stacked(self):
        # batched base trajectories and controls, as the Lipschitz pairs use
        grid = Grid((12,), (1.0,))
        K, dt = 30, 5e-3
        coils = two_gaussian_coils(grid)
        cfg = SimConfig(T=K * dt, dt=dt)
        stack = np.random.default_rng(3).standard_normal((2, 2, K + 1, 2))
        paths = ControlPath(stack, -np.inf, np.inf, dt)
        trajs = simulate(cosine_initial(grid), paths, coils, cfg)
        m_d = np.zeros((K + 1,) + grid.shape + (3,))
        m_omega = np.full(grid.shape + (3,), 0.1)
        phi = tracking_adjoint(trajs, paths, coils, m_d, m_omega)
        assert phi.values.shape == trajs.values.shape
        for idx in np.ndindex(2, 2):
            U = ControlPath(stack[idx], -np.inf, np.inf, dt)
            traj = simulate(cosine_initial(grid), U, coils, cfg)
            ref = tracking_adjoint(traj, U, coils, m_d, m_omega)
            assert_allclose(phi.values[idx], ref.values, rtol=1e-13,
                            atol=1e-13 * np.abs(ref.values).max())

    def test_control_on_another_time_grid_is_rejected(self):
        # same K, twice the step: the costate would pair frames of
        # different times
        grid = Grid((8,), (1.0,))
        coils = CoilSet.from_fields([uniform_coil(grid, 0)])
        traj, U = zero_base(grid, 10, 0.01, coils)
        coarse = ControlPath.zeros(10, 1, 0.02)
        m_d = np.zeros_like(traj.values)
        with pytest.raises(ValueError, match="disagree on dt"):
            tracking_adjoint(traj, coarse, coils, m_d, m_d[-1])
        assert np.all(tracking_adjoint(traj, U, coils, m_d, m_d[-1]).values == 0)

    def test_terminal_on_another_grid_is_rejected(self):
        grid = Grid((8,), (1.0,))
        coils = CoilSet.from_fields([uniform_coil(grid, 0)])
        point = LinearizationPoint(*zero_base(grid, 10, 0.01, coils), coils)
        with pytest.raises(ValueError, match="terminal field grid"):
            solve_adjoint(point, lambda j: 0.0, VectorField.zero(Grid((8,), (2.0,))))


class TestDuality:
    def duality_gap(self, dt, T=0.25, n=64):
        """Relative defect of the tangent/adjoint pairing identity."""
        grid = Grid((n,), (1.0,))
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

    def test_identity_holds_and_refines(self):
        gap = self.duality_gap(1e-3)
        assert gap <= 1e-2
        gap_fine = self.duality_gap(2.5e-4)
        assert gap / gap_fine >= 4.0


class TestCostateDerivative:
    def test_zero_direction(self):
        grid = Grid((12,), (1.0,))
        K, dt = 30, 5e-3
        coils = two_gaussian_coils(grid)
        cfg = SimConfig(T=K * dt, dt=dt)
        U = ControlPath.constant([0.3, 0.1], K, dt)
        traj = simulate(cosine_initial(grid), U, coils, cfg)
        point = LinearizationPoint(traj, U, coils)
        dU = np.zeros((K + 1, 2))
        z = solve_tangent(point, dU)
        phi = tracking_adjoint(traj, U, coils, traj.values, traj.values[-1])
        phi_prime = solve_costate_derivative(point, z, phi, dU)
        assert np.all(phi_prime.values == 0)

    def test_constant_coefficient_closed_form(self):
        # zero base and zero costate: E phi' = -z, phi'(T) = z(T); for a
        # constant unit coil this integrates to
        # phi'(t) = u0 (1 - e^{-t}/2 - e^{t-2T}/2)
        grid = Grid((12,), (1.0,))
        dt, T, u0 = 1e-3, 1.0, 1.0
        K = round(T / dt)
        coils = CoilSet.from_fields([uniform_coil(grid, 0)])
        traj, U = zero_base(grid, K, dt, coils)
        point = LinearizationPoint(traj, U, coils)
        dU = np.full((K + 1, 1), u0)
        z = solve_tangent(point, dU)
        phi = Trajectory(grid, dt, np.zeros_like(traj.values))
        phi_prime = solve_costate_derivative(point, z, phi, dU)
        t = 0.0
        expected0 = u0 * (1.0 - 0.5 * np.exp(-t) - 0.5 * np.exp(t - 2 * T))
        assert phi_prime.values[0][0, 0] == pytest.approx(expected0, abs=1e-3)
        mid = K // 2
        tm = mid * dt
        expected_mid = u0 * (1.0 - 0.5 * np.exp(-tm) - 0.5 * np.exp(tm - 2 * T))
        assert phi_prime.values[mid][0, 0] == pytest.approx(expected_mid, abs=1e-3)

    def costate_derivative_inputs(self):
        """A point around a zero base on a 1D grid, a tangent and a costate."""
        grid = Grid((12,), (1.0,))
        K, dt = 10, 0.01
        coils = CoilSet.from_fields([uniform_coil(grid, 0)])
        point = LinearizationPoint(*zero_base(grid, K, dt, coils), coils)
        dU = np.ones((K + 1, 1))
        phi = Trajectory(grid, dt, np.zeros_like(point.base_traj.values))
        return point, solve_tangent(point, dU), phi, dU

    def test_tangent_on_another_dt_is_rejected(self):
        # same K, twice the step: phi' would pair frames of different times
        point, z, phi, dU = self.costate_derivative_inputs()
        coarse = Trajectory(z.grid, 2 * z.dt, z.values)
        with pytest.raises(ValueError, match="tangent and base trajectory disagree on dt"):
            solve_costate_derivative(point, coarse, phi, dU)
        assert np.all(np.isfinite(solve_costate_derivative(point, z, phi, dU).values))

    @pytest.mark.parametrize("z_batch, d_batch", [((3,), ()), ((), (3,))])
    def test_tangent_and_direction_batches_must_match(self, z_batch, d_batch):
        # 3 tangents with 1 direction, and 1 tangent with 3 directions
        point, z, phi, dU = self.costate_derivative_inputs()
        stacked = Trajectory(z.grid, z.dt, np.broadcast_to(z.values, z_batch + z.values.shape))
        message = f"tangent and direction disagree on batch: {z_batch} and {d_batch}"
        with pytest.raises(ValueError, match=re.escape(message)):
            solve_costate_derivative(point, stacked, phi, np.broadcast_to(dU, d_batch + dU.shape))

    def test_costate_on_another_grid_is_rejected(self):
        # same shape, three times the length
        point, z, phi, dU = self.costate_derivative_inputs()
        stretched = Trajectory(Grid((12,), (3.0,)), phi.dt, phi.values)
        with pytest.raises(ValueError, match="costate and base trajectory disagree on the grid"):
            solve_costate_derivative(point, z, stretched, dU)

    def test_linear_in_direction(self):
        grid = Grid((16,), (1.0,))
        K, dt = 40, 5e-3
        coils = two_gaussian_coils(grid)
        cfg = SimConfig(T=K * dt, dt=dt)
        U = ControlPath.constant([0.4, -0.2], K, dt)
        traj = simulate(cosine_initial(grid), U, coils, cfg)
        point = LinearizationPoint(traj, U, coils)
        md = np.zeros_like(traj.values)
        phi = tracking_adjoint(traj, U, coils, md, np.zeros(grid.shape + (3,)))
        rng = np.random.default_rng(1)
        dU = rng.standard_normal((K + 1, 2))
        z1 = solve_tangent(point, dU)
        p1 = solve_costate_derivative(point, z1, phi, dU)
        z2 = solve_tangent(point, 3.0 * dU)
        p2 = solve_costate_derivative(point, z2, phi, 3.0 * dU)
        scale = max(np.abs(p2.values).max(), 1.0)
        assert_allclose(p2.values, 3.0 * p1.values, atol=1e-11 * scale)

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_streamed_matches_a_stored_sweep_bit_for_bit(self, batch):
        # the consumer gets each frame as the stored sweep returns it, K down to 0
        grid = Grid((16,), (1.0,))
        K, dt = 40, 5e-3
        coils = two_gaussian_coils(grid)
        U = ControlPath.constant([0.4, -0.2], K, dt)
        traj = simulate(cosine_initial(grid), U, coils, SimConfig(T=K * dt, dt=dt))
        point = LinearizationPoint(traj, U, coils)
        phi = tracking_adjoint(traj, U, coils, np.zeros_like(traj.values),
                               np.zeros(grid.shape + (3,)))
        dU = np.random.default_rng(5).standard_normal(batch + (K + 1, 2))
        z = solve_tangent(point, dU)
        stored = solve_costate_derivative(point, z, phi, dU)
        seen = []
        assert solve_costate_derivative(point, z, phi, dU,
                                        consume=lambda j, f: seen.append((j, f.copy()))) is None
        assert [j for j, _ in seen] == list(range(K, -1, -1))
        for j, frame in seen:
            assert np.array_equal(frame, stored.frames[j])

    def test_batched_matches_stacked(self):
        grid = Grid((16,), (1.0,))
        K, dt = 40, 5e-3
        coils = two_gaussian_coils(grid)
        cfg = SimConfig(T=K * dt, dt=dt)
        U = ControlPath.constant([0.4, -0.2], K, dt)
        traj = simulate(cosine_initial(grid), U, coils, cfg)
        point = LinearizationPoint(traj, U, coils)
        phi = tracking_adjoint(traj, U, coils, np.zeros_like(traj.values),
                               np.zeros(grid.shape + (3,)))
        stack = np.random.default_rng(4).standard_normal((3, K + 1, 2))
        zs = solve_tangent(point, stack)
        primes = solve_costate_derivative(point, zs, phi, stack)
        assert primes.values.shape == (3,) + traj.values.shape
        for b in range(3):
            ref = solve_costate_derivative(point, solve_tangent(point, stack[b]),
                                           phi, stack[b])
            assert_allclose(primes.values[b], ref.values, rtol=1e-13,
                            atol=1e-13 * np.abs(ref.values).max())
