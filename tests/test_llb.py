import contextlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import llbopt.llb
from llbopt.adjoint import solve_adjoint, tracking_adjoint
from llbopt.coils import CoilSet, ControlPath, synthesize_values, uniform_coil
from llbopt.grid import Grid, VectorField, cross, dot, laplacian_values
from llbopt.llb import (
    BlowUpError,
    SimConfig,
    blowup_times,
    control_adjoint,
    control_adjoint_derivative,
    departure_laplacian,
    energy_ledger,
    implicit_solve,
    reaction,
    reaction_adjoint,
    reaction_adjoint_derivative,
    reaction_tangent,
    simulate,
    simulate_galerkin,
    step_values,
)
from llbopt.tangent import LinearizationPoint, solve_tangent

from conftest import (batch_shapes, cosine_initial, frame_source, grids, peak_rise,
                      stencil_form_bound, trajectory_bytes, two_gaussian_coils)


def radial_exact(t):
    """|m(t)| for spatially constant data m0 = e1, u = 0."""
    return np.sqrt(np.exp(-2 * t) / (2 - np.exp(-2 * t)))


def cosine_mode(g, k):
    """The cosine mode prod_ax cos(k_ax pi x_ax / L_ax) at the cell centers
    of ``g``, and its eigenvalue sum_ax (2 - 2 cos(pi k_ax / n_ax)) / h_ax^2
    of -lap_h."""
    mode, lam = np.ones(g.shape), 0.0
    for x, kk, L, n, h in zip(g.meshgrid(), k, g.lengths, g.cells, g.spacing):
        mode = mode * np.cos(kk * np.pi * x / L)
        lam += (2.0 - 2.0 * np.cos(np.pi * kk / n)) / h**2
    return mode, lam


# unequal cells and lengths per axis
BASIS_GRIDS = [Grid((5,), (1.3,)), Grid((4, 3), (1.0, 2.5)), Grid((3, 4, 2), (0.7, 1.3, 2.0))]
time_steps = st.floats(1e-5, 1.0)
solve_settings = settings(max_examples=60, deadline=None)


class TestImplicitSolve:
    @solve_settings
    @given(grids(), time_steps, st.integers(0, 2**32 - 1))
    def test_residual(self, g, dt, seed):
        rhs = np.random.default_rng(seed).standard_normal(g.shape + (3,))
        x = implicit_solve(g, dt, rhs)
        res = rhs - (x - dt * laplacian_values(g, x))
        assert np.linalg.norm(res) <= 1e-11 * np.linalg.norm(rhs)

    @solve_settings
    @given(grids(), time_steps, st.integers(0, 2**32 - 1))
    def test_matches_scipy_dct_reference(self, g, dt, seed):
        from scipy.fft import dctn, idctn

        rhs = np.random.default_rng(seed).standard_normal(g.shape + (3,))
        denom = np.ones(g.shape)
        for ax, (n, h) in enumerate(zip(g.cells, g.spacing)):
            lam = (2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)) / h**2
            denom = denom + dt * np.expand_dims(
                lam, tuple(a for a in range(g.dim) if a != ax))
        axes = tuple(range(g.dim))
        ref = idctn(dctn(rhs, type=2, axes=axes, norm="ortho") / denom[..., None],
                    type=2, axes=axes, norm="ortho")
        x = implicit_solve(g, dt, rhs)
        assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)

    @solve_settings
    @given(grids(), time_steps, batch_shapes, st.integers(0, 2**32 - 1))
    def test_folds_a_laplacian_of_the_right_hand_side(self, g, dt, batch, seed):
        # S(phi + dt*(lap c + r)) = S(phi + dt*r + c) - c, S = (I - dt*lap)^-1;
        # the rounding of either side is that of its largest term
        phi, c, r = np.random.default_rng(seed).standard_normal((3,) + batch + g.shape + (3,))
        lap_c = laplacian_values(g, c)
        direct = implicit_solve(g, dt, phi + dt * (lap_c + r))
        folded = implicit_solve(g, dt, phi + dt * r + c) - c
        scale = sum(np.linalg.norm(v) for v in (phi, dt * r, c, dt * lap_c))
        assert np.linalg.norm(folded - direct) <= 1e-14 * scale

    @solve_settings
    @given(grids(), time_steps, batch_shapes, st.integers(0, 2**32 - 1))
    def test_the_solution_laplacian_is_read_off_the_solve(self, g, dt, batch, seed):
        # x = S(rhs) has lap x = (x - rhs)/dt; the solve's rounding, at most
        # 2 * sum_ax n_ax * eps * max|rhs| (a forward and an inverse transform
        # sum n_ax terms per axis), shows through 1/dt on the right and the
        # stencil's sum_ax 4/h^2 on the left
        rhs = np.random.default_rng(seed).standard_normal(batch + g.shape + (3,))
        x = implicit_solve(g, dt, rhs)
        scale = np.abs(rhs).max() * (1.0 / dt + sum(4.0 / h**2 for h in g.spacing))
        bound = 2 * sum(g.cells) * np.finfo(float).eps * scale
        assert np.abs(laplacian_values(g, x) - (x - rhs) / dt).max() <= bound

    @solve_settings
    @given(grids(), time_steps, batch_shapes, st.integers(0, 2**32 - 1))
    def test_departure_laplacian_is_formed_in_the_carried_rhs(self, g, dt, batch, seed):
        rng = np.random.default_rng(seed)
        x, rhs = rng.standard_normal((2,) + batch + g.shape + (3,))
        if batch:  # a NaN-filled member stays NaN
            x[(0,) * len(batch)] = np.nan
        expected = (x - rhs) / dt
        lap = departure_laplacian(g, dt, x, rhs)
        assert lap is rhs
        assert np.array_equal(lap, expected, equal_nan=True)
        assert np.isnan(lap).any() == bool(batch)
        # the first step of a sweep has no solve behind it: the stencil
        assert np.array_equal(departure_laplacian(g, dt, x, None), laplacian_values(g, x),
                              equal_nan=True)

    @solve_settings
    @given(grids(), time_steps)
    def test_zero_rhs(self, g, dt):
        x = implicit_solve(g, dt, np.zeros(g.shape + (3,)))
        assert x.shape == g.shape + (3,)
        assert np.all(x == 0)

    @solve_settings
    @given(grids(), time_steps, st.data())
    def test_cosine_mode_is_scaled(self, g, dt, data):
        # the mode is an eigenvector of (I - dt*lap_h), eigenvalue 1 + dt*lam
        k = tuple(data.draw(st.integers(0, n - 1)) for n in g.cells)
        mode, lam = cosine_mode(g, k)
        rhs = mode[..., None] * np.array([1.0, -2.0, 0.5])
        x = implicit_solve(g, dt, rhs)
        assert np.linalg.norm(x - rhs / (1.0 + dt * lam)) <= 1e-14 * np.linalg.norm(rhs)


    @solve_settings
    @given(grids(), time_steps, batch_shapes, st.integers(0, 2**32 - 1))
    def test_batched_matches_members(self, g, dt, batch, seed):
        rhs = np.random.default_rng(seed).standard_normal(batch + g.shape + (3,))
        x = implicit_solve(g, dt, rhs)
        assert x.shape == rhs.shape
        for idx in np.ndindex(batch):
            ref = implicit_solve(g, dt, rhs[idx])
            assert np.linalg.norm(x[idx] - ref) <= 1e-13 * np.linalg.norm(ref)


def pairing(g, a, b):
    """Per batch member, the cell-sum pairing sum_x w <a, b> of fields with
    one leading batch axis."""
    return g.cell_volume * np.sum(a * b, axis=tuple(range(1, a.ndim)))


def pairing_scale(g, *pairs):
    """The Cauchy-Schwarz bound w sum ||a|| ||b|| over ``pairs``: the size
    the rounding of a sum of pairings is measured against."""
    return g.cell_volume * sum(np.linalg.norm(a) * np.linalg.norm(b) for a, b in pairs)


# the central differences below are taken at this step; each identity is
# exact at any step, so only rounding is left
FD_STEP = 0.1
reaction_settings = settings(max_examples=40, deadline=None)


class TestReactionDerivatives:
    """The derivatives of llb.reaction against the reaction and each other,
    on 1-3D grids with unequal spacings and a batch axis of 2."""

    @staticmethod
    def fields(g, seed):
        """m, z, u, du, phi and a sixth field, standard normal."""
        return np.random.default_rng(seed).standard_normal((6, 2) + g.shape + (3,))

    @reaction_settings
    @given(grids(), st.integers(0, 2**32 - 1))
    def test_tangent_is_the_central_difference_of_the_reaction(self, g, seed):
        # R is cubic in m: R(m+ez, u+e du) - R(m-ez, u-e du)
        # = 2e dR[z, du] - 2e^3 |z|^2 z
        m, z, u, du, _, _ = self.fields(g, seed)
        e = FD_STEP
        plus, minus = (reaction(mm, laplacian_values(g, mm), uu, dot(mm, mm))
                       for mm, uu in ((m + e * z, u + e * du), (m - e * z, u - e * du)))
        tangent = 2 * e * reaction_tangent(m, laplacian_values(g, m), u,
                                           z, laplacian_values(g, z), du)
        cubic = 2 * e**3 * dot(z, z) * z
        scale = sum(np.linalg.norm(v) for v in (plus, minus, tangent, cubic))
        assert np.linalg.norm(plus - minus - (tangent - cubic)) <= 1e-14 * scale

    @reaction_settings
    @given(grids(), st.integers(0, 2**32 - 1))
    def test_state_adjoint_is_the_transpose_of_the_tangent(self, g, seed):
        # sum w <d_mR z, phi> = sum w <z, lap_h c + r>
        m, z, u, _, phi, _ = self.fields(g, seed)
        lap_m = laplacian_values(g, m)
        d_m = reaction_tangent(m, lap_m, u, z, laplacian_values(g, z), np.zeros_like(z))
        c, r = reaction_adjoint(g, m, u, phi)
        adj = laplacian_values(g, c) + r
        gap = pairing(g, d_m, phi) - pairing(g, z, adj)
        assert np.max(np.abs(gap)) <= 1e-14 * pairing_scale(g, (d_m, phi), (z, adj))

    @reaction_settings
    @given(grids(), st.integers(0, 2**32 - 1))
    def test_control_adjoint_is_the_transpose_of_the_tangent(self, g, seed):
        # sum w <d_uR du, phi> = sum w <du, phi x m + phi>
        m, _, u, du, phi, _ = self.fields(g, seed)
        zero = np.zeros_like(m)
        d_u = reaction_tangent(m, laplacian_values(g, m), u, zero, zero, du)
        adj = control_adjoint(m, phi)
        gap = pairing(g, d_u, phi) - pairing(g, du, adj)
        assert np.max(np.abs(gap)) <= 1e-14 * pairing_scale(g, (d_u, phi), (du, adj))

    @reaction_settings
    @given(grids(), st.integers(0, 2**32 - 1))
    def test_second_order_source_is_the_derivative_of_the_tangent(self, g, seed):
        # dR[w, 0] is quadratic in m and linear in u, so its central
        # difference along (z, du) is d^2R[(z, du), (w, 0)] exactly; paired
        # with phi it is sum w <w, (d^2R[(z, du), .])^T phi>
        m, z, u, du, phi, w = self.fields(g, seed)
        e = FD_STEP
        lap_w = laplacian_values(g, w)
        plus, minus = (reaction_tangent(mm, laplacian_values(g, mm), uu, w, lap_w,
                                        np.zeros_like(w))
                       for mm, uu in ((m + e * z, u + e * du), (m - e * z, u - e * du)))
        central = (plus - minus) / (2 * e)
        adj = reaction_adjoint_derivative(g, m, phi, z, du)
        gap = pairing(g, central, phi) - pairing(g, w, adj)
        scale = pairing_scale(g, (plus / (2 * e), phi), (minus / (2 * e), phi), (w, adj))
        assert np.max(np.abs(gap)) <= 1e-14 * scale

    @reaction_settings
    @given(grids(), st.integers(0, 2**32 - 1))
    def test_control_adjoint_derivative_is_its_central_difference(self, g, seed):
        # phi x m + phi is bilinear in (m, phi): the central difference is exact
        m, z, _, _, phi, dphi = self.fields(g, seed)
        e = FD_STEP
        plus = control_adjoint(m + e * z, phi + e * dphi)
        minus = control_adjoint(m - e * z, phi - e * dphi)
        derivative = control_adjoint_derivative(m, phi, z, dphi)
        scale = sum(np.linalg.norm(v) for v in (plus / (2 * e), minus / (2 * e), derivative))
        assert np.linalg.norm((plus - minus) / (2 * e) - derivative) <= 1e-14 * scale


def abs_cross(a, b):
    """|a1||b2| + |a2||b1| and its cyclic shifts: the size of each term of
    the cross product a x b, which bounds the rounding of any evaluation."""
    a, b = np.abs(a), np.abs(b)
    nxt, prv = [1, 2, 0], [2, 0, 1]
    return a[..., nxt] * b[..., prv] + a[..., prv] * b[..., nxt]


# each one-product form and its two-product form round every term about
# six times between them: they agree to this many eps of the summed sizes
# of their terms, node by node and component by component
FORM_EPS = 8 * np.finfo(float).eps


def within_form_bound(new, old, *sizes):
    return np.all(np.abs(new - old) <= FORM_EPS * sum(sizes))


class TestOneProductForms:
    """Each reaction form takes two cross products that share a factor as
    one product of the summed other factors.  The two-product forms,
    written out here, agree with it to rounding, on 1-3D grids with unequal
    spacings and a batch axis of 2."""

    @reaction_settings
    @given(grids(), st.integers(0, 2**32 - 1))
    def test_reaction(self, g, seed):
        m, _, u, _, _, _ = TestReactionDerivatives.fields(g, seed)
        lap_m, mag_sq = laplacian_values(g, m), dot(m, m)
        damping = (1.0 + mag_sq) * m
        old = cross(m, lap_m) + cross(m, u) - damping + u
        new = reaction(m, lap_m, u, mag_sq)
        assert within_form_bound(new, old, abs_cross(m, np.abs(lap_m) + np.abs(u)),
                                 np.abs(damping), np.abs(u))

    @reaction_settings
    @given(grids(), st.integers(0, 2**32 - 1))
    def test_reaction_tangent(self, g, seed):
        m, z, u, du, _, _ = TestReactionDerivatives.fields(g, seed)
        lap_m, lap_z = laplacian_values(g, m), laplacian_values(g, z)
        coupling = 2.0 * dot(m, z) * m
        damping = (1.0 + dot(m, m)) * z
        old = (cross(z, lap_m) + cross(m, lap_z) + cross(z, u)
               - coupling - damping + du + cross(m, du))
        new = reaction_tangent(m, lap_m, u, z, lap_z, du)
        assert within_form_bound(new, old, abs_cross(z, np.abs(lap_m) + np.abs(u)),
                                 abs_cross(m, np.abs(lap_z) + np.abs(du)),
                                 np.abs(coupling), np.abs(damping), np.abs(du))

    @reaction_settings
    @given(grids(), st.integers(0, 2**32 - 1))
    def test_reaction_adjoint(self, g, seed):
        m, _, u, _, phi, _ = TestReactionDerivatives.fields(g, seed)
        lap_m = laplacian_values(g, m)
        damping = (1.0 + dot(m, m)) * phi
        coupling = 2.0 * dot(m, phi) * m
        old = cross(lap_m, phi) - cross(phi, u) - damping - coupling
        c, r = reaction_adjoint(g, m, u, phi)
        assert np.array_equal(c, cross(phi, m))
        assert within_form_bound(r, old, abs_cross(np.abs(lap_m) + np.abs(u), phi),
                                 np.abs(damping), np.abs(coupling))

    @reaction_settings
    @given(grids(), st.integers(0, 2**32 - 1))
    def test_reaction_adjoint_derivative(self, g, seed):
        m, z, _, du, phi, _ = TestReactionDerivatives.fields(g, seed)
        lap_z = laplacian_values(g, z)
        folded = laplacian_values(g, cross(phi, z))
        couplings = (2.0 * dot(m, z) * phi, 2.0 * dot(z, phi) * m, 2.0 * dot(m, phi) * z)
        old = folded + cross(lap_z, phi) - cross(phi, du)
        for term in couplings:
            old = old - term
        new = reaction_adjoint_derivative(g, m, phi, z, du)
        assert within_form_bound(new, old, np.abs(folded),
                                 abs_cross(np.abs(lap_z) + np.abs(du), phi),
                                 *(np.abs(term) for term in couplings))


def one_step(m, u, dt):
    """One forward step of ``m`` under ``u`` through :func:`step_values`."""
    g = Grid(m.shape[:-1], (1.0,) * (m.ndim - 1))
    mag_sq = np.sum(m * m, axis=-1, keepdims=True)
    return step_values(g, m, laplacian_values(g, m), u, dt, mag_sq)[0]


class TestStep:
    def test_zero_fixed_point(self):
        z = np.zeros((8, 3))
        assert np.all(one_step(z, z, 1e-3) == 0)

    def test_constant_damping(self):
        # constant m = e1, u = 0: one step gives exactly (1 - 2 dt) e1
        m = np.broadcast_to([1.0, 0.0, 0.0], (8, 8, 3))
        dt = 1e-3
        out = one_step(m, np.zeros_like(m), dt)
        assert_allclose(out[..., 0], 1.0 - 2 * dt, rtol=1e-11)
        assert_allclose(out[..., 1:], 0.0, atol=1e-13)

    def test_aligned_control_stays_on_axis(self):
        m = np.broadcast_to([1.0, 0.0, 0.0], (8, 3))
        u = np.broadcast_to([2.0, 0.0, 0.0], (8, 3))
        out = one_step(m, u, 1e-2)
        assert np.all(out[..., 1:] == 0)


class TestSimulate:
    def test_zero_everything(self):
        g = Grid((8,), (1.0,))
        cfg = SimConfig(T=0.1, dt=1e-2)
        traj = simulate(VectorField.zero(g), ControlPath.zeros(10, 0, 1e-2),
                        CoilSet.empty(g), cfg)
        assert np.all(traj.values == 0)

    def test_radial_ode_oracle(self):
        g = Grid((16,), (1.0,))
        cfg = SimConfig(T=0.5, dt=1e-4)
        traj = simulate(VectorField.constant(g, (1, 0, 0)),
                        ControlPath.zeros(cfg.n_steps, 0, cfg.dt),
                        CoilSet.empty(g), cfg)
        got = np.linalg.norm(traj.values[-1][0])
        assert got == pytest.approx(radial_exact(0.5), rel=1e-4)
        # direction is preserved
        assert traj.values[-1][0, 1] == 0 and traj.values[-1][0, 2] == 0

    def test_steady_state_under_aligned_control(self):
        # r' = -(1+r^2) r + 2 has the attracting root r = 1
        g = Grid((8,), (1.0,))
        cfg = SimConfig(T=10.0, dt=1e-3)
        coils = CoilSet.from_fields([uniform_coil(g, 0)])
        U = ControlPath.constant([2.0], cfg.n_steps, cfg.dt)
        traj = simulate(VectorField.constant(g, (0.5, 0, 0)), U, coils, cfg)
        err = np.abs(traj.values[-1] - np.array([1.0, 0.0, 0.0])).max()
        assert err <= 1e-3

    def test_temporal_self_convergence(self):
        g = Grid((32,), (1.0,))
        m0 = cosine_initial(g)
        coils = two_gaussian_coils(g)
        finals = []
        dts = [1e-2 / 2**k for k in range(5)]
        for dt in dts:
            cfg = SimConfig(T=0.5, dt=dt)
            U = ControlPath.constant([0.4, -0.3], cfg.n_steps, dt)
            finals.append(simulate(m0, U, coils, cfg).values[-1])
        w = g.cell_volume
        errs = [np.sqrt(w * np.sum((finals[k] - finals[k + 1]) ** 2))
                for k in range(4)]
        slope = np.polyfit(np.log(dts[:4]), np.log(errs), 1)[0]
        assert 0.9 <= slope <= 1.1

    def test_blowup_detected_with_time(self):
        g = Grid((8,), (1.0,))
        cfg = SimConfig(T=1.0, dt=1e-2)
        m0 = VectorField.constant(g, (2e3, 0, 0))
        with pytest.raises(BlowUpError) as err:
            with pytest.warns(RuntimeWarning, match="marginally resolved"):
                simulate(m0, ControlPath.zeros(100, 0, 1e-2), CoilSet.empty(g), cfg)
        assert err.value.time > 0

    def test_batched_matches_stacked(self):
        g = Grid((12,), (1.0,))
        cfg = SimConfig(T=0.2, dt=5e-3)
        K = cfg.n_steps
        coils = two_gaussian_coils(g)
        m0 = cosine_initial(g)
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((3, K + 1, 2))
        traj = simulate(m0, ControlPath(stack, -np.inf, np.inf, cfg.dt), coils, cfg)
        assert traj.values.shape == (3, K + 1) + g.shape + (3,)
        assert traj.n_steps == K
        for b in range(3):
            ref = simulate(m0, ControlPath(stack[b], -np.inf, np.inf, cfg.dt), coils, cfg)
            assert_allclose(traj.values[b], ref.values, rtol=1e-13, atol=0)
        assert np.all(np.isinf(blowup_times(traj)))

    def test_blowup_isolated_per_member(self):
        g = Grid((8,), (1.0,))
        cfg = SimConfig(T=0.2, dt=1e-2)
        K = cfg.n_steps
        coils = CoilSet.from_fields([uniform_coil(g, 0)])
        m0 = cosine_initial(g)
        stack = np.full((3, K + 1, 1), 0.3)
        stack[1] = 1e7
        with pytest.raises(BlowUpError) as err:
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.warns(RuntimeWarning, match="marginally resolved"):
                simulate(m0, ControlPath(stack[1], -np.inf, np.inf, cfg.dt), coils, cfg)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.warns(RuntimeWarning, match="marginally resolved"):
            traj = simulate(m0, ControlPath(stack, -np.inf, np.inf, cfg.dt), coils, cfg)
        times = blowup_times(traj)
        assert times[1] == err.value.time
        assert np.isinf(times[0]) and np.isinf(times[2])
        j = round(err.value.time / cfg.dt)
        assert np.all(np.isfinite(traj.values[1, :j]))
        assert np.all(np.isnan(traj.values[1, j:]))
        ref = simulate(m0, ControlPath(stack[0], -np.inf, np.inf, cfg.dt), coils, cfg)
        assert_allclose(traj.values[0], ref.values, rtol=1e-13, atol=0)
        assert_allclose(traj.values[2], ref.values, rtol=1e-13, atol=0)

    def test_dt_must_divide_T(self):
        # the last two overflow T / dt to inf, which has no step count
        for T, dt in ((1.0, 0.3), (1.0, 1e-320), (1e300, 1e-10)):
            with pytest.raises(ValueError, match="does not divide"):
                SimConfig(T=T, dt=dt)

    def test_control_dt_must_match_the_config(self):
        # the sweep steps by cfg.dt; a control on another step would be
        # read at the wrong times, and its energy weighed with its own dt
        g = Grid((8,), (1.0,))
        cfg = SimConfig(T=0.01, dt=1e-3)
        U = ControlPath.zeros(cfg.n_steps, 1, 5e-4)
        with pytest.raises(ValueError, match="disagree on dt"):
            simulate(VectorField.zero(g), U, CoilSet.from_fields([uniform_coil(g, 0)]), cfg)


@contextlib.contextmanager
def counting_solves(calls):
    """Count implicit solves through every llbopt module that imported
    ``implicit_solve``, as the bench's sweep self-check does."""
    original = llbopt.llb.implicit_solve

    def counted(*args):
        calls.append(1)
        return original(*args)

    sites = [m for name, m in list(sys.modules.items())
             if name.startswith("llbopt") and getattr(m, "implicit_solve", None) is original]
    for m in sites:
        m.implicit_solve = counted
    try:
        yield
    finally:
        for m in sites:
            m.implicit_solve = original


def random_sweep_inputs(g, K, seed):
    """A small unbatched base state, control and coil for the sweep tests."""
    rng = np.random.default_rng(seed)
    dt = 1e-2
    cfg = SimConfig(T=K * dt, dt=dt)
    coils = CoilSet.from_fields([VectorField(g, 0.5 + rng.random(g.shape + (3,)))])
    U = ControlPath(0.1 * rng.standard_normal((K + 1, 1)), -np.inf, np.inf, dt)
    m0 = VectorField(g, 0.1 * rng.standard_normal(g.shape + (3,)))
    return rng, cfg, coils, U, m0


sweep_settings = settings(max_examples=25, deadline=None)


class TestSweepSkeleton:
    """simulate, solve_tangent and solve_adjoint run on one march."""

    @sweep_settings
    @given(grids(), batch_shapes, st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_one_implicit_solve_per_step(self, g, batch, K, seed):
        rng, cfg, coils, U, m0 = random_sweep_inputs(g, K, seed)
        stack = ControlPath(0.1 * rng.standard_normal(batch + (K + 1, 1)),
                            -np.inf, np.inf, cfg.dt)
        base = simulate(m0, U, coils, cfg)
        point = LinearizationPoint(base, U, coils)
        source = frame_source(g, rng.standard_normal(batch + base.values.shape))
        terminal = VectorField(g, rng.standard_normal(batch + g.shape + (3,)))
        for sweep in (lambda: simulate(m0, stack, coils, cfg),
                      lambda: solve_tangent(point, stack.intensities),
                      lambda: solve_adjoint(point, source, terminal)):
            calls = []
            with counting_solves(calls):
                traj = sweep()
            assert len(calls) == K
            assert traj.values.shape == batch + (K + 1,) + g.shape + (3,)

    @sweep_settings
    @given(grids(), batch_shapes, st.integers(1, 4), st.data())
    def test_member_blowup_raises_at_the_unbatched_time(self, g, batch, K, data):
        rng, cfg, coils, U, m0 = random_sweep_inputs(g, K, data.draw(st.integers(0, 2**32 - 1)))
        member = tuple(data.draw(st.integers(0, n - 1)) for n in batch)
        j = data.draw(st.integers(0, K - 1))
        point = LinearizationPoint(simulate(m0, U, coils, cfg), U, coils)
        # an infinite direction at node j spoils the tangent from t_{j+1};
        # an infinite costate source at frame j spoils the costate at t_j
        directions = rng.standard_normal(batch + (K + 1, 1))
        directions[member + (j,)] = np.inf
        rhs = rng.standard_normal(batch + point.base_traj.values.shape)
        rhs[member + (j,)] = np.inf
        # the costate's batch is the terminal's; the source frames fill it
        sweeps = ((lambda d: solve_tangent(point, d), directions, j + 1),
                  (lambda r: solve_adjoint(point, frame_source(g, r), VectorField(
                      g, np.zeros(r.shape[:-g.dim - 2] + g.shape + (3,)))), rhs, j))
        for sweep, arg, arrival in sweeps:
            for a in (arg, arg[member]):
                with np.errstate(all="ignore"), pytest.raises(BlowUpError) as err:
                    sweep(a)
                assert err.value.time == arrival * cfg.dt


    @sweep_settings
    @given(grids(), batch_shapes, st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_consumer_gets_the_stored_frames_and_nothing_is_kept(self, g, batch, K, seed):
        rng, cfg, coils, U, m0 = random_sweep_inputs(g, K, seed)
        intensities = 0.1 * rng.standard_normal(batch + (K + 1, 1))
        if batch:  # one member blows up at its last step and is NaN-filled
            intensities[(0,) * len(batch) + (K - 1,)] = 1e12
        stack = ControlPath(intensities, -np.inf, np.inf, cfg.dt)
        got = []
        with np.errstate(all="ignore"):
            stored = simulate(m0, stack, coils, cfg)
            kept = simulate(m0, stack, coils, cfg,
                            consume=lambda j, m: got.append((j, m.copy())))
        assert kept is None
        assert [j for j, _ in got] == list(range(K + 1))
        for j, m in got:
            assert np.array_equal(m, stored.frames[j], equal_nan=True)
        assert np.isnan(got[-1][1]).any() == bool(batch)


class TestKernelCalls:
    """Cross products and implicit solves per step of each sweep.  A pair of
    products that share a factor is one product of the summed other
    factors, so a step makes as few as its reaction form needs."""

    @pytest.mark.parametrize("sweep, products", [("forward", 1), ("tangent", 2), ("costate", 2)])
    def test_per_step(self, monkeypatch, sweep, products):
        g, K = Grid((5, 4), (1.0, 0.7)), 4
        rng, cfg, coils, U, m0 = random_sweep_inputs(g, K, 7)
        base = simulate(m0, U, coils, cfg)
        point = LinearizationPoint(base, U, coils)
        stack = ControlPath(0.1 * rng.standard_normal((2, K + 1, 1)), -np.inf, np.inf, cfg.dt)
        m_d = rng.standard_normal(base.values.shape)
        run = {"forward": lambda: simulate(m0, stack, coils, cfg),
               "tangent": lambda: solve_tangent(point, stack.intensities),
               "costate": lambda: tracking_adjoint(base, U, coils, m_d, m_d[-1])}[sweep]
        crosses, solves = [], []
        original = llbopt.llb.cross

        def counted(a, b):
            crosses.append(1)
            return original(a, b)

        monkeypatch.setattr(llbopt.llb, "cross", counted)
        with counting_solves(solves):
            run()
        assert (len(crosses), len(solves)) == (products * K, K)


def simulate_reference(m0, U, coils, cfg, stencil):
    """The forward sweep written out: m_{j+1} = S(rhs_j), rhs_j = m_j + dt
    (m x (lap m + u) - (1+|m|^2) m + u), the terms summed in the order
    :func:`simulate` sums them, with lap m the stencil at every step
    (``stencil``) or at step 0 only and (m_j - rhs_{j-1}) / dt, read off
    the previous solve, after it."""
    g, dt, K = m0.grid, cfg.dt, cfg.n_steps
    batch = U.intensities.shape[:-2]
    out = np.empty(batch + (K + 1,) + g.shape + (3,))
    frames = np.moveaxis(out, -g.dim - 2, 0)
    frames[0] = m0.values
    intensities = np.moveaxis(U.intensities, -2, 0)
    rhs = None
    for j in range(K):
        m = frames[j]
        lap = laplacian_values(g, m) if stencil or j == 0 else (m - rhs) / dt
        u = synthesize_values(intensities[j], coils)
        mag_sq = np.sum(m * m, axis=-1, keepdims=True)
        rhs = m + dt * (cross(m, lap + u) - (1.0 + mag_sq) * m + u)
        frames[j + 1] = implicit_solve(g, dt, rhs)
    return out


class TestReadOffLaplacian:
    """The forward step reads lap_h m off the previous solve."""

    @sweep_settings
    @given(grids(), st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_simulate_matches_the_written_out_sweep(self, g, B, K, seed):
        # bit for bit the read-off form; within rounding of the stencil form
        rng, cfg, coils, _, m0 = random_sweep_inputs(g, K, seed)
        U = ControlPath(0.1 * rng.standard_normal((B, K + 1, 1)), -np.inf, np.inf, cfg.dt)
        traj = simulate(m0, U, coils, cfg)
        assert np.array_equal(traj.values, simulate_reference(m0, U, coils, cfg, stencil=False))
        ref = simulate_reference(m0, U, coils, cfg, stencil=True)
        assert np.abs(traj.values - ref).max() <= stencil_form_bound(g, K, cfg.dt, ref)

    def test_streamed_sweep_carries_no_extra_frame(self):
        # 12^3 cells, K = 50, a consumer that keeps nothing.  The stencil-form
        # sweep peaked at 7.40-7.43 frames, in step 0's stencil (numpy's fixed
        # 192 KiB ufunc buffer is 4.7 of them); a carried right-hand side
        # turned into the Laplacian in a fresh frame, not in place, peaks
        # at 8.4 frames.  With one cross product a step, |m|^2 spread over
        # the components and the Laplacian taken before it, the sweep peaks
        # at 7.07 frames, in the implicit solve; holding the forward
        # transform's result through the inverse one peaks at 8.1
        g = Grid((12, 12, 12), (1.0, 1.0, 1.0))
        cfg = SimConfig(T=0.05, dt=1e-3)
        coils = two_gaussian_coils(g)
        U = ControlPath.constant([0.4, -0.3], cfg.n_steps, cfg.dt)
        m0 = cosine_initial(g)
        # a first sweep fills the solver caches, which would otherwise count
        simulate(m0, U, coils, cfg, consume=lambda j, m: None)
        kept, peak = peak_rise(simulate, m0, U, coils, cfg, consume=lambda j, m: None)
        assert kept is None
        assert peak < 7.6 * trajectory_bytes(g, 0)


class TestEnergyLedger:
    def test_zero_trajectory(self):
        g = Grid((8,), (1.0,))
        cfg = SimConfig(T=0.1, dt=1e-2)
        U = ControlPath.zeros(10, 0, 1e-2)
        traj = simulate(VectorField.zero(g), U, CoilSet.empty(g), cfg)
        led = energy_ledger(traj, U, CoilSet.empty(g))
        for key in ("l2_sq", "grad_sq", "l4_quart", "u_sq", "defect"):
            assert np.all(led[key] == 0)

    def test_uncontrolled_decay_monotone(self):
        g = Grid((32,), (1.0,))
        cfg = SimConfig(T=0.5, dt=1e-3)
        U = ControlPath.zeros(cfg.n_steps, 0, cfg.dt)
        traj = simulate(cosine_initial(g, 0.8), U, CoilSet.empty(g), cfg)
        led = energy_ledger(traj, U, CoilSet.empty(g))
        l2 = led["l2_sq"]
        scale = max(l2.max(), 1.0)
        assert np.all(np.diff(l2) <= 1e-10 * scale)

    def test_defect_bounded_on_resolved_run(self):
        g = Grid((64,), (1.0,))
        cfg = SimConfig(T=0.5, dt=1e-3)
        coils = two_gaussian_coils(g)
        U = ControlPath.constant([0.5, -0.4], cfg.n_steps, cfg.dt)
        m0 = cosine_initial(g, 0.6)
        traj = simulate(m0, U, coils, cfg)
        led = energy_ledger(traj, U, coils)
        bound = 0.02 * max(1.0, led["l2_sq"][0])
        assert np.all(led["defect"] <= bound)


class TestManufacturedSolution:
    def test_temporal_order_against_exact_solution(self):
        # m*(x,t) = a(t) cos(pi x) e1 with the discrete eigenvalue lam solves
        # the semi-discrete system exactly under the forcing
        # (a' - lam a + a) c + a^3 c^3 along e1, so the measured error is
        # purely temporal.  That forcing is a control: m x u = 0 along e1,
        # so two coils c e1 and c^3 e1 carry it with intensities
        # a' - lam a + a and a^3.
        grid = Grid((32,), (1.0,))
        h = grid.spacing[0]
        lam = 2.0 * (np.cos(np.pi * h) - 1.0) / h**2
        x = grid.axis_coords(0)
        c = np.cos(np.pi * x)
        coils = CoilSet.from_fields([VectorField(grid, np.stack([p, 0 * p, 0 * p], axis=-1))
                                     for p in (c, c**3)])

        def a(t):
            return 0.3 + 0.2 * np.exp(-t)

        def a_dot(t):
            return -0.2 * np.exp(-t)

        m0 = np.zeros(grid.shape + (3,))
        m0[..., 0] = a(0.0) * c
        T = 0.5
        errs, dts = [], [1e-2 / 2**k for k in range(4)]
        for dt in dts:
            cfg = SimConfig(T=T, dt=dt)
            t = np.arange(cfg.n_steps + 1) * dt
            U = ControlPath(np.stack([a_dot(t) - lam * a(t) + a(t), a(t) ** 3], axis=1),
                            -np.inf, np.inf, dt)
            traj = simulate(VectorField(grid, m0), U, coils, cfg)
            exact = a(T) * c
            errs.append(float(np.abs(traj.values[-1][..., 0] - exact).max()))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 0.9 <= slope <= 1.1


class TestCosineBasis:
    def test_analytic_modes_are_laplacian_eigenvectors(self):
        for g in BASIS_GRIDS:
            for k in np.ndindex(g.cells):
                mode, lam = cosine_mode(g, k)
                vals = mode[..., None] * np.array([1.0, -2.0, 0.5])
                lap = laplacian_values(g, vals)
                if not any(k):  # the constant mode is annihilated exactly
                    assert lam == 0.0 and np.all(lap == 0.0)
                assert np.linalg.norm(-lap - lam * vals) <= 1e-13 * (1.0 + lam) * np.linalg.norm(vals)

    @staticmethod
    def oracle_start(m0, n_modes):
        """Frame 0 of the oracle, the synthesis of the projection of m0."""
        g = m0.grid
        cfg = SimConfig(T=1e-3, dt=1e-3)
        U = ControlPath.zeros(cfg.n_steps, 0, cfg.dt)
        return simulate_galerkin(m0, U, CoilSet.empty(g), cfg, n_modes).values[0]

    def test_full_oracle_basis_round_trip_is_identity(self):
        rng = np.random.default_rng(12)
        for g in BASIS_GRIDS:
            m0 = VectorField(g, rng.standard_normal(g.shape + (3,)))
            start = self.oracle_start(m0, g.node_count)
            assert np.linalg.norm(start - m0.values) <= 1e-14 * np.linalg.norm(m0.values)

    def test_truncated_oracle_keeps_the_lowest_modes(self):
        # ties go in index order: on the 4x4 square the 5 kept modes end
        # between the tied (0, 2) and (2, 0); the coefficients are
        # component-first, so a mode held by one component comes back in
        # that component alone
        for g in BASIS_GRIDS + [Grid((4, 4), (1.0, 1.0))]:
            ranked = sorted(np.ndindex(g.cells), key=lambda k: (cosine_mode(g, k)[1], k))
            n_modes = max(1, g.node_count // 3)
            for j, k in enumerate(ranked):
                mode = cosine_mode(g, k)[0]
                one_component = np.zeros(g.shape + (3,))
                one_component[..., j % 3] = mode
                for vals in (mode[..., None] * np.array([1.0, -2.0, 0.5]), one_component):
                    start = self.oracle_start(VectorField(g, vals), n_modes)
                    kept = vals if j < n_modes else 0.0
                    assert np.linalg.norm(start - kept) <= 1e-14 * np.linalg.norm(vals)

    def test_oracle_rejects_mode_count_outside_range(self):
        g = Grid((4,), (1.0,))
        m0 = VectorField.zero(g)
        for n_modes in (0, -1, 5):
            with pytest.raises(ValueError, match=r"n_modes must be in \[1, 4\]"):
                self.oracle_start(m0, n_modes)


class TestGalerkinOracle:
    def test_matches_imex_for_smooth_small_data(self):
        g = Grid((64,), (1.0,))
        cfg = SimConfig(T=0.25, dt=2e-4)
        x = g.axis_coords(0)
        vals = np.zeros(g.shape + (3,))
        vals[..., 0] = 0.08 * np.cos(np.pi * x)
        vals[..., 1] = 0.05
        vals[..., 2] = 0.04 * np.cos(2 * np.pi * x)
        m0 = VectorField(g, vals)
        coils = CoilSet.from_fields([uniform_coil(g, 1)])
        U = ControlPath.constant([0.1], cfg.n_steps, cfg.dt)
        traj = simulate(m0, U, coils, cfg)
        oracle = simulate_galerkin(m0, U, coils, cfg, n_modes=6)
        w = g.cell_volume
        disc = max(np.sqrt(w * np.sum((traj.values[j] - oracle.values[j]) ** 2))
                   for j in range(traj.n_steps + 1))
        assert disc <= 2e-3

    def test_oracle_reproduces_radial_ode(self):
        # with one (constant) mode the truncated system is the radial ODE
        g = Grid((16,), (1.0,))
        cfg = SimConfig(T=0.5, dt=1e-2)
        m0 = VectorField.constant(g, (1, 0, 0))
        U = ControlPath.zeros(cfg.n_steps, 0, cfg.dt)
        oracle = simulate_galerkin(m0, U, CoilSet.empty(g), cfg, n_modes=1)
        got = np.linalg.norm(oracle.values[-1][0])
        assert got == pytest.approx(radial_exact(0.5), rel=1e-8)

    @pytest.mark.parametrize("n_steps, dt", [(5, 1e-3), (10, 5e-4)],
                             ids=["half-the-steps", "another-dt"])
    def test_oracle_rejects_a_control_off_the_time_grid(self, n_steps, dt):
        # the oracle interpolates the control on cfg's nodes, so a control
        # on other nodes would be read at the wrong times
        g = Grid((8,), (1.0,))
        cfg = SimConfig(T=0.01, dt=1e-3)
        coils = CoilSet.from_fields([uniform_coil(g, 0)])
        U = ControlPath.zeros(n_steps, 1, dt)
        with pytest.raises(ValueError, match="control and config disagree on"):
            simulate_galerkin(VectorField.zero(g), U, coils, cfg, n_modes=2)
