import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from llbopt.coils import (
    CoilSet,
    ControlPath,
    coil_pairing,
    control_norm_rms,
    gaussian_coil,
    project_box,
    synthesize_values,
    uniform_coil,
)
from llbopt.grid import Grid, VectorField, frame_norms, grad_sq_integral

from conftest import batch_shapes, grids


@pytest.fixture
def unit_square():
    return Grid((16, 16), (1.0, 1.0))


class TestSynthesize:
    def test_single_constant_coil(self, unit_square):
        coils = CoilSet.from_fields([uniform_coil(unit_square, 0)])
        U = ControlPath.constant([2.0], 4, 0.25)
        f = synthesize_values(U.intensities[2], coils)
        assert_allclose(f[..., 0], 2.0)
        assert np.all(f[..., 1:] == 0)

    def test_empty_sum(self, unit_square):
        coils = CoilSet.empty(unit_square)
        U = ControlPath.zeros(4, 0, 0.25)
        assert np.all(synthesize_values(U.intensities[0], coils) == 0)

    def test_cancellation(self, unit_square):
        b = gaussian_coil(unit_square, [0.5, 0.5], 0.2, 1)
        coils = CoilSet.from_fields([b, b])
        U = ControlPath.constant([1.0, -1.0], 3, 0.1)
        assert_allclose(synthesize_values(U.intensities[1], coils), 0.0, atol=1e-15)

    def test_linear_in_u(self, unit_square):
        rng = np.random.default_rng(0)
        coils = CoilSet.from_fields([gaussian_coil(unit_square, [0.3, 0.4], 0.2, 0),
                                     uniform_coil(unit_square, 2)])
        u = rng.standard_normal(2)
        v = rng.standard_normal(2)
        a, b = 1.7, -0.3
        Ua = ControlPath((a * u + b * v)[None, :].repeat(2, axis=0), -np.inf, np.inf, 1.0)
        Uu = ControlPath(u[None, :].repeat(2, axis=0), -np.inf, np.inf, 1.0)
        Uv = ControlPath(v[None, :].repeat(2, axis=0), -np.inf, np.inf, 1.0)
        lhs = synthesize_values(Ua.intensities[0], coils)
        rhs = (a * synthesize_values(Uu.intensities[0], coils)
               + b * synthesize_values(Uv.intensities[0], coils))
        assert_allclose(lhs, rhs, atol=1e-12 * max(np.abs(lhs).max(), 1.0))

    @settings(max_examples=40, deadline=None)
    @given(grids(), batch_shapes, st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_batched_matches_members(self, g, batch, n_coils, seed):
        rng = np.random.default_rng(seed)
        coils = CoilSet.from_fields(
            [VectorField(g, rng.standard_normal(g.shape + (3,))) for _ in range(n_coils)]
        ) if n_coils else CoilSet.empty(g)
        intens = rng.standard_normal(batch + (n_coils,))
        fields = synthesize_values(intens, coils)
        assert fields.shape == batch + g.shape + (3,)
        for idx in np.ndindex(batch):
            assert np.array_equal(fields[idx], synthesize_values(intens[idx], coils))

    def test_grid_mismatch(self, unit_square):
        coils = CoilSet.from_fields([uniform_coil(unit_square, 0)])
        U = ControlPath.zeros(2, 2, 0.5)
        with pytest.raises(ValueError, match="incompatib"):
            synthesize_values(U.intensities[0], coils)


class TestCoilPairing:
    @settings(max_examples=60, deadline=None)
    @given(grids(), batch_shapes, st.sampled_from([0, 1, 3]), st.integers(0, 2**32 - 1))
    def test_adjoint_of_synthesize(self, g, batch, n_coils, seed):
        # sum_x w f . (sum_i U_i B_i) = sum_i U_i int f . B_i dx, member by member
        rng = np.random.default_rng(seed)
        coils = CoilSet(g, rng.standard_normal((n_coils,) + g.shape + (3,)))
        U = rng.standard_normal(batch + (n_coils,))
        f = rng.standard_normal(batch + g.shape + (3,))
        field = synthesize_values(U, coils)
        pairing = coil_pairing(f, coils)
        assert pairing.shape == batch + (n_coils,)
        cells = tuple(range(-g.dim - 1, 0))
        lhs = g.cell_volume * np.sum(f * field, axis=cells)
        rhs = np.sum(U * pairing, axis=-1)
        # Cauchy-Schwarz bounds both sides
        scale = g.cell_volume * np.sqrt(np.sum(f * f, axis=cells)
                                        * np.sum(field * field, axis=cells))
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)
        for idx in np.ndindex(batch):
            assert np.array_equal(pairing[idx], coil_pairing(f[idx], coils))


class TestProjectBox:
    def test_interior_fixed(self):
        assert project_box(np.array([0.5]), -1.0, 1.0)[0] == 0.5

    def test_clamps(self):
        assert project_box(np.array([2.0]), -1.0, 1.0)[0] == 1.0
        assert project_box(np.array([-3.0]), -1.0, 1.0)[0] == -1.0

    def test_idempotent_and_feasible(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((50, 3)) * 4
        lo = -np.abs(rng.standard_normal((50, 3)))
        hi = np.abs(rng.standard_normal((50, 3)))
        p = project_box(x, lo, hi)
        assert_allclose(project_box(p, lo, hi), p, rtol=0)
        assert np.all(p >= lo) and np.all(p <= hi)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 20), st.integers(0, 2**32 - 1), st.floats(0.0, 5.0))
    def test_idempotent_on_any_box(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        x = scale * rng.standard_normal((n, 2)) * 10
        lo = rng.standard_normal((n, 2))
        hi = lo + scale * np.abs(rng.standard_normal((n, 2)))
        p = project_box(x, lo, hi)
        assert np.array_equal(project_box(p, lo, hi), p)
        assert np.all((lo <= p) & (p <= hi))

    def test_nonexpansive(self):
        rng = np.random.default_rng(7)
        lo, hi = -1.5, 2.0
        for _ in range(50):
            x = rng.standard_normal(12) * 3
            y = rng.standard_normal(12) * 3
            dp = np.linalg.norm(project_box(x, lo, hi) - project_box(y, lo, hi))
            assert dp <= np.linalg.norm(x - y) + 1e-15

    def test_empty_box(self):
        with pytest.raises(ValueError, match="empty box"):
            project_box(np.array([0.0]), 1.0, -1.0)


class TestControlNorms:
    def test_empty(self):
        assert control_norm_rms(np.zeros((5, 0)), 0.1) == 0.0


class TestControlPath:
    def test_feasibility(self):
        U = ControlPath(np.array([[0.5], [2.0]]), -1.0, 1.0, 1.0)
        assert not U.is_feasible()
        assert U.projected().is_feasible()

    def test_bounds_validation(self):
        with pytest.raises(ValueError, match="empty box"):
            ControlPath(np.zeros((2, 1)), 1.0, -1.0, 1.0)

    def test_h1_norm_cache_consistent(self, unit_square):
        b = gaussian_coil(unit_square, [0.4, 0.6], 0.25, 0, amplitude=2.0)
        coils = CoilSet.from_fields([b])
        l2_sq = unit_square.cell_volume * np.sum(b.values * b.values)
        h1 = np.sqrt(l2_sq + grad_sq_integral(unit_square, b.values))
        assert coils.h1_norms[0] == pytest.approx(h1, rel=1e-12)

    def test_h1_norms_computed_from_geometries(self, unit_square):
        b = gaussian_coil(unit_square, [0.4, 0.6], 0.25, 0)
        coils = CoilSet(unit_square, np.stack([b.values, 2.0 * b.values]))
        l2_sq, grad_sq = frame_norms(unit_square, [b.values], grad=True)
        expected = np.sqrt(l2_sq + grad_sq) * np.array([1.0, 2.0])
        assert_allclose(coils.h1_norms, expected, rtol=1e-12)
        assert CoilSet.empty(unit_square).h1_norms.shape == (0,)
