import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from llbopt.grid import (
    Grid,
    Trajectory,
    VectorField,
    cross,
    dot,
    frame_norms,
    grad_sq_integral,
    laplacian_values,
    read_field,
    time_integral,
    write_field,
)

from llbopt.config import read_trajectory, write_trajectory

from conftest import batch_shapes, grids


def cos_field(grid, k=1, component=0):
    x = grid.axis_coords(0)
    vals = np.zeros(grid.shape + (3,))
    vals[..., component] = np.cos(k * np.pi * x / grid.lengths[0])
    return VectorField(grid, vals)


class TestGrid:
    def test_spacing(self):
        g = Grid((10, 20), (1.0, 4.0))
        assert g.spacing == (0.1, 0.2)
        assert g.node_count == 200
        assert g.cell_volume == pytest.approx(0.02)

    def test_spacing_is_computed_once_outside_the_fields(self):
        # Grid keys lru caches, so equality, hashing and repr must stay on
        # its two fields whatever has been read and cached
        g = Grid((10, 20), (1.0, 4.0))
        assert g.spacing is g.spacing and g.cell_volume == 0.1 * 0.2
        fresh = Grid((10, 20), (1.0, 4.0))
        assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
        assert repr(g) == "Grid(cells=(10, 20), lengths=(1.0, 4.0))"

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            Grid((4, 4, 4, 4), (1, 1, 1, 1))
        with pytest.raises(ValueError):
            Grid((0,), (1.0,))
        with pytest.raises(ValueError):
            Grid((4,), (-1.0,))


def laplacian_reference(grid, vals):
    """Mirror ghost cells made explicit by edge padding, one axis at a time."""
    out = np.zeros_like(vals)
    for ax, h in enumerate(grid.spacing):
        pad = [(0, 0)] * vals.ndim
        pad[ax] = (1, 1)
        padded = np.pad(vals, pad, mode="edge")
        n = grid.cells[ax]
        lo = np.take(padded, range(0, n), axis=ax)
        hi = np.take(padded, range(2, n + 2), axis=ax)
        out += (lo - 2.0 * vals + hi) / h**2
    return out


def laplacian_moveaxis(grid, vals):
    """The Laplacian in its earlier form, which moved each spatial axis to
    the front and back again; same additions in the same order."""
    first = vals.ndim - 1 - grid.dim
    out = np.zeros_like(vals)
    for ax, h in enumerate(grid.spacing, start=first):
        v = np.moveaxis(vals, ax, 0)
        t = -2.0 * v
        t[1:] += v[:-1]
        t[:1] += v[:1]
        t[:-1] += v[1:]
        t[-1:] += v[-1:]
        out += np.moveaxis(t, 0, ax) / h**2
    return out


def wide_values(rng, shape):
    """Normal samples scaled over 2^-60..2^60, so that any change in the
    order of additions or products shows in the rounding."""
    return rng.standard_normal(shape) * 2.0 ** rng.uniform(-60, 60, shape)


class TestLaplacian:
    @settings(max_examples=60, deadline=None)
    @given(grids(), batch_shapes, st.integers(0, 2**32 - 1))
    def test_matches_moveaxis_form_bit_for_bit(self, g, batch, seed):
        vals = wide_values(np.random.default_rng(seed), batch + g.shape + (3,))
        assert np.array_equal(laplacian_values(g, vals), laplacian_moveaxis(g, vals))

    @settings(max_examples=60, deadline=None)
    @given(grids(), st.integers(0, 2**32 - 1))
    def test_matches_padded_reference(self, g, seed):
        vals = np.random.default_rng(seed).standard_normal(g.shape + (3,))
        assert np.array_equal(laplacian_values(g, vals), laplacian_reference(g, vals))

    @settings(max_examples=60, deadline=None)
    @given(grids(), batch_shapes, st.integers(0, 2**32 - 1))
    def test_batched_matches_members(self, g, batch, seed):
        vals = np.random.default_rng(seed).standard_normal(batch + g.shape + (3,))
        lap = laplacian_values(g, vals)
        for idx in np.ndindex(batch):
            assert np.array_equal(lap[idx], laplacian_values(g, vals[idx]))

    @settings(max_examples=60, deadline=None)
    @given(grids(), batch_shapes, st.integers(0, 2**32 - 1))
    def test_annihilates_constants_on_any_grid(self, g, batch, seed):
        vec = np.random.default_rng(seed).standard_normal(batch + (1,) * g.dim + (3,))
        vals = np.broadcast_to(vec, batch + g.shape + (3,))
        assert np.all(laplacian_values(g, vals) == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(grids(), st.integers(0, 2**32 - 1))
    def test_self_adjoint_on_any_grid(self, g, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(g.shape + (3,))
        b = rng.standard_normal(g.shape + (3,))
        la, lb = laplacian_values(g, a), laplacian_values(g, b)
        # roundoff bound of the two cell sums
        w = g.cell_volume
        scale = w * (np.sum(np.abs(la * b)) + np.sum(np.abs(a * lb)))
        assert abs(w * np.sum(la * b) - w * np.sum(a * lb)) <= 1e-12 * scale

    def test_annihilates_constants(self):
        # and a constant has no face difference, so no gradient norm
        for cells in [(9,), (6, 5), (1, 5), (4, 3, 5)]:
            g = Grid(cells, tuple(1.0 for _ in cells))
            f = VectorField.constant(g, (1.0, 2.0, 3.0))
            assert np.all(laplacian_values(g, f.values) == 0.0)
            assert grad_sq_integral(g, f.values) == 0.0

    def test_cosine_eigenfield(self):
        # cos(pi x) is an exact eigenvector of the mirror-ghost stencil
        g = Grid((64,), (1.0,))
        h = g.spacing[0]
        lam = 2.0 * (np.cos(np.pi * h) - 1.0) / h**2
        assert lam == pytest.approx(-9.8676, abs=5e-4)
        f = cos_field(g)
        assert_allclose(laplacian_values(g, f.values), lam * f.values, atol=1e-11)

    def test_exact_on_quadratics_interior(self):
        g = Grid((32,), (1.0,))
        x = g.axis_coords(0)
        vals = np.zeros(g.shape + (3,))
        vals[..., 0] = x**2
        lap = laplacian_values(g, vals)
        assert_allclose(lap[1:-1, 0], 2.0, rtol=1e-12)

    def test_self_adjoint_and_negative(self):
        rng = np.random.default_rng(0)
        for cells in [(17,), (7, 9)]:
            g = Grid(cells, tuple(1.0 for _ in cells))
            a = rng.standard_normal(g.shape + (3,))
            b = rng.standard_normal(g.shape + (3,))
            la = laplacian_values(g, a)
            lb = laplacian_values(g, b)
            w = g.cell_volume
            scale = max(abs(w * np.sum(la * b)), 1.0)
            assert abs(w * np.sum(la * b) - w * np.sum(a * lb)) < 1e-12 * scale
            assert w * np.sum(la * a) <= 1e-12 * scale

    def test_summation_by_parts(self):
        # |grad f|^2 integral equals -<lap f, f> exactly
        rng = np.random.default_rng(1)
        g = Grid((12, 8), (1.0, 2.0))
        f = rng.standard_normal(g.shape + (3,))
        lhs = grad_sq_integral(g, f)
        rhs = -g.cell_volume * np.sum(laplacian_values(g, f) * f)
        assert_allclose(lhs, rhs, rtol=1e-12)

    def test_spatial_convergence_order(self):
        errs, hs = [], []
        for n in (16, 32, 64, 128, 256):
            g = Grid((n,), (1.0,))
            f = cos_field(g).values
            lam = float(np.sum(laplacian_values(g, f) * f) / np.sum(f * f))
            hs.append(g.spacing[0])
            errs.append(abs(lam + np.pi**2))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.9 <= slope <= 2.1


class TestCross:
    @settings(max_examples=80, deadline=None)
    @given(grids(), batch_shapes, st.sampled_from(("batch", "frame", "vector")),
           st.integers(0, 2**32 - 1))
    def test_equals_numpy_bit_for_bit(self, g, batch, other, seed):
        """Against a same-shaped batch, one frame or one vector, with
        overflow, inf, nan and signed zeros sprinkled in."""
        rng = np.random.default_rng(seed)
        full = batch + g.shape + (3,)
        narrow = {"batch": full, "frame": g.shape + (3,), "vector": (3,)}[other]
        specials = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e308, -1e308])
        a, b = wide_values(rng, full), wide_values(rng, narrow)
        for x in (a, b):
            hit = rng.random(x.shape) < 0.1
            x[hit] = rng.choice(specials, hit.sum())
        with np.errstate(over="ignore", invalid="ignore"):
            for x, y in ((a, b), (b, a)):
                assert np.array_equal(cross(x, y), np.cross(x, y), equal_nan=True)


def spread_sum(a, b):
    """numpy's nodewise dot, spread over the three components as
    :func:`dot` returns it."""
    p = a * b
    return np.broadcast_to(np.sum(p, axis=-1, keepdims=True), p.shape)


class TestDot:
    @settings(max_examples=80, deadline=None)
    @given(grids(), batch_shapes, st.sampled_from(("batch", "frame", "vector")),
           st.integers(0, 2**32 - 1))
    def test_equals_numpy_sum_bit_for_bit(self, g, batch, other, seed):
        """Against a same-shaped batch, one frame or one vector, with signed
        values and signed zeros, compared bit for bit (so +0.0 != -0.0)."""
        rng = np.random.default_rng(seed)
        full = batch + g.shape + (3,)
        narrow = {"batch": full, "frame": g.shape + (3,), "vector": (3,)}[other]
        a, b = wide_values(rng, full), wide_values(rng, narrow)
        for x in (a, b):
            hit = rng.random(x.shape) < 0.4
            x[hit] = rng.choice([0.0, -0.0], hit.sum())
        for x, y in ((a, b), (b, a)):
            ref = spread_sum(x, y)
            got = dot(x, y)
            assert got.shape == ref.shape == full
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    def test_all_negative_zero_products_sum_to_positive_zero(self):
        # numpy's reduction starts from +0.0
        a = np.array([[-0.0, 0.0, -0.0], [1.0, -0.0, 0.0]])
        b = np.array([[1.0, -2.0, 3.0], [-0.0, 1.0, -1.0]])
        ref = spread_sum(a, b)
        assert not np.any(np.signbit(ref))
        assert np.array_equal(dot(a, b).view(np.int64), ref.view(np.int64))


class TestTrajectory:
    @settings(max_examples=40, deadline=None)
    @given(grids(), batch_shapes, st.integers(0, 6), st.floats(1e-3, 1.0))
    def test_times_follow_the_time_axis(self, grid, batch, n_steps, dt):
        # leading batch axes are not time nodes
        traj = Trajectory(grid, dt, np.zeros(batch + (n_steps + 1,) + grid.shape + (3,)))
        assert traj.n_steps == n_steps
        assert np.array_equal(traj.times, np.arange(n_steps + 1) * dt)


class TestNorms:
    """The squared L2 and gradient norms of :func:`frame_norms` and
    :func:`grad_sq_integral`."""

    def test_constant_l2(self):
        g = Grid((8, 8), (1.0, 1.0))
        f = VectorField.constant(g, (1.0, 0.0, 0.0))
        assert frame_norms(g, [f.values])[0] == pytest.approx(1.0, rel=1e-14)

    def test_cosine_l2(self):
        g = Grid((64,), (1.0,))
        assert frame_norms(g, [cos_field(g).values])[0] == pytest.approx(0.5, rel=1e-12)

    def test_l2_matches_inner(self):
        rng = np.random.default_rng(2)
        g = Grid((9, 5), (1.0, 1.0))
        f = rng.standard_normal(g.shape + (3,))
        assert frame_norms(g, [f])[0] == pytest.approx(g.cell_volume * np.sum(f * f), rel=1e-12)

    def test_h1_squares_sum_l2_and_dirichlet_energy(self):
        # |f|_H1^2 = <f, f> - <lap f, f>, by summation by parts
        rng = np.random.default_rng(3)
        g = Grid((11, 6), (1.0, 0.5))
        f = rng.standard_normal(g.shape + (3,))
        expected = g.cell_volume * (np.sum(f * f) - np.sum(laplacian_values(g, f) * f))
        l2_sq, grad_sq = frame_norms(g, [f], grad=True)
        assert l2_sq[0] + grad_sq[0] == pytest.approx(expected, rel=1e-12)


class TestTimeIntegral:
    def test_constant(self):
        assert time_integral([1.0, 1.0, 1.0], 0.5) == pytest.approx(1.0)

    def test_affine_exact(self):
        assert time_integral([0.0, 1.0, 2.0], 0.5) == pytest.approx(1.0)

    def test_quadratic(self):
        dt = 1e-3
        t = np.arange(0, 1 + dt / 2, dt)
        assert time_integral(t**2, dt) == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_degenerate(self):
        with pytest.raises(ValueError, match="degenerate time grid"):
            time_integral([1.0], 0.1)


class TestCosineModes:
    """The Neumann cosine modes are eigenvectors of the mirror-ghost
    Laplacian, with eigenvalue 1 + (2 - 2 cos(pi k h / L)) / h^2 of
    (-lap_h + I)."""

    def test_first_mode_constant(self):
        g = Grid((16,), (1.0,))
        mode = np.full(g.shape, 1.0 / np.sqrt(g.lengths[0]))
        vals = np.zeros(g.shape + (3,))
        vals[..., 0] = mode
        lap = laplacian_values(g, vals)
        assert np.all(lap == 0.0)
        assert_allclose(-lap[..., 0] + mode, 1.0 * mode)

    def test_second_mode_matches_laplacian(self):
        g = Grid((32,), (2.0,))
        h, L = g.spacing[0], g.lengths[0]
        mode = np.sqrt(2.0 / L) * np.cos(np.pi * g.axis_coords(0) / L)
        rho = 1.0 - 2.0 * (np.cos(np.pi * h / L) - 1.0) / h**2
        vals = np.zeros(g.shape + (3,))
        vals[..., 0] = mode
        lap = laplacian_values(g, vals)
        # (-lap + I) mode = rho * mode for the discrete operator
        assert_allclose(-lap[..., 0] + mode, rho * mode, atol=1e-12)


class TestFieldIO:
    @pytest.mark.parametrize("cells", [(7,), (5, 4), (3, 4, 2)])
    def test_roundtrip(self, cells, tmp_path):
        rng = np.random.default_rng(4)
        g = Grid(cells, tuple(float(i + 1) for i in range(len(cells))))
        f = VectorField(g, rng.standard_normal(g.shape + (3,)))
        path = tmp_path / "snap.llbfield"
        write_field(path, f)
        back = read_field(path, g)
        assert_allclose(back.values, f.values, rtol=0)

    @settings(max_examples=40, deadline=None)
    @given(grids(), st.integers(0, 2**32 - 1))
    def test_roundtrip_on_any_grid(self, g, seed):
        f = VectorField(g, np.random.default_rng(seed).standard_normal(g.shape + (3,)))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "snap.llbfield")
            write_field(path, f)
            assert np.array_equal(read_field(path, g).values, f.values)

    @settings(max_examples=40, deadline=None)
    @given(grids(), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_trajectory_file_is_field_records(self, g, n_steps, seed):
        vals = np.random.default_rng(seed).standard_normal((n_steps + 1,) + g.shape + (3,))
        traj = Trajectory(g, 0.1, vals)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "traj.llbtraj")
            write_trajectory(path, traj)
            assert np.array_equal(read_trajectory(path, g, n_steps, 0.1).values, vals)
            records = []
            for j in range(n_steps + 1):
                one = os.path.join(tmp, f"frame{j}.llbfield")
                write_field(one, traj.frame(j))
                assert np.array_equal(read_field(one, g).values, vals[j])
                with open(one, "rb") as fh:
                    records.append(fh.read())
            with open(path, "rb") as fh:
                assert fh.read() == b"".join(records)
            # the frame count must match the time grid exactly
            with pytest.raises(ValueError, match="more than"):
                read_trajectory(path, g, n_steps - 1, 0.1)
            with pytest.raises(ValueError, match="expected"):
                read_trajectory(path, g, n_steps + 1, 0.1)

    def test_header_and_order(self, tmp_path):
        # x-fastest node ordering with 3 little-endian doubles per node
        g = Grid((2, 2), (1.0, 1.0))
        vals = np.arange(12, dtype=float).reshape(2, 2, 3)
        path = tmp_path / "snap.llbfield"
        write_field(path, VectorField(g, vals))
        blob = path.read_bytes()
        header, payload = blob.split(b"\n", 1)
        assert header == b"LLBFIELD v1 2 2 2"
        flat = np.frombuffer(payload, dtype="<f8").reshape(4, 3)
        # node order: (0,0), (1,0), (0,1), (1,1)
        assert_allclose(flat[1], vals[1, 0])
        assert_allclose(flat[2], vals[0, 1])

    def test_grid_mismatch(self, tmp_path):
        g = Grid((4,), (1.0,))
        path = tmp_path / "snap.llbfield"
        write_field(path, VectorField.zero(g))
        with pytest.raises(ValueError, match="does not match"):
            read_field(path, Grid((5,), (1.0,)))
