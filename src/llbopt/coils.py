"""Coil-parameterized controls: u(x,t) = sum_k U_k(t) B_k(x).

A coil set holds the N time-independent geometry fields B_k; a control path
holds the (K+1) x N intensity samples together with their box bounds.  The
control norm is the root of the summed squared per-component L2(0,T) norms,
the geometry used by the cost functional and all gradients.
:func:`synthesize_values` (U -> sum_k U_k B_k) and :func:`coil_pairing`
(f -> int f . B_k dx) are the one adjoint pair between intensities and
fields; both take batch axes, and N = 0 coils needs no branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, VectorField, frame_norms, time_integral


@dataclass
class CoilSet:
    """N fixed coil geometry fields on a common grid, with their H1 norms."""

    grid: Grid
    geometries: np.ndarray  # (N,) + grid.shape + (3,)
    h1_norms: np.ndarray = field(init=False)  # (N,)

    def __post_init__(self):
        self.geometries = np.asarray(self.geometries, dtype=float)
        expected_tail = self.grid.shape + (3,)
        if self.geometries.ndim != len(expected_tail) + 1 or self.geometries.shape[1:] != expected_tail:
            raise ValueError(
                f"coil geometries have shape {self.geometries.shape}, "
                f"expected (N,) + {expected_tail}"
            )
        l2_sq, grad_sq = frame_norms(self.grid, self.geometries, grad=True)
        self.h1_norms = np.sqrt(l2_sq + grad_sq)

    @classmethod
    def from_fields(cls, fields: list[VectorField]) -> "CoilSet":
        if not fields:
            raise ValueError("empty coil list needs an explicit grid; use CoilSet.empty")
        grid = fields[0].grid
        for k, f in enumerate(fields):
            if f.grid != grid:
                raise ValueError(f"coil/grid incompatibility: coil {k} lives on a different grid")
        return cls(grid, np.stack([f.values for f in fields]))

    @classmethod
    def empty(cls, grid: Grid) -> "CoilSet":
        return cls(grid, np.zeros((0,) + grid.shape + (3,)))

    @property
    def n_coils(self) -> int:
        return self.geometries.shape[0]


def gaussian_coil(grid: Grid, center, width: float, axis: int, amplitude: float = 1.0) -> VectorField:
    """Isotropic Gaussian bump amplitude * exp(-|x-c|^2 / 2 width^2) along a
    coordinate direction e_axis."""
    if not 0 <= axis <= 2:
        raise ValueError("coil axis must be 0, 1 or 2")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.shape != (grid.dim,):
        raise ValueError(f"coil center needs {grid.dim} coordinates, got {center.shape}")
    coords = grid.meshgrid()
    r2 = np.zeros(grid.shape)
    for ax in range(grid.dim):
        r2 += (coords[ax] - center[ax]) ** 2
    profile = amplitude * np.exp(-r2 / (2.0 * width**2))
    vals = np.zeros(grid.shape + (3,))
    vals[..., axis] = profile
    return VectorField(grid, vals)


def uniform_coil(grid: Grid, axis: int, amplitude: float = 1.0) -> VectorField:
    if not 0 <= axis <= 2:
        raise ValueError("coil axis must be 0, 1 or 2")
    vals = np.zeros(grid.shape + (3,))
    vals[..., axis] = amplitude
    return VectorField(grid, vals)


@dataclass
class ControlPath:
    """Coil intensities U_i(t_j) on a uniform time grid with box bounds.

    Batched sweeps take a stack of paths: ``intensities`` of shape
    ``batch + (K+1, N)``, with the bounds broadcast to it.
    """

    intensities: np.ndarray  # (K+1, N)
    lower: np.ndarray        # (K+1, N)
    upper: np.ndarray        # (K+1, N)
    dt: float

    def __post_init__(self):
        self.intensities = np.atleast_2d(np.asarray(self.intensities, dtype=float))
        shape = self.intensities.shape
        self.lower = np.broadcast_to(np.asarray(self.lower, dtype=float), shape).copy()
        self.upper = np.broadcast_to(np.asarray(self.upper, dtype=float), shape).copy()
        if self.dt <= 0:
            raise ValueError("control dt must be positive")
        if np.any(self.lower > self.upper):
            raise ValueError("empty box: lower bound exceeds upper bound")

    @classmethod
    def zeros(cls, n_steps: int, n_coils: int, dt: float,
              lower: float = -np.inf, upper: float = np.inf) -> "ControlPath":
        shape = (n_steps + 1, n_coils)
        return cls(np.zeros(shape), np.full(shape, lower), np.full(shape, upper), dt)

    @classmethod
    def constant(cls, values, n_steps: int, dt: float,
                 lower: float = -np.inf, upper: float = np.inf) -> "ControlPath":
        values = np.atleast_1d(np.asarray(values, dtype=float))
        intens = np.tile(values, (n_steps + 1, 1))
        return cls(intens, np.full_like(intens, lower), np.full_like(intens, upper), dt)

    @property
    def n_steps(self) -> int:
        return self.intensities.shape[-2] - 1

    @property
    def n_coils(self) -> int:
        return self.intensities.shape[-1]

    @property
    def final_time(self) -> float:
        return self.n_steps * self.dt

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    def is_feasible(self) -> bool:
        return bool(np.all(self.intensities >= self.lower)
                    and np.all(self.intensities <= self.upper))

    def with_intensities(self, intensities: np.ndarray) -> "ControlPath":
        return ControlPath(np.asarray(intensities, dtype=float), self.lower, self.upper, self.dt)

    def projected(self) -> "ControlPath":
        return self.with_intensities(project_box(self.intensities, self.lower, self.upper))


def project_box(values: np.ndarray, lower, upper) -> np.ndarray:
    """Pointwise clamp min{upper, max{lower, values}}; idempotent."""
    values = np.asarray(values, dtype=float)
    lower = np.broadcast_to(np.asarray(lower, dtype=float), values.shape)
    upper = np.broadcast_to(np.asarray(upper, dtype=float), values.shape)
    if np.any(lower > upper):
        raise ValueError("empty box: lower bound exceeds upper bound")
    return np.minimum(upper, np.maximum(lower, values))


def synthesize_values(intensities_at_t: np.ndarray, coils: CoilSet) -> np.ndarray:
    """Pointwise sum_k U_k B_k(x) for one time sample of the intensities.

    ``intensities_at_t`` has shape ``(..., N)``; leading axes are batch axes
    and the result has shape ``(...,) + grid.shape + (3,)``.
    """
    if intensities_at_t.shape[-1] != coils.n_coils:
        raise ValueError(
            f"coil/grid incompatibility: {intensities_at_t.shape[-1]} intensities "
            f"for {coils.n_coils} coils"
        )
    cell = "xyzc"[-coils.grid.dim - 1:]
    return np.einsum(f"...k,k{cell}->...{cell}", intensities_at_t, coils.geometries)


def coil_pairing(f: np.ndarray, coils: CoilSet) -> np.ndarray:
    """int f . B_i dx of frames ``f`` (``batch + grid.shape + (3,)``), shape
    ``batch + (N,)``: the adjoint of :func:`synthesize_values`."""
    grid, size = coils.grid, 3 * coils.grid.node_count
    # one matrix-vector product per frame, batched or not
    cols = np.reshape(f, f.shape[:f.ndim - grid.dim - 1] + (size, 1))
    return grid.cell_volume * (coils.geometries.reshape(coils.n_coils, size) @ cols)[..., 0]


# ---------------------------------------------------------------------------
# control norms
# ---------------------------------------------------------------------------

def control_norm_rms(intensities: np.ndarray, dt: float) -> float:
    """sqrt(control_inner_rms(x, x, dt)), the root of the summed squared
    per-component L2(0,T) norms; ``inf``, without a warning, where the
    squares or their sum overflow (the finite-difference controls of a huge
    ``certify.eps_fd`` do)."""
    with np.errstate(over="ignore"):
        return float(np.sqrt(control_inner_rms(intensities, intensities, dt)))


def control_inner_rms(a: np.ndarray, b: np.ndarray, dt: float) -> float:
    """Inner product sum_i int a_i b_i dt matching control_norm_rms."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    return float(sum(time_integral(a[:, i] * b[:, i], dt) for i in range(a.shape[1])))
