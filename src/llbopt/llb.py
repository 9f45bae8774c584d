"""Forward solver for the controlled Landau-Lifshitz-Bloch state system.

Time stepping is first-order IMEX Euler: the Laplacian is implicit
(unconditionally stable diffusion), every other term explicit at the old
time level.  Each implicit stage solves (I - dt*lap_h) m = rhs exactly: the
orthonormal DCT-II diagonalizes the mirror-ghost Neumann Laplacian, so the
solve is a forward transform, a division by 1 + dt*lambda_k and an inverse
transform.  The transform is applied one spatial axis at a time as a
matmul with the cached DCT-II matrix of that axis rather than through
``scipy.fft``: importing that module pulls in ``numpy.testing``,
``numpy.f2py`` and ``scipy.special``, about 0.4 s of every CLI process's
start-up on a 2-core machine.  ``scipy.integrate`` (about 0.2 s) is
likewise imported only by the Galerkin oracle.

A step's kernels do arithmetic only.  On small grids numpy's per-call
argument handling costs more than the arithmetic, so the divisor
1 + dt*lambda_k of the solve is cached per (grid, dt), the cross products
are :func:`~llbopt.grid.cross` (numpy's own moves axes and copies its
inputs on every call), the Laplacian slices its axes in place rather than
moving them, and |m|^2 is formed once per forward step, shared by the
resolution check and the reaction term.

The forward sweep here, the tangent sweep and the costate sweep share one
time loop, :func:`march`: it owns the order of the steps (forward or in
reverse), the blow-up rule and the frames, stored or handed to a consumer,
and each sweep passes only its step, the explicit terms plus one
:func:`implicit_solve`.

The energy ledger of the dissipation inequality is one tally,
:class:`EnergyTally`: ``add(j, m)`` per frame, then ``finish`` for |u|^2,
the cumulative trapezoids and the defect.  A sweep feeds it frame by frame
(``simulate(..., consume=tally.add)``), so ``llbopt simulate`` keeps no
trajectory; :func:`energy_ledger` walks a stored one through it.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .coils import CoilSet, ControlPath, synthesize_values
from .grid import (
    Grid,
    Trajectory,
    VectorField,
    cosine_modes,
    cross,
    frame_norms,
    grad_sq_integral,
    laplacian_values,
)


class BlowUpError(RuntimeError):
    """A sweep (state, tangent or costate) left the finite / bounded regime;
    carries the time reached."""

    def __init__(self, message: str, time: float):
        super().__init__(f"{message} at t={time:.6g}")
        self.time = time


class StalledDescentError(RuntimeError):
    """Armijo line search exhausted its halving budget."""


class OracleError(RuntimeError):
    """The Galerkin oracle's ODE integration failed."""


@dataclass
class SimConfig:
    """Time-stepping configuration shared by the forward/tangent/adjoint sweeps.

    ``source``, when set, is a manufactured forcing added to the right-hand
    side for convergence studies: a callable t -> values array on the grid.
    It is not part of the physical model and runs that use it should say so.
    """

    T: float
    dt: float
    source: Optional[Callable[[float], np.ndarray]] = None
    blowup_threshold: float = 1e6
    warn_dt_factor: float = 0.5

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.T <= 0:
            raise ValueError("T must be positive")
        steps = round(self.T / self.dt)
        if steps < 1 or abs(steps * self.dt - self.T) > 1e-12 * max(self.T, 1.0):
            raise ValueError(f"dt={self.dt} does not divide T={self.T}")

    @property
    def n_steps(self) -> int:
        return round(self.T / self.dt)


@functools.lru_cache(maxsize=None)
def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix C[k, i] = sqrt(2/n) cos(pi k (2i+1) / 2n),
    row 0 scaled by 1/sqrt(2); read-only because it is shared."""
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    C = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * i + 1) / (2 * n))
    C[0] /= np.sqrt(2.0)
    C.flags.writeable = False
    return C


def _apply_along(mat: np.ndarray, x: np.ndarray, ax: int) -> np.ndarray:
    """mat @ x along axis ``ax``, as one matmul on a copy-free reshape."""
    shape = x.shape
    lead = math.prod(shape[:ax])
    return np.matmul(mat, x.reshape(lead, shape[ax], -1)).reshape(shape)


@functools.lru_cache(maxsize=16)
def _denominator(grid: Grid, dt: float) -> np.ndarray:
    """The diagonal 1 + dt*lambda_k of (I - dt*lap_h) in the cosine basis,
    shaped ``grid.shape + (1,)``; read-only because it is shared."""
    denom = np.ones(grid.shape)
    for ax, (n, h) in enumerate(zip(grid.cells, grid.spacing)):
        lam = (2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)) / h**2
        shape = [1] * grid.dim
        shape[ax] = n
        denom = denom + dt * lam.reshape(shape)
    denom = denom.reshape(grid.shape + (1,))
    denom.flags.writeable = False
    return denom


def implicit_solve(grid: Grid, dt: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - dt*lap_h) x = rhs exactly in the discrete cosine basis.

    ``rhs`` has shape ``batch + grid.shape + (3,)``: the spatial axes are
    the ``grid.dim`` axes just before the last (component) axis, and any
    axes in front of them are batch axes, solved independently.  The
    orthonormal DCT-II over the spatial axes diagonalizes the mirror-ghost
    Laplacian with eigenvalues -sum_ax (2 - 2 cos(pi k_ax / n_ax)) / h_ax^2
    (the modes of :func:`cosine_modes`).  The basis change is applied per
    axis by ``matmul`` with :func:`_dct_matrix` (and its transpose on the
    way back), which keeps ``scipy.fft`` and its import cost out of the
    process.  The divisor 1 + dt*lambda_k is built once per (grid, dt) and
    cached (:func:`_denominator`), so a step's solve is the two transforms
    and one division.
    """
    first = rhs.ndim - 1 - grid.dim
    x = rhs
    for ax, n in enumerate(grid.cells, start=first):
        x = _apply_along(_dct_matrix(n), x, ax)
    x = x / _denominator(grid, dt)
    for ax, n in enumerate(grid.cells, start=first):
        x = _apply_along(_dct_matrix(n).T, x, ax)
    return x


def _reaction(m: np.ndarray, lap_m: np.ndarray, u: np.ndarray,
              mag_sq: np.ndarray) -> np.ndarray:
    """Explicit right-hand side m x lap m + m x u - (1+|m|^2) m + u, with
    ``mag_sq`` = |m|^2 per node (last axis kept)."""
    return cross(m, lap_m) + cross(m, u) - (1.0 + mag_sq) * m + u


def step_values(grid: Grid, m: np.ndarray, u: np.ndarray, dt: float,
                mag_sq: np.ndarray, source: Optional[np.ndarray] = None) -> np.ndarray:
    """One IMEX Euler update of state values ``m`` under control values
    ``u``.  ``mag_sq`` is |m|^2 per node, ``np.sum(m * m, axis=-1,
    keepdims=True)``: :func:`simulate` forms it once per step, for its
    resolution check and for the reaction term."""
    lap_m = laplacian_values(grid, m)
    rhs = m + dt * _reaction(m, lap_m, u, mag_sq)
    if source is not None:
        rhs = rhs + dt * source
    return implicit_solve(grid, dt, rhs)


def march(grid: Grid, dt: float, first, batch: tuple, n_steps: int,
          step: Callable[[int, np.ndarray], np.ndarray], blowup: str, *,
          reverse: bool = False, threshold: Optional[float] = None,
          consume: Optional[Callable[[int, np.ndarray], None]] = None) -> Optional[Trajectory]:
    """The time loop every sweep (state, tangent, costate) runs.

    Starts from ``first`` as frame 0 (frame K when ``reverse``) and makes
    the others in order: ``step(j, prev)`` returns the frame that follows
    ``prev``, where j is the coefficient frame the step samples, the
    departure frame going forward and the arrival frame going back.  Each
    frame j (``batch + grid.shape + (3,)``, ``first`` included) goes to
    ``consume(j, frame)`` once the blow-up rule has run on it, and none is
    kept or written to again, so a consumer may keep one; without a
    consumer they are stored in the returned ``batch + (K+1,) + grid.shape
    + (3,)`` trajectory.

    Blow-up, at the arrival time and with message ``blowup``: with a
    ``threshold`` (the state sweep) a member whose new frame has a peak
    magnitude over it, or a NaN, has blown up; an unbatched sweep raises
    :class:`BlowUpError`, and a batched one NaN-fills that member and
    marches the others on.  Without one (the linear tangent and costate
    sweeps) a new frame that is not finite raises for the whole sweep.
    """
    traj = None
    if consume is None:
        traj = Trajectory(grid, dt, np.empty(batch + (n_steps + 1,) + grid.shape + (3,)))
        consume = traj.frames.__setitem__
    cells = tuple(range(-grid.dim - 1, 0))
    prev = np.empty(batch + grid.shape + (3,))
    prev[...] = first
    consume(n_steps if reverse else 0, prev)
    for j in (range(n_steps - 1, -1, -1) if reverse else range(n_steps)):
        arrival = j if reverse else j + 1
        new = step(j, prev)
        if threshold is None:
            if not np.all(np.isfinite(new)):
                raise BlowUpError(blowup, arrival * dt)
        else:
            # a NaN or inf peak fails the bound too
            blown = ~(np.max(np.abs(new), axis=cells) <= threshold)
            if np.any(blown):
                if not batch:
                    raise BlowUpError(blowup, arrival * dt)
                new[blown] = np.nan
        consume(arrival, new)
        prev = new
    return traj


def simulate(m0: VectorField, U: ControlPath, coils: CoilSet, cfg: SimConfig, *,
             consume: Optional[Callable] = None) -> Optional[Trajectory]:
    """March the controlled LLB system from t=0 to t=T.

    Frame j of the result is the state at t_j = j*dt; the control field for
    the step t_j -> t_{j+1} is synthesized at node j.

    ``U.intensities`` (and ``m0.values``) may carry leading batch axes, e.g.
    a stack of B controls of shape ``(B, K+1, N)``; the members then march
    together, one implicit solve per step, and the result has shape
    ``batch + (K+1,) + grid.shape + (3,)``.  Blow-up: an unbatched sweep
    raises :class:`BlowUpError` at the first step that leaves the finite
    and bounded regime.  In a batched sweep such a member is NaN-filled
    from that step on and the others march on unaffected; read the
    per-member blow-up times with :func:`blowup_times`.  With ``consume``
    the frames go to it as they are made and None is returned (:func:`march`).
    """
    grid = m0.grid
    if coils.n_coils and coils.grid != grid:
        raise ValueError("coil/grid incompatibility")
    K = cfg.n_steps
    if U.n_steps != K:
        raise ValueError(f"control has {U.n_steps} steps, config expects {K}")
    if cfg.source is not None:
        warnings.warn(
            "manufactured forcing is active: this run verifies the scheme, "
            "not the physical model", RuntimeWarning)

    batch = np.broadcast_shapes(m0.values.shape[:-grid.dim - 1], U.intensities.shape[:-2])
    intensities = np.moveaxis(U.intensities, -2, 0)
    warned = False

    def advance(j: int, m: np.ndarray) -> np.ndarray:
        nonlocal warned
        mag_sq = np.sum(m * m, axis=-1, keepdims=True)
        # fmax skips the NaN-filled members of a batch
        mag_max = float(np.fmax.reduce(mag_sq, axis=None)) if m.size else 0.0
        if not warned and cfg.dt * (1.0 + mag_max) > cfg.warn_dt_factor:
            warnings.warn(
                f"explicit reaction is marginally resolved: dt*(1+|m|^2) = "
                f"{cfg.dt * (1.0 + mag_max):.3g} at t={j * cfg.dt:.6g}",
                RuntimeWarning,
            )
            warned = True
        u = synthesize_values(intensities[j], coils)
        src = cfg.source(j * cfg.dt) if cfg.source is not None else None
        return step_values(grid, m, u, cfg.dt, mag_sq, source=src)

    return march(grid, cfg.dt, m0.values, batch, K, advance, "state blow-up",
                 threshold=cfg.blowup_threshold, consume=consume)


def blowup_times(traj: Trajectory) -> np.ndarray:
    """Per-member blow-up times of a batched forward sweep.

    A member's blow-up time is the time of its first non-finite frame
    (:func:`simulate` NaN-fills a member from the step that left the
    bounded regime); members that stayed bounded read ``inf``.  Returns an
    array of the trajectory's batch shape.
    """
    finite = np.all(np.isfinite(traj.values), axis=tuple(range(-traj.grid.dim - 1, 0)))
    return np.where(finite.all(axis=-1), np.inf, np.argmin(finite, axis=-1) * traj.dt)


class EnergyTally:
    """Per-frame energy bookkeeping for the dissipation inequality, tallied
    frame by frame: the one ledger formula, fed by a sweep (``simulate(...,
    consume=tally.add)``) or by :func:`energy_ledger` from a stored
    trajectory.

    :meth:`finish` returns arrays over frames: t, ``l2_sq`` = |m|_L2^2,
    ``grad_sq`` = |grad m|_L2^2, ``l4_quart`` = |m|_L4^4, ``u_sq`` =
    |u|_L2^2, and the integrated defect

        D(t) = |m(t)|^2 + int_0^t (|grad m|^2 + |m|^2 + |m|_L4^4)
               - |m_0|^2 - int_0^t |u|^2,

    which is <= 0 for the exact evolution.
    """

    def __init__(self, grid: Grid, dt: float, n_steps: int):
        self.grid, self.dt = grid, dt
        self.l2_sq, self.grad_sq, self.l4_quart = np.empty((3, n_steps + 1))

    def add(self, j: int, m: np.ndarray):
        w = self.grid.cell_volume
        sq = m * m
        self.l2_sq[j] = w * float(np.sum(sq))
        self.grad_sq[j] = grad_sq_integral(self.grid, m)
        # |m|_L4^4 is the squared L2 norm of the scalar frame |m|^2
        mag_sq = np.sum(sq, axis=-1)
        self.l4_quart[j] = w * float(np.sum(mag_sq * mag_sq))

    def finish(self, U: ControlPath, coils: CoilSet) -> dict:
        """The ledger once every frame is in: |u|^2 per control sample,
        the cumulative trapezoids and the defect."""
        u_sq = frame_norms(self.grid, (synthesize_values(v, coils) for v in U.intensities))
        dissip = self.grad_sq + self.l2_sq + self.l4_quart
        cum_dissip = _cumulative_trapezoid(dissip, self.dt)
        cum_input = _cumulative_trapezoid(u_sq, self.dt)
        defect = self.l2_sq + cum_dissip - self.l2_sq[0] - cum_input
        return {
            "t": np.arange(len(self.l2_sq)) * self.dt,
            "l2_sq": self.l2_sq,
            "grad_sq": self.grad_sq,
            "l4_quart": self.l4_quart,
            "u_sq": u_sq,
            "defect": defect,
        }


def energy_ledger(traj: Trajectory, U: ControlPath, coils: CoilSet) -> dict:
    """The :class:`EnergyTally` ledger of a stored trajectory."""
    tally = EnergyTally(traj.grid, traj.dt, traj.n_steps)
    for j, m in enumerate(traj.frames):
        tally.add(j, m)
    return tally.finish(U, coils)


def _cumulative_trapezoid(series: np.ndarray, dt: float) -> np.ndarray:
    out = np.zeros_like(series)
    out[1:] = np.cumsum(0.5 * dt * (series[1:] + series[:-1]))
    return out


# ---------------------------------------------------------------------------
# cosine-Galerkin oracle
# ---------------------------------------------------------------------------

def simulate_galerkin(m0: VectorField, U: ControlPath, coils: CoilSet,
                      cfg: SimConfig, n_modes: int,
                      rtol: float = 1e-10, atol: float = 1e-12) -> Trajectory:
    """Integrate the mode-truncated system with a high-accuracy ODE method.

    The state is expanded in the first ``n_modes`` discrete cosine modes
    (exact eigenvectors of the grid Laplacian); the nonlinear right-hand
    side is evaluated on the grid and projected back, and the coefficient
    ODEs d a_k/dt = F_k(t, a) are integrated by adaptive Runge-Kutta.  This
    is a time-integration cross-check for the IMEX sweep at matched spatial
    discretization, not an independent spatial discretization.
    """
    from scipy.integrate import solve_ivp  # slow import, needed only here

    grid = m0.grid
    modes, _ = cosine_modes(grid, n_modes)
    w = grid.cell_volume
    K = cfg.n_steps
    times = np.arange(K + 1) * cfg.dt
    intensities = U.intensities

    def control_at(t: float) -> np.ndarray:
        if coils.n_coils == 0:
            return np.zeros(grid.shape + (3,))
        # piecewise-linear interpolation of each coil intensity
        Ut = np.array([np.interp(t, times, intensities[:, i])
                       for i in range(coils.n_coils)])
        return synthesize_values(Ut, coils)

    def synth(a_flat: np.ndarray) -> np.ndarray:
        a = a_flat.reshape(n_modes, 3)
        return np.tensordot(a, modes, axes=(0, 0)).transpose(
            tuple(range(1, grid.dim + 1)) + (0,))

    def project(field_vals: np.ndarray) -> np.ndarray:
        # a_k,c = <field_c, mode_k> under the cell-sum inner product
        flat_modes = modes.reshape(n_modes, -1)
        flat_field = field_vals.reshape(-1, 3)
        return w * flat_modes @ flat_field

    def rhs(t: float, a_flat: np.ndarray) -> np.ndarray:
        m = synth(a_flat)
        lap_m = laplacian_values(grid, m)
        u = control_at(t)
        f = lap_m + _reaction(m, lap_m, u, np.sum(m * m, axis=-1, keepdims=True))
        if cfg.source is not None:
            f = f + cfg.source(t)
        return project(f).ravel()

    a0 = project(m0.values).ravel()
    sol = solve_ivp(rhs, (0.0, cfg.T), a0, method="DOP853",
                    t_eval=times, rtol=rtol, atol=atol)
    if not sol.success:
        raise OracleError(f"Galerkin oracle integration failed: {sol.message}")
    frames = np.empty((K + 1,) + grid.shape + (3,))
    for j in range(K + 1):
        frames[j] = synth(sol.y[:, j])
    return Trajectory(grid, cfg.dt, frames)
