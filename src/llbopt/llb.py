"""Forward solver for the controlled Landau-Lifshitz-Bloch state system.

Time stepping is first-order IMEX Euler: the Laplacian is implicit
(unconditionally stable diffusion), every other term explicit at the old
time level.  Each implicit stage solves (I - dt*lap_h) m = rhs exactly: the
orthonormal DCT-II diagonalizes the mirror-ghost Neumann Laplacian, so the
solve is a forward transform, a division by 1 + dt*lambda_k and an inverse
transform.  The transform is one whole-frame matrix product per spatial
axis with that axis's cached DCT-II matrix, not ``scipy.fft``: importing
that module pulls in ``numpy.testing``, ``numpy.f2py`` and
``scipy.special``, about 0.4 s of every CLI process's start-up on a
2-core machine.  ``scipy.integrate`` (about 0.2 s) is
likewise imported only by the Galerkin oracle, which expands the state in
the same basis: its projection and synthesis are this transform and its
inverse, restricted to the modes of lowest eigenvalue.

A step's kernels do arithmetic only.  On small grids numpy's per-call
argument handling costs more than the arithmetic, so the divisor
1 + dt*lambda_k of the solve is cached per (grid, dt), the nodewise cross
and dot products are :func:`~llbopt.grid.cross` and :func:`~llbopt.grid.dot`
(numpy's move axes and copy, or reduce over the length-3 axis at several
times the arithmetic's cost), the Laplacian slices its axes in place, and
|m|^2 is formed once per forward step, for the resolution check and R.
No inner loop runs along the length-3 component axis: each of the solve's
transforms is one product per spatial axis over the whole frame, its
divisor is cached at the full spectral shape, and ``dot`` spreads each
nodewise sum over the three components, so every |m|^2, m.z and m.phi
scaling is elementwise.  The cross product is linear in each factor, so
two products that share one are one product of the summed others: a
forward step makes one, m x (lap m + u), a tangent and a costate step two.

The model's right-hand side R(m, u) is written once, in :func:`reaction`,
next to each derivative taken of it: :func:`reaction_tangent` (the tangent
step), :func:`reaction_adjoint` (the costate step),
:func:`reaction_adjoint_derivative` (the costate-derivative source),
:func:`control_adjoint` and :func:`control_adjoint_derivative` (the
gradient's and the curvature's pairings).  No other module writes the
model.  It has no forcing hook: a manufactured solution that keeps one
direction needs a forcing parallel to m, where m x u = 0, so that forcing
is a control and runs through coils.

The forward sweep here, the tangent sweep and the costate sweep share one
time loop, :func:`march`: it owns the order of the steps (forward or in
reverse), the blow-up rule and the frames, stored or handed to a consumer,
and each sweep passes only its step, the explicit terms plus one
:func:`implicit_solve`.  A solve fixes the Laplacian of its solution,
lap_h x = (x - rhs)/dt, so the forward and tangent steps carry their
right-hand side, one frame per member, and the next step reads the
Laplacian of its departure frame off it, in place
(:func:`departure_laplacian`); only a sweep's first step runs the stencil
on the frame it steps from.

Whether a control or a trajectory sits on a run's time nodes is one check,
:func:`check_time_grid`, at the one tolerance :func:`time_tolerance` that
the dt-divides-T rule and the control-CSV reader use too.

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
    cross,
    dot,
    frame_norms,
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


def time_tolerance(scale: float) -> float:
    """How far apart two times may be and still name one time node, for
    times on the scale of ``scale`` (a step dt, a horizon T)."""
    return 1e-12 * max(scale, 1.0)


def check_time_grid(path, nodes, names: str) -> None:
    """Raise ValueError, naming the pair ``names``, unless ``path`` has the
    step count of ``nodes`` and its dt to within :func:`time_tolerance`.
    Both have ``n_steps`` and ``dt``: a :class:`SimConfig`, a control or a
    trajectory."""
    if path.n_steps != nodes.n_steps:
        raise ValueError(f"{names} disagree on steps: {path.n_steps} and {nodes.n_steps}")
    if abs(path.dt - nodes.dt) > time_tolerance(nodes.dt):
        raise ValueError(f"{names} disagree on dt: {path.dt} and {nodes.dt}")


@dataclass
class SimConfig:
    """Time-stepping configuration shared by the forward/tangent/adjoint sweeps."""

    T: float
    dt: float
    blowup_threshold: float = 1e6

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.T <= 0:
            raise ValueError("T must be positive")
        ratio = self.T / self.dt  # inf where the step count overflows
        if (not math.isfinite(ratio) or round(ratio) < 1
                or abs(round(ratio) * self.dt - self.T) > time_tolerance(self.T)):
            raise ValueError(f"dt={self.dt} does not divide T={self.T}")

    @property
    def n_steps(self) -> int:
        return round(self.T / self.dt)


@functools.lru_cache(maxsize=None)
def _dct_matrix(n: int) -> np.ndarray:
    """M = C^T, C the orthonormal DCT-II matrix C[k, i] = sqrt(2/n)
    cos(pi k (2i+1) / 2n) with row 0 scaled by 1/sqrt(2): ``x @ M``
    transforms the rows of ``x`` and ``M @ y`` inverts it on the columns of
    ``y``; read-only because it is shared."""
    i = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    M = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * i + 1) / (2 * n))
    M[:, 0] /= np.sqrt(2.0)
    M.flags.writeable = False
    return M


def _dct(grid: Grid, x: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II of a frame ``x``, ``batch + grid.shape + (3,)``,
    over its spatial axes, component-first: ``batch + (3,) + grid.shape``.
    Each whole-frame product transforms the leading spatial axis and moves
    it last."""
    batch = x.shape[:x.ndim - 1 - grid.dim]
    for n in grid.cells:
        x = x.reshape(batch + (n, -1)).swapaxes(-1, -2) @ _dct_matrix(n)
    return x.reshape(batch + (3,) + grid.shape)


def _idct(grid: Grid, y: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_dct`: each product inverts the trailing spatial
    axis and moves it first, back to ``batch + grid.shape + (3,)``."""
    batch = y.shape[:y.ndim - 1 - grid.dim]
    for n in reversed(grid.cells):
        y = _dct_matrix(n) @ y.reshape(batch + (-1, n)).swapaxes(-1, -2)
    return y.reshape(batch + grid.shape + (3,))


def _eigenvalues(grid: Grid) -> tuple:
    """Per-axis eigenvalues (2 - 2 cos(pi k / n)) / h^2, k < n, of -lap_h
    along each axis, as open-mesh arrays (``np.ix_``): the eigenvalue of
    the cosine mode (k_x, k_y, k_z) is their sum."""
    return np.ix_(*((2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)) / h**2
                    for n, h in zip(grid.cells, grid.spacing)))


@functools.lru_cache(maxsize=16)
def _denominator(grid: Grid, dt: float) -> np.ndarray:
    """The diagonal 1 + dt*lambda_k of (I - dt*lap_h) in the cosine basis,
    at the full spectral shape ``(3,) + grid.shape`` of :func:`_dct`: a
    divisor that broadcasts over the component axis would have numpy
    allocate a second frame.  Read-only because it is shared."""
    denom = np.ones((3,) + grid.shape)
    for lam in _eigenvalues(grid):
        denom += dt * lam
    denom.flags.writeable = False
    return denom


def implicit_solve(grid: Grid, dt: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - dt*lap_h) x = rhs exactly in the discrete cosine basis.

    ``rhs`` has shape ``batch + grid.shape + (3,)``: the spatial axes are
    the ``grid.dim`` axes just before the last (component) axis, and any
    axes in front of them are batch axes, solved independently.  The
    orthonormal DCT-II over the spatial axes diagonalizes the mirror-ghost
    Laplacian with eigenvalues -sum_ax (2 - 2 cos(pi k_ax / n_ax)) / h_ax^2
    (:func:`_eigenvalues`; the Galerkin oracle runs on the same basis).
    The basis change, :func:`_dct` and :func:`_idct`, is one whole-frame
    matrix product per spatial axis with :func:`_dct_matrix`, which keeps
    ``scipy.fft`` and its import cost out of the process.  The divisor
    1 + dt*lambda_k is built once per (grid, dt) at the spectral shape and
    cached (:func:`_denominator`), so a step's solve is the two transforms
    and one elementwise division.

    The cosine basis diagonalizes exactly the Laplacian of
    :func:`~llbopt.grid.laplacian_values`, so with S = (I - dt*lap_h)^-1,
    S(dt*lap_h c) = S(c) - c, and for any fields phi, r and c

        S(phi + dt*(lap_h c + r)) = S(phi + dt*r + c) - c,

    in exact arithmetic; in floating point the two sides agree to rounding.
    A step whose explicit terms carry dt*lap_h c folds that Laplacian into
    its solve this way: the costate step does, with c = phi x m.

    The solve also fixes the Laplacian of its solution: x = S(rhs) has

        lap_h x = (x - rhs) / dt

    in exact arithmetic.  In floating point the solve's rounding of x stays
    within about 2*sum_ax n_ax * eps*max|rhs| (its two transforms sum n_ax
    terms per axis), which the right side sees through 1/dt and the stencil
    on the left through sum_ax 4/h_ax^2: the two agree to within 2*sum_ax
    n_ax * eps*max|rhs|*(1/dt + sum_ax 4/h_ax^2), the bound the tests hold.  A step multiplies its
    Laplacian by dt, so reading it off this way costs a step rounding of
    the size of its others.  A sweep whose next step needs lap_h of this
    step's solution reads it off (:func:`departure_laplacian`): the forward
    and tangent steps do.
    """
    return _idct(grid, _dct(grid, rhs) / _denominator(grid, dt))


def departure_laplacian(grid: Grid, dt: float, x: np.ndarray,
                        rhs: Optional[np.ndarray]) -> np.ndarray:
    """lap_h x of a sweep's departure frame x.

    With ``rhs`` the right-hand side of the solve that made x, x =
    S(``rhs``), it is (x - rhs)/dt (the identity in :func:`implicit_solve`),
    formed in place in ``rhs``, which is returned: the carried right-hand
    side becomes the Laplacian, and no frame is allocated.  A NaN member of
    x stays NaN.  Without one (``rhs`` None, the first step of a sweep) it
    is the stencil, :func:`~llbopt.grid.laplacian_values`.
    """
    if rhs is None:
        return laplacian_values(grid, x)
    np.subtract(x, rhs, out=rhs)
    rhs /= dt
    return rhs


def reaction(m: np.ndarray, lap_m: np.ndarray, u: np.ndarray,
             mag_sq: np.ndarray) -> np.ndarray:
    """The model's explicit right-hand side R(m, u) = m x (lap m + u)
    - (1+|m|^2) m + u, with ``mag_sq`` = |m|^2 per node, spread over the
    components as :func:`~llbopt.grid.dot` returns it (a kept axis of
    length 1 broadcasts to the same values).  The two products m x lap m and
    m x u share their factor m, so they are one cross product of the sum."""
    out = cross(m, lap_m + u)
    out -= (1.0 + mag_sq) * m
    out += u
    return out


def reaction_tangent(m: np.ndarray, lap_m: np.ndarray, u: np.ndarray, z: np.ndarray,
                     lap_z: np.ndarray, du: np.ndarray) -> np.ndarray:
    """dR[z, du] = z x (lap m + u) + m x (lap z + du) - 2(m.z) m
    - (1+|m|^2) z + du: two cross products, one per factor, summed in place."""
    out = cross(z, lap_m + u)
    out += cross(m, lap_z + du)
    out -= 2.0 * dot(m, z) * m
    out -= (1.0 + dot(m, m)) * z
    out += du
    return out


def reaction_adjoint(grid: Grid, m: np.ndarray, u: np.ndarray, phi: np.ndarray):
    """d_mR^T phi = lap_h c + r in the cell-sum pairing, as (c, r), so that a
    step can fold lap_h c into its solve (:func:`implicit_solve`): c = phi x m
    and r = (lap m + u) x phi - (1+|m|^2) phi - 2(m.phi) m, summed in place."""
    r = cross(laplacian_values(grid, m) + u, phi)
    r -= (1.0 + dot(m, m)) * phi
    r -= 2.0 * dot(m, phi) * m
    return cross(phi, m), r


def reaction_adjoint_derivative(grid: Grid, m: np.ndarray, phi: np.ndarray,
                                z: np.ndarray, du: np.ndarray) -> np.ndarray:
    """(d^2R[(z, du), .])^T phi, the derivative of d_mR^T phi along (z, du):
    lap_h(phi x z) + (lap z + du) x phi - 2(m.z) phi - 2(z.phi) m - 2(m.phi) z."""
    return (laplacian_values(grid, cross(phi, z)) + cross(laplacian_values(grid, z) + du, phi)
            - 2.0 * dot(m, z) * phi - 2.0 * dot(z, phi) * m - 2.0 * dot(m, phi) * z)


def control_adjoint(m: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """d_uR^T phi = phi x m + phi."""
    return cross(phi, m) + phi


def control_adjoint_derivative(m: np.ndarray, phi: np.ndarray, z: np.ndarray,
                               dphi: np.ndarray) -> np.ndarray:
    """The derivative of :func:`control_adjoint` along (z, dphi)."""
    return cross(dphi, m) + cross(phi, z) + dphi


def step_values(grid: Grid, m: np.ndarray, lap_m: np.ndarray, u: np.ndarray,
                dt: float, mag_sq: np.ndarray) -> tuple:
    """One IMEX Euler update of state values ``m`` under control values
    ``u``: the next frame and the right-hand side m + dt*R(m, u) it solved
    for, from which the next step reads the next frame's Laplacian
    (:func:`departure_laplacian`).  ``lap_m`` is lap_h m and ``mag_sq`` is
    |m|^2 per node, ``dot(m, m)``: :func:`simulate` forms it once per step,
    for its resolution check and for the reaction term."""
    rhs = reaction(m, lap_m, u, mag_sq)
    rhs *= dt
    rhs += m
    return implicit_solve(grid, dt, rhs), rhs


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
    check_time_grid(U, cfg, "control and config")

    batch = np.broadcast_shapes(m0.values.shape[:-grid.dim - 1], U.intensities.shape[:-2])
    warned = False
    rhs = None  # the right-hand side of the last solve, one frame per member

    def advance(j: int, m: np.ndarray) -> np.ndarray:
        nonlocal warned, rhs
        # the Laplacian first: at step 0 the stencil's buffers then peak
        # without |m|^2 alive beside them
        lap_m = departure_laplacian(grid, cfg.dt, m, rhs)
        mag_sq = dot(m, m)
        # fmax skips the NaN-filled members of a batch
        mag_max = float(np.fmax.reduce(mag_sq, axis=None)) if m.size else 0.0
        # the explicit reaction term is resolved while dt*(1+|m|^2) <= 1/2
        if not warned and cfg.dt * (1.0 + mag_max) > 0.5:
            warnings.warn(
                f"explicit reaction is marginally resolved: dt*(1+|m|^2) = "
                f"{cfg.dt * (1.0 + mag_max):.3g} at t={j * cfg.dt:.6g}",
                RuntimeWarning,
            )
            warned = True
        u = synthesize_values(U.intensities[..., j, :], coils)
        new, rhs = step_values(grid, m, lap_m, u, cfg.dt, mag_sq)
        return new

    return march(grid, cfg.dt, m0.values, batch, cfg.n_steps, advance,
                 "state blow-up", threshold=cfg.blowup_threshold, consume=consume)


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
        (self.l2_sq[j],), (self.grad_sq[j],) = frame_norms(self.grid, (m,), grad=True)
        # |m|_L4^4 is the squared L2 norm of the scalar frame |m|^2, the
        # first of the three copies dot spreads over the components
        mag_sq = dot(m, m)[..., 0]
        self.l4_quart[j] = self.grid.cell_volume * float(np.sum(mag_sq * mag_sq))

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
                      cfg: SimConfig, n_modes: int) -> Trajectory:
    """Integrate the mode-truncated system with a high-accuracy ODE method.

    The state is expanded in the ``n_modes`` discrete cosine modes of
    lowest eigenvalue (exact eigenvectors of the grid Laplacian, ties taken
    in index order); the nonlinear right-hand side is evaluated on the grid
    and projected back, and the coefficient ODEs d a_k/dt = F_k(t, a) are
    integrated by adaptive Runge-Kutta.  The basis is that of
    :func:`implicit_solve`: with w the cell volume, a mode's coefficient is
    a_k = sqrt(w) (C f)_k, C the orthonormal DCT, and a field is
    f = C^T a / sqrt(w).  This is a time-integration cross-check for the
    IMEX sweep at matched spatial discretization, not an independent
    spatial discretization.
    """
    from scipy.integrate import solve_ivp  # slow import, needed only here

    grid = m0.grid
    check_time_grid(U, cfg, "control and config")
    if not 1 <= n_modes <= grid.node_count:
        raise ValueError(f"n_modes must be in [1, {grid.node_count}] on this grid, "
                         f"got {n_modes}")
    # the kept modes as flat (C-order) indices of the transform's grid.shape
    modes = np.argsort(sum(_eigenvalues(grid)), axis=None, kind="stable")[:n_modes]
    root_w = np.sqrt(grid.cell_volume)
    K = cfg.n_steps
    times = np.arange(K + 1) * cfg.dt
    intensities = U.intensities

    def control_at(t: float) -> np.ndarray:
        # piecewise-linear interpolation of each coil intensity
        Ut = np.array([np.interp(t, times, intensities[:, i])
                       for i in range(coils.n_coils)])
        return synthesize_values(Ut, coils)

    def synth(a_flat: np.ndarray) -> np.ndarray:
        coeffs = np.zeros((3, grid.node_count))
        coeffs[:, modes] = a_flat.reshape(3, n_modes) / root_w
        return _idct(grid, coeffs.reshape((3,) + grid.shape))

    def project(field_vals: np.ndarray) -> np.ndarray:
        return root_w * _dct(grid, field_vals).reshape(3, -1)[:, modes]

    def rhs(t: float, a_flat: np.ndarray) -> np.ndarray:
        m = synth(a_flat)
        lap_m = laplacian_values(grid, m)
        u = control_at(t)
        f = lap_m + reaction(m, lap_m, u, dot(m, m))
        return project(f).ravel()

    a0 = project(m0.values).ravel()
    sol = solve_ivp(rhs, (0.0, cfg.T), a0, method="DOP853",
                    t_eval=times, rtol=1e-10, atol=1e-12)
    if not sol.success:
        raise OracleError(f"Galerkin oracle integration failed: {sol.message}")
    frames = np.empty((K + 1,) + grid.shape + (3,))
    for j in range(K + 1):
        frames[j] = synth(sol.y[:, j])
    return Trajectory(grid, cfg.dt, frames)
