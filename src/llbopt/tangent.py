"""Linearized state solver (the control-to-state derivative) and the
Taylor verification built on it.

The tangent sweep is the exact derivative of the discrete forward map: it
runs on the forward sweep's :func:`~llbopt.llb.march` with the same IMEX
structure, the same frozen base-trajectory frames for the coupling
coefficients, and the same implicit Laplacian; its explicit terms are
dR[z, dU] (:func:`~llbopt.llb.reaction_tangent`).  As the forward step
does, it reads lap_h z off the previous solve
(:func:`~llbopt.llb.departure_laplacian`); lap_h of the base frame is the
stencil's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coils import CoilSet, ControlPath, synthesize_values
from .grid import Trajectory, frame_norms, laplacian_values
from .llb import (SimConfig, check_time_grid, departure_laplacian, implicit_solve, march,
                  reaction_tangent, simulate)


@dataclass
class LinearizationPoint:
    """A base trajectory with the control that produced it."""

    base_traj: Trajectory
    base_control: ControlPath
    coils: CoilSet

    def __post_init__(self):
        check_time_grid(self.base_control, self.base_traj, "base control and base trajectory")

    @property
    def grid(self):
        return self.base_traj.grid

    @property
    def dt(self) -> float:
        return self.base_traj.dt

    @property
    def n_steps(self) -> int:
        return self.base_traj.n_steps

    def direction_values(self, dU) -> np.ndarray:
        """A control increment, an array of shape ``batch + (K+1, N)``,
        checked against this point's time nodes and coils."""
        vals = np.asarray(dU, dtype=float)
        if vals.shape[-2:] != (self.n_steps + 1, self.coils.n_coils):
            raise ValueError(
                f"control increment has shape {vals.shape}, expected "
                f"(...,) + {(self.n_steps + 1, self.coils.n_coils)}"
            )
        return vals


def solve_tangent(point: LinearizationPoint, dU) -> Trajectory:
    """Forward sweep of the linearized system around the base trajectory.

    Starts from z(0) = 0 and drives with zeta(dU) + m x zeta(dU); returns
    the discrete directional derivative of the state with respect to the
    control, in the direction dU.

    ``dU`` may be a stack of directions of shape ``batch + (K+1, N)``, and
    the base trajectory and base control may carry leading batch axes too
    (as :func:`~llbopt.adjoint.solve_adjoint` takes them); the batch of the
    sweep is theirs, broadcast.  The members are swept together, one
    implicit solve per step, and the result has shape ``batch + (K+1,) +
    grid.shape + (3,)``.  A member that turns non-finite raises
    :class:`~llbopt.llb.BlowUpError` for the whole sweep, with the time
    reached.
    """
    grid = point.grid
    dt = point.dt
    dvals = point.direction_values(dU)
    base = point.base_traj.frames
    controls = point.base_control.intensities
    batch = np.broadcast_shapes(base.shape[1:-grid.dim - 1], controls.shape[:-2],
                                dvals.shape[:-2])
    rhs = None  # the right-hand side of the last solve, one frame per member

    def advance(j: int, z: np.ndarray) -> np.ndarray:
        nonlocal rhs
        m = base[j]
        lap_m = laplacian_values(grid, m)
        lap_z = departure_laplacian(grid, dt, z, rhs)
        u = synthesize_values(controls[..., j, :], point.coils)
        du = synthesize_values(dvals[..., j, :], point.coils)
        # z + dt * dR[z, du], built in place to save frame-sized temporaries
        rhs = reaction_tangent(m, lap_m, u, z, lap_z, du)
        rhs *= dt
        rhs += z
        return implicit_solve(grid, dt, rhs)

    return march(grid, dt, 0.0, batch, point.n_steps, advance,
                 "tangent state became non-finite")


# ---------------------------------------------------------------------------
# verification utilities
# ---------------------------------------------------------------------------

@dataclass
class TaylorResult:
    epsilons: np.ndarray
    remainders: np.ndarray
    first_differences: np.ndarray
    remainder_order: float
    first_difference_order: float


def loglog_slope(x, y) -> float:
    """Observed order: the slope of the least-squares line through
    (log x, log y) over the points with y > 0; NaN with fewer than two."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    mask = y > 0
    if mask.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(x[mask]), np.log(y[mask]), 1)[0])


def taylor_remainder_order(point: LinearizationPoint, dU, epsilons,
                           cfg: SimConfig) -> TaylorResult:
    """Observed order of the Taylor remainder of the control-to-state map.

    For each epsilon the nonlinear system is solved at base + eps*dU and the
    remainder R(eps) = max_t ||m_eps - m_base - eps z||_H1 is formed with z
    from :func:`solve_tangent`.  A Frechet-differentiable map gives slope 2;
    the first difference ||m_eps - m_base|| gives slope 1 for contrast.
    Both are formed per frame of the perturbed sweep, which keeps none.
    """
    epsilons = np.asarray(sorted(epsilons, reverse=True), dtype=float)
    z = solve_tangent(point, dU)
    dvals = point.direction_values(dU)
    m0 = point.base_traj.frame(0)
    grid, base, z_frames = point.grid, point.base_traj.frames, z.frames
    remainders = np.empty(epsilons.shape)
    first_diffs = np.empty(epsilons.shape)
    for i, eps in enumerate(epsilons):
        perturbed = ControlPath(point.base_control.intensities + eps * dvals,
                                -np.inf, np.inf, point.dt)
        h1_sq = np.empty((2, point.n_steps + 1))  # remainder, first difference

        def take(j: int, m: np.ndarray):
            diff = m - base[j]
            l2_sq, grad_sq = frame_norms(grid, (diff - eps * z_frames[j], diff), grad=True)
            h1_sq[:, j] = l2_sq + grad_sq

        simulate(m0, perturbed, point.coils, cfg, consume=take)
        remainders[i], first_diffs[i] = np.sqrt(np.max(h1_sq, axis=1))
    return TaylorResult(
        epsilons=epsilons,
        remainders=remainders,
        first_differences=first_diffs,
        remainder_order=loglog_slope(epsilons, remainders),
        first_difference_order=loglog_slope(epsilons, first_diffs),
    )
