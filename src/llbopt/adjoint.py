"""Backward-in-time solvers: the adjoint (costate) system with general
right-hand side and terminal data, and the costate-derivative system.

The sweep is the continuous adjoint discretized by backward IMEX Euler:
after time reversal the costate's own Laplacian is implicit and every
coupled term explicit.  The coupled Laplacian term is lap_h applied to the
nodewise cross product, which keeps the divergence-form pairing with the
tangent solver exact in space; the remaining gradient mismatch is purely
the O(dt) time-discretization gap, quantified by the duality test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coils import CoilSet, ControlPath, synthesize_values
from .grid import Trajectory, VectorField, laplacian_values
from .llb import BlowUpError, implicit_solve


@dataclass
class AdjointProblem:
    """Backward problem data around a base trajectory/control pair."""

    base_traj: Trajectory
    base_control: ControlPath
    coils: CoilSet
    rhs: np.ndarray          # (K+1,) + grid.shape + (3,), sampled per frame
    terminal: VectorField

    def __post_init__(self):
        self.rhs = np.asarray(self.rhs, dtype=float)
        if self.rhs.shape != self.base_traj.values.shape:
            raise ValueError(
                f"rhs frames have shape {self.rhs.shape}, expected "
                f"{self.base_traj.values.shape}"
            )
        if self.terminal.grid != self.base_traj.grid:
            raise ValueError("terminal field grid does not match base trajectory")
        if not np.all(np.isfinite(self.terminal.values)):
            raise ValueError("terminal field must be finite")
        if self.base_traj.n_steps != self.base_control.n_steps:
            raise ValueError("base trajectory and control disagree on time nodes")


def adjoint_coupling(m: np.ndarray, lap_m: np.ndarray, u: np.ndarray,
                     phi: np.ndarray, grid) -> np.ndarray:
    """Explicit coupled terms of the costate equation:
    lap(phi x m) + lap m x phi - phi x u - (1+|m|^2) phi - 2 (m.phi) m."""
    mag_sq = np.sum(m * m, axis=-1, keepdims=True)
    m_dot_phi = np.sum(m * phi, axis=-1, keepdims=True)
    return (laplacian_values(grid, np.cross(phi, m)) + np.cross(lap_m, phi)
            - np.cross(phi, u) - (1.0 + mag_sq) * phi - 2.0 * m_dot_phi * m)


def solve_adjoint(p: AdjointProblem) -> Trajectory:
    """Backward IMEX sweep from t=T down to t=0.

    The step computing phi(t_j) from phi(t_{j+1}) takes the explicit terms
    from the known costate and samples the coefficients m, zeta(U) and the
    right-hand side g at the arrival frame t_j.
    """
    grid = p.base_traj.grid
    dt = p.base_traj.dt
    K = p.base_traj.n_steps
    frames = np.empty((K + 1,) + grid.shape + (3,))
    frames[K] = p.terminal.values
    phi = frames[K]
    for j in range(K - 1, -1, -1):
        m = p.base_traj.values[j]
        lap_m = laplacian_values(grid, m)
        u = synthesize_values(p.base_control.intensities[j], p.coils)
        expl = adjoint_coupling(m, lap_m, u, phi, grid) - p.rhs[j]
        rhs = phi + dt * expl
        phi = implicit_solve(grid, dt, rhs)
        if not np.all(np.isfinite(phi)):
            raise BlowUpError("costate became non-finite", j * dt)
        frames[j] = phi
    return Trajectory(grid, dt, frames)


def tracking_adjoint(base_traj: Trajectory, base_control: ControlPath,
                     coils: CoilSet, m_d: np.ndarray, m_omega: np.ndarray) -> Trajectory:
    """Costate for the tracking cost: g = -(m - m_d), phi(T) = m(T) - m_omega."""
    rhs = -(base_traj.values - m_d)
    terminal = VectorField(base_traj.grid, base_traj.values[-1] - m_omega)
    problem = AdjointProblem(base_traj, base_control, coils, rhs, terminal)
    return solve_adjoint(problem)


def solve_costate_derivative(point, z: Trajectory, phi: Trajectory, dU) -> Trajectory:
    """Directional derivative of the costate with respect to the control.

    Runs the adjoint machinery with the right-hand side assembled from the
    tangent state z and the costate phi,

        -lap(phi x z) - (lap z x phi) + phi x zeta(dU)
        + 2 (m.z) phi + 2 (z.phi) m + 2 (m.phi) z - z,

    and terminal data z(T).
    """
    from .tangent import _as_intensities  # local import to avoid a cycle

    grid = point.grid
    K = point.n_steps
    if z.n_steps != K or phi.n_steps != K:
        raise ValueError("tangent and costate trajectories must match the base time grid")
    dvals = _as_intensities(dU, point)
    rhs = np.empty((K + 1,) + grid.shape + (3,))
    for j in range(K + 1):
        m = point.base_traj.values[j]
        zj = z.values[j]
        pj = phi.values[j]
        du = synthesize_values(dvals[j], point.coils)
        m_dot_z = np.sum(m * zj, axis=-1, keepdims=True)
        z_dot_p = np.sum(zj * pj, axis=-1, keepdims=True)
        m_dot_p = np.sum(m * pj, axis=-1, keepdims=True)
        rhs[j] = (-laplacian_values(grid, np.cross(pj, zj))
                  - np.cross(laplacian_values(grid, zj), pj)
                  + np.cross(pj, du)
                  + 2.0 * m_dot_z * pj + 2.0 * z_dot_p * m + 2.0 * m_dot_p * zj
                  - zj)
    problem = AdjointProblem(point.base_traj, point.base_control, point.coils,
                             rhs, VectorField(grid, z.values[-1].copy()))
    return solve_adjoint(problem)
