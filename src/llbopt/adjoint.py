"""Backward-in-time solvers: the adjoint (costate) system with general
right-hand side and terminal data, and the costate-derivative system.

The sweep is the continuous adjoint discretized by backward IMEX Euler:
after time reversal the costate's own Laplacian is implicit and the coupled
terms, d_mR^T phi of :func:`~llbopt.llb.reaction_adjoint`, explicit.  It
runs on the forward sweep's :func:`~llbopt.llb.march`, in reverse.  Their
Laplacian term is lap_h of a nodewise cross product, which keeps the
pairing with the tangent solver exact in space; the remaining gradient
mismatch is the O(dt) time-discretization gap, quantified by the duality
test.  That term is folded into the step's implicit solve by the identity
in :func:`~llbopt.llb.implicit_solve`, so a step forms one Laplacian.

Every backward sweep is :func:`solve_adjoint` around the
:class:`~llbopt.tangent.LinearizationPoint` (base trajectory, control and
coils, checked once for K and dt) that the tangent sweep linearizes
around.  Its right-hand side is a per-step ``source(j)``, formed when a
step reaches it, never as a trajectory-sized array.  Its costate frames
are stored or, with ``consume=``, handed to a consumer as they are made
(as :func:`~llbopt.llb.simulate` hands its states), so a caller that only
pairs each frame with the coils, as the reduced gradient and the
curvature form do, holds no costate (or costate-derivative) trajectory.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .coils import CoilSet, ControlPath, synthesize_values
from .grid import Trajectory, VectorField
from .llb import (check_time_grid, implicit_solve, march, reaction_adjoint,
                  reaction_adjoint_derivative)
from .tangent import LinearizationPoint


def solve_adjoint(point: LinearizationPoint, source: Callable[[int], np.ndarray],
                  terminal: VectorField, *,
                  consume: Optional[Callable] = None) -> Optional[Trajectory]:
    """Backward IMEX sweep from t=T down to t=0 around ``point``.

    The step computing phi(t_j) from phi(t_{j+1}) takes the explicit terms
    from the known costate and samples the coefficients m, zeta(U) and the
    right-hand side g = ``source(j)`` at the arrival frame t_j; phi(T) is
    ``terminal``.

    The base trajectory, the base control and the terminal data may carry
    leading batch axes (shapes ``batch + (K+1,) + grid.shape + (3,)``,
    ``batch + (K+1, N)`` and ``batch + grid.shape + (3,)``); the batch of
    the sweep is theirs, broadcast, and each ``source(j)`` frame must fit
    it, since it is subtracted in place.  The members are swept together,
    one implicit solve per step, and the result has that batch shape in
    front of the time axis.  A member that turns non-finite raises
    :class:`~llbopt.llb.BlowUpError` for the whole sweep, with the time
    reached.  With ``consume`` the frames go to ``consume(j, phi_j)`` as
    they are made, from j = K down to 0, and None is returned
    (:func:`~llbopt.llb.march`).
    """
    grid, dt = point.grid, point.dt
    if terminal.grid != grid:
        raise ValueError("terminal field grid does not match base trajectory")
    cell = grid.dim + 1  # spatial and component axes
    batch = np.broadcast_shapes(point.base_traj.values.shape[:-cell - 1],
                                point.base_control.intensities.shape[:-2],
                                terminal.values.shape[:-cell])
    base, controls = point.base_traj.frames, point.base_control.intensities

    def advance(j: int, phi: np.ndarray) -> np.ndarray:
        m = base[j]
        # S(phi + dt * (lap c + r - g)), d_mR^T phi = lap c + r, taken as
        # S(phi + dt * (r - g) + c) - c (the identity in implicit_solve): one
        # Laplacian a step, summed in place
        u = synthesize_values(controls[..., j, :], point.coils)
        c, rhs = reaction_adjoint(grid, m, u, phi)
        rhs -= source(j)
        rhs *= dt
        rhs += phi
        rhs += c
        out = implicit_solve(grid, dt, rhs)
        out -= c
        return out

    return march(grid, dt, terminal.values, batch, point.n_steps, advance,
                 "costate became non-finite", reverse=True, consume=consume)


def tracking_adjoint(base_traj: Trajectory, base_control: ControlPath,
                     coils: CoilSet, m_d: np.ndarray, m_omega: np.ndarray, *,
                     consume: Optional[Callable] = None) -> Optional[Trajectory]:
    """Costate for the tracking cost: g = -(m - m_d), phi(T) = m(T) - m_omega;
    stored, or streamed to ``consume`` as :func:`solve_adjoint` does."""
    point = LinearizationPoint(base_traj, base_control, coils)
    base = base_traj.frames
    return solve_adjoint(point, lambda j: -(base[j] - m_d[j]),
                         VectorField(base_traj.grid, base[-1] - m_omega), consume=consume)


def solve_costate_derivative(point: LinearizationPoint, z: Trajectory, phi: Trajectory,
                             dU, *, consume: Optional[Callable] = None
                             ) -> Optional[Trajectory]:
    """Directional derivative of the costate with respect to the control.

    Runs the adjoint machinery from terminal data z(T) with the source
    -(d^2R[(z, zeta(dU)), .])^T phi - z, from the tangent z and the costate
    phi (:func:`~llbopt.llb.reaction_adjoint_derivative`; -z is the tracking
    source's derivative), which must lie on the base trajectory's grid and
    time nodes.  ``z`` and ``dU`` may be stacks of tangents and directions
    with leading batch axes (as :func:`solve_tangent` returns and takes
    them), one tangent per direction: their batch shapes must be equal.
    The costate derivatives then come from one batched
    :func:`solve_adjoint` sweep, stored or streamed to ``consume``.
    """
    grid = point.grid
    for traj, names in ((z, "tangent and base trajectory"), (phi, "costate and base trajectory")):
        check_time_grid(traj, point, names)
        if traj.grid != grid:
            raise ValueError(f"{names} disagree on the grid")
    dvals = point.direction_values(dU)
    z_batch, d_batch = z.values.shape[:-grid.dim - 2], dvals.shape[:-2]
    if z_batch != d_batch:
        raise ValueError(f"tangent and direction disagree on batch: {z_batch} and {d_batch}")
    base, z_frames, phi_frames = point.base_traj.frames, z.frames, phi.frames

    def source(j: int) -> np.ndarray:
        du = synthesize_values(dvals[..., j, :], point.coils)
        return (-reaction_adjoint_derivative(grid, base[j], phi_frames[j], z_frames[j], du)
                - z_frames[j])

    return solve_adjoint(point, source, VectorField(grid, z.frames[-1].copy()),
                         consume=consume)
