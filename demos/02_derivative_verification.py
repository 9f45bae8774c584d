"""Derivative machinery, verified three independent ways.

Builds a generic 1D problem and checks: the reduced gradient against
central differences of the cost, the tangent solver against the Taylor
remainder of the nonlinear map, and the tangent/adjoint pair against the
duality identity that underlies the first-order optimality condition.
"""

import numpy as np

from llbopt import (
    ControlPath,
    Grid,
    LinearizationPoint,
    SimConfig,
    VectorField,
    simulate,
    solve_adjoint,
    solve_tangent,
    taylor_remainder_order,
)
from llbopt.coils import control_inner_rms, synthesize_values
from llbopt.grid import time_integral
from llbopt.optimize import ReducedProblem, TrackingTargets, reduced_state, streamed_cost

grid = Grid((64,), (1.0,))
sim = SimConfig(T=0.25, dt=1e-3)
K = sim.n_steps
x = grid.axis_coords(0)

vals = np.zeros(grid.shape + (3,))
vals[..., 0] = 0.4 * np.cos(np.pi * x)
vals[..., 1] = 0.2
m0 = VectorField(grid, vals)

from llbopt import CoilSet, gaussian_coil
coils = CoilSet.from_fields([gaussian_coil(grid, [0.3], 0.15, 0),
                             gaussian_coil(grid, [0.7], 0.15, 1)])

# reachable-adjacent target: uncontrolled run from different initial data
target_traj = simulate(VectorField(grid, 0.55 * vals + 0.12),
                       ControlPath.zeros(K, 2, sim.dt), coils, sim)
problem = ReducedProblem(m0, sim, coils, TrackingTargets.from_trajectory(target_traj))

U = ControlPath.constant([0.5, -0.4], K, sim.dt)

# --- gradient vs central differences ----------------------------------------
t = np.arange(K + 1) * sim.dt
h = np.stack([0.6 + 0.4 * np.sin(2 * np.pi * t / sim.T),
              -0.5 + 0.3 * np.cos(np.pi * t / sim.T)], axis=1)
g = reduced_state(U, problem).grad
eps = 1e-4
# both shifted forwards in one batched sweep that keeps only the costs
shifted = np.stack([U.intensities + eps * h, U.intensities - eps * h])
(cp, cm), _ = streamed_cost(U.with_intensities(shifted), problem)
fd = (cp.total - cm.total) / (2 * eps)
ad = control_inner_rms(g, h, sim.dt)
print("adjoint gradient vs finite differences")
print(f"  <grad, h> = {ad:+.8f}, central FD = {fd:+.8f}, "
      f"rel err = {abs(fd - ad) / abs(fd):.2e}")

# --- Taylor remainder: slope 2 against slope 1 ------------------------------
traj = simulate(m0, U, coils, sim)
point = LinearizationPoint(traj, U, coils)
result = taylor_remainder_order(point, h, [1e-1, 1e-2, 1e-3], cfg=sim)
print("Taylor test of the control-to-state derivative")
print(f"  remainder order {result.remainder_order:.3f} (differentiability)")
print(f"  first-difference order {result.first_difference_order:.3f} (Lipschitz)")

# --- duality identity --------------------------------------------------------
z = solve_tangent(point, h)
gfun = np.zeros((K + 1,) + grid.shape + (3,))
gfun[..., 0] = np.cos(np.pi * x)
phi_T = np.zeros(grid.shape + (3,))
phi_T[..., 2] = np.cos(np.pi * x)
phi = solve_adjoint(point, lambda j: gfun[j], VectorField(grid, phi_T))
w = grid.cell_volume
gz = np.array([w * np.sum(gfun[j] * z.values[j]) for j in range(K + 1)])
lhs = w * np.sum(phi_T * z.values[-1]) - time_integral(gz, sim.dt)
rhs_series = np.array(
    [w * np.sum((synthesize_values(h[j], coils)
                 + np.cross(traj.values[j], synthesize_values(h[j], coils)))
                * phi.values[j]) for j in range(K + 1)])
rhs = time_integral(rhs_series, sim.dt)
print("tangent/adjoint duality pairing")
print(f"  <phi_T, z(T)> - <g, z> = {lhs:+.8f}")
print(f"  <zeta(h) + m x zeta(h), phi> = {rhs:+.8f}")
print(f"  relative gap = {abs(lhs - rhs) / abs(rhs):.2e} (O(dt); shrinks 4x per dt/4)")
