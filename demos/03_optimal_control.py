"""The stock tracking problem, end to end.

Two Gaussian coils steer the magnetization toward the evolution of an
uncontrolled run started from different initial data; projected gradient
descent with Armijo backtracking drives the clamp-formula residual to
1e-6, and the optimality of the result is checked by sampling the
variational inequality.
"""

import numpy as np

from llbopt import ControlPath, Grid, SimConfig, VectorField, simulate
from llbopt import CoilSet, gaussian_coil
from llbopt.certify import fooc_sample_min
from llbopt.optimize import (
    ReducedProblem,
    TrackingTargets,
    projected_gradient_descent,
    reduced_state,
)

grid = Grid((32,), (1.0,))
sim = SimConfig(T=0.5, dt=5e-3)
K = sim.n_steps
x = grid.axis_coords(0)

vals = np.zeros(grid.shape + (3,))
vals[..., 0] = 0.4 * np.cos(np.pi * x)
vals[..., 1] = 0.2
m0 = VectorField(grid, vals)
coils = CoilSet.from_fields([gaussian_coil(grid, [0.3], 0.15, 0),
                             gaussian_coil(grid, [0.7], 0.15, 1)])

target_traj = simulate(VectorField(grid, 0.55 * vals + 0.12),
                       ControlPath.zeros(K, 2, sim.dt), coils, sim)
problem = ReducedProblem(m0, sim, coils, TrackingTargets.from_trajectory(target_traj))

U0 = ControlPath.zeros(K, 2, sim.dt, lower=-5.0, upper=5.0)

# the descent settings are the solver.opt_tol, solver.opt_max_iters and
# solver.max_halvings config keys, here at their defaults
state, history = projected_gradient_descent(U0, problem, tol=1e-6, max_iters=500,
                                            max_halvings=40)
U = state.U

print("iter   cost          tracking      terminal      control       residual")
for rec in history:
    c = rec.cost  # the cost breakdown measured at that iterate
    print(f"{rec.iteration:4d}   {c.total:.6e}  {c.tracking:.6e}  "
          f"{c.terminal:.6e}  {c.control:.6e}  {rec.residual:.3e}")

rs = reduced_state(U, problem)
res, upsilon = rs.residual, rs.grad
fooc = fooc_sample_min(U, upsilon, 200, np.random.default_rng(0))
print()
print(f"clamp-formula residual at U*: {res:.3e}")
print(f"min sampled variational-inequality value (normalized): {fooc:+.3e}")
print(f"intensity range: [{U.intensities.min():+.4f}, {U.intensities.max():+.4f}] "
      f"inside the box [-5, 5]")
