"""Optimality certificates at a converged control.

After optimizing the stock problem this evaluates, in order: the
first-order clamp residual, the sampled variational inequality and the
critical cone, second-derivative samples against a finite-difference
oracle, the sampled cone scan, and the global-optimality / uniqueness
comparisons with user-supplied analysis constants.  The cone and the
report come back as the ``certify`` subcommand writes them: one
``masks.csv`` label per control sample, and a dict keyed by the
``report.txt`` names.  A minimum over no samples (a cone every drawn
direction leaves, or no variational-inequality draw with V != U) comes
back as None, which ``report.txt`` writes as ``unset``.
"""

import numpy as np

from llbopt import ControlPath, Grid, SimConfig, VectorField, simulate
from llbopt import CoilSet, gaussian_coil
from llbopt.certify import (
    critical_cone_mask,
    curvature,
    fooc_sample_min,
    global_and_uniqueness_report,
    second_order_scan,
)
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

opt, _ = projected_gradient_descent(
    ControlPath.zeros(K, 2, sim.dt, lower=-5.0, upper=5.0), problem,
    tol=1e-6, max_iters=500, max_halvings=40)
# the certificates read the costate, which the optimizer streams: one more
# adjoint sweep at U*, on the optimizer's forward sweep, stores it
state = reduced_state(opt.U, problem, forward=(opt.cost, opt.traj), keep_costate=True)

# --- curvature along a few directions, adjoint assembly vs FD oracle --------
# every certificate below is evaluated at that state, which carries the
# problem it solves; a stack of directions is one batched tangent,
# costate-derivative and finite-difference sweep each
print("curvature samples at U*")
rng = np.random.default_rng(3)
t = np.arange(K + 1) * sim.dt
hs = []
for d in range(3):
    c = rng.standard_normal((2, 3))
    hs.append(np.stack([c[i, 0] + c[i, 1] * np.sin(2 * np.pi * t / sim.T)
                        + c[i, 2] * np.cos(np.pi * t / sim.T) for i in range(2)], axis=1))
for s in curvature(state, np.stack(hs), eps_fd=1e-3):
    print(f"  dir {s.direction_id}: Q_adj = {s.q_adj:+.6f}, Q_fd = {s.q_fd:+.6f}, "
          f"rel err = {s.rel_err:.2e}")

# --- sampled second-order scan over the critical cone ------------------------
# the default zero rule is floored by the stationarity residual, so
# residual-scale noise in Upsilon pins nothing
cone = critical_cone_mask(state.U, state.grad)
min_rayleigh, samples = second_order_scan(
    state, cone, 6, np.random.default_rng(4), eps_fd=1e-3)
print(f"cone scan: min Q(h)/|h|^2 = {min_rayleigh:.6f} over {len(samples)} "
      f"directions (positive => second-order condition holds on the sample)")

# --- first-order samples, then the report with user constants ---------------
# the constants are keywords named as their certify.* config keys
rng = np.random.default_rng(5)
fooc_min = fooc_sample_min(state.U, state.grad, 200, rng)
report = global_and_uniqueness_report(state, rng, c_go=0.05, c4n=1.2, ctilde=0.01)
print()
print(f"pf residual           {state.residual:.3e}")
print(f"FOOC sampled min      {fooc_min:+.3e}")
print(f"global condition      lhs = {report['go_lhs']:.4f} vs 1/2 "
      f"-> {report['go_status']} (strict: {report['go_status_strict']})")
print(f"uniqueness bound      lhs = {report['uloc_lhs']:.4f} vs 1/T = "
      f"{report['uloc_rhs']:.4f} -> {report['uloc_status']}")
print(f"smallness monitor     max |lap m|^2 = {report['smallness_max']:.4f} "
      f"-> {report['smallness_status']}")
print("constants             "
      + ", ".join(f"{k[len('constant.'):]} = {v}" for k, v in report.items()
                  if k.startswith("constant.")))
labels, counts = np.unique(cone, return_counts=True)
print("cone labels           " + ", ".join(f"{label}: {count}" for label, count
                                           in zip(labels, counts)) + f" of {cone.size}")
