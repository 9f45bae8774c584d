"""Cross-checking the IMEX sweep against a spectral time integrator.

The first cosine modes are exact eigenvectors of the discrete Neumann
Laplacian, so truncating to them and integrating the coefficient ODEs with
an adaptive Runge-Kutta method gives an independent time discretization of
the same spatial operator. For smooth small-amplitude data the two answers
agree to the IMEX scheme's O(dt) accuracy.
"""

import numpy as np

from llbopt import (
    CoilSet,
    ControlPath,
    Grid,
    SimConfig,
    VectorField,
    simulate,
    simulate_galerkin,
    uniform_coil,
)

grid = Grid((128,), (1.0,))
cfg = SimConfig(T=0.25, dt=1e-4)
x = grid.axis_coords(0)

vals = np.zeros(grid.shape + (3,))
vals[..., 0] = 0.08 * np.cos(np.pi * x)
vals[..., 1] = 0.05
vals[..., 2] = 0.04 * np.cos(2 * np.pi * x)
m0 = VectorField(grid, vals)
coils = CoilSet.from_fields([uniform_coil(grid, 1)])
U = ControlPath.constant([0.1], cfg.n_steps, cfg.dt)

# eigenvalues 1 + (2 - 2 cos(pi k / n)) / h^2 of (-lap + I) on the grid
k = np.arange(8)
eigenvalues = 1.0 + (2.0 - 2.0 * np.cos(np.pi * k / grid.cells[0])) / grid.spacing[0] ** 2
print("first 8 eigenvalues of (-lap + I):",
      np.array2string(eigenvalues, precision=3))

traj = simulate(m0, U, coils, cfg)
oracle = simulate_galerkin(m0, U, coils, cfg, n_modes=8)

w = grid.cell_volume
disc = np.array([np.sqrt(w * np.sum((traj.values[j] - oracle.values[j]) ** 2))
                 for j in range(traj.n_steps + 1)])
print(f"L2 discrepancy: max {disc.max():.3e} at t = "
      f"{disc.argmax() * cfg.dt:.3f}, final {disc[-1]:.3e}")
