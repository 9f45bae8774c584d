import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from llbopt import (
    CoilSet,
    ControlPath,
    Grid,
    SimConfig,
    VectorField,
    gaussian_coil,
    simulate,
)
from llbopt.config import SCHEMA
from llbopt.optimize import ReducedProblem, TrackingTargets


def unit_grid_1d(n=32, length=1.0):
    return Grid((n,), (length,))


def cosine_initial(grid, amp=0.4):
    """Smooth Neumann-compatible initial state used across tests."""
    coords = grid.meshgrid()
    vals = np.zeros(grid.shape + (3,))
    vals[..., 0] = amp * np.cos(np.pi * coords[0])
    vals[..., 1] = 0.5 * amp
    return VectorField(grid, vals)


@st.composite
def grids(draw):
    """1-3D grids with unequal axis lengths, singleton axes allowed."""
    dim = draw(st.integers(1, 3))
    cells = tuple(draw(st.integers(1, 10)) for _ in range(dim))
    lengths = tuple(draw(st.floats(0.5, 2.0)) for _ in range(dim))
    return Grid(cells, lengths)


# 0-2 leading batch axes of small extent
batch_shapes = st.lists(st.integers(1, 3), max_size=2).map(tuple)


def two_gaussian_coils(grid):
    if grid.dim == 1:
        c1, c2 = [0.3], [0.7]
    else:
        c1 = [0.3] + [0.5] * (grid.dim - 1)
        c2 = [0.7] + [0.5] * (grid.dim - 1)
    return CoilSet.from_fields([gaussian_coil(grid, c1, 0.15, 0),
                                gaussian_coil(grid, c2, 0.15, 1)])


def frame_source(grid, values):
    """The per-step costate source ``j -> frame j`` of frames stacked on the
    time axis of ``values`` (``batch + (K+1,) + grid.shape + (3,)``)."""
    return np.moveaxis(values, -grid.dim - 2, 0).__getitem__


def tracking_problem(n=32, dt=5e-3, T=0.5, amp=0.4, lower=-5.0, upper=5.0,
                     tol=1e-6, dim=1):
    """``(problem, U0, cfg)``: the stock tracking problem (reachable-adjacent
    target from an uncontrolled run, two Gaussian coils), the zero control in
    its box bounds, and the keywords of ``projected_gradient_descent``: the
    tolerance ``tol`` and the schema's iteration and halving budgets."""
    if dim == 1:
        grid = Grid((n,), (1.0,))
    else:
        grid = Grid((n,) * dim, (1.0,) * dim)
    sim = SimConfig(T=T, dt=dt)
    K = sim.n_steps
    coils = two_gaussian_coils(grid)
    m0 = cosine_initial(grid, amp)
    m0_target = VectorField(grid, 0.55 * m0.values + 0.12)
    target_traj = simulate(m0_target, ControlPath.zeros(K, coils.n_coils, dt),
                           coils, sim)
    targets = TrackingTargets.from_trajectory(target_traj)
    U0 = ControlPath.zeros(K, coils.n_coils, dt, lower=lower, upper=upper)
    descent = {"tol": tol, "max_iters": SCHEMA["solver.opt_max_iters"].default,
               "max_halvings": SCHEMA["solver.max_halvings"].default}
    return ReducedProblem(m0, sim, coils, targets), U0, descent


def matched(problem, U):
    """``problem`` with the state it reaches under ``U`` as its targets, so
    the tracking terms and the costate vanish at ``U``."""
    traj = simulate(problem.m0, U, problem.coils, problem.sim)
    return dataclasses.replace(problem, targets=TrackingTargets.from_trajectory(traj))


@pytest.fixture(scope="session")
def stock_problem():
    return tracking_problem()


def peak_rise(fn, *args, **kwargs):
    """Call ``fn`` and return its result and the peak of the memory it
    allocated, in bytes above what was allocated when it was called, as
    ``tracemalloc`` traces it (started here unless already tracing)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def trajectory_bytes(grid, n_steps):
    """Bytes of one stored (K+1)-frame trajectory on ``grid``."""
    return 8 * 3 * (n_steps + 1) * grid.node_count


def stencil_form_bound(g, K, dt, frames):
    """How far a K-step sweep that reads lap_h off its solves may drift from
    its stencil form: each step's read-off Laplacian carries the solve's
    rounding over dt (the bound of
    ``test_llb.py::TestImplicitSolve::test_the_solution_laplacian_is_read_off_the_solve``),
    which the step multiplies by dt, so a step adds rounding of about
    eps * max|frame| * (1 + dt * sum_ax 4/h^2), at most 2 * sum_ax n_ax
    times over, and K steps add K of those."""
    stiffness = 1.0 + dt * sum(4.0 / h**2 for h in g.spacing)
    return 2 * sum(g.cells) * K * np.finfo(float).eps * np.abs(frames).max() * stiffness
