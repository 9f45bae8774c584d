"""Tracking cost, the reduced-problem evaluator, and projected-gradient
descent over the box-constrained coil intensities.

A :class:`ReducedProblem` is the control problem.  :func:`forward_cost` is
one forward sweep of it; :func:`reduced_state` adds one adjoint sweep and
gives the gradient and natural residual.  The optimizer, the certificates
and the CLI all evaluate the reduced problem through these two, and hand a
:class:`ReducedState`, which carries its problem, on instead of recomputing
it: the optimizer reuses the accepted line-search trial's forward sweep and
returns the final state with its trajectory.  One :class:`CostTally` sums
every cost frame by frame; :func:`streamed_cost` is the forward that keeps
no trajectory, for finite differences that need only the number.

The adjoint sweep streams: :func:`coil_pairing` pairs phi x m + phi with
the coils per frame as the sweep makes it, so a gradient holds two
trajectories (the targets and the state), not a third for the costate.
Only the certificates read the costate itself; they ask for it with
``reduced_state(..., keep_costate=True)``.  The optimizer drops each
rejected line-search trial's trajectory before the next trial's forward
sweep, and the previous iterate's before the line search, so it holds two
as well.

The stationary points of the projected iteration are exactly the fixed
points of the clamp formula U_i = P_[a,b](-pairing_i), so the optimizer's
stopping metric and the first-order certificate measure the same residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adjoint import tracking_adjoint
from .coils import (
    CoilSet,
    ControlPath,
    coil_pairing,
    control_inner_rms,
    control_norm_rms,
    project_box,
)
from .grid import Trajectory, VectorField, time_integral
from .llb import SimConfig, StalledDescentError, control_adjoint, simulate


@dataclass
class TrackingTargets:
    """Desired evolution m_d (per frame) and terminal target m_Omega."""

    m_d: np.ndarray      # (K+1,) + grid.shape + (3,)
    m_omega: np.ndarray  # grid.shape + (3,)

    def __post_init__(self):
        self.m_d = np.asarray(self.m_d, dtype=float)
        self.m_omega = np.asarray(self.m_omega, dtype=float)

    @classmethod
    def constant(cls, grid, vec, n_steps: int) -> "TrackingTargets":
        """The target ``vec`` at every node and step: ``m_d`` is a read-only
        view of one frame at every step, not K+1 copies of it."""
        frame = np.broadcast_to(np.asarray(vec, dtype=float), grid.shape + (3,)).copy()
        return cls(np.broadcast_to(frame, (n_steps + 1,) + frame.shape), frame.copy())

    @classmethod
    def from_trajectory(cls, traj: Trajectory) -> "TrackingTargets":
        return cls(traj.values.copy(), traj.values[-1].copy())

    def check_compatible(self, grid, n_steps: int):
        frames = (n_steps + 1,) + grid.shape + (3,)
        if self.m_d.shape != frames or self.m_omega.shape != frames[1:]:
            raise ValueError(
                f"target/grid incompatibility: m_d frames {self.m_d.shape} and m_Omega "
                f"{self.m_omega.shape} vs trajectory {frames}")


@dataclass
class CostBreakdown:
    tracking: float
    terminal: float
    control: float

    @property
    def total(self) -> float:
        return self.tracking + self.terminal + self.control


@dataclass(frozen=True, eq=False)
class ReducedProblem:
    """The control problem: initial magnetization, time grid, coils and
    desired state, checked once, when built, to fit ``m0``'s grid and K."""

    m0: VectorField
    sim: SimConfig
    coils: CoilSet
    targets: TrackingTargets

    def __post_init__(self):
        if self.coils.grid != self.m0.grid:
            raise ValueError("coil/grid incompatibility: coils and m0 live on different grids")
        self.targets.check_compatible(self.m0.grid, self.sim.n_steps)


class CostTally:
    """The tracking and terminal terms of the cost, summed frame by frame:
    the one cost formula, fed by a sweep (``simulate(..., consume=
    tally.add)``) or by :func:`evaluate_cost` from a stored trajectory.
    Frames may carry batch axes in front."""

    def __init__(self, targets: TrackingTargets, grid, dt: float, n_steps: int):
        targets.check_compatible(grid, n_steps)
        self.targets, self.w, self.dt, self.cells = targets, grid.cell_volume, dt, grid.dim + 1
        self.per_frame = [None] * (n_steps + 1)

    def add(self, j: int, m: np.ndarray):
        lead = m.shape[:m.ndim - self.cells] + (-1,)
        diff = (m - self.targets.m_d[j]).reshape(lead)
        self.per_frame[j] = self.w * np.sum(diff ** 2, axis=-1)
        if j == len(self.per_frame) - 1:
            dT = (m - self.targets.m_omega).reshape(lead)
            self.terminal = 0.5 * self.w * np.sum(dT * dT, axis=-1)

    def costs(self, U: ControlPath):
        """The :class:`CostBreakdown` of an unbatched sweep, or a list of one
        per member in C order; NaN for a member that blew up (NaN frames)."""
        batch, tail = np.shape(self.terminal), U.intensities.shape[-2:]
        series = np.stack(self.per_frame, axis=-1).reshape(-1, len(self.per_frame))
        controls = np.broadcast_to(U.intensities, batch + tail).reshape((len(series),) + tail)
        out = [CostBreakdown(0.5 * time_integral(s, self.dt), float(t),
                             0.5 * control_norm_rms(c, U.dt) ** 2)
               for s, t, c in zip(series, np.ravel(self.terminal), controls)]
        return out if batch else out[0]


def evaluate_cost(traj: Trajectory, U: ControlPath, targets: TrackingTargets) -> CostBreakdown:
    """The three-term cost of a stored trajectory: tracking + terminal +
    control energy."""
    tally = CostTally(targets, traj.grid, traj.dt, traj.n_steps)
    for j, m in enumerate(traj.frames):
        tally.add(j, m)
    return tally.costs(U)


def natural_residual(U: ControlPath, grad: np.ndarray) -> float:
    """Scale-free fixed-point residual ||U - P_box(U - grad)|| / sqrt(T)."""
    trial = project_box(U.intensities - grad, U.lower, U.upper)
    return control_norm_rms(U.intensities - trial, U.dt) / np.sqrt(U.final_time)


def forward_cost(U: ControlPath, problem: ReducedProblem) -> tuple[CostBreakdown, Trajectory]:
    """The reduced cost J(U) and the state it was measured on: one forward
    sweep that stores the trajectory, then :func:`evaluate_cost` on it."""
    traj = simulate(problem.m0, U, problem.coils, problem.sim)
    return evaluate_cost(traj, U, problem.targets), traj


def streamed_cost(U: ControlPath, problem: ReducedProblem):
    """``(cost, blown_at)``: J(U) from one forward sweep that keeps no
    trajectory.  ``U`` may be a stack of controls (``batch + (K+1, N)``),
    swept together; the cost is then a list, NaN for a member that blew up
    at ``blown_at`` (``inf`` where it stayed bounded, as
    :func:`~llbopt.llb.blowup_times` reads it).  Unbatched, a blow-up raises.
    """
    tally = CostTally(problem.targets, problem.m0.grid, problem.sim.dt, problem.sim.n_steps)
    simulate(problem.m0, U, problem.coils, problem.sim, consume=tally.add)
    nan = np.isnan(np.stack(tally.per_frame, axis=-1))
    blown_at = np.where(nan.any(axis=-1), np.argmax(nan, axis=-1) * tally.dt, np.inf)
    return tally.costs(U), blown_at


@dataclass
class ReducedState:
    """The reduced problem at one control: the problem, the control, and
    the cost, state, gradient and natural residual from one forward and one
    adjoint sweep of it.

    ``grad`` is the first-order quantity Upsilon_i(t) = U_i(t) +
    int (phi x m + phi) . B_i dx, the gradient of J in the summed
    componentwise L2 geometry; ``residual`` is :func:`natural_residual` at
    unit step, the time-RMS of U_i - P_[a_i,b_i](-pairing_i) summed over
    coils.  ``phi`` is the costate trajectory when the state was built with
    ``keep_costate=True`` (the certificates read it), else None: the
    gradient pairs each costate frame as the sweep makes it.
    """

    problem: ReducedProblem
    U: ControlPath
    cost: CostBreakdown
    traj: Trajectory
    phi: Optional[Trajectory]
    grad: np.ndarray
    residual: float


def reduced_state(U: ControlPath, problem: ReducedProblem,
                  forward: tuple[CostBreakdown, Trajectory] | None = None, *,
                  keep_costate: bool = False) -> ReducedState:
    """The :class:`ReducedState` at U.

    ``forward`` is the ``(cost, traj)`` of :func:`forward_cost` at U when
    the caller already holds it; then only the adjoint sweep runs.  The
    adjoint sweep hands each costate frame to :func:`coil_pairing` as it
    makes it, and stores the costate only with ``keep_costate``.
    """
    cost, traj = forward_cost(U, problem) if forward is None else forward
    coils, targets = problem.coils, problem.targets
    base = traj.frames
    pairing = np.empty(U.intensities.shape)
    phi = Trajectory(traj.grid, traj.dt, np.empty_like(traj.values)) if keep_costate else None

    def take(j: int, phi_j: np.ndarray):
        pairing[j] = coil_pairing(control_adjoint(base[j], phi_j), coils)
        if phi is not None:
            phi.frames[j] = phi_j

    tracking_adjoint(traj, U, coils, targets.m_d, targets.m_omega, consume=take)
    grad = U.intensities + pairing
    return ReducedState(problem, U, cost, traj, phi, grad, natural_residual(U, grad))


@dataclass
class IterationRecord:
    iteration: int
    cost: CostBreakdown
    residual: float
    step: float


def projected_gradient_descent(U0: ControlPath, problem: ReducedProblem, *,
                               tol: float, max_iters: int, max_halvings: int):
    """Projected gradient with Armijo backtracking.

    Iterates U <- P_box(U - s * grad) with s halved from 1, at most
    ``max_halvings`` times, until the sufficient-decrease test (Armijo
    constant 1e-4) passes; stops when the natural residual at unit step
    drops below ``tol`` or after ``max_iters`` iterations.  The three are
    the ``solver.opt_tol``, ``solver.opt_max_iters`` and
    ``solver.max_halvings`` config keys.
    Each line-search trial costs one forward sweep and each accepted step
    one adjoint sweep: the accepted trial's forward sweep is reused.  At
    most one state trajectory is held at a time: a rejected trial's is
    dropped before the next trial runs.

    Returns
    -------
    state : ReducedState
        The reduced problem at the final iterate (feasible), ``state.U``.
    history : list[IterationRecord]
        One record per visited iterate, including the last, holding the
        :class:`CostBreakdown` measured there.
    """
    U = U0 if U0.is_feasible() else U0.projected()
    history: list[IterationRecord] = []
    state = reduced_state(U, problem)

    for it in range(max_iters + 1):
        U, cost, grad, residual = state.U, state.cost, state.grad, state.residual
        # .step is overwritten with the accepted step once the next iterate
        # exists; it stays 0 on the final record
        history.append(IterationRecord(it, cost, residual, 0.0))
        if residual <= tol or it == max_iters:
            break
        del state  # free its trajectory before the line search

        s = 1.0  # the unit step at which the natural residual is measured
        forward = None
        for _ in range(max_halvings + 1):
            trial_int = project_box(U.intensities - s * grad, U.lower, U.upper)
            delta = trial_int - U.intensities
            predicted = control_inner_rms(grad, delta, U.dt)
            trial = U.with_intensities(trial_int)
            forward = forward_cost(trial, problem)
            if forward[0].total <= cost.total + 1e-4 * predicted:
                break
            forward = None  # free the rejected trajectory before the next trial
            s *= 0.5
        if forward is None:
            raise StalledDescentError(
                f"stalled descent: no sufficient decrease after "
                f"{max_halvings} halvings at iteration {it}, natural "
                f"residual {residual:.3e} above tolerance {tol:g}"
            )
        state = reduced_state(trial, problem, forward=forward)
        forward = None  # the state holds the trajectory; `del state` frees it
        history[-1].step = s  # step that produced the next iterate

    return state, history
