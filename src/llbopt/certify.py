"""Numerical evaluation of the optimality certificates at a candidate
control: first-order variational-inequality samples, the critical cone,
second-order curvature samples and scan, and the global-optimality /
uniqueness comparisons.

Every certificate is a statement at one point of one problem: a
:class:`~llbopt.optimize.ReducedState`, which holds the
:class:`~llbopt.optimize.ReducedProblem` it was computed on (initial state,
time grid, coils, targets), the control, the state, the costate, the
first-order quantity Upsilon, the clamp residual and the cost.
:func:`curvature`, :func:`second_order_scan` and
:func:`global_and_uniqueness_report` take only that state and read all of
these from it, so a certificate cannot mix a state with another problem.
They read the costate trajectory, which a reduced state stores only when
built with ``reduced_state(..., keep_costate=True)``; the optimizer's
states do not keep it.

What this module returns is what the ``certify`` subcommand writes: the
cone is the array of ``masks.csv`` labels (:func:`critical_cone_mask`),
and the report a dict keyed by its ``report.txt`` names
(:func:`global_and_uniqueness_report`).  A minimum over no samples, of
:func:`fooc_sample_min` or :func:`second_order_scan`, is None, and so is a
Lipschitz estimate with no pair and what is built from it; ``report.txt``
writes None as ``unset``.  The analysis constants (the
global-condition constant, the smallness constant, the Lipschitz constants
and the H1->L4 embedding constant) are not constructive, so they enter as
keywords named as their ``certify.*`` config keys.  Where an empirical
estimator replaces a user-certified constant, the report is marked
INDETERMINATE rather than PASS/FAIL.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adjoint import solve_costate_derivative, tracking_adjoint
from .coils import ControlPath, coil_pairing, control_inner_rms, control_norm_rms
from .grid import Grid, Trajectory, frame_norms, laplacian_values, time_integral
from .llb import BlowUpError, blowup_times, control_adjoint_derivative, simulate
from .optimize import ReducedProblem, ReducedState, natural_residual, streamed_cost
from .tangent import LinearizationPoint, solve_tangent

PASS, FAIL, INDETERMINATE = "PASS", "FAIL", "INDETERMINATE"

BUDGET = 64 * 2**20
"""Bytes of stored trajectories one batched stage of the certificate may
hold.  A trajectory takes 8 * 3 * (K+1) * cells bytes, and a batch takes
max(1, BUDGET // (trajectories held per member * that)) members.  A member
holds one trajectory in the tangent and costate-derivative stage (z; phi'
is paired per frame) and four per Lipschitz pair (two states, two
costates); the adjoint sources are formed per step.  The finite-difference
forwards hold frames only, so they always run as one sweep.  On a 1D grid of 16 cells with
K = 80 a trajectory is 31 KB, so a scan is one batch per stage; on a 3D
32^3 grid with K = 250 it is 197 MB, so that scan runs one member at a
time."""


def _batches(n: int, grid: Grid, n_steps: int, held: int) -> list:
    """Slices splitting ``n`` members, each holding ``held`` trajectories at
    once, into batches within :data:`BUDGET`."""
    trajectory_bytes = 8 * 3 * (n_steps + 1) * grid.node_count
    width = max(1, BUDGET // (held * trajectory_bytes))
    return [slice(i, i + width) for i in range(0, n, width)]


def _costate(state: ReducedState) -> Trajectory:
    if state.phi is None:
        raise ValueError("the certificates read the costate: build the state with "
                         "reduced_state(..., keep_costate=True)")
    return state.phi


@dataclass
class CurvatureSample:
    direction_id: int
    q_adj: float
    q_fd: float
    rel_err: float
    fd_valid: bool = True


# ---------------------------------------------------------------------------
# first order
# ---------------------------------------------------------------------------

def check_sampling_box(U: ControlPath) -> None:
    """Raise ValueError unless the variational-inequality samples of
    :func:`fooc_sample_min` can be drawn from the box of ``U``: finite
    bounds and a finite width upper - lower."""
    # an infinite bound, or finite ones whose width overflows, reads non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        width = U.upper - U.lower
    if not np.all(np.isfinite(width)):
        raise ValueError("sampling the variational inequality needs a finite box: "
                         "finite bounds and a finite width upper - lower")


def fooc_sample_min(U: ControlPath, upsilon: np.ndarray, n_samples: int,
                    rng: np.random.Generator) -> Optional[float]:
    """Minimum over random feasible V of the normalized variational-inequality
    value  sum_i int Upsilon_i (V_i - U_i) dt / ||V - U||; None when no
    draw gives V != U (no samples, or no coils)."""
    check_sampling_box(U)
    values = []
    for _ in range(n_samples):
        V = rng.uniform(U.lower, U.upper)
        diff = V - U.intensities
        denom = control_norm_rms(diff, U.dt)
        if denom != 0.0:
            values.append(control_inner_rms(upsilon, diff, U.dt) / denom)
    return float(min(values)) if values else None


def critical_cone_mask(U: ControlPath, upsilon: np.ndarray,
                       tol_active: Optional[float] = None,
                       tol_upsilon: Optional[float] = None) -> np.ndarray:
    """The critical cone as one label per control sample: an array of the
    shape of ``U.intensities`` holding ``"zero"``, ``"nonneg"``,
    ``"nonpos"`` or ``"free"``, the constraint on a direction there.

    Sign-constrained where a bound is active, forced to zero where the
    first-order quantity is decisively nonzero (the zero rule dominates the
    sign rules), free elsewhere.  Where the two bounds coincide the
    direction is pinned to zero as well.  By default |Upsilon| counts as
    decisively nonzero above max(1e-6 max|Upsilon|, 10 r), r the natural
    residual at U: below the measured stationarity residual it is numerical
    noise, so a converged interior optimum keeps a free cone.
    """
    if tol_active is None:
        gap = np.abs(U.upper - U.lower)
        tol_active = 1e-8 * (1.0 + float(np.max(gap[np.isfinite(gap)], initial=0.0)))
    if tol_upsilon is None:
        ups_scale = float(np.max(np.abs(upsilon))) if upsilon.size else 0.0
        tol_upsilon = max(1e-6 * ups_scale, 10.0 * natural_residual(U, upsilon))
    if tol_active < 0 or tol_upsilon < 0:
        raise ValueError("cone tolerances must be nonnegative")
    at_lower = np.abs(U.intensities - U.lower) <= tol_active
    at_upper = np.abs(U.upper - U.intensities) <= tol_active
    forced = np.abs(upsilon) > tol_upsilon
    # the first rule that holds names the sample
    return np.select([forced | (at_lower & at_upper), at_lower, at_upper],
                     ["zero", "nonneg", "nonpos"], "free")


def project_onto_cone(h: np.ndarray, cone: np.ndarray) -> np.ndarray:
    """``h`` projected onto the cone of :func:`critical_cone_mask` labels."""
    out = h.copy()
    out[cone == "zero"] = 0.0
    for label, bound in (("nonneg", np.maximum), ("nonpos", np.minimum)):
        at = cone == label
        out[at] = bound(out[at], 0.0)
    return out


# ---------------------------------------------------------------------------
# second order
# ---------------------------------------------------------------------------

def curvature(state: ReducedState, hs: np.ndarray, eps_fd: float) -> list:
    """Second derivative of the reduced cost at ``state`` along each
    direction of the stack ``hs`` (shape (B, K+1, N)), two ways: a list of B
    :class:`CurvatureSample`, numbered 0..B-1.

    Q_adj is ||h||^2 + sum_i int h_i P_i dt with P the coil pairing of
    :func:`~llbopt.llb.control_adjoint_derivative` along the tangent z and
    the costate derivative phi', paired per frame as the sweep makes it;
    Q_fd is the second central difference of the reduced cost around
    ``state.cost``.  The tangents and costate derivatives each run as one
    batched sweep, split only to keep a batch within :data:`BUDGET`; the 2B
    finite-difference forwards keep no trajectory and run as one sweep.  A
    blow-up at U +/- eps*h invalidates that direction's Q_fd only.
    """
    hs = np.asarray(hs, dtype=float)
    if hs.ndim != 3:
        raise ValueError(f"curvature directions have shape {hs.shape}, expected (B, K+1, N)")
    if not np.all(np.any(hs, axis=(-2, -1))):
        raise ValueError("curvature direction must be nonzero")
    U, traj, phi, coils = state.U, state.traj, _costate(state), state.problem.coils
    grid, K, B = traj.grid, U.n_steps, hs.shape[0]
    point = LinearizationPoint(traj, U, coils)
    pairing = np.empty(hs.shape)
    for sl in _batches(B, grid, K, held=1):
        z = solve_tangent(point, hs[sl])
        z_frames = z.frames

        def take(j: int, pp: np.ndarray):
            f = control_adjoint_derivative(traj.frames[j], phi.frames[j], z_frames[j], pp)
            pairing[sl, j] = coil_pairing(f, coils)

        solve_costate_derivative(point, z, phi, hs[sl], consume=take)
    series = np.sum(hs * pairing, axis=-1)

    # the 2B forwards at U + eps*h (first B) and U - eps*h (last B)
    shifted = np.concatenate([U.intensities + eps_fd * hs, U.intensities - eps_fd * hs])
    costs, _ = streamed_cost(ControlPath(shifted, -np.inf, np.inf, U.dt), state.problem)
    totals = [c.total for c in costs]
    samples = []
    for b in range(B):
        q_adj = control_norm_rms(hs[b], U.dt) ** 2 + time_integral(series[b], U.dt)
        cp, cm = totals[b], totals[B + b]  # NaN where the member blew up
        fd_valid = bool(np.isfinite(cp) and np.isfinite(cm))
        # eps_fd * eps_fd overflows to inf where eps_fd**2 would raise
        q_fd = float((cp - 2.0 * state.cost.total + cm) / (eps_fd * eps_fd))
        rel = abs(q_adj - q_fd) / max(abs(q_fd), 1e-300) if fd_valid else float("nan")
        samples.append(CurvatureSample(b, q_adj, q_fd, rel, fd_valid))
    return samples


def second_order_scan(state: ReducedState, cone: np.ndarray, n_dirs: int,
                      rng: np.random.Generator, eps_fd: float):
    """``(min_rayleigh, samples)``: the minimum Rayleigh value Q(h)/||h||^2
    over random critical directions at ``state`` and their
    :class:`CurvatureSample` list.

    Directions are drawn, projected onto ``cone`` (the labels the caller
    built, :func:`critical_cone_mask`) and normalized, then sampled by one
    :func:`curvature` call; a sample keeps the index of its draw.  The scan
    warns rather than fails away from stationarity.  When every direction
    projects to zero the sampled cone is numerically trivial, and the scan
    returns ``(None, [])``: a minimum over no samples is None.
    """
    U, residual = state.U, state.residual
    if residual > 1e-3:
        warnings.warn(
            f"curvature scan at a point with first-order residual {residual:.3g}; "
            "the critical cone is only meaningful near stationarity",
            RuntimeWarning,
        )
    directions, ids = [], []
    for d in range(n_dirs):
        h = project_onto_cone(rng.standard_normal(U.intensities.shape), cone)
        nrm = control_norm_rms(h, U.dt)
        if nrm >= 1e-14:
            directions.append(h / nrm)
            ids.append(d)
    if not directions:
        return None, []
    samples = curvature(state, np.stack(directions), eps_fd)
    for d, sample in zip(ids, samples):
        sample.direction_id = d
    min_rayleigh = min(s.q_adj for s in samples)  # directions are unit-norm
    return min_rayleigh, samples


# ---------------------------------------------------------------------------
# global condition and uniqueness bound
# ---------------------------------------------------------------------------

def space_time_norms(grid: Grid, frames, dt: float) -> dict:
    """The space-time norms entering the global/uniqueness comparisons, of
    a sequence of frames walked one frame at a time
    (:func:`~llbopt.grid.frame_norms`)."""
    l2_sq, grad_sq = frame_norms(grid, frames, grad=True)
    h1_sq = l2_sq + grad_sq
    return {
        "l2_l2": float(np.sqrt(time_integral(l2_sq, dt))),
        "l2_h1": float(np.sqrt(time_integral(h1_sq, dt))),
        "linf_l2": float(np.sqrt(l2_sq.max())),
        "linf_h1": float(np.sqrt(h1_sq.max())),
    }


def smallness_monitor(traj: Trajectory) -> np.ndarray:
    """||lap m(t)||_L2^2 per frame (the quantity watched for the small-data
    global-existence regime)."""
    grid = traj.grid
    return frame_norms(grid, (laplacian_values(grid, m) for m in traj.frames))


def _estimate_lipschitz_pair(U: ControlPath, problem: ReducedProblem,
                             rng: np.random.Generator, n_pairs: int = 3,
                             spread: float = 0.2):
    """Empirical (lower-bound) squared Lipschitz ratios for state and costate;
    (None, None) when no drawn pair has U1 != U2 (no coils): a maximum over
    no pairs is None.

    The pairs' forwards run as one batched sweep and their costates as one
    batched adjoint sweep (split only to stay within :data:`BUDGET`); a
    blow-up of any member ends the estimate with :class:`BlowUpError`.
    """
    pairs, denoms = [], []
    for _ in range(n_pairs):
        d1 = spread * rng.standard_normal(U.intensities.shape)
        d2 = spread * rng.standard_normal(U.intensities.shape)
        U1, U2 = U.intensities + d1, U.intensities + d2
        denom = control_norm_rms(U1 - U2, U.dt)
        if denom != 0.0:
            pairs.append((U1, U2))
            denoms.append(denom)
    if not pairs:
        return None, None
    state_best = 0.0
    costate_best = 0.0
    grid, coils, targets = problem.m0.grid, problem.coils, problem.targets
    for sl in _batches(len(pairs), grid, U.n_steps, held=4):
        paths = ControlPath(np.array(pairs[sl]), -np.inf, np.inf, U.dt)
        states = simulate(problem.m0, paths, coils, problem.sim)
        blown_at = float(np.min(blowup_times(states)))
        if np.isfinite(blown_at):
            raise BlowUpError("state blow-up", blown_at)
        costates = tracking_adjoint(states, paths, coils, targets.m_d, targets.m_omega)
        for m, p, denom in zip(states.values, costates.values, denoms[sl]):
            dm, dp = (space_time_norms(grid, (a - b for a, b in zip(*pair)), U.dt)
                      for pair in (m, p))
            state_best = max(state_best, dm["linf_h1"] / denom)
            costate_norm = np.sqrt(dp["linf_l2"] ** 2 + dp["l2_h1"] ** 2)
            costate_best = max(costate_best, float(costate_norm) / denom)
    return float(state_best**2), float(costate_best**2)


def global_and_uniqueness_report(state: ReducedState, rng: np.random.Generator, *,
                                 c_go: Optional[float] = None,
                                 c4n: Optional[float] = None,
                                 c2: Optional[float] = None,
                                 c3: Optional[float] = None,
                                 ctilde: Optional[float] = None) -> dict:
    """The global-optimality and uniqueness report at ``state``: a dict
    keyed by the ``report.txt`` names, in the file's order (the comparisons
    and verdicts, then the ``factor.*`` norms they are built from, then the
    ``constant.*`` values used).

    All measurable factors are computed from its state and costate; the two
    comparisons are assembled with the constants, named as their
    ``certify.*`` config keys: ``c_go`` the aggregate constant of the
    global condition, ``c4n`` the H1 -> L4 embedding constant, ``c2``/``c3``
    the state and costate Lipschitz constants and ``ctilde`` the constant
    whose inverse square root bounds the smallness monitor.  Missing
    Lipschitz constants fall back to empirical estimators drawn from
    ``rng`` (``constant.C2_source``/``C3_source`` then read ``estimated``)
    and downgrade the uniqueness verdict to INDETERMINATE; an estimate with
    no pair to draw on is None, and so is ``uloc_lhs``.  ``c_go`` and
    ``c4n`` have no estimator and are required.
    """
    if c_go is None or c4n is None:
        missing = [name for name, v in (("c_go", c_go), ("c4n", c4n)) if v is None]
        raise ValueError(
            "missing required constants with no estimator fallback: "
            + ", ".join(missing))
    U, traj, phi, coils = state.U, state.traj, _costate(state), state.problem.coils

    grid = traj.grid
    m_norms = space_time_norms(grid, traj.frames, traj.dt)
    phi_norms = space_time_norms(grid, phi.frames, phi.dt)
    T = U.final_time
    b_h1_sq = float(np.max(coils.h1_norms, initial=0.0) ** 2)
    c_ab = (control_norm_rms(U.lower, U.dt) ** 2
            + control_norm_rms(U.upper, U.dt) ** 2)

    constants = {}
    estimated = c2 is None or c3 is None
    if estimated:
        c2_est, c3_est = _estimate_lipschitz_pair(U, state.problem, rng)
        if c2 is None:
            c2 = c2_est
            constants["constant.C2_source"] = "estimated"
        if c3 is None:
            c3 = c3_est
            constants["constant.C3_source"] = "estimated"
    constants.update({"constant.C2": c2, "constant.C3": c3,
                      "constant.C_go": c_go, "constant.C4n": c4n})

    # global condition: C (1 + ||m||_{L2 H1}) ||phi||_{L2 L2} vs 1/2
    go_lhs = c_go * (1.0 + m_norms["l2_h1"]) * phi_norms["l2_l2"]

    # uniqueness bound: 2 C4n^4 ||B||_H1^2 (4 C2 ||phi||_{Linf L2}^2
    #   + (C2 + 2 C3)(4 C2 C_ab + ||m||_{Linf H1} + |Omega|)) vs 1/T
    uloc_rhs = 1.0 / T
    uloc_lhs = None  # unset with an unset Lipschitz constant
    if c2 is not None and c3 is not None:
        bracket = (4.0 * c2 * phi_norms["linf_l2"] ** 2
                   + (c2 + 2.0 * c3) * (4.0 * c2 * c_ab
                                        + m_norms["linf_h1"] + grid.volume))
        uloc_lhs = 2.0 * c4n**4 * b_h1_sq * bracket
    if estimated:
        uloc_status = INDETERMINATE
    else:
        uloc_status = PASS if uloc_lhs < uloc_rhs else FAIL

    smallness_max = float(smallness_monitor(traj).max())
    if ctilde is not None:
        constants["constant.Ctilde"] = ctilde
        smallness_status = PASS if smallness_max < 1.0 / np.sqrt(ctilde) else FAIL
    else:
        smallness_status = INDETERMINATE

    return {
        "go_lhs": go_lhs,
        "go_status": PASS if go_lhs <= 0.5 else FAIL,
        "go_status_strict": PASS if go_lhs < 0.5 else FAIL,
        "uloc_lhs": uloc_lhs,
        "uloc_rhs": uloc_rhs,
        "uloc_status": uloc_status,
        "smallness_max": smallness_max,
        "smallness_status": smallness_status,
        "factor.m_l2_h1": m_norms["l2_h1"],
        "factor.m_linf_h1": m_norms["linf_h1"],
        "factor.phi_l2_l2": phi_norms["l2_l2"],
        "factor.phi_linf_l2": phi_norms["linf_l2"],
        "factor.b_h1_sq_max": b_h1_sq,
        "factor.c_ab": c_ab,
        "factor.domain_volume": grid.volume,
        "factor.T": T,
        **constants,
    }
