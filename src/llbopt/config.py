"""Run-configuration parsing and validation.

The config format is a flat text file of dotted keys, one ``section.key =
value`` assignment per line, with ``#`` comments.  Unknown keys are
rejected and validation reports every violation at once, naming the
offending key.  See docs/config.md for the full key reference.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .coils import CoilSet, ControlPath, gaussian_coil, uniform_coil
from .grid import Grid, Trajectory, VectorField, decode_record, encode_record, read_field
from .llb import SimConfig, simulate
from .optimize import OptimizeConfig, TrackingTargets
from .certify import UserConstants


class ConfigError(ValueError):
    """Carries every validation violation found in a config file, or the
    one input file a config key names that cannot be read."""

    def __init__(self, errors):
        self.errors = list(errors)
        sep = " " if len(self.errors) == 1 else "\n  "
        super().__init__("invalid configuration:" + sep + sep.join(self.errors))


_COIL_KEYS = {"kind", "center", "width", "axis", "amplitude", "path"}

_SCALAR_KEYS = {
    "grid.dim": int,
    "time.T": float,
    "time.dt": float,
    "init.kind": str,
    "init.expr_x": str,
    "init.expr_y": str,
    "init.expr_z": str,
    "init.path": str,
    "init.check_ic": bool,
    "init.neumann_tol": float,
    "coils.count": int,
    "control.kind": str,
    "control.path": str,
    "targets.md_kind": str,
    "targets.md_path": str,
    "targets.md_expr_x": str,
    "targets.md_expr_y": str,
    "targets.md_expr_z": str,
    "targets.md_init_kind": str,
    "targets.md_init_expr_x": str,
    "targets.md_init_expr_y": str,
    "targets.md_init_expr_z": str,
    "targets.momega_kind": str,
    "targets.momega_path": str,
    "targets.momega_expr_x": str,
    "targets.momega_expr_y": str,
    "targets.momega_expr_z": str,
    "solver.blowup_threshold": float,
    "solver.warn_dt_factor": float,
    "solver.opt_tol": float,
    "solver.opt_max_iters": int,
    "solver.armijo_c1": float,
    "solver.step0": float,
    "solver.max_halvings": int,
    "certify.n_dirs": int,
    "certify.eps_fd": float,
    "certify.n_fooc_samples": int,
    "certify.tol_active": float,
    "certify.tol_upsilon": float,
    "certify.c_go": float,
    "certify.c4n": float,
    "certify.c2": float,
    "certify.c3": float,
    "certify.ctilde": float,
    "checks.grad_tol": float,
    "checks.grad_eps": float,
    "checks.taylor_min_slope": float,
    "checks.curvature_tol": float,
    "checks.oracle_tol": float,
    "checks.oracle_modes": int,
    "output.diagnostics_every": int,
    "seed": int,
}

_VECTOR_KEYS = {
    "grid.cells",
    "grid.lengths",
    "init.value",
    "bounds.lower",
    "bounds.upper",
    "control.value",
    "targets.md_value",
    "targets.md_init_value",
    "targets.momega_value",
    "checks.taylor_eps",
    "checks.temporal_order_range",
    "checks.spatial_order_range",
}

_DEFAULTS = {
    "init.kind": "zero",
    "init.expr_x": "0", "init.expr_y": "0", "init.expr_z": "0",
    "init.check_ic": False,
    "init.neumann_tol": 0.1,
    "coils.count": 0,
    "control.kind": "zero",
    "targets.md_kind": "zero",
    "targets.md_expr_x": "0", "targets.md_expr_y": "0", "targets.md_expr_z": "0",
    "targets.md_init_kind": "zero",
    "targets.md_init_expr_x": "0", "targets.md_init_expr_y": "0", "targets.md_init_expr_z": "0",
    "targets.momega_kind": "final_md",
    "targets.momega_expr_x": "0", "targets.momega_expr_y": "0", "targets.momega_expr_z": "0",
    "solver.blowup_threshold": 1e6,
    "solver.warn_dt_factor": 0.5,
    "solver.opt_tol": 1e-6,
    "solver.opt_max_iters": 500,
    "solver.armijo_c1": 1e-4,
    "solver.step0": 1.0,
    "solver.max_halvings": 40,
    "certify.n_dirs": 8,
    "certify.eps_fd": 1e-3,
    "certify.n_fooc_samples": 200,
    "checks.grad_tol": 1e-3,
    "checks.grad_eps": 1e-4,
    "checks.taylor_min_slope": 1.9,
    "checks.curvature_tol": 1e-2,
    "checks.oracle_tol": 1e-3,
    "checks.oracle_modes": 8,
    "output.diagnostics_every": 0,
    "seed": 0,
}

_VECTOR_DEFAULTS = {
    "bounds.lower": [-np.inf],
    "bounds.upper": [np.inf],
    "checks.taylor_eps": [1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3],
    "checks.temporal_order_range": [0.9, 1.1],
    "checks.spatial_order_range": [1.9, 2.1],
}

_EXPR_NAMES = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh,
    "sqrt": np.sqrt, "abs": np.abs, "pi": np.pi,
}


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass
class RunConfig:
    """Typed view of a parsed config file plus builders for run objects."""

    raw: dict
    base_dir: str = "."

    # -- raw access -----------------------------------------------------
    def get(self, key, default=None):
        return self.raw.get(key, default)

    def __getitem__(self, key):
        return self.raw[key]

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    # -- builders --------------------------------------------------------
    def _path(self, p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(self.base_dir, p)

    def build_grid(self) -> Grid:
        return Grid(tuple(int(c) for c in self.raw["grid.cells"]),
                    tuple(float(L) for L in self.raw["grid.lengths"]))

    def build_sim(self) -> SimConfig:
        return SimConfig(
            T=self.raw["time.T"], dt=self.raw["time.dt"],
            diagnostics_every=self.raw["output.diagnostics_every"],
            grid=self.build_grid(),
            blowup_threshold=self.raw["solver.blowup_threshold"],
            warn_dt_factor=self.raw["solver.warn_dt_factor"],
        )

    def _eval_expr_field(self, grid: Grid, expr_fmt: str, t: float = 0.0) -> np.ndarray:
        coords = grid.meshgrid()
        ns = dict(_EXPR_NAMES)
        ns["t"] = t
        for name, ax in zip("xyz", range(grid.dim)):
            ns[name] = coords[ax]
        for name in "xyz"[grid.dim:]:
            ns[name] = 0.0
        vals = np.zeros(grid.shape + (3,))
        for c, comp in enumerate(("x", "y", "z")):
            expr = self.raw[expr_fmt.format(comp)]
            out = eval(expr, {"__builtins__": {}}, ns)  # noqa: S307 - documented restricted namespace
            vals[..., c] = out
        return vals

    def _build_field(self, grid: Grid, kind: str, value_key: str,
                     expr_fmt: str, path_key: str) -> VectorField:
        if kind == "zero":
            return VectorField.zero(grid)
        if kind == "constant":
            return VectorField.constant(grid, self.raw[value_key])
        if kind == "expr":
            return VectorField(grid, self._eval_expr_field(grid, expr_fmt))
        if kind == "file":
            return read_input(path_key, read_field, self._path(self.raw[path_key]), grid)
        raise ValueError(f"unknown field kind {kind!r}")

    def build_initial(self, grid: Grid) -> VectorField:
        return self._build_field(grid, self.raw["init.kind"], "init.value",
                                 "init.expr_{}", "init.path")

    def build_coils(self, grid: Grid) -> CoilSet:
        n = self.raw["coils.count"]
        if n == 0:
            return CoilSet.empty(grid)
        fields = []
        for k in range(1, n + 1):
            kind = self.raw[f"coil.{k}.kind"]
            amp = self.raw.get(f"coil.{k}.amplitude", 1.0)
            axis = self.raw.get(f"coil.{k}.axis", 0)
            try:
                if kind == "gaussian":
                    fields.append(gaussian_coil(grid, self.raw[f"coil.{k}.center"],
                                                self.raw[f"coil.{k}.width"], axis, amp))
                elif kind == "uniform":
                    fields.append(uniform_coil(grid, axis, amp))
                elif kind == "file":
                    fields.append(read_field(self._path(self.raw[f"coil.{k}.path"]), grid))
                else:
                    raise ValueError(f"unknown kind {kind!r}")
            except (ValueError, OSError) as exc:
                key = f"coil.{k}.path: " if kind == "file" else ""
                raise ConfigError([f"{key}coil {k}: {exc}"]) from exc
        return CoilSet.from_fields(fields)

    def build_control(self, n_steps: int, n_coils: int) -> ControlPath:
        dt = self.raw["time.dt"]
        lower = np.asarray(self.raw["bounds.lower"], dtype=float)
        upper = np.asarray(self.raw["bounds.upper"], dtype=float)
        shape = (n_steps + 1, n_coils)
        if lower.size == 1:
            lower = np.full(shape, lower.item())
        else:
            lower = np.broadcast_to(lower, shape).copy()
        if upper.size == 1:
            upper = np.full(shape, upper.item())
        else:
            upper = np.broadcast_to(upper, shape).copy()
        kind = self.raw["control.kind"]
        if kind == "zero":
            intens = np.zeros(shape)
        elif kind == "constant":
            intens = np.broadcast_to(
                np.asarray(self.raw["control.value"], dtype=float), shape).copy()
        elif kind == "csv":
            intens = read_input("control.path", read_control_csv,
                                self._path(self.raw["control.path"]), n_steps, n_coils)[0]
        else:
            raise ValueError(f"unknown control kind {kind!r}")
        return ControlPath(intens, lower, upper, dt)

    def build_targets(self, grid: Grid, coils: CoilSet, sim: SimConfig) -> TrackingTargets:
        K = sim.n_steps
        kind = self.raw["targets.md_kind"]
        if kind == "run":
            m0 = self._build_field(grid, self.raw["targets.md_init_kind"],
                                   "targets.md_init_value",
                                   "targets.md_init_expr_{}", "")
            traj = simulate(m0, ControlPath.zeros(K, coils.n_coils, sim.dt), coils, sim)
            m_d = traj.values
        elif kind == "expr":
            m_d = np.empty((K + 1,) + grid.shape + (3,))
            for j in range(K + 1):
                m_d[j] = self._eval_expr_field(grid, "targets.md_expr_{}", t=j * sim.dt)
        elif kind == "constant":
            m_d = np.broadcast_to(np.asarray(self.raw["targets.md_value"], dtype=float),
                                  (K + 1,) + grid.shape + (3,)).copy()
        elif kind == "file":
            m_d = read_input("targets.md_path", read_trajectory,
                             self._path(self.raw["targets.md_path"]), grid, K, sim.dt).values
        else:
            m_d = np.zeros((K + 1,) + grid.shape + (3,))

        okind = self.raw["targets.momega_kind"]
        if okind == "final_md":
            m_omega = m_d[-1].copy()
        else:
            m_omega = self._build_field(grid, okind, "targets.momega_value",
                                        "targets.momega_expr_{}",
                                        "targets.momega_path").values
        return TrackingTargets(m_d, m_omega)

    def build_optimize(self, grid: Grid) -> OptimizeConfig:
        return OptimizeConfig(
            m0=self.build_initial(grid),
            sim=self.build_sim(),
            tol=self.raw["solver.opt_tol"],
            max_iters=self.raw["solver.opt_max_iters"],
            armijo_c1=self.raw["solver.armijo_c1"],
            step0=self.raw["solver.step0"],
            max_halvings=self.raw["solver.max_halvings"],
        )

    def build_constants(self) -> UserConstants:
        return UserConstants(
            go_constant=self.raw.get("certify.c_go"),
            c4n=self.raw.get("certify.c4n"),
            c2=self.raw.get("certify.c2"),
            c3=self.raw.get("certify.c3"),
            smallness=self.raw.get("certify.ctilde"),
        )


def parse_config(path) -> RunConfig:
    """Parse and fully validate a config file.

    Raises :class:`ConfigError` carrying every violation found, not just
    the first.
    """
    errors = []
    raw = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError([f"cannot read config: {exc}"])

    seen = set()
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            errors.append(f"line {lineno}: expected 'key = value', got {text!r}")
            continue
        key, value = (part.strip() for part in text.split("=", 1))
        if key in seen:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        seen.add(key)
        parsed, err = _parse_value(key, value)
        if err:
            errors.append(f"line {lineno}: {err}")
        else:
            raw[key] = parsed

    for key, default in _DEFAULTS.items():
        raw.setdefault(key, default)
    for key, default in _VECTOR_DEFAULTS.items():
        raw.setdefault(key, list(default))

    errors.extend(_validate(raw, os.path.dirname(os.path.abspath(path))))
    if errors:
        raise ConfigError(errors)
    return RunConfig(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def _parse_value(key: str, value: str):
    parts = key.split(".")
    if len(parts) == 3 and parts[0] == "coil":
        if not parts[1].isdigit():
            return None, f"unknown key {key!r} (coil index must be an integer)"
        if parts[2] not in _COIL_KEYS:
            return None, f"unknown key {key!r}"
        if parts[2] in ("kind", "path"):
            return value, None
        if parts[2] == "axis":
            return _try(key, value, int)
        if parts[2] == "center":
            return _try_vector(key, value)
        return _try(key, value, float)
    if key in _SCALAR_KEYS:
        typ = _SCALAR_KEYS[key]
        if typ is str:
            return value, None
        if typ is bool:
            return _try(key, value, _parse_bool)
        return _try(key, value, typ)
    if key in _VECTOR_KEYS:
        return _try_vector(key, value)
    return None, f"unknown key {key!r}"


def _try(key, value, typ):
    try:
        return typ(value), None
    except ValueError:
        return None, f"{key}: cannot parse {value!r} as {typ.__name__}"


def _try_vector(key, value):
    try:
        return [float(tok) for tok in value.split()], None
    except ValueError:
        return None, f"{key}: cannot parse {value!r} as a list of numbers"


def _validate(raw: dict, base_dir: str):
    errors = []

    def need(key):
        if key not in raw:
            errors.append(f"missing required key {key!r}")
            return False
        return True

    for key in ("grid.dim", "grid.cells", "time.T", "time.dt"):
        need(key)
    if errors:
        return errors

    dim = raw["grid.dim"]
    if dim not in (1, 2, 3):
        errors.append(f"grid.dim: must be 1, 2 or 3, got {dim}")
        return errors
    cells = raw["grid.cells"]
    if len(cells) == 1:
        cells = cells * dim
        raw["grid.cells"] = cells
    if len(cells) != dim or any(c < 1 or c != int(c) for c in cells):
        errors.append(f"grid.cells: need {dim} positive integers, got {cells}")
    lengths = raw.setdefault("grid.lengths", [1.0] * dim)
    if len(lengths) == 1:
        lengths = lengths * dim
        raw["grid.lengths"] = lengths
    if len(lengths) != dim or any(L <= 0 for L in lengths):
        errors.append(f"grid.lengths: need {dim} positive reals, got {lengths}")

    T, dt = raw["time.T"], raw["time.dt"]
    if dt <= 0:
        errors.append(f"time.dt: must be positive, got {dt}")
    elif T <= 0:
        errors.append(f"time.T: must be positive, got {T}")
    elif abs(round(T / dt) * dt - T) > 1e-12 * max(T, 1.0) or round(T / dt) < 1:
        errors.append(f"time.dt: {dt} does not divide time.T = {T}")

    n_coils = raw["coils.count"]
    if n_coils < 0:
        errors.append(f"coils.count: must be >= 0, got {n_coils}")
        n_coils = 0
    declared = {k for k in raw if k.startswith("coil.")}
    for k in range(1, n_coils + 1):
        declared -= {key for key in list(declared) if key.startswith(f"coil.{k}.")}
        kind = raw.get(f"coil.{k}.kind")
        if kind is None:
            errors.append(f"coil.{k}.kind: missing for declared coil {k}")
            continue
        if kind == "gaussian":
            center = raw.get(f"coil.{k}.center")
            if center is None or len(center) != dim:
                errors.append(f"coil.{k}.center: need {dim} coordinates")
            width = raw.get(f"coil.{k}.width")
            if width is None or width <= 0:
                errors.append(f"coil.{k}.width: need a positive width")
        elif kind == "file":
            p = raw.get(f"coil.{k}.path")
            if p is None:
                errors.append(f"coil.{k}.path: missing for file coil")
            elif not os.path.exists(_join(base_dir, p)):
                errors.append(f"coil.{k}.path: file not found: {p}")
        elif kind != "uniform":
            errors.append(f"coil.{k}.kind: unknown kind {kind!r}")
        axis = raw.get(f"coil.{k}.axis", 0)
        if not 0 <= axis <= 2:
            errors.append(f"coil.{k}.axis: must be 0, 1 or 2, got {axis}")
    for key in sorted(declared):
        errors.append(f"{key}: coil index out of range (coils.count = {n_coils})")

    for side in ("lower", "upper"):
        v = raw[f"bounds.{side}"]
        if len(v) not in (1, max(n_coils, 1)):
            errors.append(f"bounds.{side}: need 1 or {n_coils} values, got {len(v)}")
    lo = np.asarray(raw["bounds.lower"])
    up = np.asarray(raw["bounds.upper"])
    if lo.size == up.size and np.any(lo > up):
        errors.append("bounds: lower exceeds upper")

    kind = raw["control.kind"]
    if kind not in ("zero", "constant", "csv"):
        errors.append(f"control.kind: unknown kind {kind!r}")
    if kind == "constant":
        v = raw.get("control.value")
        if v is None or len(v) not in (1, max(n_coils, 1)):
            errors.append(f"control.value: need {n_coils} values")
        elif len(v) == 1 and n_coils > 1:
            raw["control.value"] = v * n_coils
    if kind == "csv":
        p = raw.get("control.path")
        if p is None:
            errors.append("control.path: required for control.kind = csv")
        elif not os.path.exists(_join(base_dir, p)):
            errors.append(f"control.path: file not found: {p}")

    for prefix, kinds in (("init", ("zero", "constant", "expr", "file")),
                          ("targets.md", ("zero", "constant", "expr", "run", "file")),
                          ("targets.md_init", ("zero", "constant", "expr")),
                          ("targets.momega", ("zero", "constant", "expr", "final_md", "file"))):
        key = f"{prefix}.kind" if prefix == "init" else f"{prefix}_kind"
        k = raw[key]
        if k not in kinds:
            errors.append(f"{key}: unknown kind {k!r}")
            continue
        if k == "constant":
            vkey = f"{prefix}.value" if prefix == "init" else f"{prefix}_value"
            v = raw.get(vkey)
            if v is None or len(v) != 3:
                errors.append(f"{vkey}: need 3 components")
        if k == "file":
            pkey = f"{prefix}.path" if prefix == "init" else f"{prefix}_path"
            p = raw.get(pkey)
            if p is None:
                errors.append(f"{pkey}: required for kind = file")
            elif not os.path.exists(_join(base_dir, p)):
                errors.append(f"{pkey}: file not found: {p}")

    for key, cond, msg in (
        ("solver.opt_tol", lambda v: v > 0, "must be positive"),
        ("solver.opt_max_iters", lambda v: v >= 0, "must be >= 0"),
        ("solver.step0", lambda v: v > 0, "must be positive"),
        ("certify.n_dirs", lambda v: v >= 1, "must be >= 1"),
        ("certify.eps_fd", lambda v: v > 0, "must be positive"),
        ("checks.grad_eps", lambda v: v > 0, "must be positive"),
        ("output.diagnostics_every", lambda v: v >= 0, "must be >= 0"),
    ):
        if key in raw and not cond(raw[key]):
            errors.append(f"{key}: {msg}, got {raw[key]}")

    if errors:
        return errors

    # semantic checks that need built objects
    try:
        cfg = RunConfig(raw, base_dir)
        grid = cfg.build_grid()
        coils = cfg.build_coils(grid)
        if raw["init.check_ic"]:
            m0 = cfg.build_initial(grid)
            worst = _boundary_normal_difference(grid, m0.values)
            if worst > raw["init.neumann_tol"]:
                errors.append(
                    f"init: discrete Neumann check failed: boundary-normal "
                    f"difference {worst:.3g} exceeds init.neumann_tol "
                    f"{raw['init.neumann_tol']:.3g}"
                )
    except ConfigError as exc:
        errors.extend(exc.errors)
    except (ValueError, OSError) as exc:
        errors.append(str(exc))
    return errors


def _join(base_dir, p):
    return p if os.path.isabs(p) else os.path.join(base_dir, p)


def _boundary_normal_difference(grid: Grid, vals: np.ndarray) -> float:
    """Max magnitude of the one-sided normal difference quotient at the
    boundary cells; O(h) small for fields with vanishing normal derivative."""
    worst = 0.0
    for ax, h in enumerate(grid.spacing):
        first = [slice(None)] * vals.ndim
        second = [slice(None)] * vals.ndim
        first[ax] = slice(0, 1)
        second[ax] = slice(1, 2)
        d_lo = np.abs(vals[tuple(second)] - vals[tuple(first)]) / h
        first[ax] = slice(-1, None)
        second[ax] = slice(-2, -1)
        d_hi = np.abs(vals[tuple(first)] - vals[tuple(second)]) / h
        if d_lo.size:
            worst = max(worst, float(d_lo.max()), float(d_hi.max()))
    return worst


# ---------------------------------------------------------------------------
# control CSV and trajectory-file helpers
# ---------------------------------------------------------------------------

def read_control_csv(path, n_steps: int, n_coils: int):
    """Read a control CSV: header ``t,U_1..U_N[,a_1..a_N,b_1..b_N]``.

    Returns (intensities, lower, upper); the bound columns are optional and
    come back as None when absent.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        with warnings.catch_warnings():
            # a table without rows is reported by the row-count check below
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    expected_cols = (1 + n_coils, 1 + 3 * n_coils)
    if len(header) not in expected_cols or data.shape[1] != len(header):
        raise ValueError(
            f"control CSV {path}: expected 1+{n_coils} or 1+3*{n_coils} "
            f"columns, got {data.shape[1]}"
        )
    if data.shape[0] != n_steps + 1:
        raise ValueError(
            f"control CSV {path}: expected {n_steps + 1} rows, got {data.shape[0]}"
        )
    intens = data[:, 1:1 + n_coils]
    lower = upper = None
    if data.shape[1] == 1 + 3 * n_coils:
        lower = data[:, 1 + n_coils:1 + 2 * n_coils]
        upper = data[:, 1 + 2 * n_coils:]
    return intens, lower, upper


def read_input(key: str, reader, *args):
    """``reader(*args)``, with a file it cannot open or parse reported as a
    :class:`ConfigError` that names ``key``, the option giving the path."""
    try:
        return reader(*args)
    except (ValueError, OSError) as exc:
        raise ConfigError([f"{key}: {exc}"]) from exc


def write_trajectory(path, traj: Trajectory) -> None:
    """Write a trajectory as K+1 concatenated LLBFIELD records."""
    with open(path, "wb") as fh:
        for frame in traj.frames:
            fh.write(encode_record(traj.grid, frame))


def read_trajectory(path, grid: Grid, n_steps: int, dt: float) -> Trajectory:
    """Read a trajectory stored as exactly K+1 concatenated LLBFIELD records."""
    with open(path, "rb") as fh:
        blob = fh.read()
    frames = np.empty((n_steps + 1,) + grid.shape + (3,))
    offset = 0
    for j in range(n_steps + 1):
        if offset == len(blob):
            raise ValueError(f"trajectory file {path}: {j} frames, expected {n_steps + 1}")
        try:
            frames[j], offset = decode_record(blob, grid, offset)
        except ValueError as exc:
            raise ValueError(f"trajectory file {path}: frame {j}: {exc}") from exc
    if offset != len(blob):
        raise ValueError(f"trajectory file {path}: more than {n_steps + 1} frames")
    return Trajectory(grid, dt, frames)
