"""Run-configuration parsing and validation.

The config format is a flat text file of dotted keys, one ``section.key =
value`` assignment per line, with ``#`` comments.  Unknown keys are
rejected and validation reports every violation at once, naming the
offending key.  What a key is (how its text parses, its default and every
rule on its own value) is one row of :data:`SCHEMA`, or of
:data:`COIL_SCHEMA` for the per-coil ``coil.<k>.*`` keys; ``_validate``
holds only the rules that relate keys to each other.  See docs/config.md
for the full key reference.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .coils import CoilSet, ControlPath, gaussian_coil, uniform_coil
from .grid import Grid, Trajectory, VectorField, decode_record, encode_record, read_field
from .llb import SimConfig, simulate, time_tolerance
from .optimize import TrackingTargets


class ConfigError(ValueError):
    """Carries every validation violation found in a config file, or the
    one input file a config key names that cannot be read."""

    def __init__(self, errors):
        self.errors = list(errors)
        sep = " " if len(self.errors) == 1 else "\n  "
        super().__init__("invalid configuration:" + sep + sep.join(self.errors))


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _numbers(text: str) -> list:
    return [float(tok) for tok in text.split()]


REQUIRED = object()  # the default of a key every config must set


@dataclass(frozen=True)
class Key:
    """What one config key is, with every rule on its value alone.

    ``parse`` turns its text into its value: int, float, str,
    ``_parse_bool`` or ``_numbers`` (a whitespace-separated list).
    ``default`` is its value when unset, :data:`REQUIRED`, or None for a
    key that stays unset.  At most one check on the value alone: ``kinds``
    (the allowed values), ``length`` (a list of that many numbers) or
    ``check``, a (predicate, message) pair.  Every float, alone or in a
    list, must be finite; only ``bounds.lower`` and ``bounds.upper`` also
    take +-inf.  These rules run on every set key, coil keys included,
    before the rules that relate keys to each other.
    """

    parse: Callable[[str], object]
    default: object = None
    kinds: tuple = ()
    length: Optional[int] = None
    check: Optional[tuple] = None


_POSITIVE = (lambda v: v > 0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0, "must be >= 0")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
_ORDER_RANGE = (lambda v: len(v) == 2 and v[0] <= v[1], "need two values lo <= hi")
_FIELD_KINDS = ("zero", "constant", "expr")
_INFINITE_OK = ("bounds.lower", "bounds.upper")  # an infinite bound leaves a side open
# the prefixes of the vector fields given by <prefix>kind, value, expr_x/y/z, path
FIELDS = ("init.", "targets.md_", "targets.md_init_", "targets.momega_")

# Rows in the order their checks report: control before the initial state
# and the targets.
SCHEMA = {
    "grid.dim": Key(int, REQUIRED, check=(lambda v: v in (1, 2, 3), "must be 1, 2 or 3")),
    "grid.cells": Key(_numbers, REQUIRED),
    "grid.lengths": Key(_numbers, [1.0]),
    "time.T": Key(float, REQUIRED, check=_POSITIVE),
    "time.dt": Key(float, REQUIRED, check=_POSITIVE),
    "coils.count": Key(int, 0, check=_NONNEGATIVE),
    "bounds.lower": Key(_numbers, [-np.inf]),
    "bounds.upper": Key(_numbers, [np.inf]),
    "control.kind": Key(str, "zero", kinds=("zero", "constant", "csv")),
    "control.value": Key(_numbers),
    "control.path": Key(str),
    "init.kind": Key(str, "zero", kinds=_FIELD_KINDS + ("file",)),
    "init.value": Key(_numbers, length=3),
    "init.path": Key(str),
    "init.check_ic": Key(_parse_bool, False),
    "init.neumann_tol": Key(float, 0.1, check=_NONNEGATIVE),
    "targets.md_kind": Key(str, "zero", kinds=_FIELD_KINDS + ("run", "file")),
    "targets.md_value": Key(_numbers, length=3),
    "targets.md_path": Key(str),
    "targets.md_init_kind": Key(str, "zero", kinds=_FIELD_KINDS),
    "targets.md_init_value": Key(_numbers, length=3),
    "targets.momega_kind": Key(str, "final_md", kinds=_FIELD_KINDS + ("final_md", "file")),
    "targets.momega_value": Key(_numbers, length=3),
    "targets.momega_path": Key(str),
    "solver.blowup_threshold": Key(float, 1e6, check=_POSITIVE),
    "solver.opt_tol": Key(float, 1e-6, check=_POSITIVE),
    "solver.opt_max_iters": Key(int, 500, check=_NONNEGATIVE),
    "solver.max_halvings": Key(int, 40, check=_NONNEGATIVE),
    "certify.n_dirs": Key(int, 8, check=_AT_LEAST_ONE),
    "certify.eps_fd": Key(float, 1e-3, check=_POSITIVE),
    "certify.tol_active": Key(float, check=_NONNEGATIVE),
    "certify.tol_upsilon": Key(float, check=_NONNEGATIVE),
    "certify.c_go": Key(float, check=_POSITIVE),
    "certify.c4n": Key(float, check=_POSITIVE),
    "certify.c2": Key(float, check=_NONNEGATIVE),
    "certify.c3": Key(float, check=_NONNEGATIVE),
    "certify.ctilde": Key(float, check=_POSITIVE),
    "checks.grad_tol": Key(float, 1e-3, check=_NONNEGATIVE),
    "checks.grad_eps": Key(float, 1e-4, check=_POSITIVE),
    "checks.taylor_eps": Key(_numbers, [1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3],
                             check=(lambda v: len(set(v)) >= 2 and min(v) > 0,
                                    "need at least two distinct positive values")),
    "checks.taylor_min_slope": Key(float, 1.9),
    "checks.curvature_tol": Key(float, 1e-2, check=_NONNEGATIVE),
    "checks.temporal_order_range": Key(_numbers, [0.9, 1.1], check=_ORDER_RANGE),
    "checks.spatial_order_range": Key(_numbers, [1.9, 2.1], check=_ORDER_RANGE),
    "checks.oracle_tol": Key(float, 1e-3, check=_NONNEGATIVE),
    "checks.oracle_modes": Key(int, 8, check=_AT_LEAST_ONE),
    "output.diagnostics_every": Key(int, 0, check=_NONNEGATIVE),
    "seed": Key(int, 0, check=_NONNEGATIVE),
}
# the x, y and z components of the four expression fields
SCHEMA.update({f"{prefix}expr_{c}": Key(str, "0") for prefix in FIELDS for c in "xyz"})

# coil.<k>.<field>, for each declared coil k
COIL_SCHEMA = {
    "kind": Key(str, REQUIRED, kinds=("gaussian", "uniform", "file")),
    "center": Key(_numbers),
    "width": Key(float, check=_POSITIVE),
    "axis": Key(int, 0, check=(lambda v: 0 <= v <= 2, "must be 0, 1 or 2")),
    "amplitude": Key(float, 1.0),
    "path": Key(str),
}

_EXPR_NAMES = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh,
    "sqrt": np.sqrt, "abs": np.abs, "pi": np.pi,
}


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

    def path(self, key: str) -> str:
        """The file that path key ``key`` names; a relative path is taken
        from the config's directory."""
        return os.path.join(self.base_dir, self.raw[key])

    # -- builders --------------------------------------------------------
    def build_grid(self) -> Grid:
        return Grid(tuple(int(c) for c in self.raw["grid.cells"]),
                    tuple(float(L) for L in self.raw["grid.lengths"]))

    def build_sim(self) -> SimConfig:
        return SimConfig(T=self.raw["time.T"], dt=self.raw["time.dt"],
                         blowup_threshold=self.raw["solver.blowup_threshold"])

    def _eval_expr_field(self, grid: Grid, prefix: str, t: float = 0.0) -> np.ndarray:
        """The three component expressions ``<prefix>expr_x/y/z`` on the
        grid.  An expression that fails to evaluate, or whose value is not
        a finite number or array on the grid, is a :class:`ConfigError`
        naming its key."""
        coords = grid.meshgrid()
        ns = dict(_EXPR_NAMES)
        ns["t"] = t
        for name, ax in zip("xyz", range(grid.dim)):
            ns[name] = coords[ax]
        for name in "xyz"[grid.dim:]:
            ns[name] = 0.0
        vals = np.zeros(grid.shape + (3,))
        for c, comp in enumerate(("x", "y", "z")):
            key = f"{prefix}expr_{comp}"
            expr = self.raw[key]
            try:
                # a non-finite value is reported below, a warning (such as
                # a complex value cast to real) as a failure
                with np.errstate(all="ignore"), warnings.catch_warnings():
                    warnings.simplefilter("error")
                    out = eval(expr, {"__builtins__": {}}, ns)  # noqa: S307 - documented restricted namespace
                    vals[..., c] = out
            except Exception as exc:  # whatever the user's text raises
                raise ConfigError([f"{key}: cannot evaluate {expr!r}: {exc}"]) from exc
            if not np.all(np.isfinite(vals[..., c])):
                raise ConfigError([f"{key}: {expr!r} is not finite on the grid"])
        return vals

    def _build_field(self, grid: Grid, prefix: str) -> VectorField:
        """The field that the keys of ``prefix`` (one of :data:`FIELDS`) give."""
        kind = self.raw[prefix + "kind"]
        if kind == "constant":
            return VectorField.constant(grid, self.raw[prefix + "value"])
        if kind == "expr":
            return VectorField(grid, self._eval_expr_field(grid, prefix))
        if kind == "file":
            return read_input(prefix + "path", read_field, self.path(prefix + "path"), grid)
        return VectorField.zero(grid)

    def build_initial(self, grid: Grid) -> VectorField:
        return self._build_field(grid, "init.")

    def build_coils(self, grid: Grid) -> CoilSet:
        n = self.raw["coils.count"]
        if n == 0:
            return CoilSet.empty(grid)
        fields = []
        for k in range(1, n + 1):
            kind = self.raw[f"coil.{k}.kind"]
            amp = self.raw[f"coil.{k}.amplitude"]
            axis = self.raw[f"coil.{k}.axis"]
            try:
                if kind == "gaussian":
                    fields.append(gaussian_coil(grid, self.raw[f"coil.{k}.center"],
                                                self.raw[f"coil.{k}.width"], axis, amp))
                elif kind == "uniform":
                    fields.append(uniform_coil(grid, axis, amp))
                else:
                    fields.append(read_field(self.path(f"coil.{k}.path"), grid))
            except (ValueError, OSError) as exc:
                key = f"coil.{k}.path: " if kind == "file" else ""
                raise ConfigError([f"{key}coil {k}: {exc}"]) from exc
        return CoilSet.from_fields(fields)

    def build_control(self, n_steps: int, n_coils: int) -> ControlPath:
        shape = (n_steps + 1, n_coils)
        kind = self.raw["control.kind"]
        if kind == "constant":
            intens = np.broadcast_to(
                np.asarray(self.raw["control.value"], dtype=float), shape).copy()
        elif kind == "csv":
            intens = read_input("control.path", read_control_csv, self.path("control.path"),
                                np.arange(n_steps + 1) * self.raw["time.dt"], n_coils)[0]
        else:
            intens = np.zeros(shape)
        # ControlPath broadcasts the 1 or N bound values to every sample
        return ControlPath(intens, self.raw["bounds.lower"], self.raw["bounds.upper"],
                           self.raw["time.dt"])

    def build_targets(self, grid: Grid, coils: CoilSet, sim: SimConfig) -> TrackingTargets:
        K = sim.n_steps
        kind = self.raw["targets.md_kind"]
        if kind == "run":
            m0 = self._build_field(grid, "targets.md_init_")
            traj = simulate(m0, ControlPath.zeros(K, coils.n_coils, sim.dt), coils, sim)
            m_d = traj.values
        elif kind == "expr":
            m_d = np.empty((K + 1,) + grid.shape + (3,))
            for j in range(K + 1):
                m_d[j] = self._eval_expr_field(grid, "targets.md_", t=j * sim.dt)
        elif kind == "file":
            m_d = read_input("targets.md_path", read_trajectory, self.path("targets.md_path"),
                             grid, K, sim.dt).values
        else:  # zero or constant: a read-only view of one frame at every step
            m_d = np.broadcast_to(self._build_field(grid, "targets.md_").values,
                                  (K + 1,) + grid.shape + (3,))

        if self.raw["targets.momega_kind"] == "final_md":
            m_omega = m_d[-1].copy()
        else:
            m_omega = self._build_field(grid, "targets.momega_").values
        return TrackingTargets(m_d, m_omega)


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

    _fill_defaults(raw, SCHEMA, "")
    cfg = RunConfig(raw, base_dir=os.path.dirname(os.path.abspath(path)))
    errors.extend(_validate(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def _fill_defaults(raw: dict, schema: dict, prefix: str) -> None:
    for name, spec in schema.items():
        if spec.default is not None and spec.default is not REQUIRED:
            default = spec.default
            raw.setdefault(prefix + name, list(default) if isinstance(default, list) else default)


def _row(key: str) -> Optional[Key]:
    """The :class:`Key` row of ``key``, or None for an unknown key; the
    ``coil.<k>.<field>`` keys are rows of :data:`COIL_SCHEMA`."""
    parts = key.split(".")
    if len(parts) == 3 and parts[0] == "coil":
        return COIL_SCHEMA.get(parts[2])
    return SCHEMA.get(key)


def _parse_value(key: str, value: str):
    parts = key.split(".")
    if len(parts) == 3 and parts[0] == "coil" and not parts[1].isdigit():
        return None, f"unknown key {key!r} (coil index must be an integer)"
    spec = _row(key)
    if spec is None:
        return None, f"unknown key {key!r}"
    try:
        return spec.parse(value), None
    except ValueError:
        what = {_numbers: "a list of numbers", _parse_bool: "bool"}.get(
            spec.parse, spec.parse.__name__)
        return None, f"{key}: cannot parse {value!r} as {what}"


def _check_keys(raw: dict) -> dict:
    """The violation of each set key's own check (:class:`Key`), by key, in
    :data:`SCHEMA` order; the coil keys follow ``coils.count``."""
    order = {key: i for i, key in enumerate(SCHEMA)}
    bad = {}
    for key in sorted(raw, key=lambda k: order["coils.count" if k.startswith("coil.") else k]):
        spec, v = _row(key), raw[key]
        if spec.kinds and v not in spec.kinds:
            bad[key] = f"{key}: unknown kind {v!r}"
        elif spec.length is not None and len(v) != spec.length:
            bad[key] = f"{key}: need {spec.length} components"
        elif spec.check is not None and not spec.check[0](v):
            bad[key] = f"{key}: {spec.check[1]}, got {v}"
    return bad


def _float_rule(v, infinite_ok: bool = False) -> Optional[str]:
    """How the floats ``v`` break the config's float rule, or None: never
    NaN, and +-inf only where ``infinite_ok`` (:class:`Key`)."""
    if infinite_ok:
        return "must not be NaN" if np.any(np.isnan(v)) else None
    return None if np.all(np.isfinite(v)) else "must be finite"


def _non_finite(raw: dict):
    """The float keys, scalar or list, that break the float rule."""
    rules = {key: _float_rule(v, key in _INFINITE_OK) for key, v in raw.items()
             if _row(key).parse in (float, _numbers)}
    return [f"{key}: {rule}, got {raw[key]}" for key, rule in rules.items() if rule]


def _need_file(cfg: RunConfig, key: str, what: str = "kind = file"):
    """The violation of path key ``key``, which ``what`` requires: unset, or
    naming no file."""
    if key not in cfg.raw:
        return [f"{key}: required for {what}"]
    if not os.path.exists(cfg.path(key)):
        return [f"{key}: file not found: {cfg[key]}"]
    return []


def _validate(cfg: RunConfig):
    raw = cfg.raw
    missing = [key for key, spec in SCHEMA.items()
               if spec.default is REQUIRED and key not in raw]
    if missing:
        return [f"missing required key {key!r}" for key in missing]
    # the checks below compute with the numbers, so a NaN or inf stops here
    non_finite = _non_finite(raw)
    if non_finite:
        return non_finite
    # a rule below that relates keys skips a key whose own check failed
    bad = _check_keys(raw)
    errors = list(bad.values())
    if "grid.dim" in bad:
        return errors

    dim = raw["grid.dim"]
    for key in ("grid.cells", "grid.lengths"):
        if len(raw[key]) == 1:  # one value for every axis
            raw[key] = raw[key] * dim
    cells, lengths = raw["grid.cells"], raw["grid.lengths"]
    if len(cells) != dim or not all(c >= 1 and float(c).is_integer() for c in cells):
        errors.append(f"grid.cells: need {dim} positive integers, got {cells}")
    if len(lengths) != dim or not all(L > 0 for L in lengths):
        errors.append(f"grid.lengths: need {dim} positive reals, got {lengths}")

    T, dt = raw["time.T"], raw["time.dt"]
    if {"time.T", "time.dt"}.isdisjoint(bad):
        try:
            cfg.build_sim()  # SimConfig's verdict on dt dividing T
        except ValueError:
            errors.append(f"time.dt: {dt} does not divide time.T = {T}")

    n_coils = 0 if "coils.count" in bad else raw["coils.count"]
    declared = {k for k in raw if k.startswith("coil.")}
    for k in range(1, n_coils + 1):
        prefix = f"coil.{k}."
        declared -= {key for key in declared if key.startswith(prefix)}
        kind = raw.get(prefix + "kind")
        if kind is None:
            errors.append(f"{prefix}kind: missing for declared coil {k}")
            continue
        _fill_defaults(raw, COIL_SCHEMA, prefix)
        if kind == "gaussian":
            center = raw.get(prefix + "center")
            if center is None or len(center) != dim:
                errors.append(f"{prefix}center: need {dim} coordinates")
            if prefix + "width" not in raw:
                errors.append(f"{prefix}width: need a positive width")
        elif kind == "file":
            errors += _need_file(cfg, prefix + "path")
    for key in sorted(declared):
        errors.append(f"{key}: coil index out of range (coils.count = {n_coils})")

    n_bounds = max(n_coils, 1)
    for side in ("lower", "upper"):
        v = raw[f"bounds.{side}"]
        if len(v) not in (1, n_bounds):
            errors.append(f"bounds.{side}: need 1 or {n_coils} values, got {len(v)}")
    lo, up = np.asarray(raw["bounds.lower"]), np.asarray(raw["bounds.upper"])
    # a single value is compared with each of the other side's N values
    if (lo.size == up.size or {lo.size, up.size} == {1, n_bounds}) and np.any(lo > up):
        errors.append("bounds: lower exceeds upper")

    kind = raw["control.kind"]
    if kind == "constant":
        v = raw.get("control.value")
        if v is None or len(v) not in (1, n_bounds):
            errors.append(f"control.value: need {n_coils} values")
        elif len(v) == 1 and n_coils > 1:
            raw["control.value"] = v * n_coils
    if kind == "csv":
        errors += _need_file(cfg, "control.path", "control.kind = csv")

    # the data keys a field's kind needs: <prefix>value, <prefix>path
    for prefix in FIELDS:
        if prefix + "kind" in bad:
            continue
        kind = raw[prefix + "kind"]
        if kind == "constant" and prefix + "value" not in raw:
            errors.append(f"{prefix}value: need 3 components")
        if kind == "file":
            errors += _need_file(cfg, prefix + "path")
    if errors:
        return errors

    # semantic checks that need built objects
    try:
        grid = cfg.build_grid()
        cfg.build_coils(grid)
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

def control_csv_header(n_coils: int) -> list:
    """The column names of a control CSV for ``n_coils`` coils, with its
    bound columns: ``t,U_1..U_N,a_1..a_N,b_1..b_N``.  A CSV without bounds
    has the first 1+N of them."""
    return ["t"] + [f"{c}_{i}" for c in "Uab" for i in range(1, n_coils + 1)]


def read_control_csv(path, times: np.ndarray, n_coils: int):
    """Read a control CSV: header ``t,U_1..U_N[,a_1..a_N,b_1..b_N]``
    (:func:`control_csv_header`), checked name by name.

    ``times`` are the K+1 time nodes j*dt the rows must sample: row j's
    ``t`` is checked against them at the tolerance that ``SimConfig``
    gives dt dividing T (:func:`~llbopt.llb.time_tolerance` of T).
    Returns (intensities, lower, upper); the bound columns are optional
    and come back as None when absent.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = [name.strip() for name in fh.readline().split(",")]
        with warnings.catch_warnings():
            # a table without rows is reported by the row-count check below
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    names = control_csv_header(n_coils)
    short = names[:1 + n_coils]  # no bound columns
    if header not in (short, names):
        raise ValueError(f"control CSV {path}: expected header {','.join(short)} or "
                         f"{','.join(names)}, got {','.join(header)}")
    if data.shape[1] != len(header):
        raise ValueError(f"control CSV {path}: header has {len(header)} columns, "
                         f"rows have {data.shape[1]}")
    if data.shape[0] != len(times):
        raise ValueError(
            f"control CSV {path}: expected {len(times)} rows, got {data.shape[0]}"
        )
    # written so that a NaN fails it too
    off = ~(np.abs(data[:, 0] - times) <= time_tolerance(times[-1]))
    if np.any(off):
        j = int(np.argmax(off))
        raise ValueError(f"control CSV {path}: row {j} has t = {data[j, 0]:.17g}, "
                         f"expected j*dt = {times[j]:.17g}")
    intens = data[:, 1:1 + n_coils]
    # the config's float rule: the bound columns may open a side, not hold NaN
    for what, values, infinite_ok in (("intensities", intens, False),
                                      ("bounds", data[:, 1 + n_coils:], True)):
        rule = _float_rule(values, infinite_ok)
        if rule:
            raise ValueError(f"control CSV {path}: {what} {rule}")
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
        if _float_rule(frames[j]):
            raise ValueError(f"trajectory file {path}: frame {j}: values must be finite")
    if offset != len(blob):
        raise ValueError(f"trajectory file {path}: more than {n_steps + 1} frames")
    return Trajectory(grid, dt, frames)
