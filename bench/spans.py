"""Span recording around llbopt's public functions, from outside the package.

``install`` replaces each traced function with a timing wrapper in every
``llbopt`` module namespace that holds it, so a call through any import
site (``config.simulate``, ``optimize.simulate``, ...) is recorded.  Spans
are kept in memory and written once, when the traced process ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# span name -> (module, attribute); RunConfig.build_targets is a method
TARGETS = {
    "grid.laplacian_values": ("llbopt.grid", "laplacian_values"),
    "grid.write_field": ("llbopt.grid", "write_field"),
    "llb.simulate": ("llbopt.llb", "simulate"),
    "llb.step_values": ("llbopt.llb", "step_values"),
    "llb.energy_ledger": ("llbopt.llb", "energy_ledger"),
    "tangent.solve_tangent": ("llbopt.tangent", "solve_tangent"),
    "adjoint.solve_adjoint": ("llbopt.adjoint", "solve_adjoint"),
    "adjoint.solve_costate_derivative": ("llbopt.adjoint", "solve_costate_derivative"),
    "adjoint.tracking_adjoint": ("llbopt.adjoint", "tracking_adjoint"),
    "optimize.projected_gradient_descent": ("llbopt.optimize", "projected_gradient_descent"),
    "optimize.evaluate_cost": ("llbopt.optimize", "evaluate_cost"),
    "optimize.coil_pairing": ("llbopt.optimize", "coil_pairing"),
    "certify.second_order_scan": ("llbopt.certify", "second_order_scan"),
    "certify.curvature": ("llbopt.certify", "curvature"),
    "certify.first_order_residual": ("llbopt.certify", "first_order_residual"),
    "certify.global_and_uniqueness_report": ("llbopt.certify", "global_and_uniqueness_report"),
    "config.parse_config": ("llbopt.config", "parse_config"),
    "config.build_targets": ("llbopt.config", "RunConfig.build_targets"),
}

# The implicit solve is traced while llb defines one by a public name ending
# in ``implicit_solve`` that the sweeps call; all such names share one span.
SOLVE_SPAN = "llb.implicit_solve"
SOLVE_SUFFIX = "implicit_solve"


class Recorder:
    """In-memory span store: name, start, end, parent index and run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.bytes_written = 0
        self._stack: list = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.starts)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(None)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
                if name == "grid.write_field":
                    self.bytes_written += os.path.getsize(args[0])
        return wrapper

    def dump(self, path, extra=None) -> None:
        doc = {"run_id": self.run_id, "names": self.names, "starts": self.starts,
               "ends": self.ends, "parents": self.parents,
               "bytes_written": self.bytes_written}
        doc.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "llbopt" or name.startswith("llbopt."))]


def _targets():
    """(span name, owner object, attribute) for every traced function that
    exists; the names of missing targets come back separately."""
    found, missing = [], []
    for span, (mod_name, attr) in TARGETS.items():
        owner = sys.modules.get(mod_name)
        if "." in attr and owner is not None:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name, None)
        if owner is None or not callable(getattr(owner, attr, None)):
            missing.append(span)
            continue
        found.append((span, owner, attr))
    llb = sys.modules.get("llbopt.llb")
    solvers = [(SOLVE_SPAN, llb, attr) for attr in sorted(vars(llb) if llb else ())
               if attr.endswith(SOLVE_SUFFIX) and not attr.startswith("_")
               and callable(getattr(llb, attr))]
    found += solvers
    if not solvers:
        missing.append(SOLVE_SPAN)
    return found, missing


def install(recorder: Recorder, skip_modules=()):
    """Wrap every traced function at every import site in the package.

    Returns (patches, missing): ``patches`` lists (owner, attribute,
    original) for :func:`uninstall`; ``missing`` names traced functions the
    package no longer defines.  ``skip_modules`` leaves those module
    namespaces unpatched, which the tests use to simulate a missed site.
    """
    import llbopt.cli  # noqa: F401  (loads every module the CLI uses)

    found, missing = _targets()
    patches = []
    for span, owner, attr in found:
        original = getattr(owner, attr)
        wrapper = recorder.wrap(span, original)
        sites = [owner] if isinstance(owner, type) else [
            m for m in _package_modules() if m.__name__ not in skip_modules]
        for site in sites:
            for name, value in list(vars(site).items()):
                if value is original:
                    setattr(site, name, wrapper)
                    patches.append((site, name, original))
    return patches, missing


def uninstall(patches) -> None:
    for site, name, original in reversed(patches):
        setattr(site, name, original)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_times(starts, ends, parents) -> list:
    """Each span's duration minus the part of it that its direct children
    cover (overlapping children are merged, and clipped to the parent)."""
    children: dict = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        cur_s = cur_e = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, s), min(ce, e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out


def summarize(doc: dict) -> dict:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only outermost calls of a name, so a function
    that reaches itself through another traced call is not counted twice.
    """
    names, starts, ends, parents = doc["names"], doc["starts"], doc["ends"], doc["parents"]
    selfs = self_times(starts, ends, parents)
    out: dict = {}
    for i, name in enumerate(names):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += selfs[i]
        p = parents[i]
        while p >= 0 and names[p] != name:
            p = parents[p]
        if p < 0:
            agg["s"] += ends[i] - starts[i]
    return out


def nested_count(doc: dict, name: str, under: str) -> int:
    """How many ``name`` spans have an ``under`` span among their ancestors."""
    names, parents = doc["names"], doc["parents"]
    count = 0
    for i, n in enumerate(names):
        if n != name:
            continue
        p = parents[i]
        while p >= 0 and names[p] != under:
            p = parents[p]
        count += p >= 0
    return count
