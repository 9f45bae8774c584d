"""Rectangular cell-centered grids with homogeneous-Neumann discrete calculus.

The domain is a box in 1, 2 or 3 dimensions, sampled at cell centers.  The
Neumann condition is enforced by mirror ghost cells (the ghost value equals
the adjacent interior value), which makes the discrete Laplacian annihilate
constants exactly and keeps it self-adjoint and negative semi-definite under
the cell-sum inner product.

Every per-frame L2 and H1 norm is taken by one kernel, :func:`frame_norms`,
whose gradient term is :func:`grad_sq_integral`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered box grid in 1, 2 or 3 dimensions."""

    cells: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        cells = tuple(int(c) for c in self.cells)
        lengths = tuple(float(L) for L in self.lengths)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "lengths", lengths)
        if not 1 <= len(cells) <= 3:
            raise ValueError(f"grid dimension must be 1, 2 or 3, got {len(cells)}")
        if len(lengths) != len(cells):
            raise ValueError("cells and lengths must have one entry per axis")
        if any(c < 1 for c in cells):
            raise ValueError(f"cells per axis must be positive, got {cells}")
        if any(L <= 0 for L in lengths):
            raise ValueError(f"axis lengths must be positive, got {lengths}")

    @property
    def dim(self) -> int:
        return len(self.cells)

    @functools.cached_property  # outside the fields: eq, hash and repr ignore it
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / c for L, c in zip(self.lengths, self.cells))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    @property
    def node_count(self) -> int:
        return int(np.prod(self.cells))

    @functools.cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    def axis_coords(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.spacing[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h

    def meshgrid(self) -> list[np.ndarray]:
        """Cell-center coordinate arrays, one per axis, each of shape ``grid.shape``."""
        axes = [self.axis_coords(ax) for ax in range(self.dim)]
        return list(np.meshgrid(*axes, indexing="ij"))


@dataclass
class VectorField:
    """An R^3-valued field sampled at the cell centers of a grid.

    ``values`` has shape ``batch + grid.shape + (3,)``: optional leading
    batch axes (a stack of fields, as batched sweeps produce), then the
    spatial axes with x first, then the components.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = self.grid.shape + (3,)
        if self.values.shape[-len(expected):] != expected:
            raise ValueError(
                f"field values have shape {self.values.shape}, expected "
                f"(...,) + {expected}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @classmethod
    def constant(cls, grid: Grid, vec) -> "VectorField":
        vals = np.broadcast_to(np.asarray(vec, dtype=float), grid.shape + (3,))
        return cls(grid, vals.copy())

    @classmethod
    def zero(cls, grid: Grid) -> "VectorField":
        return cls(grid, np.zeros(grid.shape + (3,)))


@dataclass
class Trajectory:
    """Time-indexed stack of vector fields on a fixed grid and uniform step.

    ``values`` has shape ``batch + (K + 1,) + grid.shape + (3,)``; frame 0
    is t = 0.  The batch axes are optional: a batched sweep returns one
    trajectory per member, stacked in front of the time axis.
    """

    grid: Grid
    dt: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.dt <= 0:
            raise ValueError("trajectory dt must be positive")
        expected_tail = self.grid.shape + (3,)
        if (self.values.ndim < len(expected_tail) + 1
                or self.values.shape[-len(expected_tail):] != expected_tail):
            raise ValueError(
                f"trajectory values have shape {self.values.shape}, "
                f"expected (..., K+1) + {expected_tail}"
            )

    @property
    def frames(self) -> np.ndarray:
        """Time-leading view of ``values``: ``frames[j]`` is frame j of
        every batch member."""
        return np.moveaxis(self.values, -(self.grid.dim + 2), 0)

    @property
    def n_steps(self) -> int:
        return self.values.shape[-self.grid.dim - 2] - 1

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    def frame(self, j: int) -> VectorField:
        return VectorField(self.grid, self.frames[j])


# ---------------------------------------------------------------------------
# discrete calculus
# ---------------------------------------------------------------------------

def laplacian_values(grid: Grid, vals: np.ndarray) -> np.ndarray:
    """5/7-point Laplacian with mirror ghost cells, applied componentwise.

    ``vals`` has shape ``batch + grid.shape + (3,)``: the spatial axes are
    the ``grid.dim`` axes just before the last (component) axis, and any
    axes in front of them are batch axes, carried along.  Each spatial axis
    is sliced in place, by an index that counts its position from the end
    (``(..., s) + (slice(None),) * (grid.dim - ax)``), so no per-call
    ``moveaxis`` or axis normalization runs: on small grids that
    bookkeeping, not the arithmetic, set the cost of a call.
    """
    out = np.zeros_like(vals)
    t = np.empty_like(out)  # one axis term, its buffer reused per axis
    for ax, h in enumerate(grid.spacing):
        tail = (slice(None),) * (grid.dim - ax)
        lo, hi = (..., slice(None, -1)) + tail, (..., slice(1, None)) + tail
        first, last = (..., slice(None, 1)) + tail, (..., slice(-1, None)) + tail
        np.multiply(-2.0, vals, out=t)
        t[hi] += vals[lo]
        t[first] += vals[first]  # mirror ghost below the first cell
        t[lo] += vals[hi]
        t[last] += vals[last]    # mirror ghost above the last cell
        t /= h**2
        out += t
    return out


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last (component) axis, with broadcasting.

    Bit for bit numpy's cross product on float arrays: each component is
    ``a1*b2 - a2*b1``, ``a2*b0 - a0*b2``, ``a0*b1 - a1*b0``, one rounding
    per product and per difference, in numpy's order.  Written out so that
    the sweeps' steps skip numpy's axis moves and input copies, which cost
    more than the arithmetic on small grids.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast(a, b).shape)
    np.subtract(a1 * b2, a2 * b1, out=out[..., 0])
    np.subtract(a2 * b0, a0 * b2, out=out[..., 1])
    np.subtract(a0 * b1, a1 * b0, out=out[..., 2])
    return out


# sums the three components of a row and spreads the sum over all three
_SPREAD = np.ones((3, 3))
_SPREAD.flags.writeable = False


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Nodewise dot product over the last (component) axis, spread over the
    three components, with broadcasting: every component of a node holds
    its a.b, so that scaling a frame by it runs elementwise, not along the
    length-3 axis.

    Bit for bit ``np.broadcast_to(np.sum(a * b, axis=-1, keepdims=True),
    shape)`` on float arrays: one product p = a*b, then ``p.reshape(-1, 3)
    @ ones((3, 3))``, a matrix product that sums each row's three products
    left to right from a +0.0 start, as numpy's sum does (so an
    all-(-0.0) row sums to +0.0), each addition rounded once, and the
    multiplications by 1 exact.  Written this way, like :func:`cross`,
    because numpy's reduction over a length-3 axis costs several times the
    arithmetic.
    """
    p = a * b
    return (p.reshape(-1, 3) @ _SPREAD).reshape(p.shape)


def grad_sq_integral(grid: Grid, vals: np.ndarray) -> float:
    """Cell-sum integral of |grad f|^2, f = ``vals`` of shape ``grid.shape +
    tail``, from the forward differences / h over the interior faces: the
    mirror ghosts give the boundary faces none.  Equals ``-w * sum(lap_h f *
    f)``, w the cell volume (summation by parts against
    :func:`laplacian_values`)."""
    w = grid.cell_volume
    total = 0.0
    for ax, h in enumerate(grid.spacing):
        lead = (slice(None),) * ax
        g = (vals[lead + (slice(1, None),)] - vals[lead + (slice(None, -1),)]) / h
        total += w * float(np.sum(g * g))
    return total


def frame_norms(grid: Grid, frames, grad: bool = False):
    """Per-frame squared L2 norms of a sequence of fields on ``grid``.

    ``frames`` is any iterable of arrays of shape ``grid.shape + tail``
    (vector frames, or scalar ones such as |m|^2); it is walked one frame
    at a time, so a generator of derived frames never holds more than one.
    With ``grad`` the squared gradient norms (:func:`grad_sq_integral`) come
    too, and ``l2_sq + grad_sq`` is the squared H1 norm.  Returns ``l2_sq``,
    or ``(l2_sq, grad_sq)`` with ``grad``.
    """
    w = grid.cell_volume
    l2_sq, grad_sq = [], []
    for v in frames:
        l2_sq.append(w * float(np.sum(v * v)))
        if grad:
            grad_sq.append(grad_sq_integral(grid, v))
    l2_sq = np.array(l2_sq)
    return (l2_sq, np.array(grad_sq)) if grad else l2_sq


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def time_integral(series, dt: float) -> float:
    """Trapezoidal time quadrature of a sampled scalar series."""
    series = np.asarray(series, dtype=float)
    if series.ndim != 1 or series.shape[0] < 2:
        raise ValueError("degenerate time grid: need at least 2 samples")
    return float(_trapezoid(series, dx=dt))


# ---------------------------------------------------------------------------
# LLBFIELD snapshot format
# ---------------------------------------------------------------------------

_MAGIC = "LLBFIELD v1"


def encode_record(grid: Grid, values: np.ndarray) -> bytes:
    """One LLBFIELD record of a field of shape ``grid.shape + (3,)``: an
    ASCII header line, then little-endian float64 triples per node in
    x-fastest order."""
    header = " ".join([_MAGIC, str(grid.dim)] + [str(c) for c in grid.cells])
    # x-fastest: reverse the spatial axes so that ravel runs x innermost
    spatial = tuple(range(grid.dim))
    flat = np.transpose(values, spatial[::-1] + (grid.dim,)).reshape(-1, 3)
    return (header + "\n").encode("ascii") + flat.astype("<f8").tobytes()


def decode_record(blob: bytes, grid: Grid, offset: int = 0):
    """Decode the LLBFIELD record that starts at ``offset`` of ``blob``.

    Returns the record's values on ``grid`` (a read-only view of ``blob``)
    and the offset just past the record.  Raises ValueError for a bad
    header, a record on another grid or a short payload.
    """
    nl = blob.find(b"\n", offset)
    header = blob[offset:nl if nl >= 0 else len(blob)].decode("ascii", "replace").strip()
    parts = header.split()
    if (nl < 0 or parts[:2] != _MAGIC.split() or len(parts) < 3
            or not all(p.isdigit() for p in parts[2:])):
        raise ValueError(f"not an LLBFIELD v1 record: header {header[:80]!r}")
    dim = int(parts[2])
    cells = tuple(int(p) for p in parts[3:3 + dim])
    if dim != grid.dim or cells != grid.cells:
        raise ValueError(
            f"snapshot grid {cells} (dim {dim}) does not match target grid "
            f"{grid.cells} (dim {grid.dim})"
        )
    start, count = nl + 1, grid.node_count * 3
    end = start + 8 * count
    if end > len(blob):
        raise ValueError(
            f"snapshot payload has {(len(blob) - start) // 8} floats, expected {count}")
    flat = np.frombuffer(blob, dtype="<f8", count=count, offset=start)
    spatial = tuple(range(grid.dim))
    vals = flat.reshape(grid.cells[::-1] + (3,)).transpose(spatial[::-1] + (grid.dim,))
    return vals, end


def write_field(path, f: VectorField) -> None:
    """Write a field snapshot: one LLBFIELD record (:func:`encode_record`)."""
    with open(path, "wb") as fh:
        fh.write(encode_record(f.grid, f.values))


def read_field(path, grid: Grid) -> VectorField:
    """Read a field snapshot written by :func:`write_field` onto ``grid``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    vals, end = decode_record(blob, grid)
    if end != len(blob):
        raise ValueError(f"snapshot has {len(blob) - end} bytes past its record")
    return VectorField(grid, vals.copy())
