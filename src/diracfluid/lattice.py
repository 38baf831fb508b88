"""Uniform periodic lattice: grids, central differences, Minkowski algebra, CSV output.

Conventions used throughout the package:

* fields are plain complex/real numpy arrays whose *trailing* axes are the
  spatial lattice axes, so a two-spinor field has shape (2, *grid.shape) and a
  scalar field has shape grid.shape;
* the time coordinate is x0 = c*t and all time derivatives are taken with
  respect to x0;
* four-vectors carry an explicit upper/lower index tag and the metric
  signature is (+, -, -, -).
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import GridError, SnapshotIOError

METRIC_SIGNATURE = (1.0, -1.0, -1.0, -1.0)

_CFL_SLACK = 1.0 + 1e-12  # tolerate round-off when dt is set exactly at the bound


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice over [0, extent) per axis, 1 to 3 axes."""

    extents: tuple[float, ...]
    points: tuple[int, ...]
    dt: float
    cfl_factor: float = 0.25

    @property
    def dims(self) -> int:
        return len(self.points)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @property
    def dx(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.extents, self.points))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.dx))

    def axis_coordinates(self, axis: int) -> np.ndarray:
        return np.arange(self.points[axis]) * self.dx[axis]

    def meshes(self) -> list[np.ndarray]:
        return np.meshgrid(*(self.axis_coordinates(i) for i in range(self.dims)), indexing="ij")

    def x0_step(self, c: float) -> float:
        """Step of the time coordinate x0 = c*t corresponding to one dt."""
        return c * self.dt


def make_grid(extents, points, dt=None, cfl_factor: float = 0.25, c: float = 1.0) -> Grid:
    """Build and validate a Grid; dt defaults to cfl_factor*min(dx)/c."""
    extents = tuple(float(L) for L in np.atleast_1d(extents))
    points = tuple(int(n) for n in np.atleast_1d(points))
    if not 1 <= len(points) <= 3:
        raise GridError(f"grid must have 1 to 3 axes, got {len(points)}")
    if len(extents) != len(points):
        raise GridError(f"extents ({len(extents)}) and points ({len(points)}) disagree")
    if any(L <= 0 for L in extents):
        raise GridError(f"extents must be positive, got {extents}")
    if any(n < 8 for n in points):
        raise GridError(f"need at least 8 points per axis, got {points}")
    if not 0 < cfl_factor <= 1.0:
        raise GridError(f"cfl_factor must lie in (0, 1], got {cfl_factor}")
    if c <= 0:
        raise GridError(f"c must be positive, got {c}")
    dx_min = min(L / n for L, n in zip(extents, points))
    dt_bound = cfl_factor * dx_min / c
    if dt is None:
        dt = dt_bound
    dt = float(dt)
    if dt <= 0:
        raise GridError(f"dt must be positive, got {dt}")
    if dt > dt_bound * _CFL_SLACK:
        raise GridError(
            f"dt={dt:g} violates the CFL bound cfl_factor*min(dx)/c={dt_bound:g} "
            f"(cfl_factor={cfl_factor:g}, min dx={dx_min:g}, c={c:g})"
        )
    return Grid(extents=extents, points=points, dt=dt, cfl_factor=cfl_factor)


def _array_axis(f: np.ndarray, grid: Grid, axis: int) -> int:
    """Map a spatial axis index onto the trailing array axes of f."""
    if not 0 <= axis < grid.dims:
        raise GridError(f"axis {axis} out of range for a {grid.dims}-dim grid")
    if f.shape[f.ndim - grid.dims:] != grid.shape:
        raise GridError(f"field shape {f.shape} does not end with grid shape {grid.shape}")
    return f.ndim - grid.dims + axis


def spatial_derivative(f: np.ndarray, grid: Grid, axis: int, order: int = 2) -> np.ndarray:
    """Periodic central first derivative along one spatial axis, order 2 or 4."""
    ax = _array_axis(f, grid, axis)
    dx = grid.dx[axis]
    if order == 2:
        # roll(f, -1) is f(x + dx) with periodic wrap
        return (np.roll(f, -1, ax) - np.roll(f, 1, ax)) / (2.0 * dx)
    if order == 4:
        return (
            -np.roll(f, -2, ax) + 8.0 * np.roll(f, -1, ax)
            - 8.0 * np.roll(f, 1, ax) + np.roll(f, 2, ax)
        ) / (12.0 * dx)
    raise GridError(f"derivative order must be 2 or 4, got {order}")


def second_derivative(f: np.ndarray, grid: Grid, axis: int, order: int = 2) -> np.ndarray:
    """Periodic central second derivative along one spatial axis, order 2 or 4."""
    ax = _array_axis(f, grid, axis)
    dx2 = grid.dx[axis] ** 2
    if order == 2:
        return (np.roll(f, -1, ax) - 2.0 * f + np.roll(f, 1, ax)) / dx2
    if order == 4:
        return (
            -np.roll(f, -2, ax) + 16.0 * np.roll(f, -1, ax) - 30.0 * f
            + 16.0 * np.roll(f, 1, ax) - np.roll(f, 2, ax)
        ) / (12.0 * dx2)
    raise GridError(f"derivative order must be 2 or 4, got {order}")


def laplacian(f: np.ndarray, grid: Grid, order: int = 2) -> np.ndarray:
    out = second_derivative(f, grid, 0, order)
    for axis in range(1, grid.dims):
        out = out + second_derivative(f, grid, axis, order)
    return out


def integrate_volume(f: np.ndarray, grid: Grid):
    """Riemann sum over the periodic box (spectrally accurate for smooth fields)."""
    if f.shape[f.ndim - grid.dims:] != grid.shape:
        raise GridError(f"field shape {f.shape} does not end with grid shape {grid.shape}")
    spatial_axes = tuple(range(f.ndim - grid.dims, f.ndim))
    return np.sum(f, axis=spatial_axes) * grid.cell_volume


def mode_amplitude(f: np.ndarray, grid: Grid, mode: tuple[int, ...]) -> np.ndarray:
    """Amplitude of the plane wave exp(i*sum_j 2pi*mode_j*x_j/L_j) in f.

    Returns the complex projection (mean of f * conj(wave)) with any leading
    component axes preserved.
    """
    if len(mode) != grid.dims:
        raise GridError(f"mode needs {grid.dims} integers, got {len(mode)}")
    phase = np.zeros(grid.shape)
    for j, m in enumerate(mode):
        k_j = 2.0 * np.pi * m / grid.extents[j]
        shape = [1] * grid.dims
        shape[j] = grid.points[j]
        phase = phase + (k_j * grid.axis_coordinates(j)).reshape(shape)
    wave = np.exp(-1j * phase)
    spatial_axes = tuple(range(-grid.dims, 0))
    return np.mean(f * wave, axis=spatial_axes)


# ---------------------------------------------------------------------------
# Minkowski four-vectors


@dataclass(frozen=True, eq=False)
class FourVectorField:
    """Real four-vector field (4, *grid.shape) with an explicit index tag."""

    data: np.ndarray
    upper: bool
    grid: Grid

    def __post_init__(self):
        if self.data.shape != (4,) + self.grid.shape:
            raise GridError(
                f"four-vector data shape {self.data.shape} != {(4,) + self.grid.shape}"
            )


def raise_index(v: FourVectorField) -> FourVectorField:
    if v.upper:
        return v
    return FourVectorField(flip_spatial_sign(v.data), upper=True, grid=v.grid)


def lower_index(v: FourVectorField) -> FourVectorField:
    if not v.upper:
        return v
    return FourVectorField(flip_spatial_sign(v.data), upper=False, grid=v.grid)


def flip_spatial_sign(components: np.ndarray) -> np.ndarray:
    """Apply the metric to raw (4, ...) components: negate the spatial entries."""
    out = components.copy()
    out[1:] = -out[1:]
    return out


def minkowski_dot(a: FourVectorField, b: FourVectorField) -> np.ndarray:
    """Pointwise a.b; same-tag inputs are contracted through the metric."""
    if a.grid != b.grid:
        raise GridError("four-vector fields live on different grids")
    if a.upper == b.upper:
        return minkowski_dot_components(a.data, b.data)
    return np.einsum("m...,m...->...", a.data, b.data)


def minkowski_dot_components(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """eta-contraction a0*b0 - a1*b1 - a2*b2 - a3*b3 of raw same-tag components."""
    return a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]


def minkowski_square(a: np.ndarray) -> np.ndarray:
    """Minkowski square of raw same-tag components (works for complex fields)."""
    if np.iscomplexobj(a):
        mags = np.abs(a) ** 2
        return mags[0] - mags[1] - mags[2] - mags[3]
    return minkowski_dot_components(a, a)


# ---------------------------------------------------------------------------
# CSV output
#
# write_csv is the one encoder for every CSV the package writes: snapshots,
# fluid maps and diagnostics.  It streams rows in blocks of _CSV_BLOCK_ROWS and
# formats each row with one `row_fmt % row`: indices as %d, floats as %.17g so
# values round-trip bit-exactly; the file format is unchanged.  Snapshots have
# one row per lattice point per component (unused axes carry index 0) under one
# of the two headers below.

_COMPLEX_HEADER = "axis0,axis1,axis2,component,re,im"
_REAL_HEADER = "axis0,axis1,axis2,component,value"
_CSV_BLOCK_ROWS = 4096


@functools.lru_cache(maxsize=4)
def index_prefixes(shape: tuple[int, ...]) -> tuple[str, ...]:
    """The "axis0,axis1,axis2," row prefix of every lattice point, in C order."""
    idx = np.indices(shape).reshape(len(shape), -1).tolist()
    idx += [[0] * len(idx[0])] * (3 - len(shape))
    return tuple(map("%d,%d,%d,".__mod__, zip(*idx)))


def write_csv(path, header: str, sections) -> None:
    """Write header, then `row_fmt % row` per row of each (row_fmt, equal-length columns)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for row_fmt, columns in sections:
            for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
                block = [c[lo:lo + _CSV_BLOCK_ROWS] for c in columns]
                block = [b.tolist() if isinstance(b, np.ndarray) else b for b in block]
                fh.write("".join(map(row_fmt.__mod__, zip(*block))))


def _snapshot_components(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Validate a snapshot field and return it as (ncomp, npoints)."""
    if f.shape[f.ndim - grid.dims:] != grid.shape:
        raise SnapshotIOError(f"field shape {f.shape} does not end with grid shape {grid.shape}")
    if f.ndim == grid.dims:
        f = f[np.newaxis]
    if f.ndim != grid.dims + 1:
        raise SnapshotIOError(f"snapshot fields must be (ncomp, *grid.shape), got {f.shape}")
    ncomp = f.shape[0]
    if ncomp not in (1, 2, 4):
        raise SnapshotIOError(f"component count must be 1, 2, or 4, got {ncomp}")
    return f.reshape(ncomp, -1)


def write_snapshot(path, f: np.ndarray, grid: Grid) -> None:
    """Write a complex or real field snapshot CSV."""
    comps = _snapshot_components(np.asarray(f), grid)
    prefixes = index_prefixes(grid.shape)
    if np.iscomplexobj(comps):
        header = _COMPLEX_HEADER
        sections = [(f"%s{c},%.17g,%.17g\n", (prefixes, v.real, v.imag))
                    for c, v in enumerate(comps)]
    else:
        header = _REAL_HEADER
        sections = [(f"%s{c},%.17g\n", (prefixes, v)) for c, v in enumerate(comps)]
    try:
        write_csv(path, header, sections)
    except OSError as exc:
        raise SnapshotIOError(f"cannot write snapshot {path}: {exc}") from exc


def read_snapshot(path, grid: Grid) -> np.ndarray:
    """Read a snapshot CSV back into an (ncomp, *grid.shape) array."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip()
            raw = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise SnapshotIOError(f"cannot read snapshot {path}: {exc}") from exc
    except ValueError as exc:
        raise SnapshotIOError(f"malformed snapshot {path}: {exc}") from exc
    if header == _COMPLEX_HEADER:
        complex_field = True
    elif header == _REAL_HEADER:
        complex_field = False
    else:
        raise SnapshotIOError(f"unrecognized snapshot header in {path}: {header!r}")
    expected_cols = 6 if complex_field else 5
    if raw.shape[1] != expected_cols:
        raise SnapshotIOError(f"{path}: expected {expected_cols} columns, got {raw.shape[1]}")
    comp = raw[:, 3].astype(np.int64)
    ncomp = int(comp.max()) + 1 if raw.size else 0
    if ncomp not in (1, 2, 4):
        raise SnapshotIOError(f"{path}: component count {ncomp} not in (1, 2, 4)")
    npts = int(np.prod(grid.shape))
    if raw.shape[0] != ncomp * npts:
        raise SnapshotIOError(
            f"{path}: {raw.shape[0]} rows, expected {ncomp * npts} for grid {grid.shape}"
        )
    idx = raw[:, :3].astype(np.int64)
    for j in range(grid.dims):
        if idx[:, j].min() < 0 or idx[:, j].max() >= grid.points[j]:
            raise SnapshotIOError(f"{path}: axis{j} index out of range for grid {grid.shape}")
    if np.any(idx[:, grid.dims:] != 0):
        raise SnapshotIOError(f"{path}: nonzero index on unused axis")
    # a view, not re + 1j*im, which turns an infinite im into a NaN re and drops -0.0
    values = np.ascontiguousarray(raw[:, 4:]).view(complex if complex_field else float)[:, 0]
    out = np.empty((ncomp,) + grid.shape, dtype=values.dtype)
    seen = np.zeros(out.shape, dtype=bool)
    index = (comp,) + tuple(idx[:, j] for j in range(grid.dims))
    out[index] = values
    seen[index] = True
    if not seen.all():
        raise SnapshotIOError(f"{path}: missing lattice points in snapshot")
    return out


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
