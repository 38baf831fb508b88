"""Uniform periodic lattice: grids, central differences, the four-gradient,
Minkowski algebra, CSV output.

Conventions used throughout the package:

* fields are plain complex/real numpy arrays whose *trailing* axes are the
  spatial lattice axes, so a two-spinor field has shape (2, *grid.shape) and a
  scalar field has shape grid.shape;
* the time coordinate is x0 = c*t and all time derivatives are taken with
  respect to x0; `four_gradient` is the one d_mu of a recorded level, which
  takes d0 as given (from the equation of motion, `dynamics.dirac_rhs`) and
  adds the spatial differences; the fluid map and the identity rows share it;
* the central first difference D_i is the one spatial operator: the
  Laplacian is sum_i D_i D_i = (sigma^i D_i)^2; `Stencil` evaluates it on a
  copy padded along the first spatial axis only, so each numpy call runs on
  unit-stride blocks, and mends the wrap columns of the later axes;
* four-vectors are plain (4, *grid.shape) arrays: gradients hold lower-index
  components, velocities and currents upper-index ones; the metric
  signature is (+, -, -, -);
* every CSV goes through `write_csv`, which formats blocks of text and float
  columns whole in numpy (`csvblock`); `read_snapshot` decodes a snapshot in
  exactly that layout in numpy too, and any other file with np.loadtxt.
"""

from __future__ import annotations

import functools
import hashlib
import io
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def make_grid(extents, points, dt=None, cfl_factor: float = 0.25, c: float = 1.0) -> Grid:
    """Build and validate a Grid; dt defaults to cfl_factor*min(dx)/c."""
    extents = tuple(float(L) for L in np.atleast_1d(extents))
    points = tuple(int(n) for n in np.atleast_1d(points))
    if not 1 <= len(points) <= 3:
        raise GridError(f"grid must have 1 to 3 axes, got {len(points)}")
    if len(extents) != len(points):
        raise GridError(f"extents ({len(extents)}) and points ({len(points)}) disagree")
    if not all(0 < L < np.inf for L in extents):
        raise GridError(f"extents must be positive and finite, got {extents}")
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
    if not 0 < dt < np.inf:
        raise GridError(f"dt must be positive and finite, got {dt}")
    if dt > dt_bound * _CFL_SLACK:
        raise GridError(
            f"dt={dt:g} violates the CFL bound cfl_factor*min(dx)/c={dt_bound:g} "
            f"(cfl_factor={cfl_factor:g}, min dx={dx_min:g}, c={c:g})"
        )
    return Grid(extents=extents, points=points, dt=dt, cfl_factor=cfl_factor)


def _cut(dims: int, axis: int, lo: int, hi: int) -> tuple:
    """The index of [lo, hi) along spatial axis `axis` of a field with dims trailing spatial axes."""
    return (Ellipsis, slice(lo, hi)) + (slice(None),) * (dims - 1 - axis)


class Stencil:
    """Periodic central differences, order 2 or 4, on fields of one shape.

    `load` copies a field into a buffer with g = order/2 periodic ghost rows on
    the first spatial axis only, so `inner`, its shifts along that axis and the
    two ghost copies are contiguous per leading (component) index, and numpy
    runs each ufunc on unit-stride blocks.  A shift s along a later axis a is
    the same block read at flat offset s * stride_a, which is wrong only on
    a's 2g wrap columns (its first and last g); `first_numerator` overwrites
    those with the same ufuncs on views of their neighbours in `inner` (a 1-D
    grid has no later axis).  Views are built once per instance (no np.roll
    copies) and results go into caller-owned buffers; a stepper keeps one
    instance, with its scratch buffers, across its steps.  Each output element
    keeps the operands and ufunc order of the np.roll expressions, and
    sigma_dot_grad those of the einsum contraction, so results are
    bit-identical to both.  A small-grid step pays per numpy call, so an
    instance makes its Pauli factors, scratch fields and a stepper's
    `constants` (0-d arrays: cheap ufunc operands) on first use.
    """

    def __init__(self, shape, grid: Grid, order: int = 2, dtype=complex, scratch: int = 0):
        if order not in (2, 4):
            raise GridError(f"derivative order must be 2 or 4, got {order}")
        shape = tuple(shape)
        if shape[len(shape) - grid.dims:] != grid.shape:
            raise GridError(f"field shape {shape} does not end with grid shape {grid.shape}")
        self.key, self._made = (shape, grid, order), (None, None)
        self.grid, self.order, self.dims = grid, order, grid.dims
        g, d, n0, lead = order // 2, grid.dims, grid.shape[0], shape[:len(shape) - grid.dims]
        self.pad = np.empty(lead + (n0 + 2 * g,) + grid.shape[1:], dtype)

        def rows(lo, n):
            return self.pad[_cut(d, 0, lo, lo + n)]

        self.inner = rows(g, n0)
        self.ghosts = ((rows(0, g), rows(n0, g)), (rows(n0 + g, g), rows(g, g)))
        # shifted[axis][g + s][i] is f[i + s] along axis, off a later axis's wrap columns
        self.shifted = [[rows(g + s, n0) for s in range(-g, g + 1)]]
        self.t = np.empty(shape, dtype) if order == 4 else None  # an order-4 difference's product
        # per axis, (index into out, operands, t) of the whole block, then of each wrap column
        self.blocks = [[((), self.shifted[0], self.t)]]
        if d > 1:  # the pad is C-contiguous: a shift along a later axis is a flat offset
            flat, size = self.pad.reshape(lead + (-1,)), math.prod(grid.shape)
            for a, n in enumerate(grid.shape[1:], 1):
                at = [g * size // n0 + s * math.prod(grid.shape[a + 1:]) for s in range(-g, g + 1)]
                self.shifted.append([flat[..., i:i + size].reshape(shape) for i in at])
                cut = functools.partial(_cut, d, a)
                self.blocks.append([((), self.shifted[a], self.t)] + [
                    (cut(j, j + 1), [self.inner[cut((j + s) % n, (j + s) % n + 1)]
                                     for s in range(-g, g + 1)],
                     None if self.t is None else self.t[cut(j, j + 1)])
                    for j in (*range(g), *range(n - g, n))])
        self.div1 = [(2.0 if order == 2 else 12.0) * dx for dx in grid.dx]
        self.flip = (Ellipsis, slice(None, None, -1)) + (slice(None),) * grid.dims
        self.scratch = [np.empty(shape, dtype) for _ in range(scratch)]  # for callers

    @classmethod
    def reuse(cls, stencil, shape, grid: Grid, order: int, scratch: int) -> Stencil:
        """stencil if it was made for (shape, grid, order), else a new complex one."""
        if stencil is not None and stencil.key == (tuple(shape), grid, order):
            return stencil
        return cls(shape, grid, order, complex, scratch)

    def load(self, f: np.ndarray) -> None:
        """Copy f into the padded buffer (unless it is `inner`) and fill the ghosts."""
        if f is not self.inner:
            np.copyto(self.inner, f)  # same-kind casting: a complex f into a real pad raises
        for ghost, source in self.ghosts:
            ghost[...] = source  # pad to pad, one dtype: no need for copyto's dispatch

    # made on first use: e holds the axes past the first of a multi-axis sum
    # unless the caller lends a free field as `work` (the steppers do)
    e = functools.cached_property(lambda self: np.empty_like(self.inner))
    sigma = None  # sigma_dot_grad's factors, made on its first call

    def constants(self, make, h: float, mu: float):
        """make(self, h, mu): a stepper's constants, rebuilt when make, h or mu changes."""
        key = (make, h, math.copysign(1.0, h), mu)  # -0.0 and +0.0 give other bits
        if self._made[0] != key:
            self._made = key, make(self, h, mu)
        return self._made[1]

    def first_numerator(self, axis: int, out: np.ndarray) -> np.ndarray:
        """The loaded field's first difference along axis, before its division."""
        for index, v, t in self.blocks[axis]:  # a later axis's wrap columns after the block
            o = out[index] if index else out
            if self.order == 2:
                np.subtract(v[2], v[0], out=o)
                continue
            np.subtract(np.multiply(8.0, v[3], out=o), v[4], out=o)  # -f[i+2] + 8 f[i+1]
            np.subtract(o, np.multiply(8.0, v[1], out=t), out=o)     # - 8 f[i-1]
            np.add(o, v[0], out=o)                                     # + f[i-2]
        return out

    def first(self, axis: int, out: np.ndarray) -> np.ndarray:
        """D_axis of the loaded field into out."""
        return np.divide(self.first_numerator(axis, out), self.div1[axis], out=out)

    def gradient(self, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        """d_i f for every spatial axis i into out[i], out of shape (dims, *f.shape)."""
        self.load(f)
        for axis in range(self.dims):
            self.first(axis, out[axis])
        return out

    def laplacian(self, f: np.ndarray, out: np.ndarray,
                  work: np.ndarray | None = None) -> np.ndarray:
        """sum_i D_i D_i f, axes summed left to right: the square of sigma.D."""
        for axis in range(self.dims):
            d = out if axis == 0 else (self.e if work is None else work)
            for source in (f, d):
                self.load(source)
                self.first(axis, d)
            if axis:
                np.add(out, d, out=out)
        return out

    def sigma_dot_grad(self, f: np.ndarray, out: np.ndarray,
                       work: np.ndarray | None = None) -> np.ndarray:
        """sigma^i d_i f, with the two spinor components on axis -(dims + 1).

        sigma^1 swaps the components (written through reversed views),
        sigma^2 is -i, +i times the swap and sigma^3 flips the second's sign.
        Nonzero values equal the complex division and einsum of the roll form;
        the final +0.0 turns -0.0 into +0.0, as that einsum did.
        """
        self.load(f)
        if self.sigma is None:  # 1/div1 of axis 0 and +0.0, then (work's index, factor) per axis
            dtype, shape = self.pad.dtype, (2,) + (1,) * self.dims
            self.sigma = [np.array(1.0 / self.div1[0], dtype), np.zeros((), dtype)] + [
                (index, np.reshape(pauli, shape) * (1.0 / d)) for index, pauli, d in
                zip((self.flip, Ellipsis), ([-1j, 1j], [1.0, -1.0]), self.div1[1:])]
        inv_div, zero, *later = self.sigma
        self.first_numerator(0, out[self.flip])
        np.multiply(out, inv_div, out=out)
        for axis, (index, factor) in enumerate(later, 1):
            work = self.e if work is None else work
            self.first_numerator(axis, work[index])
            np.add(out, np.multiply(work, factor, out=work), out=out)
        return np.add(out, zero, out=out)


def spatial_derivative(f: np.ndarray, grid: Grid, axis: int, order: int = 2) -> np.ndarray:
    """Periodic central first derivative along one spatial axis, order 2 or 4."""
    if not 0 <= axis < grid.dims:
        raise GridError(f"axis {axis} out of range for a {grid.dims}-dim grid")
    stencil = Stencil(f.shape, grid, order, f.dtype)
    stencil.load(f)
    return stencil.first(axis, np.empty(f.shape, f.dtype))


def four_gradient(f: np.ndarray, d0f: np.ndarray, grid: Grid, order: int = 2) -> np.ndarray:
    """Lower-index d_mu (4, *f.shape) of one x0 level: d0f as given, central differences in space.

    Components past grid.dims are exact zeros.
    """
    out = np.zeros((4,) + f.shape, dtype=f.dtype)
    out[0] = d0f
    Stencil(f.shape, grid, order, f.dtype).gradient(f, out[1:1 + grid.dims])
    return out


def kappa_dx(theta, order: int):
    """kappa dx of the first difference on the mode k dx = theta, on which it acts as i kappa."""
    return np.sin(theta) if order == 2 else (8.0 * np.sin(theta) - np.sin(2.0 * theta)) / 6.0


def laplacian(f: np.ndarray, grid: Grid, order: int = 2) -> np.ndarray:
    """sum_i D_i D_i f with the first differences D_i of spatial_derivative."""
    return Stencil(f.shape, grid, order, f.dtype).laplacian(f, np.empty(f.shape, f.dtype))


def integrate_volume(f: np.ndarray, grid: Grid):
    """Riemann sum over the periodic box (spectrally accurate for smooth fields)."""
    if f.shape[f.ndim - grid.dims:] != grid.shape:
        raise GridError(f"field shape {f.shape} does not end with grid shape {grid.shape}")
    spatial_axes = tuple(range(f.ndim - grid.dims, f.ndim))
    return np.sum(f, axis=spatial_axes) * grid.cell_volume


# ---------------------------------------------------------------------------
# Minkowski four-vectors


def minkowski_dot_components(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """eta-contraction a0*b0 - a1*b1 - a2*b2 - a3*b3 of two (4, ...) component arrays."""
    return a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]


def minkowski_square(a: np.ndarray) -> np.ndarray:
    """Minkowski square of (4, ...) components, both indices up or both down (or complex)."""
    if np.iscomplexobj(a):
        mags = np.abs(a) ** 2
        return mags[0] - mags[1] - mags[2] - mags[3]
    return minkowski_dot_components(a, a)


# ---------------------------------------------------------------------------
# CSV output
#
# write_csv is the one encoder for every CSV the package writes: snapshots,
# fluid maps and diagnostics.  Rows go out in blocks, and every block is
# byte-identical to `row_fmt % row` per row: indices as %d, floats as %.17g so
# values round-trip bit-exactly.  Snapshots have one row per lattice point per
# component (unused axes carry index 0) under one of the two headers below.
#
# A block of at least _VECTOR_ROWS rows whose row_fmt holds only literal text,
# %s over text arrays and %.17g over float64 arrays is built whole in numpy by
# `csvblock` (see there), at about 100-150 ns per float against 600-700 ns
# through `%` on a 2-core Xeon VM; other blocks use one `(row_fmt * k) %
# values`.  Blocks win from about 100 rows on (snapshot rows of 2 floats, 64 /
# 128 / 256 of them: 150 / 347 / 597 us row by row, 131 / 188 / 295 us as one
# block), hence _VECTOR_ROWS; _CSV_BLOCK_ROWS keeps a block's temporaries near
# 0.5 MB, and 1024 to 8192 rows ran at the same speed.  `csvblock` is imported
# on the first such block: a run that writes only small CSVs never compiles
# it (with bytecode caching off, doing so raised peak RSS by 0.3-0.5 MB).
#
# Every file is encoded in the calling process.  With blocks formatted in
# numpy, a forked helper formatting half of a large file's rows lost to one
# process on a 2-core Xeon VM (a complex two-component 32^3 snapshot: 50 ms
# split, 40 ms in one process), as both halves ran at about half speed.
#
# read_snapshot reads the file's bytes once.  A file in exactly the layout
# above (`_read_layout`: the header, then per row the point's index_prefixes
# bytes, the component digit and the float fields, in write order) has its
# separators located on the uint8 view, slice by slice, as int32 positions
# (`_separators`), and its index columns compared as bytes, not parsed;
# `csvblock.parse_fields` decodes the floats bit-exactly, and returns None for
# a field outside [-]digits[.digits][e(+|-)dd[d]] (so also for inf and nan).
# Every other file goes through np.loadtxt (`_read_text`), so what is
# accepted and every error stay those of np.loadtxt.  A complex two-component
# 32^3 snapshot reads in 41-44 ms this way against 79-118 ms through
# np.loadtxt, and a 64^3 one in 356-373 ms against 675-863 ms (best of 3-7
# reads, the same 2-core Xeon VM).

_COMPLEX_HEADER = "axis0,axis1,axis2,component,re,im"
_REAL_HEADER = "axis0,axis1,axis2,component,value"
_CSV_BLOCK_ROWS = 2048
_VECTOR_ROWS = 128
_SCAN_BYTES = 1 << 18  # bytes per slice of `_separators`


@functools.lru_cache(maxsize=4)
def index_prefixes(shape: tuple[int, ...]) -> np.ndarray:
    """The "axis0,axis1,axis2," row prefix of every lattice point, in C order, as bytes."""
    axes = [[b"%d," % i for i in range(n)] for n in shape + (1,) * (3 - len(shape))]
    width = sum(len(axis[-1]) for axis in axes)
    return np.fromiter(map(b"".join, itertools.product(*axes)), f"S{width}", int(np.prod(shape)))


def _encode(sections):
    """Yield the bytes of the rows of each section in turn, one block at a time."""
    for row_fmt, columns in sections:
        n, width = len(columns[0]), len(columns)
        vector = None  # drop the last section's buffers before making this one's
        if n >= _VECTOR_ROWS:
            from . import csvblock
            vector = csvblock.vector_section(row_fmt, columns, min(n, _CSV_BLOCK_ROWS))
        for a in range(0, n, _CSV_BLOCK_ROWS):
            b = min(a + _CSV_BLOCK_ROWS, n)
            if vector and b - a >= _VECTOR_ROWS:
                yield vector(a, b)
                continue
            # interleave into a presized list: tuple(chain(*zip(...))) grows its
            # tuple and raised a 32^3 run's peak RSS by about 1 MB
            values = [None] * ((b - a) * width)
            for j, column in enumerate(columns):
                block = column[a:b]
                if isinstance(block, np.ndarray):  # bytes are written as their text
                    block = (block.astype("U") if block.dtype.kind == "S" else block).tolist()
                values[j::width] = block
            yield ((row_fmt * (b - a)) % tuple(values)).encode("ascii")


def write_csv(path, header: str, sections) -> None:
    """Write header, then `row_fmt % row` per row of each (row_fmt, equal-length columns)."""
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        fh.writelines(_encode(sections))


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
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SnapshotIOError(f"cannot read snapshot {path}: {exc}") from exc
    field = _read_layout(data, grid)
    return _read_text(path, data, grid) if field is None else field


def _separators(u: np.ndarray) -> np.ndarray:
    """Positions of the bytes <= ',' in u, scanned in slices into int32 (int64 from 2^31 bytes).

    A snapshot row holds a separator per 9 or so bytes, so np.flatnonzero's
    int64 positions of a whole file were the reader's largest temporary; per
    slice, its mask and int64 positions stay small.
    """
    dtype = np.int32 if len(u) < 2 ** 31 else np.int64  # so position + 1 fits
    parts = []
    for a in range(0, len(u), _SCAN_BYTES):
        part = np.flatnonzero(u[a:a + _SCAN_BYTES] <= ord(",")).astype(dtype)
        part += a
        parts.append(part)
    return np.concatenate(parts) if parts else np.empty(0, dtype)


def _read_layout(data: bytes, grid: Grid) -> np.ndarray | None:
    """The field of a snapshot in exactly write_snapshot's layout, else None.

    Separators are found on the file's uint8 view (`_separators`).  Every row
    must start with its point's `index_prefixes` bytes and component digit, in
    write order, so the index columns are compared, never parsed;
    `csvblock.parse_fields` decodes the float fields, or returns None for one
    outside its grammar.
    """
    for header, width in ((_COMPLEX_HEADER, 6), (_REAL_HEADER, 5)):
        if data.startswith(header.encode("ascii") + b"\n"):
            break
    else:
        return None
    u = np.frombuffer(data, np.uint8)
    sep = _separators(u)                    # ',' and newline, or '+' in an exponent
    kinds = u[sep]
    plus = kinds == ord("+")
    if plus.any():
        sep, kinds = sep[~plus], kinds[~plus]
    rows = len(sep) // width                # the header is a row too
    npts = int(np.prod(grid.shape))
    ncomp = (rows - 1) // npts
    pattern = np.frombuffer(b"," * (width - 1) + b"\n", np.uint8)
    if (len(sep) != rows * width or sep[-1] != len(u) - 1 or ncomp not in (1, 2, 4)
            or rows - 1 != ncomp * npts or not (kinds.reshape(rows, width) == pattern).all()):
        return None
    del kinds, plus
    sep = sep.reshape(rows, width)
    prefix = index_prefixes(grid.shape).view(np.uint8).reshape(npts, -1)
    starts = sep[:-1, -1] + 1
    if int(starts[-1]) + prefix.shape[1] > len(u):
        return None
    got = sliding_window_view(u, prefix.shape[1])[starts].reshape(ncomp, npts, -1)
    if not ((got == prefix) | (prefix == 0)).all():
        return None
    digit = starts.reshape(ncomp, npts) + np.count_nonzero(prefix, axis=1)
    if not ((sep[1:, 3].reshape(ncomp, npts) == digit + 1).all()
            and (u[digit] == np.arange(ord("0"), ord("0") + ncomp, dtype=np.uint8)[:, None]).all()):
        return None
    del got, starts, digit
    starts, ends = (sep[1:, 3:-1] + 1).reshape(-1), sep[1:, 4:].reshape(-1)
    del sep
    from . import csvblock
    values = csvblock.parse_fields(data, starts, ends)
    if values is None:
        return None
    return values.view(complex if width == 6 else float).reshape((ncomp,) + grid.shape)


def _read_text(path, data: bytes, grid: Grid) -> np.ndarray:
    """Read any snapshot np.loadtxt accepts, and raise SnapshotIOError for the rest."""
    try:
        fh = io.TextIOWrapper(io.BytesIO(data), encoding="ascii")
        header = fh.readline().strip()
        with warnings.catch_warnings():  # a file without rows is an error below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            raw = np.loadtxt(fh, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise SnapshotIOError(f"malformed snapshot {path}: {exc}") from exc
    if header == _COMPLEX_HEADER:
        complex_field = True
    elif header == _REAL_HEADER:
        complex_field = False
    else:
        raise SnapshotIOError(f"unrecognized snapshot header in {path}: {header!r}")
    npts = int(np.prod(grid.shape))
    if not raw.shape[0]:
        raise SnapshotIOError(f"{path}: 0 rows, expected {npts}, {2 * npts} or {4 * npts} "
                              f"for grid {grid.shape}")
    expected_cols = 6 if complex_field else 5
    if raw.shape[1] != expected_cols:
        raise SnapshotIOError(f"{path}: expected {expected_cols} columns, got {raw.shape[1]}")
    indices = raw[:, :4]  # NaN fails every comparison
    if not np.all((indices >= 0) & (indices < 2 ** 31) & (np.floor(indices) == indices)):
        raise SnapshotIOError(f"{path}: axis and component indices must be non-negative integers")
    idx = indices.astype(np.int64)
    comp = idx[:, 3]
    ncomp = int(comp.max()) + 1
    if ncomp not in (1, 2, 4):
        raise SnapshotIOError(f"{path}: component count {ncomp} not in (1, 2, 4)")
    if raw.shape[0] != ncomp * npts:
        raise SnapshotIOError(
            f"{path}: {raw.shape[0]} rows, expected {ncomp * npts} for grid {grid.shape}"
        )
    for j in range(grid.dims):
        if idx[:, j].max() >= grid.points[j]:
            raise SnapshotIOError(f"{path}: axis{j} index out of range for grid {grid.shape}")
    if np.any(idx[:, grid.dims:3] != 0):
        raise SnapshotIOError(f"{path}: nonzero index on unused axis")
    # a view, not re + 1j*im, which turns an infinite im into a NaN re and drops -0.0
    values = np.ascontiguousarray(raw[:, 4:]).view(complex if complex_field else float)[:, 0]
    out = np.empty((ncomp,) + grid.shape, dtype=values.dtype)
    seen = np.zeros(out.shape, dtype=bool)
    index = (comp, *idx[:, :grid.dims].T)
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
