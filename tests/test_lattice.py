"""Grid construction, stencils against their discrete Fourier symbols,
Minkowski contractions, and the CSV snapshot round trip."""

import hashlib

import numpy as np
import pytest

from diracfluid.errors import GridError, SnapshotIOError
from diracfluid.lattice import (file_sha256, four_gradient, integrate_volume, kappa_dx,
                                laplacian, make_grid, minkowski_dot_components,
                                minkowski_square, read_snapshot,
                                spatial_derivative, write_snapshot)


def test_make_grid_defaults_dt_to_cfl_bound():
    grid = make_grid([10.0], [100])
    assert grid.dx == (0.1,)
    assert grid.dt == pytest.approx(0.25 * 0.1)
    assert grid.cell_volume == pytest.approx(0.1)


def test_make_grid_validation():
    with pytest.raises(GridError):
        make_grid([], [])
    with pytest.raises(GridError):
        make_grid([1.0] * 4, [8] * 4)
    with pytest.raises(GridError):
        make_grid([1.0, 2.0], [8])
    with pytest.raises(GridError):
        make_grid([-1.0], [8])
    with pytest.raises(GridError):
        make_grid([1.0], [7])
    with pytest.raises(GridError):
        make_grid([1.0], [8], cfl_factor=0.0)
    with pytest.raises(GridError):
        make_grid([1.0], [8], cfl_factor=1.5)
    with pytest.raises(GridError):
        make_grid([1.0], [8], dt=-0.1)
    with pytest.raises(GridError):
        make_grid([1.0], [8], c=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(GridError, match="extents must be positive and finite"):
            make_grid([bad], [8])
        with pytest.raises(GridError, match="dt must be positive and finite"):
            make_grid([1.0], [8], dt=bad)
    with pytest.raises(GridError, match="dt must be positive and finite"):
        make_grid([1.0], [8], c=1e-320)  # the default dt, min(dx)/c / 4, overflows


def test_make_grid_cfl_bound_edge():
    L, n = 2.0, 16
    bound = 0.25 * (L / n)
    grid = make_grid([L], [n], dt=bound)  # exactly at the bound is fine
    assert grid.dt == bound
    with pytest.raises(GridError):
        make_grid([L], [n], dt=bound * 1.01)
    # a faster light speed tightens the bound
    with pytest.raises(GridError):
        make_grid([L], [n], dt=bound, c=2.0)


def test_axis_coordinates_and_meshes():
    grid = make_grid([1.0, 2.0], [8, 16])
    x0 = grid.axis_coordinates(0)
    assert x0[0] == 0.0 and x0[-1] == pytest.approx(1.0 - 1.0 / 8)
    mx, my = grid.meshes()
    assert mx.shape == (8, 16)
    assert my[0, 3] == pytest.approx(3 * 2.0 / 16)


def test_first_derivative_discrete_symbol():
    # central difference of exp(ikx) multiplies by the exact stencil symbol
    grid = make_grid([2.0 * np.pi], [64])
    x = grid.axis_coordinates(0)
    dx = grid.dx[0]
    for m in (1, 5, 11):
        f = np.exp(1j * m * x)
        sym2 = 1j * np.sin(m * dx) / dx
        np.testing.assert_allclose(spatial_derivative(f, grid, 0, order=2),
                                   sym2 * f, rtol=1e-13, atol=1e-13)
        sym4 = 1j * (8.0 * np.sin(m * dx) - np.sin(2.0 * m * dx)) / (6.0 * dx)
        np.testing.assert_allclose(spatial_derivative(f, grid, 0, order=4),
                                   sym4 * f, rtol=1e-13, atol=1e-13)
        # the library's one symbol, which max_stable_step reads
        for order, sym in ((2, sym2), (4, sym4)):
            assert 1j * kappa_dx(m * dx, order) / dx == pytest.approx(sym, rel=1e-15)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("dims", [1, 2, 3])
def test_laplacian_discrete_symbol(dims, order):
    # the Laplacian is sum_i D_i D_i, so a plane wave picks up -sum_i kappa(k_i)^2
    # with kappa the first difference's symbol
    grid = make_grid([2.0 * np.pi, 5.0, 3.3][:dims], [16, 12, 10][:dims])
    ks = [2.0 * np.pi * m / L for m, L in zip((3, 2, 1), grid.extents)]
    f = np.exp(1j * sum(k * x for k, x in zip(ks, grid.meshes())))
    kappa2 = 0.0
    for k, dx in zip(ks, grid.dx):
        kappa = (np.sin(k * dx) if order == 2
                 else (8.0 * np.sin(k * dx) - np.sin(2.0 * k * dx)) / 6.0) / dx
        kappa2 += kappa ** 2
    np.testing.assert_allclose(laplacian(f, grid, order), -kappa2 * f, rtol=1e-12, atol=1e-12)


def test_order2_four_gradient_allocates_no_scratch(traced):
    # an order-2 gradient uses neither the order-4 product field nor the
    # multi-axis sum field: its peak is the output and the copy padded along
    # the first axis, whose operands are unit-stride blocks that need no
    # iterator buffers; half a field of slack, so one stray scratch field fails
    grid = make_grid([1.0, 1.0], [64, 64])
    rng = np.random.default_rng(3)
    field, d0 = (rng.normal(size=(4, 64, 64)) + 1j * rng.normal(size=(4, 64, 64))
                 for _ in range(2))
    four_gradient(field, d0, grid)  # warm-up
    out, peak, _ = traced(four_gradient, field, d0, grid)
    pad = 4 * 66 * 64 * field.itemsize
    assert peak < out.nbytes + pad + field.nbytes // 2


def test_derivative_validation():
    grid = make_grid([1.0], [8])
    f = np.zeros(8)
    with pytest.raises(GridError):
        spatial_derivative(f, grid, 0, order=3)
    with pytest.raises(GridError):
        laplacian(f, grid, order=6)
    with pytest.raises(GridError):
        spatial_derivative(f, grid, 1)
    with pytest.raises(GridError):
        spatial_derivative(np.zeros(9), grid, 0)


def test_derivative_applies_to_trailing_axes():
    grid = make_grid([2.0 * np.pi], [32])
    x = grid.axis_coordinates(0)
    f = np.stack([np.sin(x), np.cos(2.0 * x)])  # leading component axis
    out = spatial_derivative(f, grid, 0)
    np.testing.assert_allclose(out[0], spatial_derivative(np.sin(x), grid, 0), atol=0)
    np.testing.assert_allclose(out[1], spatial_derivative(np.cos(2.0 * x), grid, 0), atol=0)


def test_integrate_volume():
    grid = make_grid([3.0, 2.0], [8, 16])
    assert integrate_volume(np.ones((8, 16)), grid) == pytest.approx(6.0)
    stack = np.ones((2, 8, 16))
    np.testing.assert_allclose(integrate_volume(stack, grid), [6.0, 6.0])
    with pytest.raises(GridError):
        integrate_volume(np.ones((8, 15)), grid)


def test_minkowski_dot_components_contracts_with_metric():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 8))
    b = rng.normal(size=(4, 8))
    np.testing.assert_allclose(minkowski_dot_components(a, b),
                               a[0] * b[0] - (a[1:] * b[1:]).sum(axis=0), rtol=1e-14)
    np.testing.assert_array_equal(minkowski_dot_components(a, b),
                                  minkowski_dot_components(b, a))


def test_minkowski_square_complex_uses_magnitudes():
    v = np.zeros((4, 3), dtype=complex)
    v[0] = 2.0 + 1j   # |v0|^2 = 5
    v[1] = 1.0 - 1j   # |v1|^2 = 2
    np.testing.assert_allclose(minkowski_square(v), np.full(3, 3.0), atol=0)
    real = np.array([[2.0], [1.0], [0.0], [0.0]])
    assert minkowski_square(real)[0] == minkowski_dot_components(real, real)[0] == 3.0


def test_snapshot_round_trip_complex(tmp_path):
    grid = make_grid([1.0, 1.5], [8, 12])
    rng = np.random.default_rng(3)
    f = rng.normal(size=(2, 8, 12)) + 1j * rng.normal(size=(2, 8, 12))
    path = tmp_path / "f.csv"
    write_snapshot(path, f, grid)
    back = read_snapshot(path, grid)
    # 17 significant digits round-trip doubles bit-exactly
    assert np.array_equal(back, f)


def test_snapshot_round_trip_real_scalar(tmp_path):
    grid = make_grid([1.0], [16])
    f = np.linspace(-1.0, 1.0, 16)
    path = tmp_path / "g.csv"
    write_snapshot(path, f, grid)
    back = read_snapshot(path, grid)
    assert back.shape == (1, 16)
    assert np.array_equal(back[0], f)


def test_snapshot_four_component(tmp_path):
    grid = make_grid([1.0], [8])
    f = np.arange(32, dtype=float).reshape(4, 8)
    path = tmp_path / "v.csv"
    write_snapshot(path, f, grid)
    assert np.array_equal(read_snapshot(path, grid), f)


EDGE_VALUES = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, -1e308, 2.0 ** 60 + 1.0]


def _savetxt_snapshot(path, f, grid):
    """The np.savetxt writer the snapshot encoder replaced, kept as the reference."""
    ncomp = f.shape[0]
    idx = np.indices(grid.shape).reshape(grid.dims, -1)
    npts = idx.shape[1]
    axis_cols = np.zeros((3, ncomp * npts), dtype=np.int64)
    for j in range(grid.dims):
        axis_cols[j] = np.tile(idx[j], ncomp)
    comp_col = np.repeat(np.arange(ncomp, dtype=np.int64), npts)
    flat = f.reshape(-1)
    if np.iscomplexobj(flat):
        cols = (*axis_cols, comp_col, flat.real, flat.imag)
        fmt = ["%d"] * 4 + ["%.17g"] * 2
        header = "axis0,axis1,axis2,component,re,im"
    else:
        cols = (*axis_cols, comp_col, flat.astype(float))
        fmt = ["%d"] * 4 + ["%.17g"]
        header = "axis0,axis1,axis2,component,value"
    np.savetxt(path, np.column_stack(cols), fmt=fmt, delimiter=",", header=header,
               comments="")


def _edge_field(shape, ncomp, complex_field, seed=0):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(ncomp,) + shape) * 10.0 ** rng.integers(-30, 30, (ncomp,) + shape)
    if complex_field:
        f = f + 1j * rng.normal(size=(ncomp,) + shape)
    flat = f.reshape(-1)
    for i, v in enumerate(EDGE_VALUES):
        flat[(7 * i + 1) % flat.size] = v
        if complex_field:
            flat.imag[(11 * i + 2) % flat.size] = v
    return f


@pytest.mark.parametrize("points,ncomp,complex_field", [
    ([8], 1, False), ([8], 2, True), ([8], 4, False),
    ([8, 12], 1, True), ([8, 12], 2, False), ([8, 12], 4, True),
    ([8, 9, 10], 4, True),
    ([17, 17, 17], 2, True),    # 9826 rows: over two blocks, not a multiple of one
    ([17, 17, 17], 1, False),
])
def test_snapshot_bytes_match_savetxt(tmp_path, points, ncomp, complex_field):
    grid = make_grid([1.0] * len(points), points)
    f = _edge_field(tuple(points), ncomp, complex_field)
    field = f[0] if ncomp == 1 and not complex_field else f
    write_snapshot(tmp_path / "new.csv", field, grid)
    _savetxt_snapshot(tmp_path / "ref.csv", f, grid)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("complex_field", [True, False])
def test_snapshot_round_trip_edge_values_bit_exact(tmp_path, complex_field):
    grid = make_grid([1.0, 1.0], [8, 9])
    f = _edge_field((8, 9), 2, complex_field)
    write_snapshot(tmp_path / "e.csv", f, grid)
    back = read_snapshot(tmp_path / "e.csv", grid)
    assert back.dtype == f.dtype
    parts = [(f.real, back.real), (f.imag, back.imag)] if complex_field else [(f, back)]
    for want, got in parts:
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def test_snapshot_write_streams_in_blocks(tmp_path, traced):
    grid = make_grid([1.0] * 3, [32] * 3)
    rng = np.random.default_rng(5)
    f = rng.normal(size=(2, 32, 32, 32)) + 1j * rng.normal(size=(2, 32, 32, 32))
    path = tmp_path / "big.csv"
    write_snapshot(path, f, grid)   # warm-up: fills the index-prefix cache
    _, peak, _ = traced(write_snapshot, path, f, grid)
    assert peak < path.stat().st_size / 3


def test_snapshot_rejects_bad_component_count(tmp_path):
    grid = make_grid([1.0], [8])
    with pytest.raises(SnapshotIOError):
        write_snapshot(tmp_path / "bad.csv", np.zeros((3, 8)), grid)


def test_read_snapshot_error_branches(tmp_path):
    grid = make_grid([1.0], [8])
    f = np.arange(8, dtype=float)
    good = tmp_path / "good.csv"
    write_snapshot(good, f, grid)
    lines = good.read_text().splitlines()

    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b,c\n" + "\n".join(lines[1:]) + "\n")
    with pytest.raises(SnapshotIOError, match="header"):
        read_snapshot(bad_header, grid)

    short = tmp_path / "s.csv"
    short.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(SnapshotIOError, match="rows"):
        read_snapshot(short, grid)

    # a header and no rows, or only a blank line: no loadtxt warning, and the row count named
    for body in ("", "\n"):
        empty = tmp_path / "e.csv"
        empty.write_text(lines[0] + "\n" + body)
        with pytest.raises(SnapshotIOError, match=r"e.csv: 0 rows, expected 8, 16 or 32"):
            read_snapshot(empty, grid)

    # duplicate one row in place of another: right row count, missing a point
    dup = tmp_path / "d.csv"
    dup.write_text("\n".join(lines[:-1] + [lines[1]]) + "\n")
    with pytest.raises(SnapshotIOError, match="missing"):
        read_snapshot(dup, grid)

    oob = tmp_path / "o.csv"
    oob.write_text("\n".join([lines[0]] + [lines[1].replace("0,0,0", "9,0,0", 1)]
                             + lines[2:]) + "\n")
    with pytest.raises(SnapshotIOError, match="out of range"):
        read_snapshot(oob, grid)

    unused = tmp_path / "u.csv"
    unused.write_text("\n".join([lines[0]] + [lines[1].replace("0,0,0", "0,1,0", 1)]
                               + lines[2:]) + "\n")
    with pytest.raises(SnapshotIOError, match="unused axis"):
        read_snapshot(unused, grid)

    # index columns that np.loadtxt reads as floats: a negative component on half
    # the rows, fractional axis indices that swap two points, a fractional component
    def with_fields(edit):
        rows = [row.split(",") for row in lines[1:]]
        for i, row in enumerate(rows):
            edit(i, row)
        return "\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n"

    def negative_component(i, row):
        row[3] = "-1" if i % 2 else row[3]

    def fractional_axis(i, row):
        row[0] = {2: "3.9", 3: "2.5"}.get(i, row[0])

    def fractional_component(i, row):
        row[3] = "0.7" if i == 5 else row[3]

    def huge_axis(i, row):  # would wrap when cast to an integer index
        row[0] = "1e300" if i == 6 else row[0]

    for edit in (negative_component, fractional_axis, fractional_component, huge_axis):
        bad = tmp_path / f"{edit.__name__}.csv"
        bad.write_text(with_fields(edit))
        with pytest.raises(SnapshotIOError, match=f"{bad.name}.*non-negative integers"):
            read_snapshot(bad, grid)

    garbled = tmp_path / "g.csv"
    garbled.write_text(lines[0] + "\nnot,numbers,at,all,x\n")
    with pytest.raises(SnapshotIOError):
        read_snapshot(garbled, grid)

    with pytest.raises(SnapshotIOError, match="cannot read"):
        read_snapshot(tmp_path / "never_written.csv", grid)


def test_file_sha256(tmp_path):
    path = tmp_path / "blob.bin"
    payload = b"0123456789" * 1000
    path.write_bytes(payload)
    assert file_sha256(path) == hashlib.sha256(payload).hexdigest()
