"""The block CSV encoder: `format17` and every vectorised section give the bytes of `%`.

`csvblock.format17` lays out '%.17g' % v for a whole float64 array in numpy;
`csvblock.vector_section` builds whole blocks of rows from it.  Both are checked
against Python's own formatting: the formatter on arbitrary bit patterns and a
fixed list of edge values, the sections at every call site's row format, on
both sides of `_VECTOR_ROWS` and of a block edge, and whole files of several
sections.  A write that fails partway through is a `SnapshotIOError` and
leaves no tree behind.
"""

import errno
import json
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracfluid import csvblock, lattice
from diracfluid.cli import EXIT_IO, EXIT_OK, main
from diracfluid.errors import SnapshotIOError
from diracfluid.fluid import FluidState, PointMask
from diracfluid.runner import _fluid_csv, _write_rows


def _formatted(values) -> list[bytes]:
    """format17's text of each value: its slot, which it must fill, without the NULs."""
    x = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    out = np.full((len(x), 1, 4), 0xA5A5A5A5A5A5A5A5, np.uint64)
    csvblock.format17(x, out, np.zeros(1, np.uint64))
    return [bytes(slot[slot != 0]) for slot in out.view(np.uint8).reshape(len(x), 32)]


def _expected(values) -> list[bytes]:
    return [("%.17g" % v).encode("ascii") for v in np.asarray(values, np.float64).tolist()]


def _from_bits(bits: int) -> float:
    return float(np.array(bits, np.uint64).view(np.float64))


def _near_power_of_ten(k: int, steps: int) -> float:
    """The double `steps` doubles away from float("1e{k}"), where exponent estimates miss."""
    value = float(f"1e{k}")
    for _ in range(abs(steps)):
        value = float(np.nextafter(value, np.inf if steps > 0 else 0.0))
    return value


@settings(deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1).map(_from_bits) | st.floats()
                | st.builds(_near_power_of_ten, st.integers(-323, 308), st.integers(-4, 4)),
                min_size=1, max_size=64))
def test_format17_matches_percent_on_any_float64(values):
    assert _formatted(values) == _expected(values)


def _powers_of_ten_and_neighbours() -> list[float]:
    """float("1e{k}") for every k a double reaches, and the 3 doubles either side."""
    out = []
    for k in range(-323, 309):
        below = above = float(f"1e{k}")
        out.append(below)
        for _ in range(3):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            out += [float(below), float(above)]
    return out


def _dyadic_halfway_cases() -> list[float]:
    """m 2^-j, m odd: exactly 18 significant digits ending in 5, a tie at 17 digits."""
    return [m * 2.0 ** -j for j in range(1, 80) for m in range(1, 400, 2)
            if len(str(m * 5 ** j)) == 18]


EDGES = [0.0, np.inf, np.nan, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
         1.7976931348623157e308, 9.9999999999999999, 0.5, 1.0 / 3.0]
EDGES += _powers_of_ten_and_neighbours() + _dyadic_halfway_cases()
EDGES += [-v for v in EDGES]


def test_edge_list_covers_the_layout_boundaries():
    texts = set(_expected(EDGES))
    # X = -5/-4, 0/1 and 16/17: fixed and exponent forms on both sides of each
    for text in (b"1.0000000000000001e-05", b"9.9999999999999991e-06", b"0.0001",
                 b"9.9999999999999991e-05", b"1", b"0.99999999999999989", b"10",
                 b"9.9999999999999982", b"10000000000000000", b"1e+17",
                 b"99999999999999984", b"1e+100", b"1e-100", b"4.9406564584124654e-324"):
        assert text in texts, text
    # values whose 17 digits round up to the next power of ten
    rounds_up = [v for v in EDGES if v > 0 and ("%.17g" % v).split("e")[0] == "1"
                 and Fraction(v) < Fraction("%.17g" % v)]
    assert len(rounds_up) >= 10
    # exact ties: 10^(16 - X) v is an odd multiple of 1/2
    ties = _dyadic_halfway_cases()
    assert len(ties) >= 20
    for v in ties:
        exponent = int(np.floor(np.log10(v)))
        assert (Fraction(v) * Fraction(10) ** (16 - exponent)).denominator == 2


def test_format17_matches_percent_on_edge_values():
    assert _formatted(EDGES) == _expected(EDGES)


def test_without_long_double_precision_every_value_is_formatted_by_percent(monkeypatch):
    # long double as plain double certifies nothing; with the lookup tables
    # blanked, any value laid out from them would come out wrong
    monkeypatch.setattr(csvblock.np, "finfo", lambda dtype: SimpleNamespace(
        nmant=52, eps=2.0 ** -52))
    tables = csvblock._format_tables()
    blank = tuple(np.zeros_like(t) if t.dtype == np.uint64 or t.dtype == np.uint32 else t
                  for t in tables)
    monkeypatch.setattr(csvblock, "_format_tables", lambda: blank)
    rng = np.random.default_rng(7)
    values = EDGES[:200] + list(rng.normal(size=300) * 10.0 ** rng.integers(-30, 30, 300))
    assert _formatted(values) == _expected(values)


# ---------------------------------------------------------------------------
# sections: the vectorised blocks against the per-row path of the same writer

VECTOR_ROWS = lattice._VECTOR_ROWS
ROWS = [VECTOR_ROWS - 1, VECTOR_ROWS, lattice._CSV_BLOCK_ROWS - 1, lattice._CSV_BLOCK_ROWS + 1]


def _values(rng, shape) -> np.ndarray:
    f = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 3, shape)
    edges = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, 12.5, 2.0 ** 60, 1e-5]
    f.reshape(-1)[::37] = np.resize(edges, f.reshape(-1)[::37].size)
    return f


def _count_format17(monkeypatch) -> list:
    """A list that gains one entry per csvblock.format17 call from now on."""
    calls = []
    format17 = csvblock.format17
    monkeypatch.setattr(csvblock, "format17", lambda *args: calls.append(1) or format17(*args))
    return calls


def _both_paths(monkeypatch, path, write) -> tuple[bytes, bytes, int]:
    """(bytes as written, bytes with every block per row, format17 calls of the first)."""
    calls = _count_format17(monkeypatch)
    write(path)
    vector = path.read_bytes()
    monkeypatch.setattr(lattice, "_VECTOR_ROWS", sys.maxsize)
    write(path)
    return vector, path.read_bytes(), len(calls)


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("ncomp", [1, 2, 4])
@pytest.mark.parametrize("is_complex", [False, True])
def test_snapshot_blocks_match_per_row(monkeypatch, tmp_path, rows, ncomp, is_complex):
    grid = lattice.make_grid([1.0], [rows])
    rng = np.random.default_rng(rows + ncomp)
    f = _values(rng, (ncomp, rows))
    if is_complex:
        f = f.astype(complex)
        f.imag = _values(rng, (ncomp, rows))
    vector, per_row, calls = _both_paths(monkeypatch, tmp_path / "s.csv",
                                         lambda p: lattice.write_snapshot(p, f, grid))
    assert vector == per_row
    assert (calls > 0) == (rows >= VECTOR_ROWS)


@pytest.mark.parametrize("rows", ROWS)
def test_fluid_csv_blocks_match_per_row(monkeypatch, tmp_path, rows):
    grid = lattice.make_grid([1.0], [rows])
    rng = np.random.default_rng(rows)
    scalars = [_values(rng, grid.shape) for _ in range(5)]
    mask = (np.arange(rows) % len(PointMask)).astype(np.uint8)
    fs = FluidState(grid=grid, x0=0.5, rho_bar=scalars[0], theta=scalars[1],
                    alpha=scalars[2], v_c=_values(rng, (4, rows)), rho_0=scalars[3],
                    a_0=scalars[4], mask=mask, vv=None, speed=None, polar=None,
                    degenerate=None, complex_disc=None, params=None, order=2, branch="auto")
    vector, per_row, calls = _both_paths(monkeypatch, tmp_path / "f.csv",
                                         lambda p: _fluid_csv(p, fs))
    assert vector == per_row
    assert (calls > 0) == (rows >= VECTOR_ROWS)


@pytest.mark.parametrize("rows", ROWS)
def test_diagnostic_rows_blocks_match_per_row(monkeypatch, tmp_path, rows):
    table = _values(np.random.default_rng(rows), (rows, 4))
    vector, per_row, calls = _both_paths(monkeypatch, tmp_path / "d.csv",
                                         lambda p: _write_rows(p, "a,b,c,d", table))
    assert vector == per_row
    assert (calls > 0) == (rows >= VECTOR_ROWS)


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("as_array", [False, True])
def test_text_rows_match_per_row(monkeypatch, tmp_path, rows, as_array):
    # text as a list of str always goes per row; the same text as an array
    # goes through the block path
    texts = [f"name{i},tag,{'plus' if i % 3 else 'minus'},{i * 0.25!r}" for i in range(rows)]
    column = np.array(texts) if as_array else texts
    vector, per_row, _ = _both_paths(
        monkeypatch, tmp_path / "i.csv",
        lambda p: lattice.write_csv(p, "identity_name,rest", [("%s\n", (column,))]))
    assert vector == per_row == ("identity_name,rest\n" + "".join(
        t + "\n" for t in texts)).encode("ascii")


# ---------------------------------------------------------------------------
# whole files against Python's own formatting

EDGE_VALUES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, 2.0 ** 60 + 1.0]


@pytest.mark.parametrize("n_first", [1, 5000, 9000])
def test_sections_match_percent_across_block_edges(monkeypatch, tmp_path, n_first):
    # uneven sections in four formats, one empty; a block edge falls inside
    # every section of more than _CSV_BLOCK_ROWS rows, and the last section
    # is formatted in numpy
    rng = np.random.default_rng(n_first)
    last = rng.normal(size=(2, 20000)) * 10.0 ** rng.integers(-30, 30, (2, 20000))
    last[1, ::97] = np.resize(EDGE_VALUES, last[1, ::97].size)
    labels = np.array(["ok", "vacuum", "degenerate"])[np.arange(20000) % 3]
    first = rng.normal(size=n_first)
    first[:len(EDGE_VALUES)] = EDGE_VALUES[:n_first]
    sections = [("%.17g\n", (first,)),
                ("%s,%d\n", (["a", "b", "c"] * 1400, list(range(4200)))),
                ("%s\n", ([],)),
                ("x,%.17g,%.17g\n", (-rng.normal(size=4099), EDGE_VALUES * 512 + [1.5] * 3)),
                ("%s;%.17g,%.17g\n", (labels, last[0], last[1]))]
    calls = _count_format17(monkeypatch)
    lattice.write_csv(tmp_path / "m.csv", "h,e,a,d", sections)
    rows = "".join(fmt % row for fmt, columns in sections for row in zip(*columns))
    assert (tmp_path / "m.csv").read_bytes() == ("h,e,a,d\n" + rows).encode("ascii")
    assert calls


@pytest.mark.parametrize("ncomp", [1, 2, 4])
@pytest.mark.parametrize("is_complex", [False, True])
def test_snapshot_edge_values_match_percent(monkeypatch, tmp_path, ncomp, is_complex):
    points = (8, 9, 10)
    grid = lattice.make_grid([1.0] * 3, points)
    rng = np.random.default_rng(10 * ncomp + is_complex)
    shape = (ncomp,) + points
    parts = [rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, shape)
             for _ in range(1 + is_complex)]
    for part, start in zip(parts, (0, 3)):
        part.reshape(-1)[start::89] = np.resize(EDGE_VALUES, part.reshape(-1)[start::89].size)
    f = parts[0]
    if is_complex:
        f = f.astype(complex)
        f.imag = parts[1]  # set in place: adding 1j * imag would turn -0.0 into 0.0
    calls = _count_format17(monkeypatch)
    lattice.write_snapshot(tmp_path / "s.csv", f[0] if ncomp == 1 else f, grid)
    row_fmt = "%d,%d,%d,%d," + ("%.17g,%.17g\n" if is_complex else "%.17g\n")
    rows = "".join(row_fmt % (*point, c, *((v.real, v.imag) if is_complex else (v,)))
                   for c in range(ncomp)
                   for point, v in zip(np.ndindex(points), f[c].reshape(-1).tolist()))
    header = lattice._COMPLEX_HEADER if is_complex else lattice._REAL_HEADER
    assert (tmp_path / "s.csv").read_bytes() == (header + "\n" + rows).encode("ascii")
    assert calls


def test_fluid_csv_with_mask_column_matches_per_row(monkeypatch, tmp_path):
    grid = lattice.make_grid([1.0, 1.0], [40, 41])
    rng = np.random.default_rng(41)
    scalars = [rng.normal(size=grid.shape) for _ in range(5)]
    mask = (np.arange(scalars[0].size) % len(PointMask)).astype(np.uint8).reshape(grid.shape)
    scalars[2][mask != PointMask.OK] = np.nan
    scalars[2].reshape(-1)[:len(EDGE_VALUES)] = EDGE_VALUES
    fs = FluidState(grid=grid, x0=0.5, rho_bar=scalars[0], theta=scalars[1],
                    alpha=scalars[2], v_c=rng.normal(size=(4,) + grid.shape),
                    rho_0=scalars[3], a_0=scalars[4], mask=mask,
                    vv=None, speed=None, polar=None,
                    degenerate=None, complex_disc=None, params=None, order=2, branch="auto")
    vector, per_row, calls = _both_paths(monkeypatch, tmp_path / "f.csv",
                                         lambda p: _fluid_csv(p, fs))
    assert vector == per_row
    assert calls


def test_write_failing_partway_is_snapshot_io_error_and_leaves_no_tree(
        monkeypatch, tmp_path, capsys):
    config = tmp_path / "big.json"
    config.write_text(json.dumps({
        "name": "big", "grid": {"extents": [4096.0], "points": [4096]},
        "initial_data": {"recipe": "rest_state"}, "duration": 0.5,
        "pipeline": "dirac", "fluid_map": False, "diagnostics": []}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--outdir", str(out)]) == EXIT_OK
    earlier = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    encode = lattice._encode

    def encode_then_fail(sections):
        blocks = encode(sections)
        yield next(blocks)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(lattice, "_encode", encode_then_fail)
    grid = lattice.make_grid([1.0], [4096])
    with pytest.raises(SnapshotIOError, match="s.csv: .*No space left"):
        lattice.write_snapshot(tmp_path / "s.csv", np.zeros((2, 4096), complex), grid)

    # a failed rerun leaves the earlier tree as it was and no staging directory
    assert main(["run", "--config", str(config), "--outdir", str(out)]) == EXIT_IO
    assert "psi1_000000.csv" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["big"]
    assert {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()} == earlier
