"""The snapshot reader: numpy's decode of write_snapshot's layout gives np.loadtxt's arrays.

`lattice.read_snapshot` decodes a file in exactly the layout `write_snapshot`
produces in numpy, its float fields through `csvblock.parse_fields`, and sends
every other file to np.loadtxt.  Checked here: written fields read back
bit-exactly; the field decoder against float() on strictly spelled decimals,
halfway cases included; both fallbacks forced; hand-written files against the
np.loadtxt reader the fast path sits in front of, kept below as the
reference; and that a written 32^3 file never reaches np.loadtxt.
"""

import re
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracfluid import csvblock, lattice
from diracfluid.errors import SnapshotIOError


def _loadtxt_snapshot(path, grid):
    """The np.loadtxt reader the numpy decoder was put in front of, kept as the reference."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip()
            raw = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise SnapshotIOError(f"cannot read snapshot {path}: {exc}") from exc
    except ValueError as exc:
        raise SnapshotIOError(f"malformed snapshot {path}: {exc}") from exc
    if header == lattice._COMPLEX_HEADER:
        complex_field = True
    elif header == lattice._REAL_HEADER:
        complex_field = False
    else:
        raise SnapshotIOError(f"unrecognized snapshot header in {path}: {header!r}")
    expected_cols = 6 if complex_field else 5
    if raw.shape[1] != expected_cols:
        raise SnapshotIOError(f"{path}: expected {expected_cols} columns, got {raw.shape[1]}")
    indices = raw[:, :4]  # NaN fails every comparison
    if not np.all((indices >= 0) & (indices < 2 ** 31) & (np.floor(indices) == indices)):
        raise SnapshotIOError(f"{path}: axis and component indices must be non-negative integers")
    idx = indices.astype(np.int64)
    comp = idx[:, 3]
    ncomp = int(comp.max()) + 1 if raw.size else 0
    if ncomp not in (1, 2, 4):
        raise SnapshotIOError(f"{path}: component count {ncomp} not in (1, 2, 4)")
    npts = int(np.prod(grid.shape))
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


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bits, except that any NaN matches any NaN."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    x, y = a.view(np.float64), b.view(np.float64)
    nan = np.isnan(x)
    return bool(np.array_equal(nan, np.isnan(y))
                and np.array_equal(x[~nan].view(np.int64), y[~nan].view(np.int64)))


def _from_bits(bits: int) -> float:
    return float(np.array(bits, np.uint64).view(np.float64))


# ---------------------------------------------------------------------------
# round trips of written fields

_DOUBLES = st.integers(0, 2 ** 64 - 1).map(_from_bits) | st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
     1.7976931348623157e308, 1e-5, 1e16, 1e17, 0.1, -12.5])


@st.composite
def _fields(draw):
    """(field, grid): real or complex, 1 to 3 axes of 8 to 10 points, 1, 2 or 4 components."""
    points = draw(st.lists(st.integers(8, 10), min_size=1, max_size=3))
    grid = lattice.make_grid([1.0] * len(points), points)
    ncomp = draw(st.sampled_from([1, 2, 4]))
    is_complex = draw(st.booleans())
    finite = draw(st.booleans())
    size = ncomp * int(np.prod(points)) * (2 if is_complex else 1)
    doubles = _DOUBLES.filter(np.isfinite) if finite else _DOUBLES
    seed = draw(st.lists(doubles, min_size=1, max_size=64))
    values = np.resize(np.array(seed, np.float64), size)
    with np.errstate(all="ignore"):
        values[::7] *= 10.0 ** draw(st.integers(-300, 300))  # may overflow to inf
    field = values.view(complex) if is_complex else values
    return field.reshape((ncomp,) + grid.shape), grid


@settings(deadline=None)
@given(_fields())
def test_read_snapshot_returns_written_fields_bit_for_bit(tmp_path_factory, case):
    field, grid = case
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    lattice.write_snapshot(path, field, grid)
    assert _same_bits(lattice.read_snapshot(path, grid), field)
    # a file without inf or nan never needs np.loadtxt
    fast = lattice._read_layout(path.read_bytes(), grid)
    assert (fast is not None) == bool(np.isfinite(field.view(np.float64)).all())
    assert fast is None or _same_bits(fast, field)


# ---------------------------------------------------------------------------
# the field decoder against float()

_DECIMAL = re.compile(rb"-?[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]{2,3})?")


def _decode(texts: list[bytes]):
    """parse_fields and parse_lanes of texts laid out as one comma-separated line."""
    data = b"x" * 24 + b"".join(t + b"," for t in texts)
    ends = 24 + np.cumsum([len(t) + 1 for t in texts]) - 1
    starts = ends - np.array([len(t) for t in texts], dtype=ends.dtype)
    lanes = csvblock.parse_lanes(np.frombuffer(data, np.uint8), starts, ends)
    return csvblock.parse_fields(data, starts, ends), lanes


@st.composite
def _decimals(draw):
    """A strictly spelled decimal: sign, 1 to 19 digits, maybe a point, maybe e+dd[d]."""
    digits = draw(st.text("0123456789", min_size=1, max_size=19))
    point = draw(st.integers(0, len(digits)))
    text = ("-" if draw(st.booleans()) else "") + (digits[:point] or "0")
    if point < len(digits):
        text += "." + digits[point:]
    if draw(st.booleans()):
        text += "e%+03d" % draw(st.integers(-340, 310))
    return text.encode("ascii")


def _ties() -> list[tuple[int, int]]:
    """(digits, j) of the decimal digits / 10^j, a value halfway between two doubles."""
    rng = np.random.default_rng(53)
    odd = 2 * rng.integers(2 ** 52, 2 ** 53, 40, dtype=np.int64) + 1
    return ([(int(m) * 5 ** j, j) for j in (1, 2, 3) for m in odd]
            + [(2 ** k + 2 ** (k - 53), 0) for k in range(53, 64)])


def _spellings(digits: int, j: int) -> list[bytes]:
    """digits / 10^j with a point, and in exponent form."""
    s = str(digits)
    return [(s[:-j] + "." + s[-j:] if j else s).encode(),
            b"%s.%se%+03d" % (s[0].encode(), s[1:].encode(), len(s) - 1 - j)]


def _halfway_cases() -> list[bytes]:
    """Decimals exactly halfway between two doubles, their neighbours, and other edges.

    m 2^-j for odd m in [2^53, 2^54) is a tie with 16 + j significant digits;
    for j >= 1 its 10^-j is inexact in binary, so the long double product
    misses it by a rounding and only the error interval keeps it from being
    certified.  2^k + 2^(k - 53) are integer ties, exact in long double.
    """
    texts = [t for digits, j in _ties() for d in (digits - 1, digits, digits + 1)
             for t in _spellings(d, j)]
    return texts + [b"2.2250738585072011e-308", b"2.2250738585072012e-308",
                    b"4.9406564584124654e-324", b"2.4703282292062327e-324",
                    b"1.7976931348623157e+308", b"1.7976931348623158e+308",
                    b"1.7976931348623159e+308", b"0.1", b"0", b"-0", b"-0.0",
                    b"1e+400", b"1e-400", b"0.00012345678901234567", b"1e+17", b"1e+22",
                    b"1e+23", b"9999999999999999999", b"123456789012345678.9e+05"]


def _check_decoder(texts: list[bytes]) -> None:
    (values, (lane_values, valid, exact)) = _decode(texts)
    want = np.array([float(t) for t in texts])
    assert np.array_equal(values.view(np.int64), want.view(np.int64))
    assert np.array_equal(lane_values[exact].view(np.int64), want[exact].view(np.int64))
    assert np.array_equal(valid, [len(t) <= 24 for t in texts])


@settings(deadline=None)
@given(st.lists(_decimals(), min_size=1, max_size=40))
def test_parse_fields_matches_float_on_strict_decimals(texts):
    _check_decoder(texts)


def test_parse_fields_matches_float_on_halfway_cases():
    texts = _halfway_cases()
    assert b"9007199254740993" in texts
    _check_decoder(texts)
    # the ties whose power of ten is inexact are left to float()
    ties = [(t, j) for digits, j in _ties() if j for t in _spellings(digits, j)]
    for t, j in ties:
        m = Fraction(t.decode()) * 2 ** j
        assert m.denominator == 1 and m.numerator % 2 and 2 ** 53 < m < 2 ** 54
    assert not _decode([t for t, _ in ties])[1][2].any()


@settings(deadline=None)
@given(st.lists(st.binary(max_size=26) | st.text("0123456789.-+eE_ ", max_size=26).map(
    str.encode), min_size=1, max_size=20))
def test_lanes_accept_exactly_the_strict_grammar(texts):
    texts = [t.replace(b",", b";") for t in texts]
    valid = _decode(texts)[1][1]
    assert np.array_equal(valid, [len(t) <= 24 and bool(_DECIMAL.fullmatch(t)) for t in texts])
    if all(_DECIMAL.fullmatch(t) for t in texts):
        _check_decoder(texts)
    else:
        assert _decode(texts)[0] is None


def test_written_values_are_nearly_all_certified():
    rng = np.random.default_rng(3)
    values = rng.normal(size=4000) * 10.0 ** rng.integers(-15, 3, 4000)
    texts = [b"%.17g" % v for v in values.tolist()]
    exact = _decode(texts)[1][2]
    assert exact.mean() > 0.99


# ---------------------------------------------------------------------------
# forced fallbacks

def _spy_read_text(monkeypatch) -> list:
    calls = []
    read_text = lattice._read_text
    monkeypatch.setattr(lattice, "_read_text", lambda *a: calls.append(1) or read_text(*a))
    return calls


def _edge_snapshot(tmp_path, finite=True):
    grid = lattice.make_grid([1.0, 1.0], [16, 9])
    rng = np.random.default_rng(11)
    f = np.empty((2, 16, 9), complex)
    f.real = rng.normal(size=f.shape) * 10.0 ** rng.integers(-300, 300, f.shape)
    f.imag = rng.normal(size=f.shape)
    f.real.flat[:5] = [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 1.7976931348623157e308]
    if not finite:
        f.imag.flat[:3] = [np.inf, -np.inf, np.nan]
    path = tmp_path / "e.csv"
    lattice.write_snapshot(path, f, grid)
    return path, f, grid


def test_without_long_double_precision_the_file_goes_to_loadtxt(monkeypatch, tmp_path):
    path, f, grid = _edge_snapshot(tmp_path)
    calls = _spy_read_text(monkeypatch)
    monkeypatch.setattr(csvblock.np, "finfo", lambda dtype: SimpleNamespace(nmant=52))
    assert _same_bits(lattice.read_snapshot(path, grid), f)
    assert calls == [1]


def test_uncertified_fields_go_to_float(monkeypatch, tmp_path):
    # an error interval this wide certifies only zeros; every other field
    # goes through float(), and the file never reaches np.loadtxt
    path, f, grid = _edge_snapshot(tmp_path)
    calls = _spy_read_text(monkeypatch)
    monkeypatch.setattr(csvblock, "_BELOW", np.longdouble(0.5))
    monkeypatch.setattr(csvblock, "_ABOVE", np.longdouble(2.0))
    assert not _decode([b"1.5", b"2e+00"])[1][2].any()
    assert _same_bits(lattice.read_snapshot(path, grid), f)
    assert calls == []


def test_a_non_finite_value_sends_the_file_to_loadtxt(monkeypatch, tmp_path):
    path, f, grid = _edge_snapshot(tmp_path, finite=False)
    calls = _spy_read_text(monkeypatch)
    assert _same_bits(lattice.read_snapshot(path, grid), f)
    assert calls == [1]


def test_a_written_32_cubed_snapshot_never_reaches_loadtxt(monkeypatch, tmp_path):
    grid = lattice.make_grid([1.0] * 3, [32] * 3)
    rng = np.random.default_rng(5)
    f = rng.normal(size=(2, 32, 32, 32)) + 1j * rng.normal(size=(2, 32, 32, 32))
    lattice.write_snapshot(tmp_path / "big.csv", f, grid)

    def no_loadtxt(*args, **kwargs):
        raise AssertionError("np.loadtxt called")

    monkeypatch.setattr(lattice.np, "loadtxt", no_loadtxt)
    assert _same_bits(lattice.read_snapshot(tmp_path / "big.csv", grid), f)


# ---------------------------------------------------------------------------
# hand-written files: the same array or the same error as the reference

def _good_lines(is_complex: bool) -> list[str]:
    grid = lattice.make_grid([1.0], [8])
    f = np.linspace(-1.0, 1.5, 8) + (1j * np.linspace(0.25, 2.0, 8) if is_complex else 0.0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.csv"
        lattice.write_snapshot(path, f, grid)
        return path.read_text().splitlines()


def _variants(is_complex: bool) -> dict[str, bytes]:
    lines = _good_lines(is_complex)
    text = "\n".join(lines) + "\n"

    def field(value: str) -> bytes:   # the last field of the third data row
        rows = list(lines)
        rows[3] = rows[3].rsplit(",", 1)[0] + "," + value
        return ("\n".join(rows) + "\n").encode("utf-8")

    cases = {
        "as written": text.encode(),
        "crlf": text.replace("\n", "\r\n").encode(),
        "trailing blank line": (text + "\n").encode(),
        "comment line": (lines[0] + "\n# a comment\n" + "\n".join(lines[1:]) + "\n").encode(),
        "no final newline": text.rstrip("\n").encode(),
        "two rows swapped": "\n".join([lines[0], lines[2], lines[1]] + lines[3:]).encode() + b"\n",
        "an index spelled 0.0": text.replace("\n0,0,0,", "\n0.0,0,0,", 1).encode(),
        "a row of another point": text.replace("\n2,0,0,", "\n3,0,0,", 1).encode(),
        "bom": b"\xef\xbb\xbf" + text.encode(),
        "non-ascii in a field": field("1.5é"),
        "non-ascii after the rows": text.encode() + "é\n".encode("utf-8"),
    }
    for value in ("+1.5", "1E5", "1e5", ".5", " 1.5", "1.5 ", "inf", "-inf", "nan", "0.1",
                  "1.", "0.333_3", "1_0", "0x10", "", "1e+400", "-0", "12345678901234567890123"):
        cases[f"field {value!r}"] = field(value)
    return cases


@pytest.mark.parametrize("is_complex", [True, False])
def test_hand_written_files_read_as_the_loadtxt_reader_reads_them(tmp_path, is_complex):
    grid = lattice.make_grid([1.0], [8])
    for name, data in _variants(is_complex).items():
        path = tmp_path / "h.csv"
        path.write_bytes(data)
        try:
            want = _loadtxt_snapshot(path, grid)
        except SnapshotIOError as exc:
            with pytest.raises(SnapshotIOError) as got:
                lattice.read_snapshot(path, grid)
            assert str(got.value) == str(exc), name
        else:
            assert _same_bits(lattice.read_snapshot(path, grid), want), name
