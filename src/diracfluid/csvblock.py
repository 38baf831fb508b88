"""Block CSV encoding in numpy: the bytes of `row_fmt % row` for whole blocks of rows.

`lattice.write_csv` hands a block here when its row_fmt holds only literal
text, %s over arrays of text or bytes and %.17g over float64 arrays.
`vector_section` lays the block out as one NUL-padded uint8 row per CSV row
with the literals in place and each float in an 8-byte-aligned 32-byte slot,
then drops the NULs with one `bytes.translate` (CSV text holds none).

`format17` fills the slots with the bytes of '%.17g' % v.  It estimates the
decimal exponent X = floor(log10 |v|), takes p = |v| 10^(16-X) in long double
with a 64-bit power of ten (exact up to 10^27), and keeps n = rint(p) only
where |p - n| < 1/2 - p eps (roundings + 1) proves that n is the rounding of
the exact product.  The rest go through `%` one at a time: near-halfway
values, 10 <= |v| < 1e17 (no layout here), values next to a power of ten
whose exponent estimate missed, and non-finite values (2.2 % of the values
in the fluid-io-3d benchmark's blocks, 1.7 % in packet-2d's); and every value
when long double is plain double (nmant < 63), which certifies nothing.
"""

from __future__ import annotations

import functools
import re

import numpy as np

_FIELD = re.compile(r"%s|%\.17g")
_SLOT = 32          # bytes per float: head word, 16 digits, exponent word
_SLOT_TEXT = 29     # the slot's last 3 bytes stay NUL for the literal that follows
_X_OFF = 331        # decimal exponent X sits at table index X + _X_OFF; index 0
_X_END = 331        # (X = -331) stands for zero and non-finite values


@functools.cache
def _format_tables():
    """Lookup tables of `format17`, indexed by decimal exponent or digit group."""
    xs = range(-_X_OFF, _X_END)
    # 10^(16 - X) rounded to a 64-bit significand q: the uint64 -> long double
    # cast and ldexp are exact, so the power's only error is that rounding
    mant, shift = [], []
    for x in xs:
        num, den = 10 ** max(16 - x, 0), 10 ** max(x - 16, 0)
        e = num.bit_length() - den.bit_length() - 64
        num, den = num << max(-e, 0), den << max(e, 0)
        if num >= den << 64:
            e, den = e + 1, den << 1
        q, r = divmod(num, den)             # 2^63 <= q < 2^64
        q += 2 * r >= den
        mant.append(q >> (q >> 64))         # q = 2^64 becomes 2^63 ...
        shift.append(e + (q >> 64))         # ... times 2
    pow10 = np.ldexp(np.array(mant, np.uint64).astype(np.longdouble), np.array(shift, np.int32))
    # roundings + 1 (the power is exact up to 10^27 < 2^64, so one rounding
    # there), or inf where the layout has no place for X: 10 <= |x| < 1e17
    # and the zero/non-finite entry
    roundings = np.array([np.inf if not (-_X_OFF < x <= 0 or 16 < x <= 308)
                          else 2.0 if 0 <= 16 - x <= 27 else 3.0 for x in xs])
    # head word: sign, then "0." and the zeros of -4 <= X < 0, d0, the point
    heads = [(b"-" if sign else b"\0")
             + (b"0." + b"0" * (-1 - x) if x < 0 else b"").ljust(5, b"\0")
             + b"%d" % d0 + (b"." if point and x == 0 else b"\0")
             for sign in (0, 1) for x in (-4, -3, -2, -1, 0) for point in (0, 1)
             for d0 in range(10)]
    # 20 heads per fixed-form X; exponent forms and zero take the X = 0 heads
    head_base = np.array([20 * (x + 4 if -4 <= x <= 0 else 4) for x in xs], np.intp)
    exponents = np.array([b"e%+03d" % x if -_X_OFF < x < -4 or x > 16 else b""
                          for x in xs], "S8").view(np.uint64)
    groups = [b"%04d" % g for g in range(10 ** 4)]
    digits = np.array(groups + [g.rstrip(b"0") for g in groups], "S4").view(np.uint32)
    return (pow10, roundings, np.array(heads, "S8").view(np.uint64), head_base,
            exponents, digits)


def format17(x: np.ndarray, out: np.ndarray, tail: np.ndarray) -> None:
    """Write the bytes of '%.17g' % v for every v of float64 x into uint64 out[..., :4].

    Each value gets a 32-byte slot, NUL-padded: word 0 holds the sign, a
    "0.000" lead, d0 and the point, words 1-2 the other 16 digits without
    trailing zeros, word 3 the exponent in its first 5 bytes, ORed with tail
    (x's last axis), whose own bytes lie in the last 3.
    """
    pow10, roundings, heads, head_base, exponents, digits = _format_tables()
    finfo = np.finfo(np.longdouble)
    with np.errstate(all="ignore"):
        a = np.abs(x)
        xi = np.log10(a)
        np.floor(xi, out=xi)
        xi = xi.astype(np.intp)         # NaN and -inf land far below index 0
        xi += _X_OFF
        p = a.astype(np.longdouble)
        p *= pow10.take(xi, mode="clip")
        n = p.astype(np.int64)          # p = n + f, both exact in long double
        # 17 digits need 1e16 <= n < 1e17 - 1 (so rounding cannot reach 1e17):
        # not so after a missed exponent estimate, or for a non-finite value
        # (whose n is whatever the cast made of it)
        slow = (n - 10 ** 16).view(np.uint64) >= np.uint64(9 * 10 ** 16 - 1)
        p -= n
        f = p.astype(np.float64)
        del p
        f -= 0.5
        n += f > 0                      # n = rint(p), ties certify nowhere
        np.abs(f, out=f)
        # |p - n| < 1/2 - p eps (roundings + 1) proves n is the exact value's rounding
        eps = max(float(finfo.eps), 2.0 ** -63)  # the power table's own rounding
        slow |= f <= n * (eps * roundings.take(xi, mode="clip"))
        slow &= a != 0
        if finfo.nmant < 63:
            slow[...] = True
        top = n // 10 ** 8
        n -= top * 10 ** 8              # the last 8 digits
        d0 = top // 10 ** 8
        top -= d0 * 10 ** 8
    o32 = out.view(np.uint32)
    strip = np.full(x.shape, 10 ** 4)   # 10^4 while every later group is zero
    for word, group in ((5, n), (3, top)):
        hi = group // 10 ** 4
        group -= hi * 10 ** 4
        for w, g in ((word, group), (word - 1, hi)):
            o32[..., w] = digits.take(g + strip, mode="clip")
            strip *= g == 0
    h = head_base.take(xi, mode="clip")
    h += d0
    h += (x.view(np.int64) >> 63) & 100  # the sign bit, -0.0 included
    h += (strip == 0) * 10
    out[..., 0] = heads.take(h, mode="clip")
    np.bitwise_or(exponents.take(xi, mode="clip"), tail, out=out[..., 3])
    slow = np.nonzero(slow)
    if slow[0].size:
        values = x[slow].tolist()
        text = ((b"%%-%d.17g" % _SLOT) * len(values)) % tuple(values)
        words = np.frombuffer(text.replace(b" ", b"\0"), np.uint64).reshape(-1, 4).copy()
        words[:, 3] = tail[slow[-1]]
        out[slow] = words


def vector_section(row_fmt: str, columns, rows: int):
    """encode(a, b) -> the bytes of rows [a, b), b - a <= rows, or None.

    None unless row_fmt has only literal text, %s over arrays of text or bytes
    and %.17g over float64 arrays.  The row template holds every literal; each
    float slot starts on an 8-byte boundary, and the literal after it starts in
    the slot's NUL tail, so adjacent float slots are one run formatted at once.
    """
    literals, fields = _FIELD.split(row_fmt), _FIELD.findall(row_fmt)
    if any("%" in text for text in literals) or len(fields) != len(columns):
        return None
    template = bytearray(literals[0].encode("ascii"))
    runs, texts = [], []   # [first word, columns, tail words] per float run; (offset, matrix)
    for field, column, literal in zip(fields, columns, literals[1:]):
        literal = literal.encode("ascii")
        if field == "%.17g" and isinstance(column, np.ndarray) and column.dtype == np.float64:
            template += bytes(-len(template) % 8)
            word = len(template) // 8
            if not runs or runs[-1][0] + 4 * len(runs[-1][1]) != word:
                runs.append([word, [], []])
            runs[-1][1].append(column)
            runs[-1][2].append(int.from_bytes(bytes(5) + literal[:3], "little"))
            template += bytes(_SLOT_TEXT) + literal
        elif field == "%s" and isinstance(column, np.ndarray) and column.dtype.kind in "SU":
            # character codes, a byte (S) or four (U) each: numpy's own U -> S
            # cast costs 12 ms for a 32^3 column, this 0.1 ms
            codes = np.ascontiguousarray(column).view(
                np.uint8 if column.dtype.kind == "S" else np.uint32).reshape(len(column), -1)
            if codes.max() > 127:
                return None  # not ASCII: the per-row path raises as it encodes
            texts.append((len(template), codes.astype(np.uint8, copy=False)))
            template += bytes(codes.shape[1]) + literal
        else:
            return None
    template += bytes(-len(template) % 8)
    block = np.empty((rows, len(template)), np.uint8)
    block[:] = np.frombuffer(template, np.uint8)
    floats = np.empty((len(block), max((len(cols) for _, cols, _ in runs), default=0)))
    for run in runs:
        run[2] = np.array(run[2], np.uint64)

    def encode(a: int, b: int) -> bytes:
        part = block[:b - a]
        for word, cols, tails in runs:
            values = floats[:b - a, :len(cols)]
            for j, column in enumerate(cols):
                values[:, j] = column[a:b]
            slots = part.view(np.uint64)[:, word:word + 4 * len(cols)].reshape(b - a, -1, 4)
            format17(values, slots, tails)
        for offset, matrix in texts:
            part[:, offset:offset + matrix.shape[1]] = matrix[a:b]
        return part.tobytes().translate(None, b"\0")

    return encode
