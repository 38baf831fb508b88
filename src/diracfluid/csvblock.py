"""Block CSV text in numpy: the bytes of `row_fmt % row` for whole blocks of rows,
and the float fields of a CSV read back bit-exactly.

`lattice.write_csv` hands a block here when its row_fmt holds only literal
text, %s over arrays of text or bytes and %.17g over float64 arrays.
`vector_section` lays the block out as one NUL-padded uint8 row per CSV row
with the literals in place and each float in an 8-byte-aligned 32-byte slot,
then drops the NULs with one `bytes.translate` (CSV text holds none).

`format17` fills the slots with the bytes of '%.17g' % v.  It estimates the
decimal exponent X = floor(log10 |v|), takes p = |v| 10^(16-X) in long double
with a 64-bit power of ten (exact up to 10^27), and keeps n = rint(p) only
where p lies more than n 2^-64 r (1 + 2^-20) from the half-integer between
n and its neighbour, r being the roundings made (1 with an exact power, else
2); see `format17` for why that proves n is the rounding of the exact
product.  NaN, inf and -inf slots are constants, written from a table.  The
rest go through `%` one at a time: those near-halfway values, 10 <= |v| <
1e17 (no layout here) and values next to a power of ten whose exponent
estimate missed (0.45 % of the values in the fluid-io-3d benchmark's blocks);
and every value when long double is plain double (nmant < 63), which
certifies nothing.

`parse_fields` inverts it for `lattice.read_snapshot`.  `parse_lanes` decodes
each field of the strict grammar [-]digits[.digits][e(+|-)dd[d]] to a uint64
significand N and a decimal exponent E on three uint64 words per field, takes
p = N 10^E in long double with the same power table, and keeps the rounded
double only where p (1 - 3 2^-63) and p (1 + 3 2^-63), which bracket the
exact value, round to the same double: where the low bits of p's significand
sit more than a few units from a halfway point.  A valid field it cannot
certify goes through float() alone (none of the 131 072 fields of a
fluid-io-3d benchmark input did).  A field outside the grammar, or long
double as plain double, makes parse_fields return None, so the caller reads
the file with its general parser instead.
"""

from __future__ import annotations

import functools
import re

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_FIELD = re.compile(r"%s|%\.17g")
_SLOT = 32          # bytes per float: head word, 16 digits, exponent word
_SLOT_TEXT = 29     # the slot's last 3 bytes stay NUL for the literal that follows
_X_OFF = 331        # decimal exponent X sits at table index X + _X_OFF; index 0
_X_END = 331        # (X = -331) stands for zero and non-finite values


@functools.cache
def _powers_of_ten() -> np.ndarray:
    """10^(16 - X) in long double at index X + _X_OFF, the encoder's and the decoder's power.

    Each is rounded to a 64-bit significand q: the uint64 -> long double cast
    and ldexp are exact, so the power's only error is that rounding.
    """
    mant, shift = [], []
    for x in range(-_X_OFF, _X_END):
        num, den = 10 ** max(16 - x, 0), 10 ** max(x - 16, 0)
        e = num.bit_length() - den.bit_length() - 64
        num, den = num << max(-e, 0), den << max(e, 0)
        if num >= den << 64:
            e, den = e + 1, den << 1
        q, r = divmod(num, den)             # 2^63 <= q < 2^64
        q += 2 * r >= den
        mant.append(q >> (q >> 64))         # q = 2^64 becomes 2^63 ...
        shift.append(e + (q >> 64))         # ... times 2
    return np.ldexp(np.array(mant, np.uint64).astype(np.longdouble), np.array(shift, np.int32))


@functools.cache
def _format_tables():
    """Lookup tables of `format17`, indexed by decimal exponent or digit group."""
    xs = range(-_X_OFF, _X_END)
    pow10 = _powers_of_ten()
    # the roundings in p: one where the power is exact (up to 10^27 < 2^64),
    # else two; inf where the layout has no place for X: 10 <= |x| < 1e17 and
    # the zero/non-finite entry
    roundings = np.array([np.inf if not (-_X_OFF < x <= 0 or 16 < x <= 308)
                          else 1.0 if 0 <= 16 - x <= 27 else 2.0 for x in xs])
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
    # the slots of inf, -inf and NaN
    nonfinite = np.zeros((3, 4), np.uint64)
    nonfinite[:, 0] = np.array([b"inf", b"-inf", b"nan"], "S8").view(np.uint64)
    return (pow10, roundings, np.array(heads, "S8").view(np.uint64), head_base,
            exponents, digits, nonfinite)


def format17(x: np.ndarray, out: np.ndarray, tail: np.ndarray) -> None:
    """Write the bytes of '%.17g' % v for every v of float64 x into uint64 out[..., :4].

    Each value gets a 32-byte slot, NUL-padded: word 0 holds the sign, a
    "0.000" lead, d0 and the point, words 1-2 the other 16 digits without
    trailing zeros, word 3 the exponent in its first 5 bytes, ORed with tail
    (x's last axis), whose own bytes lie in the last 3.  inf, -inf and NaN,
    whatever its sign and payload ('%.17g' writes "nan"), take their slots
    from a table.

    Why a certified n is the rounding of the exact P = |v| 10^(16-X): each of
    the r roundings to a 64-bit significand errs by at most u = 2^-64 of its
    result, so |p - P| <= P ((1 + u)^r - 1) <= P r u (1 + u), and P <= (n + 1/2)
    (1 + 3u) with n >= 1e16 > 2^53, so |p - P| < n r u (1 + 2^-52).  p - trunc(p)
    is exact, and fits a double exactly, as p's last place is at least 2^-10
    (with a wider long double its rounding, under 2^-54, and the product's
    smaller error fit in the slack below).  The bound n r u (1 + 2^-20),
    evaluated in doubles, loses at most two roundings of 2^-53, so it still
    exceeds |p - P|: where p is farther than that from the half-integer, P is
    on the same side of it, and rint(P) = n.
    """
    pow10, roundings, heads, head_base, exponents, digits, nonfinite = _format_tables()
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
        # f > n r u (1 + 2^-20) proves n is the exact value's rounding (see above)
        u = max(float(finfo.eps) / 2, 2.0 ** -64)  # the power table's own rounding
        slow |= f <= n * (u * (1 + 2.0 ** -20) * roundings.take(xi, mode="clip"))
        finite = a < np.inf  # False for NaN too
        slow &= finite
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
    special = np.nonzero(~finite)
    if special[0].size:
        v = x[special]
        words = nonfinite.take(np.where(np.isnan(v), 2, v < 0), axis=0)
        words[:, 3] = tail[special[-1]]
        out[special] = words
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


# ---------------------------------------------------------------------------
# decoding

_DECIMAL = re.compile(rb"-?[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]{2,3})?")
_LANE = 24                  # bytes of a field decoded in lanes; longer ones go to float()
_PARSE_BLOCK = 1 << 14      # fields per block: 2^11 and whole 32^3 files both ran slower
_U = np.uint64
_BELOW = 1 - np.longdouble(3 * 2.0 ** -63)     # exact when nmant >= 63
_ABOVE = 1 + np.longdouble(3 * 2.0 ** -63)
_POINT_BYTE = np.array([[0x0001020304050607 + (8 * j + 1) * 0x0101010101010101]
                        for j in range(3)], np.uint64)


def _bytes8(byte: int) -> np.uint64:
    """A uint64 word with every byte equal to byte."""
    return _U(byte * 0x0101010101010101)


@functools.cache
def _parse_tables():
    """Lane tables of `parse_lanes`, indexed by a byte count or exponent width r."""
    # the last k bytes of a lane, as its three little-endian words
    tail = np.array([[0] * (_LANE - k) + [255] * k for k in range(_LANE + 1)], np.uint8)
    tail = tail.view("<u8").T.astype(np.uint64)
    # per exponent width r (4 for "e+dd", 5 for "e+ddd", 0 for none): the top
    # bits of 'e' and its sign in word 2; 10^(16 - r), 10^r and the bound on
    # word 0's 8 digits that keeps N below 2^64
    marks = [bytes(8 - r) + b"\x80\x80" + bytes(r - 2) if r >= 4 else bytes(8) for r in range(6)]
    marks = np.frombuffer(b"".join(marks), "<u8").astype(np.uint64)
    scale = np.array([[10 ** (16 - r), 10 ** r, 1000 * 10 ** r] for r in range(6)], np.uint64).T
    tens = np.array([10 ** k for k in range(20)], np.uint64)
    nines = np.array([0] + [9 * 10 ** k for k in range(19)], np.uint64)  # 9 10^(k - 1)
    return tail, marks, scale, tens, nines


def _eight_digits(w: np.ndarray) -> np.ndarray:
    """The value of 8 decimal digits per uint64 word, one per byte, the first in the low byte."""
    w = w * _U(10) + (w >> _U(8))                 # digit pairs in bytes 0, 2, 4, 6
    pairs = _U(0x000000FF000000FF)
    w = ((w & pairs) * _U(100 + (10 ** 6 << 32))
         + ((w >> _U(16)) & pairs) * _U(1 + (10 ** 4 << 32))) >> _U(32)
    return w & _U(0xFFFFFFFF)


def parse_lanes(u: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """(values, valid, exact) of the decimal fields u[s:e], one lane per field.

    u is a uint8 array and every end is at least 24.  valid marks fields of at
    most 24 bytes in the strict grammar; exact marks valid fields whose value
    is certified to equal float(field), which values then holds.
    """
    tail, marks, scale, tens, nines = _parse_tables()
    length = ends - starts
    neg = u[starts] == ord("-")
    body = np.minimum(length, _LANE) - neg          # bytes after the sign
    # the 24 bytes that end at each field's end, byte i of the window in byte
    # i % 8 of word i // 8; all but the field's last `body` bytes are cleared
    w = sliding_window_view(u, _LANE)[ends - _LANE].view("<u8").T.astype(np.uint64)
    inside = tail.take(body, axis=1)
    w &= inside
    # the top bit of every byte that is not a digit: below '0', above '9' or not ASCII
    low7 = w & _bytes8(0x7F)
    other = low7 + _bytes8(0x80 - ord("9") - 1)
    other |= w
    low7 += _bytes8(0x80 - ord("0"))
    other |= np.invert(low7, out=low7)
    other &= inside
    other &= _bytes8(0x80)
    # an exponent "e+dd" or "e+ddd" puts its 'e' in byte 20 or 19 (word 2)
    w2 = w[2]
    byte = w2 >> _U(24)
    e19 = (byte & _U(255)) == ord("e")
    byte >>= _U(8)
    e20 = (byte & _U(255)) == ord("e")
    e19 &= ~e20
    r = e20 * 4 + e19 * 5                           # exponent bytes, 0 if none
    esign = np.where(e20, byte >> _U(8), byte) & _U(255)
    hundreds = ((w2 >> _U(40)) & _U(255)).astype(np.int64) - ord("0")
    exp10 = (((w2 >> _U(48)) & _U(255)) * _U(10) + (w2 >> _U(56))).astype(np.int64)
    exp10 += e19 * (100 * hundreds) - 11 * ord("0")  # the last two bytes are 10 d + d'
    exp10 = np.where(esign == ord("-"), -exp10, exp10) * (r > 0)
    # with the exponent's 'e' and sign cleared, the one non-digit left may be
    # the point.  A lone top bit 8k + 7 of word j, times 0x0001..07 plus
    # 8j + 1 in every byte, leaves 8j + k + 1 in the top byte.  Two or more
    # bits leave a byte past all of them: a digit, or past the field's end
    # (the check reads the last byte then), where decimals < 1 rejects it
    other[2] ^= marks.take(r)
    at = other >> _U(7)
    at *= _POINT_BYTE
    at >>= _U(56)
    at = (at[0] + at[1] + at[2]).astype(np.int64)  # the point's byte + 1, or 0
    has_point = at > 0
    at = np.where(has_point, at - 1, _LANE - r)
    valid = (length >= 1) & (length <= _LANE) & (at > _LANE - body)   # a digit before the point
    valid &= (r == 0) | (esign == ord("-")) | (esign == ord("+"))
    valid &= ~has_point | (u[ends - _LANE + np.minimum(at, _LANE - 1)] == ord("."))
    decimals = _LANE - 1 - r - at                   # digits after the point, -1 without one
    valid &= ~has_point | (decimals >= 1)
    # digit values, with the point, the exponent and the cleared bytes as 0:
    # the words read as n1 10^r, n1 = N 10 + 0 in the point's place
    other >>= _U(7)
    w &= ~(other * _U(255))
    w &= _bytes8(0x0F)
    w[2] &= ~tail[2].take(r)
    v = _eight_digits(w)
    top, down, bound = scale.take(r, axis=1)
    n1 = v[0] * top + (v[1] * _U(10 ** 8) + v[2]) // down
    k = np.where(has_point, decimals + 1, 0)
    n = n1 - n1 // tens.take(k, mode="clip") * nines.take(k, mode="clip")
    e = exp10 - np.maximum(decimals, 0)
    index = 16 + _X_OFF - e                         # 10^e's place in _powers_of_ten
    pow10 = _powers_of_ten()
    with np.errstate(all="ignore"):
        p = n.astype(np.longdouble) * pow10.take(index, mode="clip")
        # p is N 10^e after two roundings of at most 2^-64: where both ends of
        # p (1 -+ 3 2^-63) round to the same double, N 10^e rounds to it too
        values = (p * _BELOW).astype(np.float64)
        exact = values == (p * _ABOVE).astype(np.float64)
    exact &= (index >= 0) & (index < len(pow10)) & (v[0] < bound) & valid
    return np.negative(values, out=values, where=neg), valid, exact


def parse_fields(data: bytes, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """float(data[s:e]) of every field, or None if one breaks the strict grammar.

    Blocks of fields go through `parse_lanes`; a field it leaves uncertified,
    or longer than 24 bytes (checked against the grammar first), goes through
    float() alone.  None also when long double is plain double (nmant < 63)
    or a field ends within the first 24 bytes of data.
    """
    if np.finfo(np.longdouble).nmant < 63 or (ends.size and ends.min() < _LANE):
        return None
    u = np.frombuffer(data, np.uint8)
    out = np.empty(len(ends))
    for a in range(0, len(ends), _PARSE_BLOCK):
        s, e = starts[a:a + _PARSE_BLOCK], ends[a:a + _PARSE_BLOCK]
        values, valid, exact = parse_lanes(u, s, e)
        long = e - s > _LANE
        if not (valid | long).all():
            return None
        out[a:a + len(e)] = values
        for i in np.flatnonzero(~exact).tolist():
            text = data[s[i]:e[i]]
            if long[i] and not _DECIMAL.fullmatch(text):
                return None
            out[a + i] = float(text)
    return out
