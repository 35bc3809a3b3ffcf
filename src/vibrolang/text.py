"""Float tables as text in a few numpy passes, byte for byte what Python's
`%` gives: CSV rows of `%.12e` cells (as ASCII bytes, which go to a file
as they are) and SVG polyline `%.2f,%.2f` pairs.

A value's text is laid out in a fixed slot of 4-byte words taken from small
tables (the digits of 0..9999, a sign and lead digit, an exponent), with
NUL padding where a character is absent; the padding is dropped at the
end.  The digits come from one integer per value, |x| 10^k rounded to
nearest, wherever that rounding is proved right (the bounds are stated
below).  A value it is not proved for goes through Python's `%` itself,
all such values in one call, right-aligned to the slot, whose leading
spaces become padding.
"""

from __future__ import annotations

import numpy as np

_PAD = 0


def _words(*columns):
    """Byte columns (arrays or scalars, broadcast together) as native words:
    uint32 for 4 bytes, uint64 for 8."""
    chars = np.stack(np.broadcast_arrays(*columns), axis=-1).astype(np.uint8)
    return chars.view(np.uint32 if len(columns) == 4 else np.uint64)[..., 0]


def _digit_words():
    """Words of 0..9999: four digits, and the same with leading zeros padded
    but the last digit kept."""
    pairs = 48 + np.indices((10, 10), dtype=np.uint8).reshape(2, -1).T
    pairs = np.ascontiguousarray(pairs).view(np.uint16)[:, 0]  # "00".."99"
    digits = np.stack([np.repeat(pairs, 100), np.tile(pairs, 100)], axis=1)
    digits = digits.view(np.uint32)[:, 0]
    shown = digits.copy()
    chars = shown.view(np.uint8).reshape(-1, 4)
    chars[:1000, 0] = chars[:100, 1] = chars[:10, 2] = _PAD
    return digits, shown


_DIGITS, _DIGITS_SHOWN = _digit_words()

# %.12e cells.  A 24-byte slot: [pad, sign, lead, '.'], three 4-digit
# words, then 'e', the exponent's sign and 2 or 3 digits, padding, and the
# separator (',' or '\n') in the last byte.
_CELL = 24
_POW_MIN, _POW_MAX = -300, 308
# 10^k correctly rounded, as Python parses it
_POW10 = np.array([float("1e%d" % k) for k in range(_POW_MIN, _POW_MAX + 1)])
_LEAD = _words(_PAD, np.repeat([_PAD, 45], 10), 48 + np.arange(20) % 10, 46)
_EXP_MAX = 308


def _exponent_words():
    e = np.arange(-_EXP_MAX, _EXP_MAX + 1)
    a = np.abs(e)
    return _words(101, np.where(e < 0, 45, 43),
                  np.where(a >= 100, 48 + a // 100, _PAD), 48 + a // 10 % 10,
                  48 + a % 10, _PAD, _PAD, _PAD)


_EXPONENT = _exponent_words()

# The fast path takes 1e-290 <= |x| < 1e290, so that 10^k, k = 12 - e, is a
# normal float for every exponent e it tries.  With p = fl(10^k) and
# y = fl(|x| p), |y - |x| 10^k| <= (2u + u^2) |x| 10^k (u = 2^-53), and
# |x| 10^k < 10^13 wherever a cell is accepted (M = rint(y) < 10^13), so
# the error is below 2.3e-3: a cell whose y lies farther than that from a
# half-integer rounds as its exact |x| 10^k does.  A cell with
# 10^12 - 2.3e-3 <= |x| 10^k < 10^12 has M = 10^12 and rounds up into the
# decade above at exponent e - 1 too, so its text is the same.
_CELL_BAND = 2.3e-3
_FAST_MIN, _FAST_MAX = 1e-290, 1e290


def csv_rows(table):
    """Rows of `%.12e` cells, joined by ',' and each ended by '\\n', of a
    2-D float table, as `(row_format * rows) % tuple(cells)` gives them,
    encoded as ASCII bytes."""
    table = np.asarray(table, dtype=float)
    rows, cols = table.shape
    x = table.ravel()
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)  # NaN is not
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    y = a * _POW10[12 - _POW_MIN - e]
    # log10 may put e one off near a power of ten; one step fixes it
    fix = np.flatnonzero((y < 1e12) | (y >= 1e13))
    e[fix] += np.where(y[fix] < 1e12, -1, 1)
    y[fix] = a[fix] * _POW10[12 - _POW_MIN - e[fix]]
    m = np.rint(y)
    fast &= (y >= 1e12) & (m < 1e13) & (np.abs(y - m) < 0.5 - _CELL_BAND)
    m[~fast] = 0
    e[~fast] = 0
    fast |= x == 0  # m = 0 and e = 0 give "0.000000000000e+00"
    low = m.astype(np.int64)
    lead = low // 10 ** 12
    low -= lead * 10 ** 12
    high = low // 10 ** 8
    low -= high * 10 ** 8
    mid = low // 10 ** 4
    low -= mid * 10 ** 4

    words = np.empty((len(x), _CELL // 4), dtype=np.uint32)
    words[:, 0] = _LEAD[np.signbit(x) * 10 + lead]
    words[:, 1] = _DIGITS[high]
    words[:, 2] = _DIGITS[mid]
    words[:, 3] = _DIGITS[low]
    words.view(np.uint64)[:, 2] = _EXPONENT[e + _EXP_MAX]
    slots = words.view(np.uint8)
    slots.reshape(rows, cols, _CELL)[:, :, -1] = [44] * (cols - 1) + [10]
    _fill(slots, ~fast, x, "%23.12e")  # fits: no %.12e text exceeds 20
    return _squeeze(slots)


# %.2f points.  A 16-byte slot: [pad, pad, pad, sign], the integer part as
# two 4-digit words with leading zeros padded, then '.', two digits and the
# separator (',' after x, ' ' after y, none after the last y).
_POINT = 16
_FRACTION = _words(46, 48 + np.arange(100) // 10, 48 + np.arange(100) % 10,
                   _PAD)
_SIGN = _words(_PAD, _PAD, _PAD, [_PAD, 45])
# The fast path takes |v| < 1e8 whose rounded integer part stays below 10^8,
# and rounds 100 |v| exactly: split |v| into hi, its leading 46 bits
# (Veltkamp, factor 2^7 + 1), and lo = |v| - hi, so that 100 hi and 100 lo
# are exact and 100 |v| = 100 hi + 100 lo.  With n = rint(100 hi),
# 100 hi - n is exact (Sterbenz), so r = fl(100 hi - n + 100 lo) lies beyond
# +-1/2 exactly when the residual does.  r = +-1/2 with lo = 0 is a tie,
# which n already rounds half to even as `%` does; only r = +-1/2 with
# lo != 0, within rounding of a tie, is left to `%`.
_POINT_MAX = 1e8


def point_pairs(x, y):
    """"x,y" pairs to two decimals joined by ' ', as
    `" ".join(["%.2f,%.2f"] * n) % tuple(interleaved x, y)` gives them."""
    v = np.column_stack([x, y]).astype(float).ravel()
    a = np.abs(v)
    fast = a < _POINT_MAX  # NaN is not
    a = np.where(fast, a, 0.0)
    hi = a * 129.0
    hi -= hi - a
    q = hi * 100.0
    n = np.rint(q)
    lo = (a - hi) * 100.0
    r = (q - n) + lo
    n += r > 0.5
    n -= r < -0.5
    fast &= ((np.abs(r) != 0.5) | (lo == 0)) & (n < 1e10)
    n[~fast] = 0
    frac = n.astype(np.int64)
    low = frac // 100
    frac -= low * 100
    high = low // 10 ** 4
    low -= high * 10 ** 4

    words = np.empty((len(v), _POINT // 4), dtype=np.uint32)
    words[:, 0] = _SIGN[np.signbit(v).view(np.uint8)]
    words[:, 1] = np.where(high > 0, _DIGITS_SHOWN[high], _PAD)
    words[:, 2] = np.where(high > 0, _DIGITS[low], _DIGITS_SHOWN[low])
    words[:, 3] = _FRACTION[frac]
    slots = words.view(np.uint8)
    slots.reshape(-1, 2, _POINT)[:, :, -1] = [44, 32]
    if len(v):
        slots[-1, -1] = _PAD
    if not _fill(slots, ~fast, v, "%15.2f"):
        # a value wider than its slot (|v| >= 1e11): format them all
        return " ".join(["%.2f,%.2f"] * (len(v) // 2)) % tuple(v.tolist())
    return _squeeze(slots).decode("ascii")


def _fill(slots, slow, values, fmt):
    """Write `fmt % value` (right-aligned to all but the slot's last byte)
    into the slots where `slow` holds, its spaces as padding; False if a
    text is wider than that."""
    index = np.flatnonzero(slow)
    if not len(index):
        return True
    width = slots.shape[1] - 1
    text = ((fmt * len(index)) % tuple(values[index].tolist())).encode()
    if len(text) != width * len(index):
        return False
    slots[index, :width] = np.frombuffer(
        text.replace(b" ", b"\0"), dtype=np.uint8).reshape(-1, width)
    return True


def _squeeze(slots):
    """The slots' text, as bytes, with the padding dropped."""
    return slots.tobytes().translate(None, b"\0")
