"""CSV rows of int64 and float64 columns, as bytes computed in numpy.

An int is written in decimal and a float as Python's ``repr`` writes it:
the shortest decimal that reads back as the same double, the nearest one
among those (ties to an even last digit), in exponent form iff its decimal
exponent is below -4 or at least 16.  The digits come from Schubfach
(R. Giulietti, "The Schubfach way to render doubles", 2020), as in Java's
``DoubleToDecimal``, with two departures because ``repr`` allows a
one-digit result: a digit is dropped from any s >= 10, not only from
s >= 100, and the tiniest subnormals are not rescaled by 10.  The text
comes from integer arithmetic alone, so it does not depend on numpy's SIMD
class.

A chunk of rows is laid out column by column: each cell owns a fixed run
of candidate characters and a mask of the ones it keeps, and the chunk's
bytes are the kept characters, row by row.
"""

from __future__ import annotations

import functools

import numpy as np

_K_MIN, _K_MAX = -324, 292  # decimal exponents k of the doubles' Schubfach intervals
_M32 = (1 << 32) - 1
_M63 = (1 << 63) - 1
_C_MIN = 1 << 52  # the hidden bit of a normal double's significand
_ZERO, _DOT, _MINUS, _PLUS, _E = b"0.-+e"

_DIGITS = 20  # of a uint64
_FLOAT_DIGITS = 17  # of a float's shortest digits f < 10^17
_INT_DIGITS = 19  # of an int64's magnitude, below 10^19
# a float's candidates: the sign, the "0.000" of 1e-4 <= |x| < 0.1, the digits
# up to the point, the point, the digits after it, the "0" of an integral
# float's ".0", "e", the exponent's sign and three digits, and "inf" or "nan"
_FLOAT_WIDTH = 1 + 5 + _FLOAT_DIGITS + 1 + _FLOAT_DIGITS + 1 + 5 + 3
_INT_WIDTH = 1 + _INT_DIGITS


@functools.cache
def _g_limbs() -> np.ndarray:
    """g(k) = floor(10^-k / 2^r) + 1 with 2^125 <= 10^-k / 2^r < 2^126, for k in [-324, 292].

    Rows are the 32-bit limbs of g's high 63 bits g1 and low 63 bits g0,
    highest first, so g = g1 * 2^63 + g0; column k + 324 holds g(k).
    """
    limbs = []
    for k in range(_K_MIN, _K_MAX + 1):
        # 2^-r = 2^(125 - floor(-k log2 10)), and floor(-k log2 10) is one less
        # than the bit length of 10^-k, or minus the bit length of 10^k
        shift = 125 - ((10**-k).bit_length() - 1 if k <= 0 else -((10**k).bit_length()))
        num, den = 10 ** max(-k, 0) << max(shift, 0), 10 ** max(k, 0) << max(-shift, 0)
        g = num // den + 1
        g1, g0 = g >> 63, g & _M63
        limbs.append((g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32))
    return np.array(limbs, dtype=np.uint64).T.copy()


@functools.cache
def _quads() -> np.ndarray:
    """The four characters of each of 0000 ... 9999, packed in one uint32."""
    # uint16: int64 temporaries here raised a process's peak RSS by 0.9 MB
    n = np.arange(10_000, dtype=np.uint16)
    chars = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1).astype(np.uint8) + _ZERO
    return chars.view(np.uint32).ravel()


def _digits(f: np.ndarray) -> np.ndarray:
    """The 20 decimal digit characters of each uint64 in ``f``, zero-padded on the left, one row each."""
    # numpy divides by a scalar faster than it takes a remainder
    top = f // 10**16
    rest = f - top * 10**16
    hi = rest // 10**8
    lo = rest - hi * 10**8
    hi_hi, lo_hi = hi // 10**4, lo // 10**4
    groups = np.stack([top, hi_hi, hi - hi_hi * 10**4, lo_hi, lo - lo_hi * 10**4], axis=1)
    return _quads()[groups].view(np.uint8)


def _rop(g: list[np.ndarray], cp: np.ndarray) -> np.ndarray:
    """floor(g * cp / 2^127), its last bit set when the part below it is nonzero (round to odd).

    This is ``DoubleToDecimal.rop``: the high products of g1 * cp and g0 * cp
    are summed from 32-bit limbs, and the sticky bit reads only the 63 bits
    of the sum below the result, as Java's does.
    """
    b1, b0, a1, a0 = g
    c1, c0 = cp >> 32, cp & _M32
    p00, p01, p10 = a0 * c0, a0 * c1, a1 * c0
    x1 = a1 * c1 + (p01 >> 32) + (p10 >> 32) + (((p00 >> 32) + (p01 & _M32) + (p10 & _M32)) >> 32)
    q00, q01, q10 = b0 * c0, b0 * c1, b1 * c0
    mid = (q00 >> 32) + (q01 & _M32) + (q10 & _M32)
    y1 = b1 * c1 + (q01 >> 32) + (q10 >> 32) + (mid >> 32)
    z = (((mid << 32) | (q00 & _M32)) >> 1) + x1
    return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _scaled(bits: np.ndarray) -> tuple[np.ndarray, ...]:
    """The significand c, the decimal exponent k, and 4 * 10^-k times the double, its lower and its upper bound.

    Each double is c * 2^q and rounds back from the open (or, for an even c,
    closed) interval between the midpoints to its neighbours.  vb, vbl and
    vbr are 4 * 10^-k times the double and those midpoints, rounded to odd.
    """
    bq = (bits >> 52) & 0x7FF
    t = bits & (_C_MIN - 1)
    c = np.where(bq != 0, t | _C_MIN, t)
    q = np.maximum(bq, 1).astype(np.int64) - 1075
    # at a power of two above the subnormals the lower neighbour is half as far
    regular = (t != 0) | (bq <= 1)
    k = (q * 661_971_961_083 + np.where(regular, 0, -274_743_187_321)) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    index = k - _K_MIN
    g = [limb[index] for limb in _g_limbs()]
    cb = c << 2
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - np.where(regular, 2, 1).astype(np.uint64)) << h)
    vbr = _rop(g, (cb + 2) << h)
    return c, k, vb, vbl, vbr


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, e) with f * 10^e the shortest decimal nearest each finite double's magnitude.

    ``bits`` are the doubles' uint64 patterns; f is 0 for a zero and garbage
    for inf and nan.
    """
    c, k, vb, vbl, vbr = _scaled(bits)
    vbl += c & 1  # an odd c excludes the interval's ends
    vbr -= c & 1
    s = vb >> 2
    # the one-digit-shorter candidates sp10 and sp10 + 10, then s and s + 1
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    wpin = (sp10 + 10) << 2 <= vbr
    uin = vbl <= s << 2
    win = (s + 1) << 2 <= vbr
    mid = (2 * s + 1) << 1
    lower = (vb < mid) | ((vb == mid) & ((s & 1) == 0))
    f = s + ~np.where(uin != win, uin, lower)
    f = np.where((s >= 10) & (upin != wpin), np.where(upin, sp10, sp10 + 10), f)
    # integers below 2^53 are their own shortest digits
    shift = np.clip(1075 - ((bits >> 52) & 0x7FF).astype(np.int64), 0, 53).astype(np.uint64)
    whole = (shift > 0) & (shift < 53) & ((c >> shift) << shift == c)
    return np.where(whole, c >> shift, np.where(c == 0, 0, f)), np.where(whole, 0, k)


def _float_cells(x: np.ndarray, chars: np.ndarray, keep: np.ndarray) -> None:
    """Fill the (_FLOAT_WIDTH, rows) ``chars`` and ``keep`` with the repr of each float64 in ``x``."""
    bits = x.view(np.uint64)
    f, e = _shortest(bits)
    finite = np.isfinite(x)
    nan = np.isnan(x)
    d = _digits(f)[:, _DIGITS - _FLOAT_DIGITS :]
    nonzero = d != _ZERO
    zero = f == 0
    lead = np.where(zero, _FLOAT_DIGITS - 1, nonzero.argmax(axis=1))
    trail = np.where(zero, _FLOAT_DIGITS, _FLOAT_DIGITS - nonzero[:, ::-1].argmax(axis=1))
    exp10 = np.where(zero, 0, e + _FLOAT_DIGITS - 1 - lead)
    sci = finite & ((exp10 < -4) | (exp10 >= 16))
    whole_part = finite & ~sci & (exp10 >= 0)
    fraction = finite & ~sci & (exp10 < 0)
    # the digits [lead, point] before the point, (point, end) after it
    point = np.where(sci, lead, np.where(whole_part, lead + exp10, lead - 1)).astype(np.int8)
    end = np.where(whole_part, np.maximum(trail, point + 1), np.where(finite, trail, lead)).astype(np.int8)
    col = np.arange(_FLOAT_DIGITS, dtype=np.int8)[:, None]
    magnitude = np.abs(exp10)

    chars[0] = _MINUS
    keep[0] = (bits >> 63).astype(bool) & ~nan
    chars[1:6] = np.frombuffer(b"0.000", np.uint8)[:, None]
    keep[1:3] = fraction
    keep[3:6] = fraction & (np.arange(3)[:, None] < -1 - exp10)
    chars[6:23] = d.T
    keep[6:23] = (col >= lead.astype(np.int8)) & (col <= point)
    chars[23] = _DOT
    keep[23] = whole_part | (sci & (trail - lead > 1))
    chars[24:41] = chars[6:23]
    keep[24:41] = (col > point) & (col < end)
    chars[41] = _ZERO
    keep[41] = whole_part & (trail <= point + 1)
    chars[42] = _E
    chars[43] = np.where(exp10 < 0, _MINUS, _PLUS)
    chars[44:47] = np.stack([magnitude // 100, magnitude // 10 % 10, magnitude % 10]) + _ZERO
    keep[42:47] = sci
    keep[44] &= magnitude >= 100
    chars[47:50] = np.where(nan, np.frombuffer(b"nan", np.uint8)[:, None], np.frombuffer(b"inf", np.uint8)[:, None])
    keep[47:50] = ~finite


def _int_cells(x: np.ndarray, chars: np.ndarray, keep: np.ndarray) -> None:
    """Fill the (_INT_WIDTH, rows) ``chars`` and ``keep`` with the decimal text of each int64 in ``x``."""
    negative = x < 0
    magnitude = x.view(np.uint64)
    magnitude = np.where(negative, -magnitude, magnitude)
    d = _digits(magnitude)[:, _DIGITS - _INT_DIGITS :]
    lead = np.where(magnitude == 0, _INT_DIGITS - 1, (d != _ZERO).argmax(axis=1)).astype(np.int8)
    chars[0] = _MINUS
    keep[0] = negative
    chars[1:] = d.T
    keep[1:] = np.arange(_INT_DIGITS, dtype=np.int8)[:, None] >= lead


def rows_bytes(columns: list[np.ndarray]) -> np.ndarray:
    """The CSV lines of equal-length int64 and float64 columns, as one uint8 array.

    Cells are joined by commas and every line ends with a newline, as the
    csv module writes them with ``lineterminator="\\n"``.
    """
    floats = [column.dtype.kind == "f" for column in columns]
    widths = [(_FLOAT_WIDTH if is_float else _INT_WIDTH) + 1 for is_float in floats]
    chars = np.empty((sum(widths), len(columns[0])), dtype=np.uint8)
    keep = np.empty(chars.shape, dtype=bool)
    start = 0
    for column, is_float, width in zip(columns, floats, widths):
        stop = start + width - 1
        (_float_cells if is_float else _int_cells)(column, chars[start:stop], keep[start:stop])
        chars[stop] = ord(",")
        keep[stop] = True
        start = stop + 1
    chars[-1] = ord("\n")
    return chars.T[keep.T]
