"""``'%.17g' % x`` for whole float64 arrays, byte for byte, by numpy arithmetic.

CPython formats one float at a time with Gay's correctly rounded dtoa (Gay
1990, "Correctly rounded binary-decimal and decimal-binary conversions").
Here a finite |x| in [1e-4, 1e16), which ``%.17g`` writes in fixed notation
with a decimal exponent E in -4..15, is scaled to s = |x| 10^(16-E) in
``np.longdouble`` and rounded to the integer N of its 17 significant digits.
Integer division cuts N into integer part and fraction, and those into
4-digit groups whose text comes from a table.  Every other value, and every
value whose s lies too near a rounding tie to trust the long-double product,
takes ``'%.17g' % x`` itself, so the text never differs.  Where long double
is only 64 bits wide every value does.

A cell is ``WIDTH`` bytes read as ten 4-byte words: the sign, the integer
part's 16 digits ('0.' for E < 0), a word with the decimal point (for E < 0
the zeros after it and the leading digit), and 16 more digits of the
fraction.  Leading zeros of the integer part, trailing zeros of the fraction
and unused bytes are NUL, for the caller to squeeze out; the first byte is
always NUL, free for a separator.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 40  # bytes per cell; the longest '%.17g' text, '-1.7976931348623157e+308', has 24

# Values near a rounding tie fall back.  10^(16-E) is correctly rounded in
# long double (exact with a 64-bit mantissa: 5^20 < 2^64), and so is the
# product s = |x| 10^(16-E); each has a relative error of at most eps_ld / 2.
# As s < 1e17, the computed s lies within (eps_ld + eps_ld^2 / 4) 1e17 of the
# exact product, and both round to the same integer unless the computed one
# lies that close to a half-integer.  The window, 2 eps_ld 1e17, covers this
# bound twice over; s - rint(s) is exact, so the test against it is too.
TIE_WINDOW = 2.0 * float(np.finfo(np.longdouble).eps) * 1e17


def _words(table) -> np.ndarray:
    """Rows of 4k bytes as rows of k native-order uint32 words."""
    return np.ascontiguousarray(table, dtype=np.uint8).view(np.uint32)


@functools.cache
def _tables():
    """Lookup tables, built on the first call.

    - ``int_groups[g + 10^4 f]``, ``frac_groups[g + 10^4 f]``: the 4 digits
      of g as a word, for f = 1 with its leading (trailing) zeros NUL;
    - ``point``: the word after the integer part.  At (E + 4) 10 + d for
      E < 0, the zeros after '0.' and the leading digit d; at 40 and 41 for
      E >= 0, no fraction and a decimal point;
    - per binary exponent of a double: the decimal exponent of its binade's
      least power of ten, E0, and the double 10^(E0 + 1) (a binade holds at
      most one power of ten);
    - per E + 4: 10^(16-E) as long double, parsed from text, the divisor that
      cuts N into integer part and fraction, and the factor that left-aligns
      the fraction's digits in its 16.
    """
    g = np.arange(10_000)
    digits = 48 + (g[:, None] // np.array([1000, 100, 10, 1])) % 10
    nonzero = digits != 48
    leading = np.where(np.maximum.accumulate(nonzero, axis=1), digits, 0)
    trailing = np.where(np.maximum.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1], digits, 0)
    point = np.zeros((42, 4), np.uint8)
    point[:40, 3] = 48 + g[:40] % 10
    for k in range(4):
        point[10 * k:10 * k + 10, k:3] = 48
    point[41, 0] = ord(".")

    # the doubles next to the 10^E below 1 lie above them, so x >= double(10^E)
    # exactly when x >= 10^E
    low = np.floor((np.arange(2048) - 1023) * np.log10(2.0)).clip(-5, 16).astype(int)
    above = np.array([float(f"1e{e + 1}") for e in range(-5, 17)])[low + 5]
    e = np.arange(-4, 16)
    scales = np.array([np.longdouble(f"1e{16 - k}") for k in e])
    int_div = 10 ** (16 - np.maximum(e, 0))
    frac_mul = 10 ** np.maximum(e, 0)
    return (_words(np.concatenate([digits, leading])).ravel(),
            _words(np.concatenate([digits, trailing])).ravel(), _words(point).ravel(),
            low, above, scales, int_div, frac_mul)


_MINUS = np.frombuffer(b"\0\0\0-", np.uint32)[0]
_ZERO_POINT = np.frombuffer(b"\x00\x000.", np.uint32)[0]
_FALLBACK = b"\0\0\0\0%%-%d.17g" % (WIDTH - 4)  # a cell of '%.17g' padded with spaces


def _quads(x: np.ndarray) -> list:
    """The four 4-digit groups of x < 10^16, most significant first."""
    upper = x // 10 ** 8
    lower = x - upper * 10 ** 8
    q0, q2 = upper // 10 ** 4, lower // 10 ** 4
    return [q0, upper - q0 * 10 ** 4, q2, lower - q2 * 10 ** 4]


def _fixed(v: np.ndarray, negative: np.ndarray):
    """Cells of the v in [1e-4, 1e16) as (WIDTH / 4, m) words, and which are trusted."""
    int_groups, frac_groups, point, low, above, scales, int_div, frac_mul = _tables()
    binade = v.view(np.uint64) >> np.uint64(52)
    e = low[binade] + (v >= above[binade])  # 10^e <= v < 10^(e+1)
    s = v.astype(np.longdouble)
    s *= scales[e + 4]
    n = np.rint(s)
    s -= n  # exact, and exact again as a double
    trusted = np.abs(s.astype(np.float64)) < 0.5 - TIE_WINDOW
    # n < 10^17: the doubles below the powers of ten from 1e-3 to 1e16 lie
    # 8e-17 of them or more away, and only 5e-18 would round up
    n = n.astype(np.int64)

    # n = whole int_div + rest; for e < 0 whole is the leading digit
    k = e + 4
    below = e < 0
    divisor = int_div[k]
    whole = n // divisor
    words = np.empty((WIDTH // 4, v.size), np.uint32)
    words[0] = negative * _MINUS
    zeros = True  # all groups so far are 0000
    for j, q in enumerate(_quads(np.where(below, 0, whole)), 1):
        words[j] = int_groups[q + 10_000 * zeros]
        zeros = zeros & (q == 0)
    words[4] |= below * _ZERO_POINT
    zeros = True
    quads = _quads((n - whole * divisor) * frac_mul[k])
    for j in (3, 2, 1, 0):
        words[6 + j] = frac_groups[quads[j] + 10_000 * zeros]
        zeros = zeros & (quads[j] == 0)
    words[5] = point[np.where(below, k * 10 + whole, 41 - zeros)]
    return words, trusted


def format_g17(x) -> np.ndarray:
    """``'%.17g' % v`` of every v in x, as a uint8 array x.shape + (WIDTH,).

    Each text is padded with NUL bytes, which the caller squeezes out after
    joining in its separators.  Padding sits inside a text as well as after,
    and the first byte of every cell is NUL.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    a = np.abs(flat)
    fast = (a >= 1e-4) & (a < 1e16)  # False for nan
    words, trusted = _fixed(np.where(fast, a, 1.0), flat < 0)
    out = np.empty((flat.size, WIDTH), np.uint8)
    out.view(np.uint32)[:] = words.T
    slow = np.flatnonzero(~(fast & trusted))
    if slow.size:
        # '%.17g' writes no space, so the padding spaces become NULs
        text = _FALLBACK * slow.size % tuple(flat[slow].tolist())
        cells = np.frombuffer(text, np.uint8).reshape(-1, WIDTH)
        out[slow] = np.where(cells == 32, 0, cells)
    return out.reshape(x.shape + (WIDTH,))
