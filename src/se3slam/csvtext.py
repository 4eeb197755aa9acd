"""Exact ``'%.17g' % x`` text for blocks of float64 values, made with numpy.

17 significant digits round-trip every float64, and ``%.17g`` is the CSV's
format. For each value with 1e-30 <= |x| < 1e30, ``csv_text`` finds the
17-digit integer D and the decimal exponent e of its text: D is
``X = |x| * 10**(16 - e)`` rounded to the nearest integer, X in [1e16, 1e17).

* X is a double-double ``p + lo``: Dekker's exact product of |x| with the
  double nearest 10**(16 - e), plus |x| times the double nearest the
  remainder. Its absolute error is a few 1e-15 on that range.
* e is ``floor(log10(|x|))``, and a value is certified only where this first
  guess puts its unrounded X in [1e16, 1e17) and D stays below 10**17. The
  few next to a power of ten, whose guess is off by one or whose D rounds up
  to 10**17, go to ``exact_text``.
* D is rounded from ``p + lo`` only where X's fraction is further than
  TIE_MARGIN from one half, so the sum's error cannot change the rounding.

Each value's text is laid out in a slot of SLOT bytes: its sign, the "0.000"
prefix of a small number, D's digits with the point among them, the exponent
"e+XX" and the separator. Every byte the text does not use is 0 (the trailing
zeros of the fraction included), and one ``bytes.translate`` squeezes them
out. A value the certificate does not cover (zero, NaN, an infinity, a value
outside the range, a power of ten's neighbour, a value that rounds up to
10**17, a fraction within TIE_MARGIN of one half, exact ties included) is
formatted by ``'%.17g' % x`` itself, in ``exact_text``.
"""

from __future__ import annotations

import numpy as np

# A slot's bytes: sign, "0.000" prefix, 18 digit bytes (17 digits and the
# point), "e+XX", separator. D's last 16 digits start on a 4-byte boundary.
SLOT = 32
_SIGN, _PREFIX, _DIGITS, _EXPONENT, _SEPARATOR = 0, 1, 7, 25, 29
# A fraction this close to one half is left to exact_text: X's error is ~1e-14.
TIE_MARGIN = 1e-9
_LOW, _HIGH = 1e-30, 1e30  # the fast path's range of |x|
_E0 = -32  # the tables cover exponents -32 ... 31, first guesses included
_EXPONENTS = range(_E0, -_E0)
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter


def _split(a):
    """(high, low) halves of a float64, 26 bits each, that multiply exactly."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _scale_tables():
    """Per exponent e: the double nearest 10**(16 - e), its halves, and the
    double nearest its remainder (10**(16 - e) less that double)."""
    scale, rem = [], []
    for e in _EXPONENTS:
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        near = num / den  # int / int is correctly rounded
        a, b = near.as_integer_ratio()
        scale.append(near)
        rem.append((num * b - a * den) / (den * b))
    scale = np.array(scale)
    return (scale, *_split(scale), np.array(rem))


def _layout_tables():
    """Per (exponent e, count z of D's trailing zeros), one row each: the slot
    with its prefix, point and exponent bytes and no digit; the mask that
    keeps D's digits where they are laid out, before the point; and the mask
    that keeps them shifted one byte right, past the point."""
    e = np.array(_EXPONENTS)[:, None, None]
    z = np.arange(17)[None, :, None]
    r = np.arange(SLOT)[None, None, :] - _DIGITS  # index among the digit bytes
    # the point: after e + 1 digits in fixed form, after one in exponent form,
    # past the digits (never written) in 0.000ddd, whose point is the prefix's
    point = np.where((-4 <= e) & (e <= 16), np.where(e < 0, 17, e + 1), 1)
    # the digits kept: up to the last non-zero one, and all before the point
    kept = np.maximum(17 - z, np.where(e < 0, 0, point))
    slots = ((r == point) & (kept > point)) * np.uint8(ord("."))
    for row, exp in zip(slots, _EXPONENTS):
        if -4 <= exp < 0:
            prefix = b"0." + b"0" * (-exp - 1)
            row[:, _PREFIX : _PREFIX + len(prefix)] = np.frombuffer(prefix, np.uint8)
        elif not 0 <= exp <= 16:
            row[:, _EXPONENT:_SEPARATOR] = np.frombuffer(b"e%+03d" % exp, np.uint8)
    as_laid = (0 <= r) & (r < point) & (r < kept)
    shifted = (point < r) & (r <= kept)
    masks = (m.reshape(-1, SLOT) * np.uint8(255) for m in (as_laid, shifted))
    return (slots.reshape(-1, SLOT), *masks)


def _digit_tables():
    """One table of uint32 words: the ASCII digits of each 4-digit group 0000
    ... 9999 (indices 0 ... 9999), those of 0 ... 9 as a word's last byte
    (10000 ... 10009) and a 0 word (10010); and each group's trailing zeros."""
    q = np.arange(10000, dtype=np.uint16)
    ascii_ = np.zeros((10011, 4), np.uint8)
    zeros = np.zeros(10000, np.uint8)
    for j, power in enumerate((1000, 100, 10, 1)):
        ascii_[:10000, j] = q // power % 10 + ord("0")
        zeros += q % (10 * power) == 0
    ascii_[10000:10010, 3] = ascii_[:10, 3]
    return ascii_.view(np.uint32)[:, 0], zeros


_SCALE, _SCALE_HI, _SCALE_LO, _SCALE_REM = _scale_tables()
_SLOTS, _AS_LAID, _SHIFTED = _layout_tables()
_WORDS, _GROUP_ZEROS = _digit_tables()
_LEAD_WORD, _ZERO_WORD = 10000, 10010


def exact_text(x: float) -> bytes:
    """``'%.17g' % x``: the text of a value the fast path does not certify."""
    return ("%.17g" % x).encode()


def _scaled(a, e):
    """X = a * 10**(16 - e) as an unnormalized double-double (p, lo): p is a's
    rounded product with the double nearest 10**(16 - e), and lo is that
    product's exact error plus a times the remainder."""
    i = e - _E0
    p = _SCALE.take(i)
    p *= a
    a_hi, a_lo = _split(a)
    lo = _SCALE_HI.take(i)
    lo *= a_hi
    lo -= p
    term = np.empty_like(a)
    for table, half in ((_SCALE_LO, a_hi), (_SCALE_HI, a_lo), (_SCALE_LO, a_lo), (_SCALE_REM, a)):
        np.take(table, i, out=term, mode="clip")
        term *= half
        lo += term
    return p, lo


def _digits_and_exponents(x):
    """(D, e, certified) for the flat float64 array x; D and e are
    meaningful where ``certified`` holds."""
    a = np.abs(x)
    certified = (a >= _LOW) & (a < _HIGH)
    np.copyto(a, 1.0, where=~certified)
    e = np.floor(np.log10(a)).astype(np.intp)
    p, lo = _scaled(a, e)
    certified &= ((p - 1e16) + lo >= 0.0) & ((p - 1e17) + lo < 0.0)
    whole = np.floor(lo)
    lo -= whole  # the fraction of X, exactly
    digits = p.astype(np.int64)
    digits += whole.astype(np.int64)
    digits += lo > 0.5
    lo -= 0.5
    certified &= np.abs(lo) > TIE_MARGIN
    certified &= digits < 10**17
    return digits, e, certified


def _fill(slots, x):
    """Write the text of each value of x into its row of ``slots`` (n, SLOT),
    with 0 in every unused byte; the separator bytes are the caller's."""
    digits, e, certified = _digits_and_exponents(x)
    # D's digits as indices into _WORDS: the first digit is byte 7 of a slot
    # and the other 16 are bytes 8 ... 23, words 1 to 5 of the slot
    words = np.full((len(x), SLOT // 4), _ZERO_WORD, np.int16)
    lead = digits // 10**16
    words[:, 1] = lead + _LEAD_WORD
    digits -= lead * 10**16
    high = digits // 10**8
    low = digits - high * 10**8
    del digits, lead
    for j, half in ((2, high), (4, low)):
        quad = half // 10**4
        words[:, j] = quad
        words[:, j + 1] = half - quad * 10**4
    zeros = _GROUP_ZEROS.take(words[:, 5], mode="clip").astype(np.intp)
    for j, full in ((4, 4), (3, 8), (2, 12)):
        zeros += _GROUP_ZEROS.take(words[:, j], mode="clip") * (zeros == full)
    layout = e - _E0
    layout *= 17
    layout += zeros
    del e, zeros
    text = _WORDS.take(words, mode="clip").view(np.uint8).reshape(-1)
    del words

    np.take(_SLOTS, layout, axis=0, out=slots, mode="clip")
    flat = slots.reshape(-1)
    mask = _AS_LAID.take(layout, axis=0, mode="clip").reshape(-1)
    mask &= text
    flat |= mask
    np.take(_SHIFTED, layout, axis=0, out=mask.reshape(slots.shape), mode="clip")
    mask[1:] &= text[:-1]
    flat |= mask
    np.copyto(slots[:, _SIGN], ord("-"), where=x < 0.0)

    for j in np.flatnonzero(~certified):
        exact = exact_text(float(x[j]))
        slots[j, :_SEPARATOR] = 0
        slots[j, : len(exact)] = np.frombuffer(exact, np.uint8)


def csv_text(values: np.ndarray) -> bytearray:
    """The CSV lines of a (rows, columns) float64 block: ``'%.17g' % x`` of each
    value, comma-separated, each row ending in a newline."""
    rows, columns = values.shape
    buf = bytearray(values.size * SLOT)
    slots = np.frombuffer(buf, np.uint8).reshape(rows, columns, SLOT)
    _fill(slots.reshape(-1, SLOT), values.reshape(-1))
    slots[:, :, _SEPARATOR] = ord(",")
    slots[:, -1, _SEPARATOR] = ord("\n")
    del slots
    return buf.translate(None, b"\0")
