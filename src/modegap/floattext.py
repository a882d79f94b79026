"""CSV rows of float and integer columns, each value in the bytes of its ``repr``.

``format_rows`` formats a whole chunk of a table with array arithmetic.  An
integer is numpy's own text of it (``astype("S24")``), which is ``str``'s.  The
digits of a double are those of Schubfach (R. Giulietti, "The Schubfach way
to render doubles", 2020): the shortest decimal that rounds back to it and,
of those, the closest, ties to an even last digit -- the digits Python's
``repr`` writes.  Schubfach multiplies the double's significand by a 126-bit
power of ten, done here in 32-bit limbs of uint64 arrays.  Java's two-digit
minimum (its ``C_TINY`` path and ``s >= 100`` guard) is left out, since
Python writes ``5e-324``.  The layout is ``repr``'s: exponent form ``e+dd``,
with at least two exponent digits, when the decimal point falls more than 16
digits right of the first digit or 4 or more left of it; ``.0`` after an
integral positional value; ``-0.0``, ``inf``, ``-inf`` and ``nan``.

Each value fills a 32-byte cell, four little-endian uint64 words, with the
characters it uses at fixed places and 0 in the rest.  A float's are its
sign, "0.000" before a positional value under 1, 17 digits with a slot for
the point among them, "e+ddd", and the "," after it; an integer's text,
0-padded, fills the first three words.  A row's cells and a CRLF word are
joined, and the chunk's zero bytes deleted.
"""

from functools import cache

import numpy as np

_M32 = 0xFFFFFFFF
_M63 = (1 << 63) - 1
_K_MIN, _K_MAX = -324, 292            # the decimal exponents of the g table
_POW10 = np.array([10**i for i in range(20)], np.uint64)
_COMMA = 0x2C << 56                   # byte 7 of word 3: the "," after a value
_CRLF = 0x0A0D


def _words(texts):
    """Strings of at most 8 bytes as little-endian uint64 words, 0-padded."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), "<u8").astype(np.uint64)


def _byte_masks(starts, stops):
    """Per (start, stop) pair, the three words of a 24-byte string whose bytes
    in [start, stop) are 0xFF and the rest 0, as a (3, len) array."""
    texts = [(b"\0" * a + b"\xff" * (b - a)).ljust(24, b"\0") for a, b in zip(starts, stops)]
    return _words([t[i:i + 8] for t in texts for i in (0, 8, 16)]).reshape(-1, 3).T.copy()


@cache
def _tables():
    """Read-only tables, built on first use: Schubfach's g = g1 2^63 + g0,
    the 126-bit floor(10^-k 2^-r) + 1 for each k in [_K_MIN, _K_MAX], as
    words and 32-bit limbs; the 10,000 four-digit strings; the exponent
    suffixes; the "0.000" leads; and the byte masks of the digit slots."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        p = 10 ** abs(k)
        if k <= 0:
            r = p.bit_length() - 126
            g.append((p >> r if r >= 0 else p << -r) + 1)
        else:
            g.append((1 << (125 + p.bit_length())) // p + 1)
    g1 = np.array([v >> 63 for v in g], np.uint64)
    g0 = np.array([v & _M63 for v in g], np.uint64)
    quads = np.zeros((10000, 8), np.uint8)
    quads[:, :4] = np.arange(10000, dtype=np.uint16)[:, None] // np.array(
        [1000, 100, 10, 1], np.uint16) % 10 + 48
    point = np.arange(18)
    tables = {
        "g": (g1, g0, g1 & _M32, g1 >> 32, g0 & _M32, g0 >> 32),
        "quads": quads.view("<u8").ravel().astype(np.uint64),
        # Index 0: no exponent; e + 325: the exponent e at bytes 2-6 of word 3.
        "exp": _words([b""] + [b"\0\0e%+03d" % e for e in range(-324, 309)]),
        # Index 0: no lead; 1 - p: the lead of a point p <= 0 at bytes 1-5 of word 0.
        "lead": _words([b""] + [b"\0" + b"0." + b"0" * z for z in range(4)]),
        # By point P in 1..17 (17: none): the digits right of it, and its '.'.
        "right": _byte_masks(point, np.full(18, 17)),
        "point": _byte_masks(point, point + (point < 17)) & 0x2E2E2E2E2E2E2E2E,
        # By count L in 0..18: the first L slots.
        "keep": _byte_masks(np.zeros(19, int), np.arange(19)),
        "special": _words([b"\0" + t for t in (b"0.0", b"inf", b"nan")]),
    }
    for table in tables.values():
        for array in (table if isinstance(table, tuple) else (table,)):
            array.flags.writeable = False
    return tables


def _mulhi(a0, a1, b0, b1):
    """The high 64 bits of (a1 2^32 + a0)(b1 2^32 + b0), from 32-bit limbs."""
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _rop(x1, y0, y1):
    """g cp 2^-127 rounded to odd (Giulietti's figure 8), from the high
    word x1 of g0 cp and the words y0, y1 of g1 cp, g = g1 2^63 + g0."""
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shortest(bits):
    """Schubfach's (d, k) per positive finite double, given as uint64 bits:
    the shortest d 10^k that rounds to it, the closest of those, ties to
    an even d."""
    t = bits & ((1 << 52) - 1)
    bq = (bits >> 52).astype(np.int64)
    normal = bq > 0
    c = t | (normal.astype(np.uint64) << 52)
    q = bq + ~normal - 1075
    # Where c is the smallest normal significand, above the least exponent,
    # the interval below v is half as wide: k = floor(log10(3/4 2^q)) there,
    # else floor(log10(2^q)); h = q + floor(log2(10^-k)) + 2 aligns g.
    irregular = (t == 0) & (bq > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)
    index = k - _K_MIN
    g1, g0, g10, g11, g00, g01 = (table[index] for table in _tables()["g"])
    # v, and the bounds of the interval that rounds to it, times 4 10^-k:
    # rop of cp = 4c 2^h, of cp + 2^(h+1), and of cp - 2^(h+1), or cp - 2^h
    # where the interval below is half as wide.  A bound's products are v's
    # plus or minus g 2^j, carried from the low words.
    cp = c << (h + 2)
    c0, c1 = cp & _M32, cp >> 32
    x0, x1 = g0 * cp, _mulhi(g00, g01, c0, c1)
    y0, y1 = g1 * cp, _mulhi(g10, g11, c0, c1)
    vb = _rop(x1, y0, y1)
    j = h + 1
    lx, ly, hx, hy = g0 << j, g1 << j, g0 >> (64 - j), g1 >> (64 - j)
    rx, ry = x0 + lx, y0 + ly
    vbr = _rop(x1 + hx + (rx < x0), ry, y1 + hy + (ry < y0))
    j -= irregular
    lx, ly, hx, hy = g0 << j, g1 << j, g0 >> (64 - j), g1 >> (64 - j)
    vbl = _rop(x1 - hx - (x0 < lx), y0 - ly, y1 - hy - (y0 < ly))
    odd = c & 1
    # One digit fewer, when exactly one of its two candidates is inside;
    # else s or s + 1, whichever is inside or, both inside, the closer.
    s = vb >> 2
    sp10 = s // 10 * 10
    upin = vbl + odd <= sp10 << 2
    wpin = ((sp10 + 10) << 2) + odd <= vbr
    uin = vbl + odd <= s << 2
    win = ((s + 1) << 2) + odd <= vbr
    half = (s << 2) + 2
    up = np.where(uin != win, win, (vb > half) | ((vb == half) & (s & 1 == 1)))
    return np.where(upin != wpin, sp10 + wpin * np.uint64(10), s + up), k


def _count_digits(x):
    """The decimal digits of each uint64, 1 for 0: those of the power of two
    at or below x | 1, or one more (x | 1 rounds at most up to 2^64)."""
    below = (np.minimum(np.frexp((x | 1).astype(np.float64))[1], 64) - 1) * 1233 >> 12
    return below + 1 + (x >= _POW10[below + 1])


def _render8(y):
    """The 8 digits of each uint64 below 10^8 as a word of characters."""
    quads = _tables()["quads"]
    hi = y // 10000
    return quads[hi.view(np.int64)] | (quads[(y - hi * 10000).view(np.int64)] << 32)


def _float_cells(x, sep, cells):
    """Write the cell of each float64 of ``x``, ending in ``sep``, into ``cells``."""
    tables = _tables()
    bits = x.view(np.uint64)
    magnitude = bits & _M63
    special = (magnitude == 0) | (magnitude >= 0x7FF0000000000000)
    # 1.0 stands in for 0, inf and nan, whose cells are written last.
    d, k = _shortest(np.where(special, 0x3FF0000000000000, magnitude))
    # d's digits, left-aligned in 17 with 0s after; the point is p digits
    # right of the first, and n digits count, up to the last that is not 0:
    # with a word's '0' bytes made 0, its float's binary exponent places
    # its last other digit.
    count = _count_digits(d)
    a = d * _POW10[17 - count]
    p = k + count
    a16 = a // 10
    hi = a16 // 10**8
    last = a - a16 * 10
    chars = [_render8(hi), _render8(a16 - hi * 10**8), last + 0x30]
    kept = [(np.frexp((w ^ 0x3030303030303030).astype(np.float64))[1] + 7) >> 3
            for w in chars[:2]]
    n = np.where(last != 0, 17, np.where(kept[1] > 0, kept[1] + 8, kept[0]))
    # The point goes after digit p of a positional value, after the first of
    # exponent form with more than one digit, else nowhere (17); the slots
    # shown run to the last digit that counts, or to the point and ".0".
    sci = (p <= -4) | (p > 16)
    small = (p <= 0) & ~sci
    positional = ~(sci | small)
    point = np.where(positional, p, 17 - 16 * (sci & (n > 1)))
    shown = np.where(positional, np.maximum(n, p + 1) + 1, n + (sci & (n > 1)))
    # Digits right of the point move one byte up (word + moved 255 is the
    # word with them shifted), and the words carry.
    carry = 0
    for w, word in enumerate(chars):
        moved = word & tables["right"][w][point]
        cells[:, w + 1] = ((word + moved * 255 + carry) & tables["keep"][w][shown]) \
            | tables["point"][w][point]
        carry = moved >> 56
    cells[:, 0] = (bits >> 63) * 0x2D + tables["lead"][small * (1 - p)]
    cells[:, 3] |= tables["exp"][sci * (p + 324)] | sep
    if special.any():
        nan = magnitude[special] > 0x7FF0000000000000
        kind = (magnitude[special] == 0x7FF0000000000000) + 2 * nan   # 0.0, inf, nan
        sign = (bits[special] >> 63) * ~nan
        cells[special, 0] = sign * 0x2D + tables["special"][kind]
        cells[special, 1:] = (0, 0, sep)


def format_rows(columns) -> bytearray:
    """The rows of equal-length float or integer columns as CSV bytes, in
    the squeezed buffer itself: each value as its ``repr``, joined by ",",
    each row ending in CRLF.  Floats of at most 64 bits are written as
    float64, integers as numpy casts them to text.  Raises ValueError on a
    column of any other dtype."""
    columns = [np.asarray(c) for c in columns]
    shape = (len(columns[0]), 4 * len(columns) + 1)          # a row's cells, then CRLF
    text = bytearray(8 * shape[0] * shape[1])
    cells = np.frombuffer(text, "<u8").reshape(shape)
    for i, column in enumerate(columns):
        kind, sep = column.dtype.kind, _COMMA if i < len(columns) - 1 else 0
        if kind == "f" and column.dtype.itemsize <= 8:
            _float_cells(column.astype(np.float64, copy=False), sep, cells[:, 4 * i:4 * i + 4])
        elif kind in "iu":   # at most 20 characters: "-9223372036854775808"
            cells[:, 4 * i:4 * i + 3] = column.astype("S24").view("<u8").reshape(-1, 3)
            cells[:, 4 * i + 3] = sep
        else:
            raise ValueError(f"cannot write a column of dtype {column.dtype} as CSV")
    cells[:, -1] = _CRLF
    return text.translate(None, b"\0")
