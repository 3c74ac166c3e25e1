"""Float64 columns as the text of ``repr``, byte for byte, in numpy.

``repr_rows(columns, end)`` gives the bytes of
``"".join(",".join(map(repr, row)) + end for row in zip(*columns))`` for
finite doubles without a Python call per value. Each pass takes ``_CHUNK``
rows, so its arrays stay in the L2 cache, in four steps:

- Digits: Schubfach (R. Giulietti, "The Schubfach way to render doubles",
  2020) gives the shortest decimal in the double's rounding interval, and
  of those the closest, ties to an even last digit: the digits ``repr``
  prints. Its 64x64 -> 128-bit products are emulated in ``uint64`` with
  32-bit halves. Zero is laid out as 1.0 with its first digit mended; the
  subnormals go to ``repr`` one at a time.
- ASCII: the 17 digits in four-digit groups, each cut off by a float64
  division by 10^4 whose floor is exact (the quotients are below 10^5, and
  a fraction is 0 or at least 10^-4 from an integer, far above the
  rounding error), then looked up as four bytes.
- Layout: the values are sorted, stably, by the place of the decimal point,
  and each such group is written into a fixed-width byte row with slices:
  positional for decimal exponents -4..15, ``d.ddde±XX`` otherwise, as
  ``repr`` chooses.
- Compaction: the rows, NUL-padded, are put back in order beside their
  separators, and the NULs are dropped from the chunk's bytes at once.
"""
from __future__ import annotations

from functools import cache

import numpy as np

_CHUNK = 4096
# the longest repr of a double: '-2.2250738585072014e-308'
_WIDTH = 24
_DIGITS = 17

_K_MIN, _K_MAX = -324, 292
_U = np.uint64
_M32 = _U(0xFFFFFFFF)


def _flog2pow10(e):
    """floor(e log2(10)) for |e| < 1700."""
    return (e * 913124641741) >> 38


# the lookup tables are built on first use, not at import
@cache
def _g() -> tuple[np.ndarray, ...]:
    """Schubfach's g1 and the 32-bit halves of g1 and g0, for k = _K_MIN.._K_MAX.

    With 10^-k = beta 2^r and 2^125 <= beta < 2^126, g = floor(beta) + 1,
    g1 its high 63 bits and g0 its low 63 bits, exact from Python ints.
    """
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        g = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
        g1.append(g >> 63)
        g0.append(g & (2**63 - 1))
    g1, g0 = np.array(g1, _U), np.array(g0, _U)
    return g1, g1 & _M32, g1 >> _U(32), g0 & _M32, g0 >> _U(32)


@cache
def _quads() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of 0..9999 as one little-endian uint32, and their trailing zeros."""
    digits = np.arange(10000) // np.array([1000, 100, 10, 1])[:, None] % 10
    text = ((digits + 48) << np.array([0, 8, 16, 24])[:, None]).sum(0).astype("<u4")
    zeros = (digits[3] == 0).astype(np.int8)
    for place in (2, 1, 0):  # a digit counts if every one after it does
        zeros += (zeros == 3 - place) & (digits[place] == 0)
    return text, zeros


@cache
def _masks() -> np.ndarray:
    """Row l keeps the 3 bytes before a number's 17 digits and the first l digits."""
    return np.where(np.arange(20) < np.arange(3, 21)[:, None], 255, 0).astype(np.uint8)


@cache
def _exponents() -> np.ndarray:
    """The 'e±XX' bytes of every decimal exponent -324..308, NUL-padded to 5."""
    text = b"".join((b"e%+03d" % e).ljust(5, b"\0") for e in range(-324, 309))
    return np.frombuffer(text, np.uint8).reshape(-1, 5)


def _mulhi(a0, a1, b0, b1):
    """The high 64 bits of (a1 2^32 + a0)(b1 2^32 + b0), with a0, a1, b0 < 2^32 and b1 < 2^31."""
    p10 = a1 * b0
    mid = (a0 * b0 >> _U(32)) + a0 * b1 + (p10 & _M32)
    return a1 * b1 + (p10 >> _U(32)) + (mid >> _U(32))


def _rop(g, cp):
    """Schubfach's rop(g, cp): about g cp 2^-127, its last bit set if the rest is not 0."""
    g1, g10, g11, g00, g01 = g
    c0, c1 = cp & _M32, cp >> _U(32)
    z = ((g1 * cp) >> _U(1)) + _mulhi(g00, g01, c0, c1)
    return (_mulhi(g10, g11, c0, c1) + (z >> _U(63))) | ((z << _U(1)) != 0)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) of each normal double's bits: f 10^k is the decimal repr prints.

    10^15 <= f < 10^17; the trailing zeros of f are not digits repr prints.
    """
    bq = (bits >> _U(52)).astype(np.int64) & 0x7FF
    t = bits & _U(2**52 - 1)
    c = t | _U(2**52)
    q = bq - 1075
    # at a power of two the spacing below is half that above, except at the
    # smallest normal, which borders on the subnormals' equal spacing
    irregular = (t == 0) & (bq > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(_U)
    g = [table.take(k - _K_MIN) for table in _g()]
    out = c & _U(1)
    cb = c << _U(2)
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _U(2) + irregular) << h) + out
    vbr = _rop(g, (cb + _U(2)) << h) - out
    s = vb >> _U(2)
    # s has 16 or 17 digits: first the decimal one digit shorter, if the
    # interval holds one, then s or s + 1, whichever it holds, or the closer
    # of the two, ties to even
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= vbr
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    cmp = vb.view(np.int64) - ((s << _U(2)) + _U(2)).view(np.int64)
    lower = np.where(uin != win, uin, (cmp < 0) | ((cmp == 0) & ((s & _U(1)) == 0)))
    f = np.where(upin != wpin, sp10 + _U(10) * ~upin, s + ~lower)
    return f, k


def _text(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's repr as a NUL-padded row of _WIDTH bytes, in sorted order, and the order.

    Row i of the matrix is the text of v[order[i]]; the rows are sorted,
    stably, by the layout their text takes.
    """
    m = len(v)
    bits = v.view(_U)
    tiny = (bits & _U(0x7FF << 52)) == 0  # zero or subnormal: laid out as 1.0, then mended
    if tiny.any():
        bits = np.where(tiny, _U(0x3FF << 52), bits)
    f, k = _shortest(bits)
    long = f >= _U(10**16)
    dp = k + 16 + long  # the value is 0.ddd 10^dp
    # 0..3: 0.000ddd to 0.ddd, 4..19: d.ddd to dddddddddddddddd.d, 20: d.ddde±XX
    key = np.where((dp > -4) & (dp < 17), dp + 3, 20).astype(np.uint8)
    order = np.argsort(key, kind="stable")
    bounds = [0, *np.cumsum(np.bincount(key, minlength=21)).tolist()]
    f17 = np.where(long, f, f * _U(10)).take(order)
    dp = dp.take(order)

    # 17 digits as d abcd efgh ijkl mnop, 9 of them above 10^8 and 8 below
    hi = f17 // _U(10**8)
    lo = (f17 - hi * _U(10**8)).astype(np.float64)
    hi = hi.astype(np.float64)
    quads = np.empty((5, m), np.intp)
    top = np.floor(hi / 1e4)
    quads[0] = np.floor(top / 1e4)
    quads[1] = top - 1e4 * quads[0]
    quads[2] = hi - 1e4 * top
    quads[3] = np.floor(lo / 1e4)
    quads[4] = lo - 1e4 * quads[3]
    text4, zeros4 = _quads()
    zeros = zeros4.take(quads[1])
    for i in (2, 3, 4):
        zeros = zeros4.take(quads[i]) + (quads[i] == 0) * zeros
    ndig = _DIGITS - zeros
    # repr writes an integer's zeros and one zero after the point
    limit = np.where((dp > 0) & (dp < 17), np.maximum(ndig, dp + 1), ndig)
    chars = text4.take(quads.T).view(np.uint8)  # (m, 20): '000d' then the other 16 digits
    chars &= _masks().take(limit, axis=0)
    chars = chars[:, 3:]

    text = np.zeros((m, _WIDTH), np.uint8)
    for group in range(21):
        a, b = bounds[group], bounds[group + 1]
        if a == b:
            continue
        rows, digits = text[a:b], chars[a:b]
        if group == 20:
            rows[:, 1] = digits[:, 0]
            rows[:, 2] = 46 * (ndig[a:b] > 1)
            rows[:, 3:19] = digits[:, 1:]
            rows[:, 19:24] = _exponents().take(dp[a:b] + 323, axis=0)
        elif group > 3:
            p = group - 3
            rows[:, 1:p + 1] = digits[:, :p]
            rows[:, p + 1] = 46
            rows[:, p + 2:19] = digits[:, p:]
        else:
            z = 3 - group
            rows[:, 1:3 + z] = np.frombuffer(b"0." + b"0" * z, np.uint8)
            rows[:, 3 + z:20 + z] = digits
    text[:, 0] = 45 * (v.view(_U).take(order) >> _U(63))
    if tiny.any():
        tiny = tiny.take(order)
        text[tiny, 1] = 48  # 1.0 as 0.0, and -0.0 keeps its sign
        for i in np.flatnonzero(tiny & (v.take(order) != 0)).tolist():
            value = repr(float(v[order[i]])).encode()
            text[i] = 0
            text[i, :len(value)] = np.frombuffer(value, np.uint8)
    return text, order


def repr_rows(columns, end: bytes = b"\n") -> bytes:
    """The bytes of ``"".join(",".join(map(repr, row)) + end for row in zip(*columns))``.

    ``columns`` are float64 arrays of one length, every value finite, and
    the separator is the constant ``b","``. With one column and ``end=b", "``
    these are json.dumps's items, each with the separator after it.
    """
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    n = len(columns[0])
    cuts = [np.frombuffer(cut, np.uint8) for cut in [b","] * (len(columns) - 1) + [end]]
    width = sum(_WIDTH + len(cut) for cut in cuts)
    pieces = []
    for lo in range(0, n, _CHUNK):
        rows = min(_CHUNK, n - lo)
        text, order = _text(np.concatenate([c[lo:lo + rows] for c in columns]))
        back = np.empty_like(order)
        back[order] = np.arange(len(order))
        block = np.zeros((rows, width), np.uint8)
        at = 0
        for i, cut in enumerate(cuts):
            block[:, at:at + _WIDTH] = text.take(back[i * rows:(i + 1) * rows], axis=0)
            block[:, at + _WIDTH:at + _WIDTH + len(cut)] = cut
            at += _WIDTH + len(cut)
        pieces.append(block.tobytes().translate(None, b"\0"))
    return b"".join(pieces)
