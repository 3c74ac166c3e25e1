"""Two-column decimal text as float64, bit for bit as ``float()``, in numpy.

``read_block(data, start, end)`` turns bytes of whole lines into their
``(rows, 2)`` array, or gives None for a block it refuses. It works in
windows of ``_WINDOW`` bytes or a little more, cut just after an LF: a
window's index arrays and temporaries take about 18 times its size, so a
larger window would raise a command's own peak memory and gain nothing in
speed. Each window passes four steps:

- Cells: the non-digit bytes are found at once and classed (line end,
  comma, sign, dot, exponent, exponent sign). Each pair of neighbours, with
  whether digits lie between them, must be one ``float()``'s grammar allows
  (``_PAIRS``), a dot needs a digit beside it, and the cell ends must run
  comma, line end. A line end is LF or CRLF, or a CR that ends the block;
  blank lines are skipped. Any other byte, a lone CR, a wrong column count
  or an empty cell refuses the block.
- Digits: each mantissa is read from the 24 bytes that end with its last
  digit, or one byte later where it has no dot, as three ``uint64`` words.
  The bytes before the mantissa are masked off, and the bytes before its
  pivot (the dot, or that byte after it) move up one place over it, so the
  digits end the last word. Each word's eight digits are then summed in a
  few products (Lemire, "Number parsing at a gigabyte per second", 2021);
  leading zeros cost only room. The exponent's digits are read from one
  word the same way.
- Conversion: w 10^q, w < 10^19, is rounded as Eisel-Lemire rounds it: w,
  normalised, times the 128-bit truncated 5^q (``_powers``, built from
  Python ints on first use), its 64x64 -> 128-bit products emulated in
  32-bit halves, a second product where the first one's low bits could
  carry, and round half to even where the product is exact. That product
  always decides the rounding of a 19-digit w (Mushtak and Lemire, "Fast
  number parsing without fallback", 2023); the kernel still checks.
- ``float()``: a cell whose mantissa has more than 19 significant digits,
  or more than 23 digits with its leading zeros, an exponent of more than 8
  digits, a product left ambiguous, or a subnormal or overflowing result is
  converted by ``float()`` itself.

Masks are made by shifting: numpy shifts a ``uint64`` by 64 or more to 0.
"""
from __future__ import annotations

from functools import cache

import numpy as np

_WINDOW = 1 << 19
_Q_MIN, _Q_MAX = -342, 308
_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_NIBBLES = _U(0x0F0F0F0F0F0F0F0F)

# the classes of the non-digit bytes a block may hold; any other byte is _BAD
_LINE, _COMMA, _SIGN, _DOT, _EXP, _ESIGN, _BAD = range(7)
_CLASS = np.full(256, _BAD, np.uint8)
for _chars, _code in ((b"\n\r", _LINE), (b",", _COMMA), (b"+-", _SIGN), (b".", _DOT),
                      (b"eE", _EXP)):
    _CLASS[list(_chars)] = _code


def _pairs() -> np.ndarray:
    """Whether class b may follow class a, with (1) or without (0) digits between.

    Indexed by (a * 6 + b) * 2 + digits; an exponent sign is a sign after e.
    """
    ends = (_LINE, _COMMA)
    allowed = {(_LINE, _LINE, 0)}  # a blank line, or the LF of CRLF
    allowed |= {(_LINE, _COMMA, 1), (_COMMA, _LINE, 1)}
    for a in ends:
        allowed |= {(a, _SIGN, 0), (a, _DOT, 0), (a, _DOT, 1), (a, _EXP, 1)}
    allowed |= {(_SIGN, _DOT, 0), (_SIGN, _DOT, 1), (_SIGN, _EXP, 1)}
    allowed |= {(_SIGN, b, 1) for b in ends}
    allowed |= {(_DOT, b, d) for b in (*ends, _EXP) for d in (0, 1)}
    allowed |= {(_EXP, _ESIGN, 0), *((_EXP, b, 1) for b in ends)}
    allowed |= {(_ESIGN, b, 1) for b in ends}
    table = np.zeros(72, bool)
    table[[(a * 6 + b) * 2 + d for a, b, d in allowed]] = True
    return table


_PAIRS = _pairs()


@cache
def _powers() -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64 bits of 5^q as a 128-bit number with its top bit set, q = -342..308.

    Truncated for q >= 0; for q < 0 one more than the truncated reciprocal,
    as Lemire's table holds it.
    """
    hi, lo = [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        power = 5 ** abs(q)
        if q < 0:
            z = power.bit_length()  # 5^-q is no power of two
            power = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // power + 1
        shift = power.bit_length() - 128
        power = power >> shift if shift > 0 else power << -shift
        hi.append(power >> 64)
        lo.append(power & (2**64 - 1))
    return np.array(hi, _U), np.array(lo, _U)


def _mul128(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64 bits of a * b, from products of 32-bit halves."""
    a0, a1, b0, b1 = a & _M32, a >> _U(32), b & _M32, b >> _U(32)
    middle = a1 * b0
    cross = (a0 * b0 >> _U(32)) + (middle & _M32) + a0 * b1  # below 2^64
    return a1 * b1 + (middle >> _U(32)) + (cross >> _U(32)), a * b


def _eight_digits(x: np.ndarray) -> np.ndarray:
    """The value of eight decimal digits, one a byte, the first in the low byte."""
    x = x * _U(10) + (x >> _U(8))
    pairs = _U(0x000000FF000000FF)
    return ((x & pairs) * _U(100 + (1000000 << 32))
            + ((x >> _U(16)) & pairs) * _U(1 + (10000 << 32))) >> _U(32)


def _to_double(w: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bits of each w 10^q, 0 < w < 10^19 and -342 <= q <= 308, and where they are undecided.

    Undecided: a subnormal or overflowing result, or an ambiguous product.
    """
    hi_table, lo_table = _powers()
    # floor(log2(w)), mended where the conversion to double rounded up
    e = (w.astype(np.float64).view(_U) >> _U(52)) - _U(1023)
    e -= (w >> e) == 0
    lz = _U(63) - e
    w = w << lz
    index = q - _Q_MIN
    hi, lo = _mul128(w, hi_table.take(index))
    undecided = (hi & _U(0x1FF)) == _U(0x1FF)
    if undecided.any():  # the low bits could carry: add the product with 5^q's low half
        at = np.flatnonzero(undecided)
        carry_in, _ = _mul128(w[at], lo_table.take(index[at]))
        low = lo[at] + carry_in
        hi[at] += low < carry_in
        lo[at] = low
        undecided[at] = ((hi[at] & _U(0x1FF)) == _U(0x1FF)) & (low == _U(2**64 - 1))
    upper = hi >> _U(63)
    shift = upper + _U(9)
    mantissa = hi >> shift  # 2^53 <= mantissa < 2^54: the double's bits and one more
    power2 = ((217706 * q) >> 16) + 63 + 1023 + upper.view(np.int64) - lz.view(np.int64)
    tie = lo <= _U(1)
    if tie.any():  # exactly halfway between two doubles: round to the even one
        tie &= (q >= -4) & (q <= 23) & ((mantissa & _U(3)) == _U(1))
        mantissa -= tie & ((mantissa << shift) == hi)
    mantissa = (mantissa + (mantissa & _U(1))) >> _U(1)
    # the hidden bit adds one to the exponent field, and a mantissa rounded
    # up to 2^53 one more
    bits = ((power2 - 1).astype(_U) << _U(52)) + mantissa
    undecided |= (power2 <= 0) | (bits >= _U(0x7FF << 52))
    return bits, undecided


def _per_cell(cells: np.ndarray, values: np.ndarray, default: np.ndarray) -> np.ndarray:
    """``default`` with ``values`` at ``cells``, ascending and each once.

    Where the cells are all of ``default``'s, that is ``values`` itself.
    """
    if len(cells) == len(default):
        return values
    out = default.copy()
    out[cells] = values
    return out


def _window(data: bytes, lo: int, hi: int, end: int) -> np.ndarray | None:
    """The rows of data[lo:hi], as ``read_block`` gives them; the block ends at end."""
    w = np.frombuffer(data, np.uint8, hi - lo, lo)
    at = np.flatnonzero(w - np.uint8(48) > 9)  # every byte but a digit
    chars = w.take(at)
    cls = _CLASS.take(chars)
    if (cls == _BAD).any():
        return None
    cr = np.flatnonzero(chars == 13)
    if len(cr):  # a CR ends a line before LF, or ends the block
        after = at.take(cr) + 1
        if after[-1] == end - lo:
            after = after[:-1]
        if (w.take(after, mode="clip") != 10).any():
            return None
    # a line end before the first cell and after the last
    close = int(len(w) == 0 or w[-1] not in (10, 13))
    at = np.concatenate((np.full(1, -1), at, np.full(close, len(w))))
    cls = np.concatenate((np.full(1, _LINE, np.uint8), cls, np.full(close, _LINE, np.uint8)))
    exponents = np.count_nonzero(cls == _EXP)
    if exponents:
        cls[1:] += ((cls[1:] == _SIGN) & (cls[:-1] == _EXP)) * np.uint8(_ESIGN - _SIGN)
    digits = np.diff(at) > 1
    if not _PAIRS.take((cls[:-1] * np.uint8(6) + cls[1:]) * np.uint8(2) + digits).all():
        return None

    is_end = cls <= _COMMA
    ends = np.flatnonzero(is_end)
    end_at = at.take(ends)
    start, stop = end_at[:-1] + 1, end_at[1:]
    kinds = cls.take(ends[1:])
    inner = np.flatnonzero(~is_end)
    cell = inner - np.arange(1, len(inner) + 1)  # the cell each inner byte lies in
    # an empty cell between two line ends is a blank line, or CRLF's LF; the
    # other cells alternate a first ended by a comma and a second by a line end
    blank = stop == start
    if blank.any():
        cell -= np.cumsum(blank).take(cell)
        kept = np.flatnonzero(~blank)
        start, stop, kinds = start.take(kept), stop.take(kept), kinds.take(kept)
    if len(kinds) % 2 or (kinds.reshape(-1, 2) != (_COMMA, _LINE)).any():
        return None

    inner_cls, inner_at = cls.take(inner), at.take(inner)
    m = len(start)
    undecided = np.zeros(m, bool)
    # the window after 24 bytes of padding, and 8 after it
    text = np.zeros(len(w) + 32, np.uint8)
    text[24:-8] = w
    lead = w.take(start)  # a cell's sign comes first
    negative = lead == ord("-")
    first = start + (negative | (lead == ord("+")))
    mantissa_end, exponent = stop, 0
    if exponents:
        exp = np.flatnonzero(inner_cls == _EXP)
        exp_cell, exp_at = cell.take(exp), inner_at.take(exp)
        exp_stop = stop if len(exp) == m else stop.take(exp_cell)
        mantissa_end = _per_cell(exp_cell, exp_at, stop)
        # the exponent's digits, after its sign, end the cell
        sign = w.take(exp_at + 1)
        minus = sign == ord("-")
        length = exp_stop - exp_at - 1 - (minus | (sign == ord("+")))
        word = np.ndarray((len(w) + 25,), _U, text, strides=(1,))[exp_stop + 16]
        cut = (8 * np.maximum(8 - length, 0)).astype(_U)
        magnitude = _eight_digits(word & (_NIBBLES << cut)).view(np.int64)
        magnitude = np.where(minus, -magnitude, magnitude)
        exponent = _per_cell(exp_cell, magnitude, np.zeros(m, np.int64))
        undecided = _per_cell(exp_cell, length > 8, undecided)
    # the byte each mantissa drops: its dot, else the byte after its last digit
    pivot = mantissa_end
    is_dot = inner_cls == _DOT
    if is_dot.any():
        dots = slice(None) if is_dot.all() else np.flatnonzero(is_dot)
        dot = inner[dots]
        if not (at.take(dot + 1) - at.take(dot - 1) > 2).all():  # no digit beside a dot
            return None
        pivot = _per_cell(cell[dots], inner_at[dots], mantissa_end)
    row_end = np.maximum(mantissa_end, pivot + 1)
    fraction = row_end - 1 - pivot  # digits after the dot
    length = row_end - first
    undecided |= length > 24

    # the 24 bytes up to each row_end as three words, byte 0 lowest; the
    # bytes before the mantissa are masked off, and the bytes below the pivot
    # move up one over it
    row = np.ndarray((len(w) + 9, 3), _U, text, strides=(1, 8))[row_end]
    cut = (np.maximum(24 - length, 0) * 8).astype(_U)
    keep = (24 - fraction).astype(_U) * _U(8)  # the bits above the pivot stay
    words, carry = [], _U(0)
    for k in range(3):
        x = row[:, k] & (_NIBBLES << np.maximum(cut, _U(64 * k)) - _U(64 * k))
        moved = (x << _U(8)) | carry
        carry = x >> _U(56)
        above = ~_U(0) << np.maximum(keep, _U(64 * k)) - _U(64 * k)
        words.append(_eight_digits(moved ^ ((moved ^ x) & above)))
    high, middle, low = words
    value = high * _U(10**16) + middle * _U(10**8) + low
    undecided |= high >= _U(1000)

    q = exponent - fraction
    zero = (value == 0) | (q < _Q_MIN)
    undecided |= (q > _Q_MAX) & ~zero
    bits, hard = _to_double(np.where(zero, _U(1), value), np.clip(q, _Q_MIN, _Q_MAX))
    bits = np.where(zero, _U(0), bits) | (negative.astype(_U) << _U(63))
    undecided |= hard & ~zero
    values = bits.view(np.float64)
    for i in np.flatnonzero(undecided).tolist():
        values[i] = float(data[lo + start[i]:lo + stop[i]])
    return values.reshape(-1, 2)


def read_block(data: bytes, start: int, end: int) -> np.ndarray | None:
    """The rows of data[start:end], whole lines, as a (rows, 2) float64 array, or None to refuse.

    Each value has ``float()``'s bits; the block is refused where the
    per-line rules could read it otherwise.
    """
    out, rows = np.empty((0, 2)), 0
    lo = start
    while lo < end:
        hi = data.find(b"\n", lo + _WINDOW - 1, end) + 1 or end
        table = _window(data, lo, hi, end)
        if table is None:
            return None
        if rows + len(table) > len(out):
            # room for the rest at this window's rows a byte and a quarter
            # more, at least twice the room so far; rows never written take
            # no memory
            rest = int(1.25 * len(table) * (end - hi) / (hi - lo))
            grown = np.empty((max(rows + len(table) + rest, 2 * len(out)), 2))
            grown[:rows] = out[:rows]
            out = grown
        out[rows:rows + len(table)] = table
        rows += len(table)
        lo = hi
    return out[:rows]
