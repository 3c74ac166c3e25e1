"""The CLI's table reader against an independent serial reference.

The reference below is the per-line reader the byte blocks replaced, kept
here whole and serial: the file decoded as one text with universal newlines,
one leading byte order mark dropped, U+001F mapped to a space,
``str.splitlines``, blank lines dropped, the first line a header unless
every cell passes ``float()``, then ``float()`` of each cell of two-column
rows numbered among non-blank lines.

Generated tables mix clean cells (float reprs, integers, exponents,
subnormals, and the table kernel's edges: fractions below 10^-3 whose zero
padding makes more than 19 digits, exact ties between adjacent doubles, w
10^q at the ends of its power table and past them) with the cases a reader
may meet: a header or none, a byte order mark at the start or inside,
leading and inner blank lines, every line end ``str.splitlines`` breaks at
(LF, CRLF, lone CR, vertical tab, form feed, U+001C-U+001E, NEL, U+2028,
U+2029), U+001F, non-ASCII digits, ``1_0``, a missing or extra column, an
empty cell, strings of float punctuation, invalid UTF-8 and no final
newline. A CR, which the kernel's blocks take, is drawn wherever a block
can hold one: ending a line, alone or before LF, in blank lines, inside a
row and last in the file. Whatever the CPU count and block floor, the
reader must give the reference's float64 bits, or its exception type and
text, for the file's bytes, passed in or read from stdin.
"""
import io
import os
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import cotail.cli as cli
import cotail.simulate as simulate
from cotail import BivariateSample
from cotail.errors import CotailError, ParseError
from conftest import exact_midpoint

_DIGITS = "0123456789"

exponent_forms = st.tuples(
    st.sampled_from(["", "+", "-"]),
    st.text(_DIGITS, min_size=1, max_size=20),
    st.sampled_from(["", "."]),
    st.text(_DIGITS, max_size=20),
    st.sampled_from(["e", "E"]),
    st.sampled_from(["", "+", "-"]),
    st.text(_DIGITS, min_size=1, max_size=3),
).map("".join)

clean_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308).map(repr),
    st.integers(-(10**25), 10**25).map(str),
    exponent_forms,
    # more than 19 digits with the zero padding of a fraction below 10^-3
    st.tuples(st.integers(3, 8), st.integers(1, 10**17 - 1)).map(
        lambda t: "0." + "0" * t[0] + str(t[1])),
    # exact ties between adjacent doubles: long ones, and integers above 2^53
    st.floats(-1.7e308, 1.7e308).map(exact_midpoint),
    st.integers(2**53, 2**63).map(lambda k: str(int(Fraction(exact_midpoint(float(k)))))),
    # w 10^q at the ends of the kernel's power table (q = -342 and 308) and past them
    st.tuples(st.integers(1, 10**19 - 1), st.sampled_from([-343, -342, 308, 309])).map(
        lambda t: f"{t[0]}e{t[1]}"),
)

odd_cells = st.one_of(
    st.sampled_from([
        "", " 1", "1 ", "\t2", "1\x1f", "\xa02", "1_0", "١٢", "nan", "-inf", "\ufeff1",
        "1e", "+-1", ".", "-", "1.", ".5", "1e400", "2.4703282292062328e-324", "0x10",
        "1\r", "\r2", "1\r\n", "\r\n2", "1\r\r\n",  # a CR or CRLF inside a row
    ]),
    st.text("0123456789.eE+-", max_size=12),  # bytes the kernel's blocks take, parsed or not
)

line_ends = st.sampled_from([
    "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
])

# invalid UTF-8: a stray continuation byte, bytes never valid, a truncated
# sequence, an encoded surrogate and an overlong form
bad_bytes = st.sampled_from([b"\x80", b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf"])


@st.composite
def tables(draw) -> bytes:
    rows = draw(st.lists(st.lists(clean_cells, min_size=2, max_size=2), min_size=1, max_size=30))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        row = rows[draw(st.one_of(st.just(0), st.integers(0, len(rows) - 1)))]
        defect = draw(st.sampled_from(["cell", "missing", "extra"]))
        if defect == "cell" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(odd_cells)
        elif defect == "missing" and row:
            row.pop()
        else:
            row.append(draw(clean_cells))
    lines = [",".join(row) for row in rows]
    header = draw(st.sampled_from([None, "x,y", "price_a,price_b", "1e,2", "", "α"]))
    if header is not None:
        lines.insert(0, header)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):  # blank and whitespace-only lines
        blank = draw(st.sampled_from(["", "  ", "\x1f", "\r", "\r\r"]))
        lines.insert(draw(st.integers(0, len(lines))), blank)
    lines[:0] = [""] * draw(st.sampled_from([0, 0, 0, 1, 3]))  # leading blank lines
    # one line end for the table, or None: each line draws its own
    end = draw(st.one_of(st.sampled_from(["\n", "\n", "\r\n", "\r\n", "\r"]), st.none()))
    text = "".join(line + (end or draw(line_ends)) for line in lines)
    last = draw(st.sampled_from(["keep", "none", "cr"]))
    if last != "keep":
        text = text.rstrip("\r\n") + ("\r" if last == "cr" else "")  # no final newline, or CR
    if draw(st.sampled_from([False, False, False, True])):  # a byte order mark inside
        at = draw(st.integers(1, max(len(text), 1)))
        text = text[:at] + "\ufeff" + text[at:]
    if draw(st.booleans()):
        text = "\ufeff" + text
    data = text.encode("utf-8")
    if draw(st.sampled_from([False, False, False, True])):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(bad_bytes) + data[at:]
    return data


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def reference_reader(data: bytes) -> BivariateSample:
    """The per-line rules on the file's whole text, in one process."""
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    text = text.removeprefix("\ufeff")
    lines = [line for line in text.replace("\x1f", " ").splitlines() if line.strip()]
    if not lines:
        raise ParseError("input contains no rows")
    start = 0 if all(_is_number(cell) for cell in lines[0].split(",")) else 1
    if start == len(lines):
        raise ParseError("input contains no data rows")
    first, second = [], []
    for row, line in enumerate(lines[start:], start=start + 1):
        cells = line.split(",")
        if len(cells) != 2:
            raise ParseError(f"row {row}: expected 2 columns, got {len(cells)}")
        if not (_is_number(cells[0]) and _is_number(cells[1])):
            raise ParseError(f"row {row}: non-numeric cell")
        first.append(float(cells[0]))
        second.append(float(cells[1]))
    return BivariateSample(np.array(first, dtype=float), np.array(second, dtype=float))


def outcome(read):
    """The float64 bits of each column, or the exception's type and text."""
    try:
        sample = read()
    except (CotailError, ValueError) as exc:  # a UnicodeDecodeError is a ValueError
        return type(exc), str(exc)
    return sample.x.tobytes(), sample.y.tobytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@settings(max_examples=250, deadline=None, database=None)
@given(tables(), st.sampled_from([1, 2, 3]), st.integers(1, 64))
def test_byte_blocks_equal_the_line_reader(data, cpus, floor):
    want = outcome(lambda: reference_reader(data))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_usable_cpus", lambda: cpus)
        patch.setattr(cli, "_MIN_BYTES", floor)
        assert outcome(lambda: cli.ingest_text(data)) == want
        # stdin: the same bytes, read past its decoder
        patch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert outcome(lambda: cli.ingest_text(cli._read_text("-"))) == want
    event(want[0].__name__ if isinstance(want[0], type) else "rows")
