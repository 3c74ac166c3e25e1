"""The byte-block reader of a named CSV file against the per-line reader.

Generated tables mix clean cells (float reprs, integers, exponents,
subnormals) with the cases either reader may meet: a header or none, a byte
order mark, blank lines, CRLF, U+001F, non-ASCII digits, ``1_0``, a missing
or extra column, an empty cell, strings of float punctuation and no final
newline. Whatever the CPU count and block floor, the reader must give the
per-line reader's float64 bits, or its exception type and text.
"""
import os

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import cotail.cli as cli
import cotail.simulate as simulate
from cotail import BivariateSample
from cotail.errors import CotailError

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
)

odd_cells = st.one_of(
    st.sampled_from([
        "", " 1", "1 ", "\t2", "1\x1f", "\xa02", "1_0", "١٢", "nan", "-inf",
        "1e", "+-1", ".", "-", "1.", ".5", "1e400", "2.4703282292062328e-324", "0x10",
    ]),
    st.text("0123456789.eE+-", max_size=12),  # bytes the blocks take, parsed or not
)


@st.composite
def tables(draw) -> bytes:
    rows = draw(st.lists(st.lists(clean_cells, min_size=2, max_size=2), min_size=1, max_size=30))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
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
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\x1f"])))
    end = draw(st.sampled_from(["\n", "\n", "\r\n", None]))  # None: each line draws its own
    text = "".join(line + (end or draw(st.sampled_from(["\n", "\r\n"]))) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final newline
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text.encode("utf-8")


def _outcome(read):
    """The float64 bits of each column, or the exception's type and text."""
    try:
        result = read()
    except (CotailError, ValueError) as exc:  # a UnicodeDecodeError is a ValueError
        return type(exc), str(exc)
    columns = (result.x, result.y) if isinstance(result, BivariateSample) else result
    return tuple(np.asarray(column, dtype=float).tobytes() for column in columns)


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("tables") / "table.csv"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@settings(max_examples=250, deadline=None, database=None)
@given(tables(), st.sampled_from([1, 2, 3]), st.integers(1, 64))
def test_byte_blocks_equal_the_line_reader(table_path, data, cpus, floor):
    table_path.write_bytes(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_usable_cpus", lambda: cpus)
        patch.setattr(cli, "_MIN_BYTES", floor)
        blocks = cli._parse_bytes(data)
        got = _outcome(lambda: cli.ingest_text(table_path.read_bytes()))
    # the reader before byte blocks: the file's text, parsed line by line
    text = table_path.read_text(encoding="utf-8")  # tables() encodes str, so valid UTF-8
    assert got == _outcome(lambda: cli.ingest_text(text))
    event("byte blocks" if blocks is not None else "line reader")
    if blocks is not None:  # the same bits, also where the sample rejects a value
        assert _outcome(lambda: blocks) == _outcome(lambda: cli._parse_table(text))
