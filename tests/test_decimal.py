"""The table kernel ``_decimal.read_block`` against ``float()``, cell by cell.

Every cell it reads must have ``float()``'s bits, whether the kernel decides
it in numpy or hands it to ``float()``; it must hand over only the cells it
cannot decide; and it must refuse each block the per-line rules could read
otherwise. Its bits use integer ops and IEEE float64 conversion only, so
they must not depend on numpy's SIMD dispatch.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cotail._decimal as _decimal
from conftest import exact_midpoint

_DIGITS = "0123456789"


def read_block(block: bytes):
    return _decimal.read_block(block, 0, len(block))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _block(cells: list[str], end: str = "\n") -> bytes:
    if len(cells) % 2:
        cells = [*cells, "0"]
    return "".join(f"{a},{b}{end}" for a, b in zip(cells[::2], cells[1::2])).encode()


def _float_calls(monkeypatch) -> list[bytes]:
    """The cells the kernel hands to ``float()``, logged as it does so."""
    calls = []

    def spy(text):
        calls.append(bytes(text))
        return float(text)

    monkeypatch.setattr(_decimal, "float", spy, raising=False)
    return calls


digit_strings = st.tuples(
    st.sampled_from(["", "+", "-"]),
    st.text("0", max_size=6),  # leading zeros
    st.text(_DIGITS, min_size=1, max_size=25),
    st.one_of(st.none(), st.integers(0, 25)),  # where the dot goes
    st.one_of(
        st.just(""),
        st.tuples(
            st.sampled_from(["e", "E"]), st.sampled_from(["", "+", "-"]),
            st.integers(0, 400), st.integers(0, 3),
        ).map(lambda e: f"{e[0]}{e[1]}{'0' * e[3]}{e[2]}"),
    ),
).map(lambda t: t[0] + _dotted(t[1] + t[2], t[3]) + t[4])


def _dotted(digits: str, at) -> str:
    if at is None:
        return digits
    at = min(at, len(digits))
    return digits[:at] + "." + digits[at:]


cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),  # subnormals and -0.0 too
    st.floats(min_value=-2.3e-308, max_value=2.3e-308).map(repr),
    digit_strings,
    # w 10^q at the ends of the power table and past them, w of 1-19 digits
    st.tuples(st.integers(1, 10**19 - 1), st.sampled_from([-345, -343, -342, -341, -324, 288,
                                                           289, 307, 308, 309])).map(
        lambda t: f"{t[0]}e{t[1]}"),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(cells, min_size=1, max_size=40), st.sampled_from(["\n", "\r\n"]))
def test_every_cell_has_the_bits_float_gives(drawn, end):
    got = read_block(_block(drawn, end))
    want = [float(cell) for cell in drawn] + [0.0] * (len(drawn) % 2)
    assert got.tobytes() == _bits(want)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1.7e308, 1.7e308), max_size=20),
       st.lists(st.integers(2**53, 2**63), max_size=20))
def test_exact_midpoints_round_half_to_even(values, integers):
    # each exact tie between two doubles: the long ones float() converts, the
    # integers of up to 19 digits above 2^53 the kernel decides
    drawn = [exact_midpoint(x) for x in values]
    drawn += [str(int(Fraction(exact_midpoint(float(k))))) for k in integers]
    got = read_block(_block(drawn))
    assert got.tobytes() == _bits([float(c) for c in drawn] + [0.0] * (len(drawn) % 2))


def test_it_hands_float_only_the_cells_it_cannot_decide(monkeypatch):
    calls = _float_calls(monkeypatch)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(4000) * 10.0 ** rng.integers(-300, 300, 4000)
    decided = [repr(v) for v in values.tolist()]
    decided += ["0.00012345678901234567", "-0.0", "0e999", "1e-343", "9" * 19, "1e308",
                "000000000000000000001.5", "1"]
    assert read_block(_block(decided)).tobytes() == _bits([float(c) for c in decided])
    assert calls == []
    undecided = ["1" * 20, "0." + "0" * 23 + "1", "1e000000001", "4.9e-324", "1e309",
                 "2.2250738585072011e-308"]
    assert read_block(_block(undecided)).tobytes() == _bits([float(c) for c in undecided])
    assert calls == [cell.encode() for cell in undecided]


@pytest.mark.parametrize("block", [
    b"1,2\r3,4\n", b"1,2\r\r\n", b"1,2\n3\n", b"1,2,3\n", b"1,\n", b",2\n", b"1, 2\n",
    b"1,2\x1f\n", b"1,nan\n", b"1,1_0\n", b"1,\xd9\xa1\n", b"1,2\n\xff,3\n", b"1,2\t\n",
    b"1,.\n", b"1,-\n", b"1,e5\n", b"1,1e\n", b"1,1e+\n", b"1,+-1\n", b"1,1..2\n", b"1,1e5.5\n",
    b"1,1e5e5\n", b"1,1-1\n", b"1,1e+-3\n", b"1,-.e1\n", b"1,+\n",
])
def test_it_refuses_a_block_the_per_line_rules_may_read_otherwise(block):
    assert read_block(block) is None


@pytest.mark.parametrize("block, rows", [
    (b"1,2\n3,4", [[1, 2], [3, 4]]),  # no final line end
    (b"1,2\r\n\r\n3,4\r\n", [[1, 2], [3, 4]]),  # CRLF and a blank CRLF line
    (b"1,2\r\n3,4\r", [[1, 2], [3, 4]]),  # a CR that ends the block
    (b"\n\n1,2\n\n\n3,4\n\n", [[1, 2], [3, 4]]),
    (b"-1.,+.5\n1.5E+2,-0e-0\n", [[-1, 0.5], [150, -0.0]]),
    (b"\n\n", np.empty((0, 2))),
])
def test_it_reads_whole_lines_and_skips_blank_ones(block, rows):
    got = read_block(block)
    assert got.shape == np.shape(rows) and got.tobytes() == _bits(rows)


def test_windows_read_as_one_block(monkeypatch):
    rng = np.random.default_rng(3)
    values = rng.standard_normal((3000, 2)) * 10.0 ** rng.integers(-30, 30, (3000, 2))
    text = "".join(f"{a!r},{b!r}\n" + "\n" * (i % 7 == 0) for i, (a, b) in
                   enumerate(values.tolist())).encode()
    for window in (1, 64, 4096):  # a window ends at the first LF after this many bytes
        monkeypatch.setattr(_decimal, "_WINDOW", window)
        assert read_block(text).tobytes() == values.tobytes()
        # one bad row in the last window refuses the whole block
        assert read_block(text + b"1,x\n") is None
        # the block is bytes start..end-1 of its data, whatever lies around it
        data = b"x,y\n" + text + b"1,"
        assert _decimal.read_block(data, 4, 4 + len(text)).tobytes() == values.tobytes()


def test_the_power_table_holds_5_to_the_q_to_128_bits():
    hi, lo = _decimal._powers()
    assert len(hi) == len(lo) == 308 + 342 + 1
    for q in (-342, -341, -28, -27, -26, -1, 0, 1, 27, 28, 55, 307, 308):
        c = int(hi[q + 342]) << 64 | int(lo[q + 342])
        assert 2**127 <= c < 2**128, q
        # 5^q times the power of two that puts it in [2^127, 2^128)
        scaled = Fraction(5) ** q
        while scaled >= 2**128:
            scaled /= 2
        while scaled < 2**127:
            scaled *= 2
        # truncated for q >= 0; for q < 0 one above the truncated reciprocal,
        # which may be truncated once more
        floor = scaled.numerator // scaled.denominator
        assert c == floor if q >= 0 else floor <= c <= floor + 1, q
