"""Property tests: ``core.level_sums`` gives ``math.fsum``'s bits on every prefix.

Each row is compared prefix by prefix with ``math.fsum`` (NaN where fsum
raises) by ``repr``, so -0.0 and 0.0 differ and any NaN equals any NaN.
Rows mix ties, zeros of both signs, subnormals, negatives and magnitudes
across the whole double range, in widths from 1 to 3000; some sit at the
overflow guard 2^(1023 - m.bit_length()) (m the largest count) from either
side, some hold inf or NaN. Columns beyond the largest count hold junk that
no sum may read, and fixed rows put each piece's running sums at their
bound. The exactness rests on ``+``, ``-``, ``np.cumsum`` and ``np.ldexp``
rounding as IEEE 754 says on every SIMD dispatch, so CI runs this file on
numpy's AVX2 loops as well.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotail import BivariateSample, LevelSweep, NonFiniteEstimate, cte_aleph3
from cotail.core import level_sums
from cotail.estimators import LevelReader, _prefix_sums

TINY = 5e-324
EDGES = [0.0, -0.0, TINY, -TINY, 3 * TINY, 2.2250738585072014e-308, -2.225073858507201e-308,
         0.1, -0.1, 1.0, -1.0, 1.5, 1e-300, 1e300, -1e300, 1.7976931348623157e308]
JUNK = [math.nan, math.inf, -math.inf, 1.7976931348623157e308]


def _fsum(values: list) -> float:
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
        return math.nan


def _check(w: np.ndarray, counts: np.ndarray) -> None:
    got = level_sums(w, counts)
    assert got.shape == counts.shape
    for r, row in enumerate(w.tolist()):
        want = [_fsum(row[:c]) for c in counts[r].tolist()]
        assert list(map(repr, got[r].tolist())) == list(map(repr, want)), r


def _every_prefix(w: np.ndarray, reach: int, order: np.random.Generator) -> np.ndarray:
    """Counts 0..reach for each row, each row in its own order; junk beyond ``reach``."""
    w[:, reach:] = order.choice(JUNK, size=(w.shape[0], w.shape[1] - reach))
    return order.permuted(np.tile(np.arange(reach + 1), (w.shape[0], 1)), axis=1)


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_level_sums_equal_fsum_on_drawn_rows(data):
    rows = data.draw(st.integers(1, 4))
    width = data.draw(st.integers(1, 24))
    values = st.one_of(st.sampled_from(EDGES), st.floats(width=64))
    w = np.array(data.draw(st.lists(
        st.lists(values, min_size=width, max_size=width), min_size=rows, max_size=rows)))
    reach = data.draw(st.integers(0, width))
    _check(w, _every_prefix(w, reach, np.random.default_rng(data.draw(st.integers(0, 2**32)))))


def _row(gen: np.random.Generator, kind: str, width: int, guard: float) -> np.ndarray:
    signs = gen.choice([-1.0, 1.0], width)
    if kind == "wide":  # full mantissas over a drawn span of binary exponents
        hi = int(gen.integers(-1074, math.frexp(guard)[1] - 1))
        lo = max(-1074, hi - int(gen.integers(0, 300)))
        return signs * np.ldexp(gen.random(width) + 0.5, gen.integers(lo, hi + 1, width))
    if kind == "ties":  # a few values, zeros of both signs and subnormals among them
        return gen.choice(EDGES[:-1], 3)[gen.integers(0, 3, width)]
    if kind == "positive":  # weights in (0, 1], as the estimators sum
        return gen.random(width) ** gen.uniform(0.5, 12.0)
    if kind == "full":  # one weight throughout, so the running sums grow the most
        return np.full(width, 1.0 - 2.0 ** -float(gen.integers(1, 54))) * signs[0]
    row = guard / 8 * gen.standard_normal(width)  # "guard": one weight at the guard, or below
    row[gen.integers(0, width)] = guard if kind == "at_guard" else np.nextafter(guard, 0.0)
    if kind == "special":
        row[gen.integers(0, width)] = gen.choice([math.inf, -math.inf, math.nan])
    return row * gen.choice([-1.0, 1.0])


KINDS = ["wide", "ties", "positive", "full", "at_guard", "below_guard", "special"]


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 2**64 - 1), st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
       st.one_of(st.integers(1, 70), st.integers(1, 3000), st.sampled_from([511, 1023, 2047])))
def test_level_sums_equal_fsum_on_wide_rows(seed, kinds, width):
    gen = np.random.default_rng(seed)
    reach = width if gen.random() < 0.7 else int(gen.integers(0, width + 1))
    guard = math.ldexp(1.0, 1023 - reach.bit_length())
    w = np.array([_row(gen, kind, width, guard) for kind in kinds])
    _check(w, _every_prefix(w, reach, gen))


@pytest.mark.parametrize("width", [3, 7, 511, 1023, 2047])
def test_pieces_at_their_bounds(width):
    # with m = 2^bits - 1 weights, a piece of 53 - bits bits brings a running
    # sum near 2^53 units of its grid. Each weight of row 0 is one first piece
    # half a unit short of 1; each of row 1 (after a 1.0 that sets the scale)
    # rounds up in the first piece, whose unit above 1/2 is 2u, and leaves a
    # second piece just short of -u. Rows 2 and 3 are their negatives. One
    # more bit in either piece would round an odd prefix sum
    bits = width.bit_length()
    u = 2.0 ** (bits - 52)
    w = np.array([[1.0 - 2.0 ** (bits - 54)] * width,
                  [1.0] + [u * (1.0 + 2.0 ** (bits - 54))] * (width - 1)])
    w = np.vstack([w, -w])
    _check(w, np.tile(np.arange(width + 1), (4, 1)))


def test_a_second_piece_at_its_bound_under_a_cancelled_first():
    # row 1 of the test above at m = 31, with its first pieces (1 and 20 of
    # 2u) cancelled by the last weight: the sum is the second pieces' alone
    bits = 5
    u = 2.0 ** (bits - 52)
    row = [1.0] + [u * (1.0 + 2.0 ** (bits - 54))] * 20 + [-(1.0 + 40 * u)] + [0.0] * 9
    w = np.array([row, [-x for x in row]])
    _check(w, np.tile(np.arange(32), (2, 1)))


def test_zero_sums_are_positive_zero():
    # fsum keeps no zero partial, so a sum of -0.0s is 0.0, as is no count at all
    w = np.array([[-0.0, -0.0, 1.0, -1.0], [-0.0, -TINY, TINY, 2.0]])
    counts = np.array([[0, 1, 2, 4], [1, 0, 3, 3]])
    _check(w, counts)
    assert list(map(repr, level_sums(w, counts)[:, :3].ravel().tolist())) == ["0.0"] * 6


def test_an_intermediate_overflow_is_nan():
    # fsum overflows on the way to 1e308 in one order, and not in the other
    _check(np.array([[1e308, 1e308, -1e308], [1e308, -1e308, 1e308]]),
           np.array([[0, 1, 2, 3]] * 2))


@pytest.mark.parametrize("name", ["cte_aleph3", "edm"])
def test_a_sum_that_fsum_cannot_form_fails_the_estimate(name):
    # the mixed-sign row above, bound as a reader binds its weights: the
    # kernel's NaN is the reader's NonFiniteEstimate, as fsum's OverflowError was
    sweep = LevelSweep(BivariateSample([1.0, 2.0, 3.0, 4.0], [1.0] * 4), (3,))
    reader = LevelReader(name, _prefix_sums(sweep, np.array([[1e308, 1e308, -1e308]])))
    [value] = reader.values(3)
    assert isinstance(value, NonFiniteEstimate)
    with pytest.raises(NonFiniteEstimate, match=f"^{name} at k = 3 is beyond the double range$"):
        reader.estimate(3)


def test_exceedance_weights_whose_sum_overflows_stay_non_finite():
    # y / X_(n-k) = y / 1 is finite for each exceedance, fsum of them is not
    sample = BivariateSample([1.0, 2.0, 3.0, 4.0], [1.0, 1e308, 1e308, 1e308])
    with pytest.raises(NonFiniteEstimate):
        cte_aleph3(sample, 3)
