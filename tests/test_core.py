import gc
import pickle
import weakref

import numpy as np
import pytest

from cotail import BivariateSample, NegativeValue, SampleRows, exceedance_indices, order_view
from cotail.core import fraction_to_count


def make(x, y=None):
    x = np.asarray(x, dtype=float)
    if y is None:
        y = np.zeros_like(x)
    return BivariateSample(x, y)


def test_threshold_small():
    view = order_view(make([3.0, 1.0, 2.0]))
    assert view.threshold(1) == 2.0


def test_threshold_all_ties():
    view = order_view(make([5.0, 5.0, 5.0]))
    assert view.threshold(1) == 5.0


def test_threshold_matches_full_sort():
    rng = np.random.default_rng(101)
    x = rng.random(20)
    assert len(set(x.tolist())) == 20
    view = order_view(make(x))
    # independent full sort: the 6th largest is the k=5 threshold
    expected = sorted(x.tolist(), reverse=True)[5]
    assert view.threshold(5) == expected


def test_order_statistic_bounds():
    view = order_view(make([1.0, 2.0]))
    assert view.order_statistic(1) == 1.0
    assert view.order_statistic(2) == 2.0
    with pytest.raises(ValueError):
        view.order_statistic(0)
    with pytest.raises(ValueError):
        view.order_statistic(3)
    with pytest.raises(ValueError):
        view.threshold(2)


def test_exceedance_indices_basic():
    view = order_view(make([1.0, 2.0, 3.0, 4.0]))
    idx = exceedance_indices(view, 2)
    assert sorted(view.sample.x[idx].tolist()) == [3.0, 4.0]


def test_exceedance_indices_all_equal_is_empty():
    view = order_view(make([1.0, 1.0, 1.0, 1.0]))
    assert exceedance_indices(view, 2).size == 0


def test_exceedance_count_tie_free():
    rng = np.random.default_rng(7)
    x = rng.random(50)
    view = order_view(make(x))
    idx = exceedance_indices(view, 10)
    assert idx.size == 10
    eleventh_largest = sorted(x.tolist(), reverse=True)[10]
    assert np.all(x[idx] > eleventh_largest)


def test_permutation_invariance():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(3, 25))
        x = rng.random(n) * 10
        y = rng.random(n)
        k = int(rng.integers(1, n))
        perm = rng.permutation(n)
        v1, v2 = order_view(BivariateSample(x, y)), order_view(
            BivariateSample(x[perm], y[perm])
        )
        assert v1.threshold(k) == v2.threshold(k)
        pairs1 = {(a, b) for a, b in zip(x, y)}
        idx2 = exceedance_indices(v2, k)
        assert all(
            (x[perm][j], y[perm][j]) in pairs1 for j in idx2
        )
        assert exceedance_indices(v1, k).size == idx2.size


def test_scale_equivariance():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(3, 25))
        x = rng.random(n) * 5
        k = int(rng.integers(1, n))
        c = 2.0 ** int(rng.integers(-6, 7))
        v1, v2 = order_view(make(x)), order_view(make(c * x))
        assert v2.threshold(k) == c * v1.threshold(k)
        assert np.array_equal(
            exceedance_indices(v1, k), exceedance_indices(v2, k)
        )


def test_negative_rejected():
    with pytest.raises(NegativeValue):
        BivariateSample([1.0, -0.5], [0.0, 0.0])
    with pytest.raises(NegativeValue):
        BivariateSample([1.0, 2.0], [-1.0, 0.0])


def test_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        BivariateSample([], [])
    with pytest.raises(ValueError):
        BivariateSample([1.0, float("nan")], [0.0, 0.0])
    with pytest.raises(ValueError):
        BivariateSample([1.0], [1.0, 2.0])


def test_sample_immutable():
    s = make([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        s.x[0] = 9.0


def test_from_pairs_roundtrip():
    s = BivariateSample.from_pairs([(1.0, 2.0), (3.0, 0.5)])
    assert s.pairs() == [(1.0, 2.0), (3.0, 0.5)]
    assert s.n == 2


def test_stable_sort_on_ties():
    # tied x keep input order in the permutation
    s = BivariateSample([2.0, 1.0, 2.0, 2.0], [10.0, 20.0, 30.0, 40.0])
    view = order_view(s)
    assert view.order.tolist() == [1, 0, 2, 3]


def test_order_views_of_one_sample_agree():
    s = make([2.0, 1.0, 3.0])
    view, again = order_view(s), order_view(s)
    assert np.array_equal(again.order, view.order)
    assert np.array_equal(again.x_sorted, view.x_sorted)
    assert again.sample is s


def test_dropped_sample_is_freed_without_the_cyclic_collector():
    s = make([2.0, 1.0, 3.0])
    order_view(s).threshold(1)
    ref = weakref.ref(s)
    gc.disable()
    try:
        del s
        assert ref() is None
    finally:
        gc.enable()


def test_unpickled_sample_stays_read_only():
    s = make([3.0, 1.0, 2.0])
    order_view(s)
    t = pickle.loads(pickle.dumps(s))
    with pytest.raises(ValueError):
        t.x[0] = 0.0
    assert order_view(t).threshold(1) == 2.0


def test_fraction_to_count_clamps_and_needs_two_observations():
    assert fraction_to_count(0.1, 1000) == 100
    assert fraction_to_count(0.001, 100) == 1
    assert fraction_to_count(0.999, 100) == 99
    assert fraction_to_count(0.5, 2) == 1
    for n in (1, 0):
        with pytest.raises(ValueError, match=f"n = {n}"):
            fraction_to_count(0.5, n)


def test_sample_rows_reads_nested_lists_as_float_arrays():
    rows = SampleRows([[1.0, 2.0], [3.0, 4.0]], [[5, 6], [7, 8]])
    assert rows.x.dtype == rows.y.dtype == np.float64
    assert rows.y.tolist() == [[5.0, 6.0], [7.0, 8.0]]
    buffer = np.ones((2, 3))
    assert SampleRows(buffer, buffer).x is buffer  # a float array is taken as it is
    with pytest.raises(ValueError, match="equal nonempty"):
        SampleRows([1.0, 2.0], [3.0, 4.0])
