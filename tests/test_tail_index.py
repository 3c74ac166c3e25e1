import math

import numpy as np
import pytest

import reference
from cotail import (
    BivariateSample,
    NonFiniteEstimate,
    ZeroSpread,
    hill_estimate,
    order_view,
    tdc_quasispectral_estimated,
)
from cotail import rng as crng


def view_of(x):
    x = np.asarray(x, dtype=float)
    return order_view(BivariateSample(x, np.zeros_like(x)))


def test_hand_evaluated_powers_of_two():
    est = hill_estimate(view_of([1.0, 2.0, 4.0, 8.0]), 3)
    # mean log-ratio is (log 8 + log 4 + log 2) / 3 = 2 log 2
    assert est.alpha_hat == pytest.approx(1.0 / (2.0 * math.log(2.0)), rel=1e-12)
    assert est.k_alpha == 3


def test_a_ratio_beyond_the_double_range_fails_the_row():
    # X_(n) / X_(n-k_alpha) = 1e300 / 1e-300 overflows, so alpha_hat would be 0
    x = [1e-300, 1e-300, 1e10, 1e20, 1e300]
    with pytest.raises(NonFiniteEstimate):
        hill_estimate(view_of(x), 3)
    with pytest.raises(NonFiniteEstimate):
        tdc_quasispectral_estimated(BivariateSample(x, [1.0] * 5), 2, 3)


def test_all_equal_raises_zero_spread():
    with pytest.raises(ZeroSpread):
        hill_estimate(view_of([5.0, 5.0, 5.0, 5.0]), 2)


def test_matches_reference_exactly():
    gen = crng.generator(5)
    x = crng.pareto([gen], 3.0, 40)[0].tolist()
    for k_alpha in (1, 5, 20, 39):
        est = hill_estimate(view_of(x), k_alpha)
        assert est.alpha_hat == reference.hill_alpha(x, k_alpha)


def test_single_sample_consistency():
    gen = crng.generator(42)
    x = crng.pareto([gen], 4.0, 10_000)[0]
    est = hill_estimate(view_of(x), 500)
    assert abs(est.alpha_hat - 4.0) / 4.0 < 0.10


def test_scale_invariance():
    gen = crng.generator(9)
    x = crng.pareto([gen], 2.0, 200)[0]
    base = hill_estimate(view_of(x), 50).alpha_hat
    for c in (0.25, 2.0, 1024.0):
        scaled = hill_estimate(view_of(c * x), 50).alpha_hat
        assert scaled == pytest.approx(base, rel=1e-12)


def test_monotone_response_to_larger_maximum():
    x = [1.0, 1.5, 2.0, 3.0, 4.0, 6.0]
    before = hill_estimate(view_of(x), 3).alpha_hat
    x[-1] = 60.0
    after = hill_estimate(view_of(x), 3).alpha_hat
    assert after < before


def test_k_alpha_bounds():
    v = view_of([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        hill_estimate(v, 0)
    with pytest.raises(ValueError):
        hill_estimate(v, 3)
