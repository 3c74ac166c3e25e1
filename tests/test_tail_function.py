import math
import warnings

import numpy as np
import pytest

import reference
from cotail import (
    BivariateSample,
    LinearParetoModel,
    ModelConfig,
    NonPositiveThreshold,
    TailFunctionSpec,
    builtin_specs,
    capped_ratio_power,
    coordinate_ratio,
    joint_exceedance,
    margin_exceedance,
    sample_dataset,
    second_coordinate,
    tef_fixed,
    tef_random,
)
from cotail import rng as crng


def test_fixed_level_self_normalizing():
    # 4 of 16 values exceed u = 2, so with fbar_u = 4/16 the count normalizes to 1
    x = np.asarray([0.5] * 12 + [3.0, 4.0, 5.0, 6.0])
    sample = BivariateSample(x, np.zeros_like(x))
    out = tef_fixed(sample, margin_exceedance(), u=2.0, s=1.0, fbar_u=4.0 / 16.0)
    assert out == 1.0


def test_fixed_level_single_pair():
    sample = BivariateSample([2.0], [3.0])
    out = tef_fixed(sample, second_coordinate(), u=1.0, s=1.0, fbar_u=1.0)
    assert out == 3.0


def test_fixed_level_joint_exceedance_limit():
    # linear model at the 99% x-quantile: the joint exceedance rate over the
    # marginal rate approaches phi^alpha = 0.4096
    config = ModelConfig(LinearParetoModel(0.8, 0.1, 4.0), n=100_000, seed=3)
    sample = sample_dataset(config)
    u = 100.0 ** 0.25
    value = tef_fixed(sample, joint_exceedance(1.0), u=u, s=1.0, fbar_u=0.01)
    se = math.sqrt(value / (sample.n * 0.01))
    assert abs(value - 0.4096) < 3.0 * se


def test_random_level_counter_is_one():
    gen = crng.generator(21)
    x = crng.pareto([gen], 2.0, 60)[0]
    sample = BivariateSample(x, np.zeros_like(x))
    for k in (1, 10, 30, 59):
        assert tef_random(sample, margin_exceedance(), k) == 1.0


def test_random_level_constant_ratio():
    gen = crng.generator(22)
    x = crng.pareto([gen], 3.0, 50)[0]
    sample = BivariateSample(x, 0.5 * x)
    for k in (1, 5, 25, 49):
        assert tef_random(sample, coordinate_ratio(), k) == 0.5


def test_random_level_matches_bruteforce():
    xs = [1.0, 4.0, 2.0, 8.0, 3.0, 0.5, 6.0, 5.0]
    ys = [2.0, 1.0, 0.0, 3.0, 5.0, 4.0, 0.5, 2.5]
    sample = BivariateSample(xs, ys)
    got = tef_random(sample, second_coordinate(), k=3, s=1.0)
    want = reference.tef_random(
        xs, ys, psi=lambda u, v: v, region=lambda u, v: u > 1.0, k=3
    )
    assert got == want


def test_a_region_scaled_past_the_double_range_takes_its_limit():
    # s X_(n-k) is subnormal, so x / (s X_(n-k)) overflows to inf, its exact
    # limit: every pair is inside the region, and nothing may warn
    gen = crng.generator(34)
    xs, ys = crng.pareto([gen], 2.0, 30)[0].tolist(), crng.pareto([gen], 2.0, 30)[0].tolist()
    sample = BivariateSample(xs, ys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (5e-324, 1e-320):
            got = tef_random(sample, second_coordinate(), 10, s=s)
            want = reference.tef_random(
                xs, ys, psi=lambda u, v: v, region=lambda u, v: u > 1.0, k=10, s=s
            )
            assert got == want
        fixed = tef_fixed(sample, second_coordinate(), u=1.0, s=5e-324, fbar_u=0.5)
    assert fixed == math.fsum(ys) / (30 * 0.5)


def test_a_scale_that_underflows_divides_by_each_factor_in_turn():
    # s X_(n-k) = 1e-200 * 2e-200 and s u = 1e-200 * 1e-200 underflow to 0:
    # x / level / s keeps every pair inside the region, and nothing may warn
    sample = BivariateSample([1e-200, 2e-200, 4e-200, 8e-200], [1e-200] * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tef_random(sample, second_coordinate(), 2, s=1e-200) == 1.0  # 4 * (1/2) / 2
        fixed = tef_fixed(sample, margin_exceedance(), u=1e-200, s=1e-200, fbar_u=0.5)
    assert fixed == 2.0  # 4 / (4 * 0.5)


def test_weights_whose_arguments_overflow_follow_by_homogeneity():
    # x / u and y / u overflow at u = 5e-324, so psi is read at the raw pairs:
    # psi(x / u, y / u) = psi(x, y) / u^gamma, with gamma 0 for y / x
    t = BivariateSample([1.0, 2.0, 4.0, 8.0], [0.5, 3.0, 1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fixed = tef_fixed(t, coordinate_ratio(), u=5e-324, s=1.0, fbar_u=0.5)
        random = tef_random(t, coordinate_ratio(), 2, u=5e-324)
    assert fixed == 1.25  # (0.5 + 1.5 + 0.25 + 0.25) / (4 * 0.5)
    assert random == 0.25  # the pairs above X_(n-2) = 2: (0.25 + 0.25) / 2


def test_random_level_deterministic_psi_scale():
    xs = [1.0, 2.0, 4.0, 8.0]
    ys = [1.0, 1.0, 1.0, 1.0]
    sample = BivariateSample(xs, ys)
    # threshold for k=2 is 2; with u = 1 the psi arguments are the raw pairs
    got = tef_random(sample, second_coordinate(), k=2, s=1.0, u=1.0)
    assert got == 1.0  # (1 + 1) / 2
    # without u they are scaled by the threshold
    assert tef_random(sample, second_coordinate(), k=2) == 0.5  # (1/2 + 1/2) / 2


def test_nonpositive_threshold_raises():
    sample = BivariateSample([0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(NonPositiveThreshold):
        tef_random(sample, margin_exceedance(), k=3)


def test_monotone_in_s():
    gen = crng.generator(30)
    x = crng.pareto([gen], 2.0, 200)[0]
    y = crng.pareto([gen], 2.0, 200)[0]
    sample = BivariateSample(x, y)
    for spec in (margin_exceedance(), joint_exceedance(1.0), second_coordinate()):
        values = [tef_random(sample, spec, k=50, s=s) for s in (0.5, 1.0, 1.5, 2.0, 4.0)]
        assert np.all(np.diff(values) <= 0.0)


def test_additivity_of_weights():
    gen = crng.generator(31)
    x = crng.pareto([gen], 3.0, 100)[0]
    y = crng.pareto([gen], 3.0, 100)[0]
    sample = BivariateSample(x, y)
    summed_spec = TailFunctionSpec(
        psi=lambda u, v: np.ones_like(u) + v / u,
        gamma=0.0,
        region=lambda u, v: u > 1.0,
        name="one_plus_ratio",
    )
    total = tef_random(sample, summed_spec, k=25)
    parts = tef_random(sample, margin_exceedance(), k=25) + tef_random(
        sample, coordinate_ratio(), k=25
    )
    assert total == pytest.approx(parts, rel=1e-12)


def test_scale_invariance_of_random_level_form():
    gen = crng.generator(32)
    x = crng.pareto([gen], 2.5, 80)[0]
    y = x * (0.3 + 0.5 * crng.open_uniform([gen], 80)[0])
    for spec in (margin_exceedance(), coordinate_ratio(), capped_ratio_power(2.0)):
        base = tef_random(BivariateSample(x, y), spec, k=20)
        for c in (0.125, 8.0):
            scaled = tef_random(BivariateSample(c * x, c * y), spec, k=20)
            assert scaled == base


def test_homogeneity_scaling_of_level():
    # ratios of fixed-level values follow s^(gamma - alpha) on Pareto margins
    gen = crng.generator(33)
    x = crng.pareto([gen], 4.0, 200_000)[0]
    sample = BivariateSample(x, np.zeros_like(x))
    u = 50.0 ** 0.25  # the 98% quantile
    base = tef_fixed(sample, margin_exceedance(), u=u, s=1.0, fbar_u=0.02)
    for s in (1.25, 1.5, 2.0):
        ratio = tef_fixed(sample, margin_exceedance(), u=u, s=s, fbar_u=0.02) / base
        assert ratio == pytest.approx(s ** -4.0, rel=0.2)


def test_builtin_specs_report_names():
    names = [spec.name for spec in builtin_specs()]
    assert len(names) == len(set(names))
    assert all(names)
