import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import stdtr

import cotail.simulate as simulate
from cotail import (
    BivariateTModel,
    LinearParetoModel,
    ModelConfig,
    ZeroSpread,
    run_mc,
    sample_dataset,
    edm_estimate,
    tdc_empirical,
)
from cotail import rng as crng


def test_model_validation():
    with pytest.raises(ValueError):
        LinearParetoModel(phi=1.0, sigma=0.1, alpha=4.0)
    with pytest.raises(ValueError):
        LinearParetoModel(phi=0.5, sigma=-0.1, alpha=4.0)
    with pytest.raises(ValueError):
        BivariateTModel(nu=0.0, rho=0.5)
    with pytest.raises(ValueError):
        BivariateTModel(nu=4.0, rho=1.0)
    with pytest.raises(ValueError):
        ModelConfig(LinearParetoModel(0.5, 0.1, 4.0), n=0, seed=1)


def test_degenerate_sigma_gives_exact_slope():
    config = ModelConfig(LinearParetoModel(0.5, 0.0, 4.0), n=2000, seed=5)
    sample = sample_dataset(config)
    assert np.all(sample.y / sample.x == 0.5)


def test_pareto_survival_probability():
    config = ModelConfig(LinearParetoModel(0.8, 0.1, 4.0), n=1_000_000, seed=6)
    sample = sample_dataset(config)
    p_hat = float(np.mean(sample.x > 2.0))
    p_true = 2.0 ** -4.0
    se = math.sqrt(p_true * (1 - p_true) / sample.n)
    assert abs(p_hat - p_true) < 3.0 * se


def test_same_seed_identical_samples():
    config = ModelConfig(BivariateTModel(4.0, 0.9), n=5000, seed=77)
    a, b = sample_dataset(config), sample_dataset(config)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    config2 = ModelConfig(BivariateTModel(4.0, 0.9), n=5000, seed=78)
    c = sample_dataset(config2)
    assert not np.array_equal(a.x, c.x)


def test_bivariate_t_margin_matches_folded_t():
    # each margin is |t_nu|; survival checked against numerical integration
    # of the t density at two reference points
    nu = 4.0
    config = ModelConfig(BivariateTModel(nu, 0.9), n=1_000_000, seed=8)
    sample = sample_dataset(config)
    c = math.gamma((nu + 1) / 2) / (math.sqrt(nu * math.pi) * math.gamma(nu / 2))

    def density(t):
        return c * (1.0 + t * t / nu) ** (-(nu + 1) / 2)

    for point in (1.0, 2.0):
        tail, _ = integrate.quad(density, point, np.inf)
        p_true = 2.0 * tail
        for margin in (sample.x, sample.y):
            p_hat = float(np.mean(margin > point))
            se = math.sqrt(p_true * (1 - p_true) / sample.n)
            assert abs(p_hat - p_true) < 4.0 * se


def test_correlated_normal_pair_machinery():
    gen = crng.generator(9)
    n = 200_000
    for rho in (0.0, 0.9, -0.5):
        z1 = crng.standard_normal(gen, n)
        z2 = rho * z1 + math.sqrt(1 - rho * rho) * crng.standard_normal(gen, n)
        got = float(np.corrcoef(z1, z2)[0, 1])
        assert abs(got - rho) < 0.01


def test_gamma_sampler_moments():
    gen = crng.generator(10)
    for shape in (0.5, 1.0, 2.0, 4.5):
        draws = crng.standard_gamma(gen, shape, 200_000)
        assert np.all(draws > 0)
        assert float(np.mean(draws)) == pytest.approx(shape, rel=0.02)
        assert float(np.var(draws)) == pytest.approx(shape, rel=0.05)


def test_chi_square_matches_gamma_scaling():
    gen = crng.generator(11)
    draws = crng.chi_square(gen, 4.0, 100_000)
    assert float(np.mean(draws)) == pytest.approx(4.0, rel=0.02)


def test_pareto_ks_distance_across_seeds():
    # 1% critical value of the one-sample KS statistic, asymptotic form
    n = 100_000
    crit = 1.6276 / math.sqrt(n)
    below = 0
    for seed in range(20):
        draws = np.sort(crng.pareto(crng.generator(seed), 4.0, n))
        cdf = 1.0 - draws ** -4.0
        grid = np.arange(1, n + 1) / n
        d = float(np.max(np.maximum(np.abs(grid - cdf), np.abs(grid - 1 / n - cdf))))
        below += d < crit
    assert below >= 19


def test_seed_mixing_distinct_streams():
    seeds = {crng.mix_seed(123, r) for r in range(1000)}
    assert len(seeds) == 1000
    a = sample_dataset(ModelConfig(LinearParetoModel(0.8, 0.1, 4.0), 100, crng.mix_seed(123, 0)))
    b = sample_dataset(ModelConfig(LinearParetoModel(0.8, 0.1, 4.0), 100, crng.mix_seed(123, 1)))
    assert not np.array_equal(a.x, b.x)


def test_run_mc_single_rep_equals_direct_estimate():
    config = ModelConfig(LinearParetoModel(0.8, 0.1, 4.0), n=500, seed=303)
    summary = run_mc(
        config, reps=1, k_fractions=[0.1], estimators=("tdc_empirical", "edm")
    )
    cell = summary.cells[("tdc_empirical", 0.1, None)]
    sample = sample_dataset(ModelConfig(config.model, 500, crng.mix_seed(303, 0)))
    assert cell.mean == tdc_empirical(sample, 50).value
    assert summary.cells[("edm", 0.1, None)].mean == edm_estimate(sample, 50, "l2").value
    assert cell.sd == 0.0
    assert cell.rep_count == 1
    assert summary.truth == pytest.approx(0.8 ** 4)


def test_run_mc_deterministic():
    config = ModelConfig(BivariateTModel(4.0, 0.9), n=200, seed=55)
    kwargs = dict(
        reps=20,
        k_fractions=[0.1, 0.3],
        k_alpha_fractions=[0.2],
        estimators=("tdc_empirical", "tdc_quasispectral_estimated"),
    )
    one, two = run_mc(config, **kwargs), run_mc(config, **kwargs)
    assert one == two


def test_run_mc_quantiles_ordered():
    config = ModelConfig(LinearParetoModel(0.8, 0.1, 4.0), n=400, seed=404)
    summary = run_mc(config, reps=50, k_fractions=[0.1], estimators=("tdc_quasispectral",))
    cell = summary.cells[("tdc_quasispectral", 0.1, None)]
    qs = [cell.q05, cell.q25, cell.q50, cell.q75, cell.q95]
    assert qs == sorted(qs)
    assert cell.sd >= 0.0


def test_run_mc_tallies_failures(monkeypatch):
    real = simulate.estimate
    calls = {"count": 0}

    def flaky(name, sample, k, **params):
        calls["count"] += 1
        if calls["count"] % 3 == 0:
            raise ZeroSpread("forced failure")
        return real(name, sample, k, **params)

    monkeypatch.setattr(simulate, "estimate", flaky)
    config = ModelConfig(LinearParetoModel(0.8, 0.1, 4.0), n=100, seed=1)
    summary = run_mc(config, reps=6, k_fractions=[0.2], estimators=("tdc_empirical",))
    cell = summary.cells[("tdc_empirical", 0.2, None)]
    assert cell.failures == 2
    assert cell.rep_count == 6
    assert not math.isnan(cell.mean)


def test_run_mc_cell_with_every_replication_failed():
    # cte_aleph4 receives the model's alpha 0.8 and raises AlphaNotAboveOne
    config = ModelConfig(LinearParetoModel(0.8, 0.1, 0.8), n=200, seed=0)
    summary = run_mc(
        config, reps=3, k_fractions=[0.1], estimators=("cte_aleph4", "tdc_empirical")
    )
    failed = summary.cells[("cte_aleph4", 0.1, None)]
    assert failed.failures == failed.rep_count == 3
    stats = (failed.mean, failed.sd, failed.q05, failed.q25, failed.q50, failed.q75, failed.q95)
    assert stats == (None,) * 7
    ok = summary.cells[("tdc_empirical", 0.1, None)]
    assert ok.failures == 0 and ok.mean is not None


def test_run_mc_sorts_each_sample_once(monkeypatch):
    # the criterion-1 study: 15 cells and a Hill step, one argsort per sample
    real = np.argsort
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    config = ModelConfig(LinearParetoModel(0.8, 0.1, 4.0), n=1000, seed=20_260_808)
    summary = run_mc(
        config,
        reps=3,
        k_fractions=(0.05, 0.1, 0.2, 0.3, 0.4),
        k_alpha_fractions=(0.2,),
        estimators=("tdc_empirical", "tdc_quasispectral", "tdc_quasispectral_estimated"),
    )
    assert len(summary.cells) == 15
    assert len(calls) == 3


def test_run_mc_validation():
    config = ModelConfig(LinearParetoModel(0.8, 0.1, 4.0), n=100, seed=1)
    with pytest.raises(ValueError):
        run_mc(config, reps=0, k_fractions=[0.1])
    with pytest.raises(ValueError):
        run_mc(config, reps=1, k_fractions=[])
    with pytest.raises(ValueError):
        run_mc(config, reps=1, k_fractions=[0.1], estimators=("nope",))
    with pytest.raises(ValueError, match="at least one estimator"):
        run_mc(config, reps=1, k_fractions=[0.1], estimators=())
    with pytest.raises(ValueError):
        run_mc(
            config, reps=1, k_fractions=[0.1],
            estimators=("tdc_quasispectral_estimated",),
        )


def test_truth_absent_for_non_tdc_runs():
    config = ModelConfig(LinearParetoModel(0.8, 0.1, 4.0), n=200, seed=2)
    summary = run_mc(
        config, reps=2, k_fractions=[0.1], estimators=("cte_aleph3", "edm")
    )
    assert summary.truth is None
    off_level = run_mc(
        config, reps=2, k_fractions=[0.1], estimators=("tdc_empirical",), y=2.0
    )
    assert off_level.truth is None


def test_bivariate_t_tail_dependence_value():
    assert BivariateTModel(4.0, 0.9).tail_dependence == pytest.approx(0.63, abs=0.005)


@pytest.mark.parametrize("nu", [0.1, 0.5, 0.9, 1.0, 2.0, 4.0, 10.0, 50.0, 1000.0])
def test_bivariate_t_tail_dependence_matches_t_cdf(nu):
    for rho in (-0.99, -0.5, 0.0, 0.5, 0.9, 0.99, 0.999):
        arg = math.sqrt((nu + 1.0) * (1.0 - rho) / (1.0 + rho))
        want = float(2.0 * stdtr(nu + 1.0, -arg))
        assert BivariateTModel(nu, rho).tail_dependence == pytest.approx(want, rel=1e-12)


def test_bivariate_t_tail_dependence_cauchy_hand_values():
    # nu = 1: lambda = 2 t_2(-a) = 1 - a / sqrt(2 + a^2) with
    # a = sqrt(2 (1 - rho) / (1 + rho)), which is 1 - sqrt((1 - rho) / 2);
    # written as ((1 + rho) / 2) / (1 + sqrt((1 - rho) / 2)) to avoid cancellation
    for rho in (-0.999, -0.99, -0.5, 0.0, 0.3, 0.5, 0.9, 0.99, 0.999):
        want = ((1.0 + rho) / 2.0) / (1.0 + math.sqrt((1.0 - rho) / 2.0))
        assert BivariateTModel(1.0, rho).tail_dependence == pytest.approx(want, rel=1e-14)
    assert BivariateTModel(1.0, 0.5).tail_dependence == pytest.approx(0.5, rel=1e-15)
    # rho one ulp below 1 rounds (1 + rho) / 2 to 1; lambda must stay below 1
    rho = math.nextafter(1.0, 0.0)
    want = 1.0 - math.sqrt((1.0 - rho) / 2.0)
    assert BivariateTModel(1.0, rho).tail_dependence == pytest.approx(want, rel=1e-15)
