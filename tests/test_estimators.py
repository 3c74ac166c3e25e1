import json
import math
import subprocess
import sys
import warnings
from statistics import NormalDist

import numpy as np
import pytest

import reference
from cotail import (
    ESTIMATORS,
    AlphaNotAboveOne,
    BivariateSample,
    CondTailCurve,
    InvalidP,
    LevelSweep,
    LinearParetoModel,
    MissingVariance,
    ModelConfig,
    NonFiniteEstimate,
    NonPositiveThreshold,
    SampleRows,
    TailEstimate,
    cond_tail_curve,
    confidence_interval,
    cte_aleph3,
    cte_aleph4,
    edm_estimate,
    estimate,
    hill_estimate,
    level_reader,
    margin_exceedance,
    normalized_product,
    order_view,
    sample_dataset,
    tdc_empirical,
    tdc_quasispectral,
    tdc_quasispectral_estimated,
    tef_random,
    theta_hat,
)
from cotail import rng as crng
from cotail.cli import ingest_text, main
from cotail.core import norm_values, squared_norm, top_pairs
from cotail.tail_index import sweep_alphas


def pareto_sample(seed, n, alpha=4.0, ratio=None):
    gen = crng.generator(seed)
    x = crng.pareto([gen], alpha, n)[0]
    y = x.copy() if ratio is None else ratio * x
    return BivariateSample(x, y)


# ---------------------------------------------------------------------------
# conditional tail distribution estimators
# ---------------------------------------------------------------------------

def test_tdc_empirical_identical_margins():
    s = pareto_sample(1, 50)
    for k in (1, 10, 49):
        est = tdc_empirical(s, k, 1.0)
        assert est.value == 1.0
        assert est.plugin_variance == 1.0


def test_tdc_empirical_zero_y():
    x = np.linspace(1.0, 9.0, 20)
    s = BivariateSample(x, np.zeros_like(x))
    for y in (0.5, 1.0, 3.0):
        assert tdc_empirical(s, 5, y).value == 0.0


def test_tdc_empirical_bruteforce_count():
    xs = [1.0, 7.0, 3.5, 2.0, 9.0, 4.0, 8.0, 6.5, 0.5, 5.0,
          1.5, 7.5, 2.5, 9.5, 4.5, 8.5, 6.0, 0.25, 5.5, 3.0]
    ys = [5.0, 8.0, 1.0, 9.0, 7.5, 2.0, 8.5, 0.5, 3.0, 9.5,
          4.0, 6.0, 2.5, 7.0, 1.5, 9.0, 0.75, 5.5, 3.5, 6.5]
    s = BivariateSample(xs, ys)
    est = tdc_empirical(s, 5, 1.0)
    assert est.value == reference.tdc_empirical(xs, ys, 5, 1.0)


def test_tdc_quasispectral_proportional_pair():
    s = pareto_sample(2, 200, ratio=0.8)
    for k in (1, 20, 100, 199):
        est = tdc_quasispectral(s, k, 1.0, alpha=4.0)
        assert est.value == pytest.approx(0.8 ** 4, rel=1e-12)
    # dyadic slope makes the weights exactly representable
    s2 = pareto_sample(3, 100, ratio=0.5)
    assert tdc_quasispectral(s2, 25, 1.0, alpha=4.0).value == 0.5 ** 4


def test_tdc_quasispectral_identity_pair():
    s = pareto_sample(4, 80)
    for alpha in (0.5, 1.0, 4.0, 11.0):
        assert tdc_quasispectral(s, 20, 1.0, alpha=alpha).value == 1.0


def test_tdc_quasispectral_bruteforce():
    xs = [2.0, 5.0, 1.0, 8.0, 3.0, 0.5, 7.0, 4.0, 6.0, 9.0]
    ys = [3.0, 2.0, 4.0, 5.0, 0.0, 1.0, 9.0, 2.5, 8.0, 3.5]
    s = BivariateSample(xs, ys)
    est = tdc_quasispectral(s, 4, 1.5, alpha=2.0)
    want_value, want_var = reference.tdc_quasispectral(xs, ys, 4, 1.5, 2.0)
    assert est.value == want_value
    assert est.plugin_variance == want_var


def test_the_hill_step_reads_any_sweep_at_k_alpha():
    # k_alpha need not be a level of the sweep, and a sweep ranked by a norm
    # still gives the Hill step of x; rows cut below k_alpha + 1 pairs
    # refuse it
    gen = crng.generator(12)
    x = crng.pareto([gen], 3.0, 200)[0]
    sample = BivariateSample(x, x * crng.open_uniform([gen], 200)[0])
    want = [reference.hill_alpha(x.tolist(), 40)]
    direct = tdc_quasispectral_estimated(sample, 20, 40, 1.0)
    for sweep in (LevelSweep(sample, (20,)), LevelSweep(sample, (20, 40))):
        assert sweep_alphas(sweep, 40) == want
        reader = level_reader("tdc_quasispectral_estimated", sweep, k_alpha=40, y=1.0)
        assert reader.estimate(20) == direct
    assert sweep_alphas(LevelSweep(sample, (20, 40), norm="l2"), 40) == want
    rows = SampleRows(x[None], sample.y[None])
    cut = LevelSweep(SampleRows(*top_pairs(rows, 20)), (20,), n=200)
    with pytest.raises(ValueError, match="needs 41 pairs"):
        sweep_alphas(cut, 40)


def test_tdc_quasispectral_variance_below_value():
    gen = crng.generator(6)
    x = crng.pareto([gen], 3.0, 300)[0]
    y = x * crng.open_uniform([gen], 300)[0]
    s = BivariateSample(x, y)
    for y_level in (1.0, 1.5, 4.0):
        est = tdc_quasispectral(s, 60, y_level, alpha=3.0)
        assert est.plugin_variance <= est.value


def test_tdc_methods_nonincreasing_in_alpha():
    gen = crng.generator(8)
    x = crng.pareto([gen], 3.0, 150)[0]
    y = x * crng.open_uniform([gen], 150)[0]
    s = BivariateSample(x, y)
    values = [tdc_quasispectral(s, 30, 1.0, alpha=a).value for a in (1.0, 2.0, 4.0, 8.0)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_tdc_estimated_identity_pair():
    s = pareto_sample(9, 120)
    est = tdc_quasispectral_estimated(s, 12, 60)
    assert est.value == 1.0
    assert est.estimator_id == "tdc_quasispectral_estimated"
    assert est.metadata["k_alpha"] == 60
    assert est.alpha_used > 0


def test_tdc_estimated_matches_composition():
    xs = [2.0, 5.0, 1.0, 8.0, 3.0, 0.5, 7.0, 4.0, 6.0, 9.0]
    ys = [3.0, 2.0, 4.0, 5.0, 0.0, 1.0, 9.0, 2.5, 8.0, 3.5]
    s = BivariateSample(xs, ys)
    est = tdc_quasispectral_estimated(s, 3, 5)
    value, variance, alpha_hat = reference.tdc_quasispectral_estimated(xs, ys, 3, 5)
    assert est.value == value
    assert est.plugin_variance == variance
    assert est.alpha_used == alpha_hat


# ---------------------------------------------------------------------------
# conditional tail curves
# ---------------------------------------------------------------------------

def test_curve_hand_values_proportional():
    s = pareto_sample(10, 60, ratio=0.8)
    curve = cond_tail_curve(s, 15, [0.5, 0.8, 1.0], "quasispectral", alpha=4.0)
    assert curve.values[0] == 1.0
    assert curve.values[1] == 1.0  # ratio hits the cap exactly at y = phi
    assert curve.values[2] == pytest.approx(0.8 ** 4, rel=1e-12)


def test_curve_vanishes_beyond_max_ratio():
    s = pareto_sample(11, 40, ratio=0.7)
    curve = cond_tail_curve(s, 10, [1.0, 2.0, 50.0], "empirical")
    assert curve.values[-1] == 0.0


def test_curve_methods_agree_at_scale():
    config = ModelConfig(LinearParetoModel(0.8, 0.1, 4.0), n=100_000, seed=12)
    sample = sample_dataset(config)
    grid = [0.6, 0.8, 1.0, 1.2]
    emp = cond_tail_curve(sample, 1000, grid, "empirical")
    qs = cond_tail_curve(sample, 1000, grid, "quasispectral", alpha=4.0)
    assert np.all(np.abs(emp.values - qs.values) < 0.05)


def test_curve_validation():
    s = pareto_sample(13, 30)
    with pytest.raises(ValueError):
        cond_tail_curve(s, 5, [1.0, 1.0], "empirical")
    with pytest.raises(ValueError):
        cond_tail_curve(s, 5, [2.0, 1.0], "empirical")
    with pytest.raises(ValueError):
        cond_tail_curve(s, 5, [1.0, 2.0], "quasispectral")
    with pytest.raises(ValueError):
        cond_tail_curve(s, 5, [1.0, 2.0], "nope")


# ---------------------------------------------------------------------------
# conditional tail expectation
# ---------------------------------------------------------------------------

def test_cte_aleph3_identity_pair_at_least_one():
    s = pareto_sample(14, 100)
    est = cte_aleph3(s, 25)
    assert est.value >= 1.0
    assert "variance_note" in est.metadata


def test_cte_aleph3_zero_y():
    x = np.linspace(1.0, 5.0, 30)
    s = BivariateSample(x, np.zeros_like(x))
    assert cte_aleph3(s, 10).value == 0.0


def test_cte_aleph3_nonpositive_threshold():
    s = BivariateSample([0.0, 0.0, 0.0, 2.0], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(NonPositiveThreshold):
        cte_aleph3(s, 3)


def test_cte_aleph4_identity_pair_exact():
    s = pareto_sample(15, 90)
    for alpha in (1.5, 2.0, 4.0):
        est = cte_aleph4(s, 30, alpha)
        assert est.value == alpha / (alpha - 1.0)


def test_cte_aleph4_alpha_boundary():
    s = pareto_sample(16, 20)
    with pytest.raises(AlphaNotAboveOne):
        cte_aleph4(s, 5, 1.0)
    with pytest.raises(AlphaNotAboveOne):
        cte_aleph4(s, 5, 0.5)


def test_cte_aleph4_half_slope_exact():
    s = pareto_sample(17, 64, ratio=0.5)
    for k in (1, 8, 32, 63):
        est = cte_aleph4(s, k, 4.0)
        assert est.value == (4.0 / 3.0) * 0.5


def test_cte_estimators_agree_on_linear_model():
    config = ModelConfig(LinearParetoModel(0.8, 0.1, 4.0), n=100_000, seed=18)
    sample = sample_dataset(config)
    a3 = cte_aleph3(sample, 1000).value
    a4 = cte_aleph4(sample, 1000, 4.0).value
    assert abs(a3 - a4) < 0.08


# ---------------------------------------------------------------------------
# extrapolation
# ---------------------------------------------------------------------------

def test_theta_no_extrapolation_is_exact():
    s = pareto_sample(19, 500)
    k = 50
    out = theta_hat(s, k, p=k / s.n, aleph=1.234, alpha=4.0)
    assert out.extrapolation_factor == 1.0
    assert out.theta_hat == 1.234 * order_view(s).threshold(k)


def test_theta_hand_factor():
    s = pareto_sample(20, 1000)
    out = theta_hat(s, 100, p=0.01, aleph=2.0, alpha=4.0)
    assert out.extrapolation_factor == pytest.approx(10.0 ** 0.25, rel=1e-12)
    assert out.theta_hat == pytest.approx(
        2.0 * order_view(s).threshold(100) * 10.0 ** 0.25, rel=1e-12
    )


def test_theta_invalid_p():
    s = pareto_sample(21, 50)
    for p in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(InvalidP):
            theta_hat(s, 10, p=p, aleph=1.0, alpha=4.0)


def test_theta_against_conditional_mean_oracle():
    # oracle: direct conditional averaging at the extrapolation level on a
    # large single draw from the same model
    model = LinearParetoModel(0.8, 0.1, 4.0)
    p = 0.005
    x_p = (1.0 / p) ** 0.25
    big = sample_dataset(ModelConfig(model, n=2_000_000, seed=22))
    oracle = float(np.mean(big.y[big.x > x_p]))

    reps, total = 100, 0.0
    for rep in range(reps):
        sample = sample_dataset(ModelConfig(model, n=5000, seed=23), rep)
        k = 500
        aleph = cte_aleph4(sample, k, 4.0).value
        total += theta_hat(sample, k, p, aleph, 4.0).theta_hat
    mc_mean = total / reps
    assert abs(mc_mean - oracle) / oracle < 0.15


# ---------------------------------------------------------------------------
# extremal dependence measure
# ---------------------------------------------------------------------------

def test_edm_identity_pair_is_half():
    s = pareto_sample(24, 70)
    est = edm_estimate(s, 20, "l2")
    assert est.value == 0.5
    assert est.metadata["norm"] == "l2"


def test_edm_zero_y():
    x = np.linspace(1.0, 3.0, 15)
    s = BivariateSample(x, np.zeros_like(x))
    assert edm_estimate(s, 5, "l2").value == 0.0


def test_edm_bruteforce_all_norms():
    xs = [1.0, 4.0, 2.0, 8.0, 3.0, 0.5, 6.0, 5.0, 7.0, 2.5, 9.0, 1.5]
    ys = [2.0, 1.0, 0.0, 3.0, 5.0, 4.0, 0.5, 2.5, 7.0, 6.0, 1.0, 8.0]
    s = BivariateSample(xs, ys)
    for norm in ("l2", "l1", "linf"):
        est = edm_estimate(s, 4, norm)
        want_value, want_var = reference.edm(xs, ys, 4, norm)
        assert est.value == want_value
        assert est.plugin_variance == want_var


# ---------------------------------------------------------------------------
# confidence intervals
# ---------------------------------------------------------------------------

def test_ci_degenerate_variance():
    est = TailEstimate(value=0.3, k=10, estimator_id="tdc_empirical", plugin_variance=0.0)
    assert confidence_interval(est, 0.95) == (0.3, 0.3)


def test_ci_hand_values():
    est = TailEstimate(value=0.4, k=100, estimator_id="cte_aleph3", plugin_variance=0.16)
    lo, hi = confidence_interval(est, 0.95)
    assert lo == pytest.approx(0.4 - 1.959964 * 0.04, abs=1e-6)
    assert hi == pytest.approx(0.4 + 1.959964 * 0.04, abs=1e-6)
    # no upper clip for CTE coefficients, none for an edm interval inside [0, 1/2]
    est = TailEstimate(value=1.5, k=100, estimator_id="cte_aleph4", plugin_variance=0.16)
    assert confidence_interval(est, 0.95)[1] == pytest.approx(1.5 + 1.959964 * 0.04, abs=1e-6)
    est = TailEstimate(
        value=0.3, k=100, estimator_id="edm", plugin_variance=0.04, metadata={"norm": "l2"}
    )
    lo, hi = confidence_interval(est, 0.95)
    assert lo == pytest.approx(0.3 - 1.959964 * 0.02, abs=1e-6)
    assert hi == pytest.approx(0.3 + 1.959964 * 0.02, abs=1e-6)


def test_ci_clipped_to_unit_interval():
    est = TailEstimate(
        value=0.98, k=4, estimator_id="tdc_quasispectral", plugin_variance=0.9
    )
    lo, hi = confidence_interval(est, 0.99)
    assert hi == 1.0
    assert lo == 0.0
    # x = y puts every edm weight at the maximum of x y / |(x, y)|^2 for its norm
    s = pareto_sample(24, 70)
    for norm, cap in (("l2", 0.5), ("l1", 0.25), ("linf", 1.0)):
        est = edm_estimate(s, 20, norm)
        assert est.value == cap
        lo, hi = confidence_interval(est, 0.95)
        assert hi == cap
        assert 0.0 < lo < cap


def test_ci_z_matches_normal_quantile():
    from scipy.special import ndtri

    # value 0, variance 1, k 1 and no upper clip: the upper end is z itself
    est = TailEstimate(value=0.0, k=1, estimator_id="none", plugin_variance=1.0)
    for i in range(1, 1000):
        level = i / 1000
        z = confidence_interval(est, level)[1]
        want = float(ndtri(0.5 * (1.0 + level)))
        assert abs(z - want) <= 4 * math.ulp(want), level


def test_ci_at_the_largest_level_below_one():
    # there 0.5 * (1 + level) rounds to 1, while 0.5 * (1 - level) is exact
    est = TailEstimate(value=0.0, k=1, estimator_id="none", plugin_variance=1.0)
    level = math.nextafter(1.0, 0.0)
    assert level == 0.9999999999999999 and 0.5 * (1.0 + level) == 1.0
    z = confidence_interval(est, level)[1]
    assert z == -NormalDist().inv_cdf(0.5 * (1.0 - level)) == pytest.approx(8.2924, abs=1e-4)
    # the next level down keeps the upper-tail quantile
    level = 1 - 2 ** -52
    assert confidence_interval(est, level)[1] == NormalDist().inv_cdf(0.5 * (1.0 + level))


def test_ci_requires_variance():
    est = TailEstimate(value=0.5, k=10, estimator_id="tdc_empirical")
    with pytest.raises(MissingVariance):
        confidence_interval(est, 0.9)
    est = TailEstimate(value=0.5, k=10, estimator_id="tdc_empirical", plugin_variance=1.0)
    with pytest.raises(ValueError):
        confidence_interval(est, 1.0)


# ---------------------------------------------------------------------------
# shared sanity
# ---------------------------------------------------------------------------

def test_estimates_carry_k_and_id():
    s = pareto_sample(25, 40)
    checks = [
        tdc_empirical(s, 8),
        tdc_quasispectral(s, 8, alpha=2.0),
        cte_aleph3(s, 8),
        cte_aleph4(s, 8, 3.0),
        edm_estimate(s, 8),
    ]
    for est in checks:
        assert est.k == 8
        assert est.estimator_id
        assert est.plugin_variance >= 0.0


def test_estimator_paths_sort_only_the_selected_keys(monkeypatch, tmp_path, capsys):
    # every estimator, theta_hat, the curve, tef_random and the CLI's Hill step
    # select their top keys with argpartition; nothing sorts the whole sample.
    # Only a Hill step, at k_alpha = 2k, sorts more than k + 1 keys
    n, k = 300, 20
    sample = sample_dataset(ModelConfig(LinearParetoModel(0.8, 0.1, 4.0), n=n, seed=5))
    sorts = {"plain": [], "hill": []}
    phase = "plain"
    real = np.argsort

    def recording(a, *args, **kwargs):
        sorts[phase].append((np.shape(a)[-1], kwargs.get("kind")))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", recording)
    params = {"y": 1.0, "alpha": 4.0, "k_alpha": 2 * k, "norm": "l1"}
    for name in ("tdc_empirical", "tdc_quasispectral", "cte_aleph3", "cte_aleph4", "edm"):
        estimate(name, sample, k, **params)
    theta_hat(sample, k, 0.01, 1.2, 4.0)
    cond_tail_curve(sample, k, [0.5, 1.0], "quasispectral", alpha=4.0)
    tef_random(sample, margin_exceedance(), k)
    phase = "hill"
    estimate("tdc_quasispectral_estimated", sample, k, **params)
    data = tmp_path / "pairs.csv"
    data.write_text("".join(f"{a!r},{b!r}\n" for a, b in sample.pairs()))
    assert main(["estimate", "--input", str(data), "--estimator", "theta", "--k", str(k),
                 "--p", "0.01"]) == 0
    capsys.readouterr()
    assert len(sorts["plain"]) >= 8 and len(sorts["hill"]) >= 2
    assert all(size <= k + 1 and kind is None for size, kind in sorts["plain"]), sorts
    assert all(size <= 2 * k + 1 and kind is None for size, kind in sorts["hill"]), sorts


def test_estimate_dispatches_by_id():
    s = pareto_sample(26, 60, ratio=0.7)
    params = {"y": 0.9, "alpha": 3.0, "k_alpha": 20, "norm": "l1"}
    direct = {
        "tdc_empirical": tdc_empirical(s, 8, 0.9),
        "tdc_quasispectral": tdc_quasispectral(s, 8, 0.9, alpha=3.0),
        "tdc_quasispectral_estimated": tdc_quasispectral_estimated(s, 8, 20, 0.9),
        "cte_aleph3": cte_aleph3(s, 8),
        "cte_aleph4": cte_aleph4(s, 8, 3.0),
        "edm": edm_estimate(s, 8, "l1"),
    }
    for name, want in direct.items():
        assert estimate(name, s, 8, **params) == want
    with pytest.raises(ValueError):
        estimate("theta", s, 8, **params)
    with pytest.raises(ValueError):
        estimate("tdc_quasispectral", s, 8, y=1.0)
    with pytest.raises(ValueError):
        estimate("cte_aleph4", s, 8, alpha=None)


# the report fields each reader records in its estimate's metadata; the CLI's
# estimate and curve rows take them from there
REPORT_METADATA = {
    "tdc_empirical": {"y": 0.9},
    "tdc_quasispectral": {"y": 0.9, "alpha_source": "supplied"},
    "tdc_quasispectral_estimated": {"y": 0.9, "k_alpha": 20, "alpha_source": "hill"},
    "cte_aleph3": {},
    "cte_aleph4": {"alpha_source": "supplied"},
    "edm": {},
}


def test_each_estimator_names_its_report_fields_in_its_metadata():
    from cotail.cli import REPORT_COLUMNS

    assert set(REPORT_METADATA) == set(ESTIMATORS)
    s = pareto_sample(26, 60, ratio=0.7)
    params = {"y": 0.9, "alpha": 3.0, "k_alpha": np.int64(20), "norm": "l1"}
    for name, fields in REPORT_METADATA.items():
        metadata = estimate(name, s, 8, **params).metadata
        assert {key: metadata[key] for key in REPORT_COLUMNS if key in metadata} == fields
        assert all(type(metadata[key]) is type(value) for key, value in fields.items())


# each public estimator function is one ``estimate`` call, so a parameter
# passed as None fails as ``estimate`` fails it
_ALL_PARAMS = {"y": 1.0, "alpha": 4.0, "k_alpha": 3, "norm": "l2"}
NONE_PARAMS = [
    (tdc_empirical, "tdc_empirical", "y"),
    (tdc_quasispectral, "tdc_quasispectral", "y"),
    (tdc_quasispectral, "tdc_quasispectral", "alpha"),
    (tdc_quasispectral_estimated, "tdc_quasispectral_estimated", "k_alpha"),
    (tdc_quasispectral_estimated, "tdc_quasispectral_estimated", "y"),
    (cte_aleph4, "cte_aleph4", "alpha"),
    (edm_estimate, "edm", "norm"),
]


@pytest.mark.parametrize(
    "func, name, param", NONE_PARAMS, ids=[f"{f.__name__}-{p}" for f, _, p in NONE_PARAMS]
)
def test_public_function_rejects_none_as_estimate_does(func, name, param):
    s = pareto_sample(27, 40, ratio=0.7)
    kwargs = {key: _ALL_PARAMS[key] for key in ESTIMATORS[name].params}
    kwargs[param] = None
    for call in (lambda: func(s, 8, **kwargs), lambda: estimate(name, s, 8, **kwargs)):
        with pytest.raises(ValueError, match=f"^{name} requires {param}$"):
            call()


def test_negative_variance_rejected():
    with pytest.raises(ValueError):
        TailEstimate(value=0.1, k=2, estimator_id="x", plugin_variance=-1e-9)


_S = BivariateSample([1.0, 2.0, 3.0, 4.0, 5.0], [5.0, 4.0, 3.0, 2.0, 1.0])

# The guard matrix: every numeric parameter of the public API crossed with the
# same 15 values. Each call must give a value or reject the value with its
# row's exact exception type, and nothing may warn. All cells run in one
# interpreter with every warning an error, under a timeout, so a sampler that
# stalls on a value fails the test instead of hanging the suite.
_MATRIX_SETUP = """
import json, math, sys, warnings
import numpy as np
import cotail as c
from cotail import estimators as e, rng
warnings.simplefilter("error")
NAN, INF = math.nan, math.inf
s = c.BivariateSample([1.0, 2.0, 3.0, 4.0, 5.0], [5.0, 4.0, 3.0, 2.0, 1.0])
small = c.BivariateSample([0.1, 0.2, 0.3, 0.4, 0.5], [1.0] * 5)  # X_(n-2) = 0.3
lp = c.ModelConfig(c.LinearParetoModel(), 50, 1)
est = c.tdc_empirical(s, 2)
"""
MATRIX_VALUES = {
    "none": "None",
    "bool": "True",
    "half": "2.5",
    "int_0d": "np.array(2)",
    "float_0d": "np.array(2.0)",
    "nan": "NAN",
    "inf": "INF",
    "minus_one": "-1",
    "zero": "0",
    "huge": "1e308",
    "tiny": "5e-324",
    "int64": "np.int64(3)",
    "float64": "np.float64(3.0)",
    "string": "'2'",
    "vector": "np.array([2])",
}
# row -> (call of the value V, the exact type of every rejection)
_LP_WITH = "c.sample_dataset(c.ModelConfig(c.LinearParetoModel({}), 20, 1))"
_BT_WITH = "c.sample_dataset(c.ModelConfig(c.BivariateTModel({}), 20, 1))"
MATRIX_ROWS = {
    "tdc_empirical_k": ("c.tdc_empirical(s, V)", "ValueError"),
    "tdc_empirical_y": ("c.tdc_empirical(s, 2, y=V)", "ValueError"),
    "tdc_quasispectral_k": ("c.tdc_quasispectral(s, V, alpha=4.0)", "ValueError"),
    "tdc_quasispectral_y": ("c.tdc_quasispectral(s, 2, y=V, alpha=4.0)", "ValueError"),
    "tdc_quasispectral_alpha": ("c.tdc_quasispectral(s, 2, alpha=V)", "ValueError"),
    "tdc_estimated_k": ("c.tdc_quasispectral_estimated(s, V, 3)", "ValueError"),
    "tdc_estimated_k_alpha": ("c.tdc_quasispectral_estimated(s, 2, V)", "ValueError"),
    "tdc_estimated_y": ("c.tdc_quasispectral_estimated(s, 2, 3, y=V)", "ValueError"),
    "cte_aleph3_k": ("c.cte_aleph3(s, V)", "ValueError"),
    "cte_aleph4_k": ("c.cte_aleph4(s, V, 2.0)", "ValueError"),
    "cte_aleph4_alpha": ("c.cte_aleph4(s, 2, V)", "AlphaNotAboveOne"),
    "edm_estimate_k": ("c.edm_estimate(s, V)", "ValueError"),
    "estimate_k": ("c.estimate('cte_aleph3', s, V)", "ValueError"),
    "level_reader_k": ("c.level_reader('cte_aleph3', c.LevelSweep(s, (1, 2))).estimate(V)",
                       "ValueError"),
    "level_sweep_ks": ("c.LevelSweep(s, (V,)).x", "ValueError"),
    "level_sweep_k": ("c.LevelSweep(s, (1, 2)).threshold(V)", "ValueError"),
    "cond_tail_curve_k": ("c.cond_tail_curve(s, V, [1.0, 2.0], 'empirical')", "ValueError"),
    "cond_tail_curve_alpha": (
        "c.cond_tail_curve(s, 2, [1.0, 2.0], 'quasispectral', V)", "ValueError"),
    "check_y_grid": ("e.check_y_grid([1.0, V])", "ValueError"),
    "check_y_grid_first": ("e.check_y_grid([V, 1.0])", "ValueError"),
    "confidence_interval_level": ("c.confidence_interval(est, V)", "ValueError"),
    "tail_estimate_variance": ("c.TailEstimate(0.5, 2, 'x', V)", "ValueError"),
    "tail_estimate_k": ("c.TailEstimate(0.5, V, 'x', 0.25)", "ValueError"),
    "tail_estimate_value": ("c.TailEstimate(V, 2, 'x', 0.25)", "ValueError"),
    "theta_hat_k": ("c.theta_hat(s, V, 0.1, 1.0, 2.0)", "ValueError"),
    "theta_hat_p": ("c.theta_hat(s, 2, V, 1.0, 2.0)", "InvalidP"),
    "theta_hat_aleph": ("c.theta_hat(s, 2, 0.1, V, 2.0)", "ValueError"),
    "theta_hat_alpha": ("c.theta_hat(s, 2, 0.1, 1.0, V)", "ValueError"),
    "hill_estimate_k_alpha": ("c.hill_estimate(c.order_view(s), V)", "ValueError"),
    "order_statistic_m": ("c.order_view(s).order_statistic(V)", "ValueError"),
    "order_view_threshold_k": ("c.order_view(s).threshold(V)", "ValueError"),
    "exceedance_indices_k": ("c.exceedance_indices(c.order_view(s), V)", "ValueError"),
    "tef_fixed_u": ("c.tef_fixed(s, c.margin_exceedance(), V, 1.0, 0.5)", "ValueError"),
    "tef_fixed_s": ("c.tef_fixed(s, c.margin_exceedance(), 1.0, V, 0.5)", "ValueError"),
    "tef_fixed_fbar": ("c.tef_fixed(s, c.margin_exceedance(), 1.0, 1.0, V)", "ValueError"),
    # a tiny u overflows x / u, where psi = y / x must take its homogeneous limit
    "tef_fixed_u_ratio": ("c.tef_fixed(s, c.coordinate_ratio(), V, 1.0, 0.5)", "ValueError"),
    # below 1, a tiny u or s makes the region's scale s * u underflow to 0
    "tef_fixed_u_half_s": ("c.tef_fixed(s, c.margin_exceedance(), V, 0.5, 0.5)", "ValueError"),
    "tef_random_k": ("c.tef_random(s, c.margin_exceedance(), V)", "ValueError"),
    "tef_random_s": ("c.tef_random(s, c.second_coordinate(), 2, s=V)", "ValueError"),
    "tef_random_s_small_level": (
        "c.tef_random(small, c.margin_exceedance(), 2, s=V)", "ValueError"),
    "tef_random_u": ("c.tef_random(s, c.second_coordinate(), 2, u=V)", "ValueError"),
    "joint_exceedance_y_cut": ("c.tef_random(s, c.joint_exceedance(V), 2)", "ValueError"),
    "capped_ratio_power_alpha": ("c.tef_random(s, c.capped_ratio_power(V), 2)", "ValueError"),
    "capped_ratio_power_y_cut": (
        "c.tef_random(s, c.capped_ratio_power(4.0, V), 2)", "ValueError"),
    "linear_pareto_phi": (_LP_WITH.format("phi=V"), "ValueError"),
    "linear_pareto_sigma": (_LP_WITH.format("sigma=V"), "ValueError"),
    "linear_pareto_alpha": (_LP_WITH.format("alpha=V"), "ValueError"),
    "bivariate_t_nu": (_BT_WITH.format("nu=V"), "ValueError"),
    "bivariate_t_rho": (_BT_WITH.format("rho=V"), "ValueError"),
    "model_config_n": ("c.sample_dataset(c.ModelConfig(c.LinearParetoModel(), V, 1))",
                       "ValueError"),
    "model_config_seed": ("c.sample_dataset(c.ModelConfig(c.LinearParetoModel(), 20, V))",
                          "ValueError"),
    "sample_dataset_rep": ("c.sample_dataset(lp, V)", "ValueError"),
    "run_mc_reps": ("c.run_mc(lp, V, [0.1])", "ValueError"),
    "run_mc_k_fraction": ("c.run_mc(lp, 3, [V])", "ValueError"),
    "run_mc_k_alpha_fraction": (
        "c.run_mc(lp, 3, [0.1], [V], ['tdc_quasispectral_estimated'])", "ValueError"),
    "run_mc_y": ("c.run_mc(lp, 3, [0.1], y=V)", "ValueError"),
    "rng_pareto_alpha": ("rng.pareto([rng.generator(1)], V, 3)", "ValueError"),
    "rng_gamma_shape": ("rng.standard_gamma([rng.generator(1)], V, 3)", "ValueError"),
}
# values no numeric parameter accepts
MATRIX_NOT_NUMBERS = ("none", "bool", "nan", "inf", "string", "vector")
# cells where a TypeError is acceptable: none, every numeric parameter names
# what it rejects
MATRIX_TYPE_ERRORS: frozenset = frozenset()
# non-numbers that are values where they stand
MATRIX_ACCEPTS = {
    ("check_y_grid", "string"),  # a y grid is a sequence numpy reads as floats
    ("tail_estimate_variance", "none"),  # an estimate without a variance
    ("tef_random_u", "none"),  # the default: scale psi by the threshold
}
# rejections of another exact type than their row's
MATRIX_ERRORS = {
    ("cte_aleph4_alpha", "none"): "ValueError",  # "cte_aleph4 requires alpha"
    ("theta_hat_p", "tiny"): "ValueError",  # its extrapolation factor overflows
}


@pytest.fixture(scope="module")
def guard_matrix():
    """Each cell's outcome: "value", or the name of the type it raised."""
    script = _MATRIX_SETUP + (
        "out = {}\n"
        "rows, values = json.load(sys.stdin)\n"
        "for row, call in rows.items():\n"
        "    for name, expr in values.items():\n"
        "        env = {**globals(), 'V': eval(expr)}\n"
        "        try:\n"
        "            eval(call, env)\n"
        "            out[row + ' ' + name] = 'value'\n"
        "        except Exception as exc:\n"
        "            out[row + ' ' + name] = type(exc).__name__\n"
        "print(json.dumps(out))\n"
    )
    calls = {row: call for row, (call, _) in MATRIX_ROWS.items()}
    proc = subprocess.run(
        [sys.executable, "-c", script], input=json.dumps([calls, MATRIX_VALUES]),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    return {row: {v: out[f"{row} {v}"] for v in MATRIX_VALUES} for row in MATRIX_ROWS}


def _rejects(guard_matrix, row, value):
    error = MATRIX_ERRORS.get((row, value), MATRIX_ROWS[row][1])
    assert guard_matrix[row][value] == error, (row, value)


@pytest.mark.parametrize("row", sorted(MATRIX_ROWS))
def test_guard_matrix(guard_matrix, row):
    for value, outcome in guard_matrix[row].items():
        cell = (row, value)
        if value in ("nan", "inf"):
            continue  # taken column by column below
        if value in MATRIX_NOT_NUMBERS and cell not in MATRIX_ACCEPTS:
            _rejects(guard_matrix, row, value)
        elif not (outcome == "TypeError" and cell in MATRIX_TYPE_ERRORS):
            assert outcome in ("value", MATRIX_ERRORS.get(cell, MATRIX_ROWS[row][1])), cell


# NaN and infinity column by column: every row rejects both
@pytest.mark.parametrize("row", sorted(MATRIX_ROWS))
def test_nan_parameters_rejected(guard_matrix, row):
    _rejects(guard_matrix, row, "nan")


@pytest.mark.parametrize("row", sorted(MATRIX_ROWS))
def test_infinite_parameters_rejected(guard_matrix, row):
    _rejects(guard_matrix, row, "inf")


# guard clauses on non-numeric input no matrix row reaches: each call must
# raise the pinned type
_GRID = [1.0, 2.0, 3.0]
GUARD_INPUTS = {
    "ingest_unknown_transform": (lambda: ingest_text(b"1,2\n", "bogus"), ValueError),
    "sample_two_dimensional": (
        lambda: BivariateSample(np.ones((2, 2)), np.ones((2, 2))), ValueError),
    "sample_from_no_pairs": (lambda: BivariateSample.from_pairs([]), ValueError),
    "curve_length_mismatch": (
        lambda: CondTailCurve(_GRID, [0.5, 0.4], "x", 2), ValueError),
    "curve_value_above_one": (
        lambda: CondTailCurve(_GRID, [1.5, 0.4, 0.3], "x", 2), ValueError),
    "curve_increasing_values": (
        lambda: CondTailCurve(_GRID, [0.3, 0.4, 0.5], "x", 2), ValueError),
    "curve_value_nan": (lambda: CondTailCurve([1.0, 2.0], [math.nan, 0.1], "x", 3), ValueError),
    "confidence_interval_edm_without_norm": (
        lambda: confidence_interval(TailEstimate(0.2, 2, "edm", 0.1), 0.95), ValueError),
    "confidence_interval_edm_unknown_norm": (
        lambda: confidence_interval(TailEstimate(0.2, 2, "edm", 0.1, metadata={"norm": "l3"}),
                                    0.95), ValueError),
    "sample_rows_ragged": (lambda: SampleRows([[1.0], [1.0, 2.0]], [[1.0], [2.0]]), ValueError),
    "sample_dataset_unknown_model": (
        lambda: sample_dataset(ModelConfig(object(), 10, 0)), TypeError),
    "model_config_unknown_model": (lambda: ModelConfig(object(), 10, 0), TypeError),
    "norm_values_l3": (lambda: norm_values(_S.x, _S.y, "l3"), ValueError),
    "squared_norm_l3": (lambda: squared_norm(_S.x, _S.y, "l3"), ValueError),
    "normalized_product_l3": (lambda: normalized_product("l3"), ValueError),
    "edm_estimate_l3": (lambda: edm_estimate(_S, 2, "l3"), ValueError),
    # (0.4 / 1e-300)^2 is past the double range; so is 1e10 * 3 * 4e299
    "theta_hat_factor_overflow": (lambda: theta_hat(_S, 2, 1e-300, 1.0, 0.5), ValueError),
    "theta_hat_value_overflow": (lambda: theta_hat(_S, 2, 1e-300, 1e10, 1.0), ValueError),
    # an integer past the double range is no real number: float() overflows
    "theta_hat_p_past_the_double_range": (lambda: theta_hat(_S, 2, 10**400, 1.0, 0.5), InvalidP),
    # a sweep ranks by x or a named norm; another name fails the sweep at once (a
    # row's third entry matches the message)
    "level_sweep_norm_l3": (lambda: LevelSweep(_S, (2,), norm="l3"), ValueError, "^unknown norm"),
}
# numeric inputs pinned to a rejection, each a cell of the matrix: (row, value)
GUARD_CASES = {
    "tef_fixed_fbar_zero": ("tef_fixed_fbar", "zero"),
    "tef_fixed_fbar_above_one": ("tef_fixed_fbar", "half"),
    "tdc_empirical_k_fraction": ("tdc_empirical_k", "half"),
    "tdc_empirical_k_float": ("tdc_empirical_k", "float64"),
    "tdc_empirical_k_bool": ("tdc_empirical_k", "bool"),
    "tdc_estimated_k_alpha_fraction": ("tdc_estimated_k_alpha", "half"),
    "tef_random_k_fraction": ("tef_random_k", "half"),
    "hill_estimate_k_alpha_none": ("hill_estimate_k_alpha", "none"),
    "theta_hat_alpha_none": ("theta_hat_alpha", "none"),
    "run_mc_y_none": ("run_mc_y", "none"),
    "linear_pareto_sigma_inf": ("linear_pareto_sigma", "inf"),
    "tail_estimate_k_zero": ("tail_estimate_k", "zero"),
    "tail_estimate_k_fraction": ("tail_estimate_k", "half"),
}


@pytest.mark.parametrize("case", sorted({**GUARD_INPUTS, **GUARD_CASES}))
def test_guard_rejects_input(case, guard_matrix):
    if case in GUARD_CASES:
        _rejects(guard_matrix, *GUARD_CASES[case])
        return
    call, error, *match = GUARD_INPUTS[case]
    with pytest.raises(error, match=match[0] if match else None) as info:
        call()
    assert type(info.value) is error


def test_an_unknown_norm_is_reported_before_a_bad_level():
    # k = 50 is past n - 1 = 4, yet the norm is judged first
    for call in (lambda: edm_estimate(_S, 50, "l3"), lambda: estimate("edm", _S, 50, norm="l3")):
        with pytest.raises(ValueError, match="^unknown norm 'l3'"):
            call()
    with pytest.raises(ValueError, match="^k = 50 is not in"):
        edm_estimate(_S, 50, "l2")


def test_a_level_is_any_integer_and_a_named_error_otherwise():
    assert tdc_empirical(_S, np.int64(2)) == tdc_empirical(_S, 2)
    with pytest.raises(ValueError, match=r"^k must be an integer, got 2\.0$"):
        tdc_empirical(_S, 2.0)
    with pytest.raises(ValueError, match="^k_alpha must be an integer, got None$"):
        hill_estimate(order_view(_S), None)
    # a 0-d integer array is a level too, and levels are reported as ints
    level = np.array(2)
    assert tdc_empirical(_S, level) == tdc_empirical(_S, 2)
    assert type(tdc_empirical(_S, level).k) is int
    assert tef_random(_S, margin_exceedance(), level) == tef_random(_S, margin_exceedance(), 2)
    assert theta_hat(_S, level, 0.1, 1.0, 2.0) == theta_hat(_S, 2, 0.1, 1.0, 2.0)
    hill = hill_estimate(order_view(_S), level)
    assert hill == hill_estimate(order_view(_S), 2)
    assert type(hill.k_alpha) is int and hill.k_alpha == 2
    with pytest.raises(ValueError, match=r"^k must be an integer, got 2\.5$"):
        LevelSweep(_S, (2,)).threshold(2.5)
    with pytest.raises(ValueError, match="^k must be an integer, got True$"):
        LevelSweep(_S, (1, 2)).threshold(True)
    with pytest.raises(ValueError, match="^k = 7 is not a level of this sweep$"):
        LevelSweep(_S, (2,)).threshold(np.int64(7))
    # the estimators go on with the int the rule returns
    estimated = tdc_quasispectral_estimated(_S, 2, np.array(3))
    assert type(estimated.metadata["k_alpha"]) is int and estimated.metadata["k_alpha"] == 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (2, level):
            with pytest.raises(ValueError, match="^the extrapolation factor overflows"):
                theta_hat(_S, k, 1e-300, 1.0, 0.5)


# y near the double maximum: at k = 3 every ratio y / x is finite but their
# sum is not, and y / X_(n-k) = y / 0.1 is itself infinite
_HUGE = BivariateSample([0.1, 1.0, 1.1, 1.2], [1.7e308] * 4)


def test_sums_beyond_the_double_range_are_a_non_finite_estimate():
    with pytest.raises(NonFiniteEstimate):
        cte_aleph4(_HUGE, 3, 2.0)  # fsum overflows
    with pytest.raises(NonFiniteEstimate):
        cte_aleph3(_HUGE, 3)  # an infinite weight
    sweep = LevelSweep(_HUGE, (3,))
    for name in ("cte_aleph3", "cte_aleph4"):
        reader = level_reader(name, sweep, alpha=2.0)
        [value] = reader.values(3)
        assert isinstance(value, NonFiniteEstimate), name
        with pytest.raises(NonFiniteEstimate):
            reader.value(3)


# every squared norm beyond the double range (the l2 keys are not: hypot is finite there)
_WIDE = BivariateSample([1e200] * 4 + [2e200], [1e200, 2e200, 3e200, 4e200, 1e200])


@pytest.mark.parametrize("norm", ["l2", "l1", "linf"])
@pytest.mark.parametrize("sample", [_HUGE, _WIDE], ids=["huge", "wide"])
def test_edm_with_norms_beyond_the_double_range_is_a_non_finite_estimate(sample, norm):
    with pytest.raises(NonFiniteEstimate):
        edm_estimate(sample, 3, norm)


# squares of these pairs times 1e-150 are normal, times 1e-160 subnormal, times 1e-200 0
_EDM_SMALL = BivariateSample(np.arange(1.0, 9.0), [2.0, 1.0, 4.0, 3.0, 6.0, 5.0, 8.0, 7.0])


@pytest.mark.parametrize("norm", ["l2", "l1", "linf"])
def test_edm_with_squared_norms_below_the_normal_range_is_a_non_finite_estimate(norm):
    whole = edm_estimate(_EDM_SMALL, 3, norm).value
    scaled = BivariateSample(_EDM_SMALL.x * 1e-150, _EDM_SMALL.y * 1e-150)
    assert edm_estimate(scaled, 3, norm).value == pytest.approx(whole, rel=1e-15)
    for scale in (1e-160, 1e-200):
        tiny = BivariateSample(_EDM_SMALL.x * scale, _EDM_SMALL.y * scale)
        with pytest.raises(NonFiniteEstimate, match="below the normal range"):
            edm_estimate(tiny, 3, norm)
    # a (0, 0) pair is gathered at k = 3 but is no exceedance, and no underflow either
    zeros = BivariateSample([0.0, 0.0, 0.0, 1.0, 2.0], [0.0, 0.0, 0.0, 2.0, 1.0])
    weight = 2.0 / squared_norm(np.array([1.0]), np.array([2.0]), norm)[0]
    assert edm_estimate(zeros, 3, norm).value == math.fsum([weight, weight]) / 3


def test_edm_on_pairs_whose_squares_underflow_does_not_depend_on_their_order():
    # (1e-200, 0) keeps the l2 key 1e-200, so it never ties with (0, 0) at the
    # cut: k = 3 gathers one of those pairs in every order, and its square is 0
    x = np.array([5.0, 4.0, 0.0, 0.0, 1e-200, 1e-200, 0.0, 1e-200])
    y = np.array([1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    order = np.random.default_rng(0)
    for _ in range(200):
        p = order.permutation(x.size)
        with pytest.raises(NonFiniteEstimate, match="below the normal range"):
            edm_estimate(BivariateSample(x[p], y[p]), 3)


def test_a_non_finite_variance_fails_the_estimate_not_the_value():
    # ratios 1.5e200, 1e200 and 0.25: their mean is finite, their mean square is not
    sample = BivariateSample([1.0, 2.0, 3.0, 4.0], [1.0, 3e200, 3e200, 1.0])
    with pytest.raises(NonFiniteEstimate):
        cte_aleph4(sample, 3, 2.0)
    reader = level_reader("cte_aleph4", LevelSweep(sample, (3,)), alpha=2.0)
    assert reader.value(3) == 2.0 * (math.fsum([1.5e200, 1e200, 0.25]) / 3)
    assert reader.values(3) == [reader.value(3)]
