"""Acceptance suite: one check per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines.
"""
import math
import time

import numpy as np
import pytest
from scipy import integrate

import reference
from conftest import CORPUS
from cotail import (
    BivariateSample,
    BivariateTModel,
    CotailError,
    LinearParetoModel,
    ModelConfig,
    builtin_specs,
    cond_tail_curve,
    cte_aleph3,
    cte_aleph4,
    edm_estimate,
    hill_estimate,
    order_view,
    run_mc,
    sample_dataset,
    tdc_empirical,
    tdc_quasispectral,
    tdc_quasispectral_estimated,
    theta_hat,
)
from cotail import rng as crng

K_FRACS = (0.05, 0.10, 0.20, 0.30, 0.40)
TRUTH_LINEAR = 0.8 ** 4
TRUTH_T = 0.63
N_PROPERTY_CASES = 1000


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}")


# ---------------------------------------------------------------------------
# shared Monte Carlo runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def linear_mc():
    config = ModelConfig(LinearParetoModel(phi=0.8, sigma=0.1, alpha=4.0), n=1000, seed=20_260_808)
    started = time.perf_counter()
    summary = run_mc(
        config,
        reps=1000,
        k_fractions=K_FRACS,
        k_alpha_fractions=(0.20,),
        estimators=(
            "tdc_empirical",
            "tdc_quasispectral",
            "tdc_quasispectral_estimated",
        ),
        y=1.0,
    )
    elapsed = time.perf_counter() - started
    return summary, elapsed


@pytest.fixture(scope="module")
def bivariate_t_mc():
    config = ModelConfig(BivariateTModel(nu=4.0, rho=0.9), n=1000, seed=20_260_809)
    return run_mc(
        config,
        reps=1000,
        k_fractions=(0.10,),
        k_alpha_fractions=(0.10,),
        estimators=("tdc_quasispectral_estimated",),
        y=1.0,
    )


# ---------------------------------------------------------------------------
# criteria 1-5: the simulation study
# ---------------------------------------------------------------------------

def linear_fixed_level_mean(k_frac, phi=0.8, sigma=0.1, alpha=4.0):
    """E[min(Y/X, 1)^alpha | X > u] for Y = phi X + sigma |Z|, u = k_frac^(-1/alpha).

    Quadrature of the model alone. Given X = x the ratio is phi + sigma |Z| / x,
    capped at 1 beyond z = (1 - phi) x / sigma, so the inner integral is the
    half-normal mean of the power below that point plus P(|Z| > it). The outer
    integral runs over v = (u / X)^alpha, uniform on (0, 1) given X > u.
    """
    u = k_frac ** (-1.0 / alpha)

    def given_x(x):
        cap = (1.0 - phi) * x / sigma
        below, _ = integrate.quad(
            lambda z: (phi + sigma * z / x) ** alpha * math.exp(-0.5 * z * z),
            0.0, cap, epsabs=1e-13,
        )
        return below * math.sqrt(2.0 / math.pi) + math.erfc(cap / math.sqrt(2.0))

    mean, _ = integrate.quad(
        lambda v: given_x(u * v ** (-1.0 / alpha)), 0.0, 1.0, epsabs=1e-12, limit=200
    )
    return mean


def test_criterion_1_linear_ground_truth(linear_mc):
    """Monte Carlo means at k = 10% against the level-k truth, and that truth
    against phi^alpha = 0.4096.

    The additive term sigma |Z| adds about sigma E|Z| E[1/X | X > u] to every
    ratio, a bias that vanishes like 1/u: the fixed-level mean is 0.4917 at
    k/n = 0.1 (u = 1.78) and 0.4109 at k/n = 1e-8 (u = 100). So the oracle
    checks that the level-k truth tends to phi^alpha, and the Monte Carlo
    means are held to the level-k truth with the stated widths (+/- 0.04
    known alpha, +/- 0.06 Hill alpha) and, for power, within 5 standard
    errors + 0.003 of it.
    """
    level_k = linear_fixed_level_mean(0.10)
    limit = linear_fixed_level_mean(1e-8)
    oracle_ok = abs(limit - TRUTH_LINEAR) <= 0.005

    summary, _ = linear_mc
    checks = []
    for key, width in (
        (("tdc_quasispectral", 0.10, None), 0.04),
        (("tdc_quasispectral_estimated", 0.10, 0.20), 0.06),
    ):
        cell = summary.cells[key]
        tol = min(width, 5.0 * cell.sd / math.sqrt(cell.rep_count) + 0.003)
        checks.append((key[0], cell.mean, width, tol, abs(cell.mean - level_k) <= tol))
    ok = oracle_ok and all(c[-1] for c in checks)
    detail = ", ".join(
        f"{name} mean {mean:.4f} (stated band {level_k - width:.4f}..{level_k + width:.4f}, "
        f"5 SE + 0.003 band {level_k - tol:.4f}..{level_k + tol:.4f})"
        for name, mean, width, tol, _ in checks
    )
    report(
        1,
        ok,
        f"level-k truth {level_k:.5f}; {detail}; "
        f"oracle at k/n = 1e-8 {limit:.5f} vs {TRUTH_LINEAR:.4f}",
    )
    assert oracle_ok, (
        f"fixed-level mean {limit:.5f} at k/n = 1e-8 is not within 0.005 of {TRUTH_LINEAR:.4f}"
    )
    for name, mean, width, tol, cell_ok in checks:
        assert cell_ok, (
            f"{name} Monte Carlo mean {mean:.5f} at k = 10% is {abs(mean - level_k):.5f} "
            f"from the level-k truth {level_k:.5f}; allowed {tol:.5f} "
            f"(stated width {width}, 5 SE + 0.003)"
        )


def test_criterion_1_runtime_budget(linear_mc):
    _, elapsed = linear_mc
    ok = elapsed < 120.0
    report(1, ok, f"(runtime) criterion-1 study took {elapsed:.1f}s, budget 120s")
    assert ok


def test_criterion_2_quasispectral_is_more_efficient(linear_mc):
    summary, _ = linear_mc
    pairs = []
    for frac in K_FRACS:
        sd_emp = summary.cells[("tdc_empirical", frac, None)].sd
        sd_qs = summary.cells[("tdc_quasispectral", frac, None)].sd
        pairs.append((frac, sd_qs, sd_emp))
    ok = all(sd_qs < sd_emp for _, sd_qs, sd_emp in pairs)
    detail = ", ".join(f"k={f:.0%}: {a:.4f}<{b:.4f}" for f, a, b in pairs)
    report(2, ok, detail)
    assert ok


def test_criterion_3_quasispectral_is_more_robust_in_k(linear_mc):
    summary, _ = linear_mc
    dev_emp = max(
        abs(summary.cells[("tdc_empirical", f, None)].mean - TRUTH_LINEAR)
        for f in K_FRACS
    )
    dev_qs = max(
        abs(summary.cells[("tdc_quasispectral", f, None)].mean - TRUTH_LINEAR)
        for f in K_FRACS
    )
    ok = dev_qs < dev_emp
    report(3, ok, f"max |mean - truth|: ratio-weight {dev_qs:.4f} < counting {dev_emp:.4f}")
    assert ok


def test_criterion_4_bivariate_t_ground_truth(bivariate_t_mc):
    # independent oracle: numerical integration of the t density with nu+1
    # degrees of freedom reproduces the 0.63 reference value
    nu, rho = 4.0, 0.9
    arg = math.sqrt((nu + 1.0) * (1.0 - rho) / (1.0 + rho))
    m = nu + 1.0
    const = math.gamma((m + 1.0) / 2.0) / (math.sqrt(m * math.pi) * math.gamma(m / 2.0))
    tail, _ = integrate.quad(
        lambda t: const * (1.0 + t * t / m) ** (-(m + 1.0) / 2.0), arg, np.inf
    )
    oracle = 2.0 * tail
    oracle_ok = abs(oracle - TRUTH_T) < 0.005

    mean = bivariate_t_mc.cells[("tdc_quasispectral_estimated", 0.10, 0.10)].mean
    mc_ok = abs(mean - TRUTH_T) <= 0.08
    ok = oracle_ok and mc_ok
    report(4, ok, f"MC mean {mean:.4f} (band 0.55..0.71), quantile oracle {oracle:.4f}")
    assert oracle_ok, f"t-quantile oracle {oracle} does not round to {TRUTH_T}"
    assert mc_ok, f"MC mean {mean} outside {TRUTH_T} +/- 0.08"


def test_criterion_5_alpha_estimation_negligible(linear_mc):
    summary, _ = linear_mc
    mean_qs = summary.cells[("tdc_quasispectral", 0.10, None)].mean
    mean_qse = summary.cells[("tdc_quasispectral_estimated", 0.10, 0.20)].mean
    sd_qs = summary.cells[("tdc_quasispectral", 0.10, None)].sd
    gap, bound = abs(mean_qse - mean_qs), 0.5 * sd_qs
    ok = gap < bound
    report(5, ok, f"|estimated - known| = {gap:.5f} < 0.5 * sd = {bound:.5f}")
    assert ok


# ---------------------------------------------------------------------------
# criteria 6-8: expectation identities
# ---------------------------------------------------------------------------

def test_criterion_6_cte_identity():
    reps, n, k, alpha = 200, 10_000, 500, 4.0
    target = alpha / (alpha - 1.0)
    totals = [0.0, 0.0]
    for rep in range(reps):
        gen = crng.generator(606, rep)
        x = crng.pareto([gen], alpha, n)[0]
        sample = BivariateSample(x, x)
        totals[0] += cte_aleph3(sample, k).value
        totals[1] += cte_aleph4(sample, k, alpha).value
    mean3, mean4 = totals[0] / reps, totals[1] / reps
    within = abs(mean3 - target) / target < 0.05 and abs(mean4 - target) / target < 0.05

    # degenerate-noise model: the ratio form recovers the slope exactly
    phi = 0.5
    factor = alpha / (alpha - 1.0)
    exact = all(
        cte_aleph4(
            sample_dataset(ModelConfig(LinearParetoModel(phi, 0.0, alpha), n=2000, seed=607), rep),
            200,
            alpha,
        ).value
        == factor * phi
        for rep in range(50)
    )
    ok = within and exact
    report(
        6,
        ok,
        f"threshold-form mean {mean3:.4f}, ratio-form mean {mean4:.4f} "
        f"(target {target:.4f} +/- 5%), noise-free slope exact: {exact}",
    )
    assert within
    assert exact


def test_criterion_7_hill_consistency():
    reps, n, k_alpha, alpha = 200, 10_000, 500, 4.0
    total = 0.0
    for rep in range(reps):
        gen = crng.generator(707, rep)
        x = crng.pareto([gen], alpha, n)[0]
        sample = BivariateSample(x, np.zeros(n))
        total += hill_estimate(order_view(sample), k_alpha).alpha_hat
    mean = total / reps
    ok = abs(mean - alpha) / alpha < 0.05
    report(7, ok, f"Hill MC mean {mean:.4f}, target {alpha} +/- 5%")
    assert ok


def test_criterion_8_extrapolation_identity():
    rng = np.random.default_rng(808)
    checked = 0
    for _ in range(N_PROPERTY_CASES):
        n = int(rng.integers(3, 60))
        k = int(rng.integers(1, n))
        x = rng.random(n) * 10.0 + 0.1
        sample = BivariateSample(x, rng.random(n))
        aleph = float(rng.random() * 5.0 + 0.01)
        alpha = float(rng.random() * 7.8 + 0.2)
        out = theta_hat(sample, k, p=k / n, aleph=aleph, alpha=alpha)
        thr = order_view(sample).threshold(k)
        assert out.extrapolation_factor == 1.0
        assert out.theta_hat == aleph * thr
        checked += 1
    report(8, True, f"theta(p = k/n) == aleph * threshold exactly in {checked} cases")


# ---------------------------------------------------------------------------
# criterion 9: brute-force oracle equivalence on the handcrafted corpus
# ---------------------------------------------------------------------------

def _assert_matches(lib_call, ref_call, context: str):
    try:
        expected = ref_call()
        expected_error = None
    except CotailError as exc:
        expected, expected_error = None, type(exc)
    if expected_error is not None:
        with pytest.raises(expected_error):
            lib_call()
        return
    got = lib_call()
    assert got == expected, f"{context}: {got!r} != {expected!r}"


def test_criterion_9_oracle_equivalence():
    assert len(CORPUS) == 10
    comparisons = 0
    for name, xs, ys in CORPUS:
        n = len(xs)
        sample = BivariateSample(xs, ys)
        ks = sorted({1, max(n // 3, 1), max(n // 2, 1), n - 1})
        for k in ks:
            ctx = f"{name} k={k}"
            _assert_matches(
                lambda: tdc_empirical(sample, k, 1.5).value,
                lambda: reference.tdc_empirical(xs, ys, k, 1.5),
                ctx + " tdc_empirical",
            )
            for y in (0.5, 1.0, 1.5):
                for alpha in (1.0, 2.0, 4.0):
                    def lib_qs(y=y, alpha=alpha, k=k):
                        est = tdc_quasispectral(sample, k, y, alpha=alpha)
                        return est.value, est.plugin_variance

                    _assert_matches(
                        lib_qs,
                        lambda y=y, alpha=alpha, k=k: reference.tdc_quasispectral(
                            xs, ys, k, y, alpha
                        ),
                        ctx + f" tdc_quasispectral y={y} alpha={alpha}",
                    )
            def lib_qse(k=k):
                est = tdc_quasispectral_estimated(sample, k, max(n // 2, 1))
                return est.value, est.plugin_variance, est.alpha_used

            _assert_matches(
                lib_qse,
                lambda k=k: reference.tdc_quasispectral_estimated(
                    xs, ys, k, max(n // 2, 1)
                ),
                ctx + " tdc_quasispectral_estimated",
            )
            _assert_matches(
                lambda k=k: hill_estimate(order_view(sample), k).alpha_hat,
                lambda k=k: reference.hill_alpha(xs, k),
                ctx + " hill",
            )
            _assert_matches(
                lambda k=k: (cte_aleph3(sample, k).value, cte_aleph3(sample, k).plugin_variance),
                lambda k=k: reference.cte_aleph3(xs, ys, k),
                ctx + " cte_aleph3",
            )
            for alpha in (2.0, 4.0):
                _assert_matches(
                    lambda k=k, alpha=alpha: (
                        cte_aleph4(sample, k, alpha).value,
                        cte_aleph4(sample, k, alpha).plugin_variance,
                    ),
                    lambda k=k, alpha=alpha: reference.cte_aleph4(xs, ys, k, alpha),
                    ctx + f" cte_aleph4 alpha={alpha}",
                )
            for norm in ("l2", "l1", "linf"):
                _assert_matches(
                    lambda k=k, norm=norm: (
                        edm_estimate(sample, k, norm).value,
                        edm_estimate(sample, k, norm).plugin_variance,
                    ),
                    lambda k=k, norm=norm: reference.edm(xs, ys, k, norm),
                    ctx + f" edm {norm}",
                )
            for p in (0.25, 0.125):
                _assert_matches(
                    lambda k=k, p=p: theta_hat(sample, k, p, 1.5, 4.0).theta_hat,
                    lambda k=k, p=p: reference.theta(xs, ys, k, p, 1.5, 4.0),
                    ctx + f" theta p={p}",
                )
            comparisons += 1
    report(9, True, f"library == brute force on all {len(CORPUS)} datasets "
                    f"({comparisons} (dataset, k) combinations)")


# ---------------------------------------------------------------------------
# criterion 10: property suites, 1000 random cases each
# ---------------------------------------------------------------------------

def _random_sample(rng, n=None):
    n = n if n is not None else int(rng.integers(5, 50))
    x = (1.0 - rng.random(n)) ** (-1.0 / 2.5)
    style = rng.integers(0, 4)
    if style == 0:
        y = x.copy()
    elif style == 1:
        y = x * rng.random(n) * 2.0
        y[rng.random(n) < 0.15] = 0.0
    elif style == 2:
        y = (1.0 - rng.random(n)) ** (-1.0 / 3.0)
    else:
        x = np.round(x, 1)  # inject ties
        y = np.round(x * rng.random(n), 1)
    return BivariateSample(x, y)


def test_criterion_10_scale_invariance():
    rng = np.random.default_rng(1010)
    for _ in range(N_PROPERTY_CASES):
        s = _random_sample(rng)
        k = int(rng.integers(1, s.n))
        c = 2.0 ** int(rng.integers(-8, 9))
        scaled = BivariateSample(c * s.x, c * s.y)
        assert tdc_empirical(scaled, k).value == tdc_empirical(s, k).value
        assert (
            tdc_quasispectral(scaled, k, alpha=3.0).value
            == tdc_quasispectral(s, k, alpha=3.0).value
        )
        assert cte_aleph3(scaled, k).value == cte_aleph3(s, k).value
        assert cte_aleph4(scaled, k, 4.0).value == cte_aleph4(s, k, 4.0).value
        assert edm_estimate(scaled, k).value == edm_estimate(s, k).value
        # non-dyadic factors agree to rounding noise
        c2 = float(rng.random() * 10.0 + 0.1)
        loose = BivariateSample(c2 * s.x, c2 * s.y)
        assert tdc_quasispectral(loose, k, alpha=3.0).value == pytest.approx(
            tdc_quasispectral(s, k, alpha=3.0).value, rel=1e-10
        )
    report(10, True, f"(scale invariance) {N_PROPERTY_CASES} cases")


def test_criterion_10_permutation_invariance():
    rng = np.random.default_rng(1011)
    for _ in range(N_PROPERTY_CASES):
        s = _random_sample(rng)
        k = int(rng.integers(1, s.n))
        perm = rng.permutation(s.n)
        p = BivariateSample(s.x[perm], s.y[perm])
        assert tdc_empirical(p, k).value == tdc_empirical(s, k).value
        assert (
            tdc_quasispectral(p, k, alpha=2.5).value
            == tdc_quasispectral(s, k, alpha=2.5).value
        )
        assert cte_aleph3(p, k).value == cte_aleph3(s, k).value
        assert edm_estimate(p, k).value == edm_estimate(s, k).value
    report(10, True, f"(permutation invariance) {N_PROPERTY_CASES} cases")


def test_criterion_10_monotone_in_y():
    rng = np.random.default_rng(1012)
    for _ in range(N_PROPERTY_CASES):
        s = _random_sample(rng)
        k = int(rng.integers(1, s.n))
        grid = np.cumsum(rng.random(4) + 0.05)
        emp = cond_tail_curve(s, k, grid, "empirical")
        qs = cond_tail_curve(s, k, grid, "quasispectral", alpha=2.0)
        assert np.all(np.diff(emp.values) <= 0.0)
        assert np.all(np.diff(qs.values) <= 0.0)
    report(10, True, f"(monotone in y) {N_PROPERTY_CASES} cases, both methods")


def test_criterion_10_theta_decreasing_in_p():
    rng = np.random.default_rng(1013)
    for _ in range(N_PROPERTY_CASES):
        s = _random_sample(rng)
        k = int(rng.integers(1, s.n))
        alpha = float(rng.random() * 6.0 + 0.5)
        p_hi = float(rng.random() * 0.5 + 0.2)
        p_lo = p_hi * float(rng.random() * 0.6 + 0.1)
        hi = theta_hat(s, k, p_lo, aleph=1.0, alpha=alpha).theta_hat
        lo = theta_hat(s, k, p_hi, aleph=1.0, alpha=alpha).theta_hat
        assert hi > lo
    report(10, True, f"(theta strictly decreasing in p) {N_PROPERTY_CASES} cases")


def test_criterion_10_range_bounds():
    rng = np.random.default_rng(1014)
    for _ in range(N_PROPERTY_CASES):
        s = _random_sample(rng)
        k = int(rng.integers(1, s.n))
        y = float(rng.random() * 2.0 + 0.1)
        alpha = float(rng.random() * 5.0 + 0.3)
        for value in (
            tdc_empirical(s, k, y).value,
            tdc_quasispectral(s, k, y, alpha=alpha).value,
        ):
            assert 0.0 <= value <= 1.0
        edm_l2 = edm_estimate(s, k, "l2").value
        assert 0.0 <= edm_l2 <= 0.5 + 1e-12
        for norm in ("l1", "linf"):
            assert 0.0 <= edm_estimate(s, k, norm).value <= 1.0
    report(10, True, f"(range bounds) {N_PROPERTY_CASES} cases")


def test_criterion_10_builtin_homogeneity():
    rng = np.random.default_rng(1015)
    specs = builtin_specs()
    for spec in specs:
        for _ in range(N_PROPERTY_CASES):
            m = int(rng.integers(1, 9))
            u = rng.random(m) * 4.0 + 1e-3
            v = rng.random(m) * 4.0
            c = 2.0 ** int(rng.integers(-6, 7))
            lhs = spec.psi(c * u, c * v)
            rhs = (c ** spec.gamma) * spec.psi(u, v)
            assert np.array_equal(lhs, rhs), spec.name
            c2 = float(rng.random() * 9.0 + 0.05)
            lhs2 = spec.psi(c2 * u, c2 * v)
            rhs2 = (c2 ** spec.gamma) * spec.psi(u, v)
            assert np.allclose(lhs2, rhs2, rtol=1e-10, atol=1e-300), spec.name
    report(10, True, f"(homogeneity) {len(specs)} specs x {N_PROPERTY_CASES} cases")


def test_criterion_10_builtin_region_nesting():
    rng = np.random.default_rng(1016)
    specs = builtin_specs()
    for spec in specs:
        for _ in range(N_PROPERTY_CASES):
            m = int(rng.integers(1, 9))
            s = float(rng.random() * 3.0 + 0.05)
            t = s * (1.0 + float(rng.random() * 3.0))
            u = rng.random(m) * 3.0 * t
            v = rng.random(m) * 3.0 * t
            inner = np.asarray(spec.region(u / t, v / t), dtype=bool)
            outer = np.asarray(spec.region(u / s, v / s), dtype=bool)
            assert np.all(outer[inner]), spec.name
    report(10, True, f"(region nesting) {len(specs)} specs x {N_PROPERTY_CASES} cases")
