"""Property test: every level-k reader equals the brute-force oracle.

Samples are drawn with many tied x values (a small value pool mixed with
continuous draws), zeros in both margins, and several k per sample. Each
estimator is compared with ``tests/reference.py`` by exact equality (or the
same error type) twice: on a freshly built sample, which sorts x on first use,
and on one shared sample whose cached ordering earlier k values have already
read.

``theta_hat`` evaluates its factor as (k/n)/p and the oracle as k/(n p); the
two agree exactly for the dyadic p used here. ``tef_random`` is checked with
the built-in specs whose weights need no power: the oracle applies psi to
scalars, and scalar and vectorised pow may round differently.
"""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from cotail import (
    ESTIMATORS,
    BivariateSample,
    CotailError,
    builtin_specs,
    estimate,
    hill_estimate,
    order_view,
    tef_random,
    theta_hat,
)

POOL = st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.0, 3.0, 4.5, 8.0])
VALUE = st.one_of(POOL, st.floats(min_value=1e-3, max_value=1e3))
SPECS = [spec for spec in builtin_specs() if not spec.name.startswith("capped_ratio")]


@st.composite
def cases(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    xs = draw(st.lists(VALUE, min_size=n, max_size=n))
    ys = draw(st.lists(st.one_of(st.just(0.0), VALUE), min_size=n, max_size=n))
    ks = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=4))
    params = {
        "y": draw(st.sampled_from([0.5, 1.0, 1.5])),
        "alpha": draw(st.sampled_from([0.5, 1.0, 2.0, 3.7])),
        "k_alpha": draw(st.integers(1, n - 1)),
        "norm": draw(st.sampled_from(["l2", "l1", "linf"])),
    }
    return xs, ys, ks, params


def _oracle(name, xs, ys, k, q):
    if name == "tdc_empirical":
        value = reference.tdc_empirical(xs, ys, k, q["y"])
        return value, value, None
    if name == "tdc_quasispectral":
        return (*reference.tdc_quasispectral(xs, ys, k, q["y"], q["alpha"]), q["alpha"])
    if name == "tdc_quasispectral_estimated":
        return reference.tdc_quasispectral_estimated(xs, ys, k, q["k_alpha"], q["y"])
    if name == "cte_aleph3":
        return (*reference.cte_aleph3(xs, ys, k), None)
    if name == "cte_aleph4":
        return (*reference.cte_aleph4(xs, ys, k, q["alpha"]), q["alpha"])
    return (*reference.edm(xs, ys, k, q["norm"]), None)


def _readers(xs, ys, k, q):
    """(name, library call on a sample, oracle call) for every level-k reader."""
    out = []
    for name in ESTIMATORS:
        def lib(s, name=name):
            est = estimate(name, s, k, **q)
            return est.value, est.plugin_variance, est.alpha_used

        out.append((name, lib, lambda name=name: _oracle(name, xs, ys, k, q)))
    out.append((
        "hill",
        lambda s: hill_estimate(order_view(s), q["k_alpha"]).alpha_hat,
        lambda: reference.hill_alpha(xs, q["k_alpha"]),
    ))
    for p in (0.5, 0.125, 2.0 ** -10):
        out.append((
            f"theta p={p}",
            lambda s, p=p: theta_hat(s, k, p, 1.5, q["alpha"]).theta_hat,
            lambda p=p: reference.theta(xs, ys, k, p, 1.5, q["alpha"]),
        ))
    for spec in SPECS:
        for scale in (0.5, 1.0, 2.0):
            out.append((
                f"tef_random {spec.name} s={scale}",
                lambda s, spec=spec, scale=scale: tef_random(s, spec, k, scale),
                lambda spec=spec, scale=scale: reference.tef_random(
                    xs, ys, spec.psi, spec.region, k, scale
                ),
            ))
    return out


def _check(context, lib_call, ref_call):
    try:
        expected, expected_error = ref_call(), None
    except CotailError as exc:
        expected, expected_error = None, type(exc)
    try:
        got, got_error = lib_call(), None
    except CotailError as exc:
        got, got_error = None, type(exc)
    assert (got_error, got) == (expected_error, expected), context


@settings(max_examples=150, deadline=None, database=None)
@given(cases())
def test_level_k_readers_match_oracle_fresh_and_cached(case):
    xs, ys, ks, q = case
    shared = BivariateSample(xs, ys)
    order = order_view(shared).order
    for k in ks:
        for name, lib, ref in _readers(xs, ys, k, q):
            _check(f"{name} k={k} fresh", lambda: lib(BivariateSample(xs, ys)), ref)
            _check(f"{name} k={k} cached", lambda: lib(shared), ref)
    assert order_view(shared).order is order
