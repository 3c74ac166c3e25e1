"""Property test: every level-k reader equals the brute-force oracle.

Samples are drawn with many tied x values (a small value pool mixed with
continuous draws), zeros in both margins, and several k per sample. Each
estimator is compared with ``tests/reference.py`` by exact equality (or the
same error type): on a freshly built sample, and on one shared sample read
again at every k. A third check reads every estimator off one
``LevelSweep`` over all of a sample's k: its full estimate and its value
alone must equal the oracle at each k.

The block checks do the same for samples held as the rows of one sweep, the
Monte Carlo engine's layout: rows of odd and even n, rows where x is mostly
0 (so the Hill step and ``cte_aleph3`` fail in some rows only) and rows with
y = 0. A sweep of such rows cut to their top pairs (by x, and by the norm
for ``edm``) with the rows' n must read as the whole rows do, with k_alpha
above every k too, and every reader must read a sweep of whole rows ranked
by x or by any norm as one ranked the way it reads. ``run_mc`` itself is
checked against the oracle with the draw replaced by such rows, chunk sizes
that do not divide the replication count and stacks of one, several or all
chunks. One more check holds every reader's value and plug-in variance to
the one rule on the influences it gives, on whole and cut rows.

Values run from the subnormals up to 1e3, with 0. The oracle applies the
library's range rules to the reference: a value, plug-in variance or Hill
log-ratio sum past the double range fails with ``NonFiniteEstimate`` (fsum's
intermediate overflow reads inf, as every term summed is nonnegative), and
so does ``edm`` where a pair among the top k by norm has a squared norm past
the double range or, nonzero, below the normal range (ranked by numpy's
norms: the reference's l2 norm underflows there). Where the reference has
no value, that check is left out: it divides by a y x_j that underflows to
0, or ``tef_random``'s meets a ratio x_j / T whose square overflows (psi's
squared norm) or that is past the double range (where the library takes
psi's homogeneous limit). A NaN reads as any NaN.

numpy's transcendental functions on the strided 2-D views the engine uses
must match their 1-D results bit for bit.

``theta_hat`` evaluates its factor as (k/n)/p and the oracle as k/(n p); the
two agree exactly for the dyadic p used here. ``tef_random`` is checked with
the built-in specs whose weights need no power: the oracle applies psi to
scalars, and scalar and vectorised pow may round differently.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from cotail import (
    ESTIMATORS,
    BivariateSample,
    CotailError,
    LevelSweep,
    LinearParetoModel,
    McCell,
    ModelConfig,
    NonFiniteEstimate,
    SampleRows,
    builtin_specs,
    estimate,
    exceedance_indices,
    hill_estimate,
    level_reader,
    order_view,
    run_mc,
    tef_random,
    theta_hat,
)
from cotail import simulate
from cotail.core import fraction_to_count, top_pairs
from cotail.tail_index import sweep_alphas

POOL = st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.0, 3.0, 4.5, 8.0])
VALUE = st.one_of(POOL, st.floats(min_value=1e-3, max_value=1e3),
                  st.floats(min_value=5e-324, max_value=1e-3))
TINY_NORMAL = np.finfo(float).tiny
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


def _fsum(values):
    # every weight, square and log-ratio summed here is nonnegative, so fsum's
    # intermediate overflow means a sum past the double range: it reads inf
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


# the reference's own ``math``, with that fsum
ORACLE_MATH = SimpleNamespace(**{**vars(math), "fsum": _fsum})


class Undefined(Exception):
    """The reference has no value: it divides by a y x_j that underflows to 0
    (x_j = 5e-324, y = 0.5), or meets a ratio x_j / T too large for psi."""


NUMPY_NORMS = {"l2": np.hypot, "l1": np.add, "linf": np.maximum}


def _hill(xs, k_alpha):
    alpha = reference.hill_alpha(xs, k_alpha)
    if alpha == 0.0:  # the log-ratios sum to inf
        raise NonFiniteEstimate("X_(n) / X_(n-k_alpha) is beyond the double range")
    return alpha


def _edm(xs, ys, k, norm):
    # a pair among the top k by norm whose square is beyond the double range,
    # or nonzero and below the normal range, fails the estimate. The top k are
    # ranked by numpy's norms, as the library ranks them: the reference's l2
    # norm, sqrt(x x + y y), is 0 where those squares underflow
    norms = NUMPY_NORMS[norm](xs, ys).tolist()
    for j in sorted(range(len(xs)), key=lambda j: -norms[j])[:k]:
        square = reference._sq_norm(xs[j], ys[j], norm)
        if not math.isfinite(square) or square < TINY_NORMAL and (xs[j] or ys[j]):
            raise NonFiniteEstimate("a squared norm is out of range")
    return reference.edm(xs, ys, k, norm)


def _reference(name, xs, ys, k, q):
    with mock.patch.object(reference, "math", ORACLE_MATH), _defined():
        if name == "tdc_empirical":
            value = reference.tdc_empirical(xs, ys, k, q["y"])
            return value, value, None
        if name == "tdc_quasispectral":
            return (*reference.tdc_quasispectral(xs, ys, k, q["y"], q["alpha"]), q["alpha"])
        if name == "tdc_quasispectral_estimated":
            alpha = _hill(xs, q["k_alpha"])
            return (*reference.tdc_quasispectral(xs, ys, k, q["y"], alpha), alpha)
        if name == "cte_aleph3":
            return (*reference.cte_aleph3(xs, ys, k), None)
        if name == "cte_aleph4":
            return (*reference.cte_aleph4(xs, ys, k, q["alpha"]), q["alpha"])
        return (*_edm(xs, ys, k, q["norm"]), None)


@contextmanager
def _defined():
    try:
        yield
    except ZeroDivisionError:
        raise Undefined from None


def _tef(xs, ys, spec, k, scale):
    # from 2^510 on a ratio x_j / T's square (psi's squared norm, any norm)
    # overflows, and past the double range the library takes psi's homogeneous
    # limit where the reference evaluates psi at inf: no value to compare there
    thr = reference.kth_threshold(xs, k)
    if thr > 0 and max(*xs, *ys) / thr >= 2.0 ** 510:
        raise Undefined
    with _defined():
        return reference.tef_random(xs, ys, spec.psi, spec.region, k, scale)


def _oracle(name, xs, ys, k, q):
    """The reference's value, plug-in variance and alpha; either one past the double range fails."""
    value, variance, alpha = _reference(name, xs, ys, k, q)
    if not (math.isfinite(value) and math.isfinite(variance)):
        raise NonFiniteEstimate(f"{name} at k = {k} is beyond the double range")
    return value, variance, alpha


def _oracle_value(name, xs, ys, k, q):
    """The reference's value alone; past the double range it fails."""
    value = _reference(name, xs, ys, k, q)[0]
    if not math.isfinite(value):
        raise NonFiniteEstimate(f"{name} at k = {k} is beyond the double range")
    return value


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
        lambda: _hill(xs, q["k_alpha"]),
    ))
    out.append((
        "order_view threshold",
        lambda s: order_view(s).threshold(k),
        lambda: reference.kth_threshold(xs, k),
    ))
    out.append((
        "exceedance_indices",
        lambda s: exceedance_indices(order_view(s), k).tolist(),
        lambda: [j for j, x in enumerate(xs) if x > reference.kth_threshold(xs, k)],
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
                lambda spec=spec, scale=scale: _tef(xs, ys, spec, k, scale),
            ))
    return out


def _check(context, lib_call, ref_call):
    try:
        expected, expected_error = ref_call(), None
    except CotailError as exc:
        expected, expected_error = None, type(exc)
    except Undefined:
        return
    try:
        got, got_error = lib_call(), None
    except CotailError as exc:
        got, got_error = None, type(exc)
    # a NaN reads as any NaN
    same = got == expected or got != got and expected != expected
    assert got_error == expected_error and same, (context, got_error, got, expected_error, expected)


@settings(max_examples=150, deadline=None, database=None)
@given(cases())
def test_level_k_readers_match_oracle_fresh_and_cached(case):
    xs, ys, ks, q = case
    shared = BivariateSample(xs, ys)
    for k in ks:
        for name, lib, ref in _readers(xs, ys, k, q):
            _check(f"{name} k={k} fresh", lambda: lib(BivariateSample(xs, ys)), ref)
            _check(f"{name} k={k} shared", lambda: lib(shared), ref)


@settings(max_examples=150, deadline=None, database=None)
@given(cases())
def test_one_sweep_matches_oracle_at_every_level(case):
    xs, ys, ks, q = case
    sweep = LevelSweep(BivariateSample(xs, ys), tuple(ks))
    for name in ESTIMATORS:
        try:
            reader, error = level_reader(name, sweep, **q), None
        except CotailError as exc:  # a Hill or parameter failure holds at every k
            reader, error = None, exc
        for k in ks:
            def full(k=k):
                if error is not None:
                    raise error
                est = reader.estimate(k)
                return est.value, est.plugin_variance, est.alpha_used

            def value(k=k):
                if error is not None:
                    raise error
                return reader.value(k)

            _check(f"{name} k={k} sweep", full, lambda k=k: _oracle(name, xs, ys, k, q))
            _check(
                f"{name} k={k} sweep value", value,
                lambda k=k: _oracle_value(name, xs, ys, k, q),
            )


RANKINGS = st.sampled_from([None, "l2", "l1", "linf"])


def _reads_as_ranked(sample, ks, q, ranking):
    # each reader gives on a sweep ranked by ``ranking`` the values, plug-in
    # variances and row errors it gives on one ranked as it reads (edm by
    # its norm, the others by x)
    drawn = LevelSweep(sample, tuple(ks), ranking)
    for name in ESTIMATORS:
        own = LevelSweep(sample, tuple(ks), q["norm"] if "norm" in ESTIMATORS[name].params else None)
        readers = [_outcome(lambda s=s: level_reader(name, s, **q)) for s in (drawn, own)]
        if isinstance(readers[1], type):  # a parameter failure holds for both
            assert readers[0] == readers[1], name
            continue
        for k in ks:
            got, want = (r.influence(k) for r in readers)
            assert np.array_equal(got, want, equal_nan=True), (name, k)
            got, want = ([_row_outcome(v) for v in r.values(k)] for r in readers)
            assert got == want, (name, k)
            got, want = (_outcome(lambda r=r: r.estimate(k)) for r in readers)
            assert got == want, (name, k)


@settings(max_examples=150, deadline=None, database=None)
@given(cases(), RANKINGS)
def test_every_reader_reads_a_sample_swept_by_any_ranking(case, ranking):
    xs, ys, ks, q = case
    _reads_as_ranked(BivariateSample(xs, ys), ks, q, ranking)


ZERO_HEAVY = st.one_of(st.just(0.0), st.just(0.0), st.just(0.0), VALUE)


@st.composite
def blocks(draw, max_rows=6):
    """Rows of equal n: mixed rows, rows whose x is mostly 0, rows with y = 0."""
    n = draw(st.integers(min_value=2, max_value=31))
    xs, ys = [], []
    for _ in range(draw(st.integers(1, max_rows))):
        kind = draw(st.sampled_from(["mixed", "zero_x", "zero_y"]))
        x_value = ZERO_HEAVY if kind == "zero_x" else VALUE
        xs.append(draw(st.lists(x_value, min_size=n, max_size=n)))
        y_value = st.just(0.0) if kind == "zero_y" else st.one_of(st.just(0.0), VALUE)
        ys.append(draw(st.lists(y_value, min_size=n, max_size=n)))
    ks = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=4))
    params = {
        "y": draw(st.sampled_from([0.5, 1.0, 1.5])),
        "alpha": draw(st.sampled_from([0.5, 1.0, 2.0, 3.7])),
        "k_alpha": draw(st.integers(1, n - 1)),
        "norm": draw(st.sampled_from(["l2", "l1", "linf"])),
    }
    return xs, ys, ks, params


def _outcome(call):
    try:
        return call()
    except (CotailError, Undefined) as exc:
        return type(exc)


def _row_outcome(value):
    return type(value) if isinstance(value, CotailError) else value


@settings(max_examples=150, deadline=None, database=None)
@given(blocks())
def test_block_rows_match_oracle(case):
    xs, ys, ks, q = case
    sweep = LevelSweep(SampleRows(np.array(xs), np.array(ys)), tuple(ks))
    for name in ESTIMATORS:
        try:
            reader, error = level_reader(name, sweep, **q), None
        except CotailError as exc:  # a parameter failure holds in every row
            reader, error = None, type(exc)
        for k in ks:
            got = [error] * len(xs) if error else [_row_outcome(v) for v in reader.values(k)]
            want = [
                _outcome(lambda: _oracle_value(name, x, y, k, q)) for x, y in zip(xs, ys)
            ]
            assert all(g == w for g, w in zip(got, want) if w is not Undefined), (name, k)
    # the Hill step and the thresholds of every row
    alphas = [_row_outcome(a) for a in sweep_alphas(sweep, q["k_alpha"])]
    assert alphas == [_outcome(lambda: _hill(x, q["k_alpha"])) for x in xs]
    for k in ks:
        assert sweep.threshold(k).tolist() == [reference.kth_threshold(x, k) for x in xs]


@settings(max_examples=150, deadline=None, database=None)
@given(blocks(), st.data())
def test_a_sweep_of_cut_rows_reads_as_the_whole_rows(case, data):
    # the Monte Carlo engine's sweep: each row cut to its top max(levels) + 1
    # pairs by x (by the norm for edm) and swept, ranked alike, with the rows'
    # n. Every reader must give the whole rows' sums, failures and values bit
    # for bit, k_alpha above every k included
    xs, ys, ks, q = case
    n = len(xs[0])
    q = {**q, "k_alpha": data.draw(st.one_of(st.just(q["k_alpha"]), st.integers(max(ks), n - 1)))}
    rows = SampleRows(np.array(xs), np.array(ys))
    levels = (*ks, q["k_alpha"])
    width = max(levels)
    whole = LevelSweep(rows, levels)
    cut = {
        norm: LevelSweep(SampleRows(*top_pairs(rows, width, norm)), levels, norm, n)
        for norm in (None, q["norm"])
    }
    assert cut[None].sample.x.shape == (len(xs), width + 1)
    for k in levels:
        assert cut[None].threshold(k).tolist() == whole.threshold(k).tolist()
        assert cut[None].count(k).tolist() == whole.count(k).tolist()
    for name in ESTIMATORS:
        sweep = cut[q["norm"] if "norm" in ESTIMATORS[name].params else None]
        readers = [_outcome(lambda s=s: level_reader(name, s, **q)) for s in (whole, sweep)]
        if isinstance(readers[0], type):  # a parameter failure holds for both
            assert readers[1] == readers[0], name
            continue
        for k in ks:
            # the exceedances' order among ties is the selection's, not their weights
            want, got = (np.sort(r.influence(k), axis=1) for r in readers)
            assert np.array_equal(got, want, equal_nan=True), (name, k)
            want, got = ([_row_outcome(v) for v in r.values(k)] for r in readers)
            assert got == want, (name, k)


@settings(max_examples=150, deadline=None, database=None)
@given(blocks(), RANKINGS)
def test_every_reader_reads_block_rows_swept_by_any_ranking(case, ranking):
    xs, ys, ks, q = case
    _reads_as_ranked(SampleRows(np.array(xs), np.array(ys)), ks, q, ranking)


@settings(max_examples=150, deadline=None, database=None)
@given(cases())
def test_every_plugin_variance_is_the_one_rule_on_whole_and_cut_rows(case):
    # value = factor * (1/k) fsum of a row's influences at k, and plug-in
    # variance = factor^2 * (1/k) fsum of their squares (in the library's
    # rounding order), for every estimator, on the whole row and on the row
    # cut to its top pairs; the influences past the row's exceedances are 0
    xs, ys, ks, q = case
    n, width = len(xs), max(*ks, q["k_alpha"])
    row = SampleRows(np.array([xs]), np.array([ys]))
    for name in ESTIMATORS:
        norm = q["norm"] if "norm" in ESTIMATORS[name].params else None
        cut = SampleRows(*top_pairs(row, width, norm))
        for sweep in (LevelSweep(BivariateSample(xs, ys), tuple(ks), norm),
                      LevelSweep(cut, (*ks, q["k_alpha"]), norm, n)):
            reader = _outcome(lambda: level_reader(name, sweep, **q))
            for k in ks:
                est = reader if isinstance(reader, type) else _outcome(lambda: reader.estimate(k))
                if isinstance(est, type):  # a parameter, Hill or range failure
                    continue
                phi, count = reader.influence(k), int(sweep.count(k)[0])
                assert phi.shape == (1, k) and not phi[0, count:].any(), (name, k)
                f = reader.factor
                assert est.value == f * (math.fsum(phi[0, :count]) / k), (name, k)
                assert est.plugin_variance == f * f * (math.fsum(phi[0, :count] ** 2) / k), (name, k)


def _summary_cell(values, reps, truth):
    stats = [None] * 7
    if values:
        arr = np.asarray(values, dtype=float)
        # a mean or sd whose sums overflow is taken on arr / max|arr|, as the summary takes it
        sd = simulate._finite_stat(lambda a: np.std(a, ddof=1), arr) if arr.size > 1 else 0.0
        qs = np.quantile(arr, [0.05, 0.25, 0.5, 0.75, 0.95])
        stats = [simulate._finite_stat(np.mean, arr), sd, *(float(v) for v in qs)]
    return McCell(*stats, rep_count=reps, failures=reps - len(values), truth=truth)


@settings(max_examples=60, deadline=None, database=None)
@given(blocks(max_rows=9), st.integers(1, 4), st.sampled_from([0.5, 1.0, 2.0, 3.7]),
       st.sampled_from([0, 1 << 12, 1 << 30]))
def test_run_mc_chunks_match_oracle(case, chunk, alpha, stack_bytes):
    # the draw serves the drawn rows in replication order, so each chunk holds
    # rows lo..hi-1; the replication count need not be a multiple of the chunk,
    # and a stack holds one chunk, a few or all of them
    xs, ys, _, q = case
    n, reps = len(xs[0]), len(xs)

    def rows(model, seed, span, n):
        return np.array([xs[r] for r in span]), np.array([ys[r] for r in span])

    config = ModelConfig(LinearParetoModel(0.8, 0.1, alpha), n=n, seed=0)
    k_fracs, ka_fracs = (0.2, 0.5, 0.9), (0.3, 0.7)
    with mock.patch.object(LinearParetoModel, "sample_rows", rows), \
            mock.patch.object(simulate, "_chunk_rows", lambda n: chunk), \
            mock.patch.object(simulate, "_STACK_BYTES", stack_bytes):
        summary = run_mc(config, reps, k_fracs, ka_fracs, tuple(ESTIMATORS), q["y"])
    params = {**q, "alpha": alpha, "norm": "l2"}
    for (name, kf, kaf), cell in summary.cells.items():
        k = fraction_to_count(kf, n)
        ka = None if kaf is None else fraction_to_count(kaf, n)
        outcomes = [
            _outcome(lambda: _oracle_value(name, x, y, k, {**params, "k_alpha": ka}))
            for x, y in zip(xs, ys)
        ]
        if Undefined in outcomes:
            continue
        values = [v for v in outcomes if not isinstance(v, type)]
        # a tdc_* cell at y = 1 estimates the model's tail dependence coefficient
        tdc = name.startswith("tdc_")
        truth = config.model.tail_dependence if q["y"] == 1.0 and tdc else None
        assert cell == _summary_cell(values, reps, truth), (name, kf, kaf)


def test_strided_2d_transcendentals_match_1d():
    # the engine applies log, sqrt, sin, cos and pow to column slices of wider
    # rows (the Box-Muller blocks, the Pareto block) and to fresh 2-D blocks
    # (the weights, the Hill log-ratios); every element must equal the 1-D
    # result on a contiguous copy. A reversed (negative-stride) view is not
    # among them: numpy computes it by another loop, and at this numpy its log
    # and pow can differ from the contiguous result in the last bit
    gen = np.random.default_rng(2024)
    exponents = [4.0, 3.7, 2.0, 0.5, -1.0, -0.25, 1.0 / 3.0]
    for rows in (1, 2, 3, 8, 9):
        for width in (1, 7, 8, 31, 64, 201, 500):
            wide = gen.random((rows, width + 13)) + 2.0 ** -54
            views = [wide[:, 5:5 + width], wide[::2, 3:3 + width], wide[:, :width] * 1.0]
            for view in views:
                for f in (np.log, np.sqrt, np.sin, np.cos):
                    block = f(view)
                    for r in range(view.shape[0]):
                        assert block[r].tobytes() == f(view[r].copy()).tobytes(), (f, rows, width)
                for a in exponents:
                    block = view ** a
                    for r in range(view.shape[0]):
                        assert block[r].tobytes() == (view[r].copy() ** a).tobytes(), (a, rows)
                # one exponent per row: the Hill-estimated weights raise row by row
                row_alphas = gen.random(view.shape[0]) * 5.0 + 0.1
                for r, a in enumerate(row_alphas.tolist()):
                    assert (view[r] ** a).tobytes() == (view[r].copy() ** a).tobytes()
