import dataclasses
import json
import math
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import stdtr

import cotail.simulate as simulate
from cotail import (
    ESTIMATORS,
    BivariateTModel,
    CotailError,
    LinearParetoModel,
    McCell,
    ModelConfig,
    ZeroSpread,
    edm_estimate,
    estimate,
    run_mc,
    sample_dataset,
    tdc_empirical,
)
from cotail.cli import ingest_text, main
from cotail.core import fraction_to_count
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
    # nu / 2 underflows to 0: the message names nu, not the gamma shape
    with pytest.raises(ValueError, match="^nu must be"):
        BivariateTModel(nu=5e-324, rho=0.5)
    assert BivariateTModel(nu=1e-323, rho=0.5).nu == 1e-323
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
        z1 = crng.standard_normal([gen], [n])
        z2 = rho * z1 + math.sqrt(1 - rho * rho) * crng.standard_normal([gen], [n])
        got = float(np.corrcoef(z1, z2)[0, 1])
        assert abs(got - rho) < 0.01


def test_gamma_sampler_moments():
    gen = crng.generator(10)
    for shape in (0.5, 1.0, 2.0, 4.5):
        draws = crng.standard_gamma([gen], shape, 200_000)[0]
        assert np.all(draws > 0)
        assert float(np.mean(draws)) == pytest.approx(shape, rel=0.02)
        assert float(np.var(draws)) == pytest.approx(shape, rel=0.05)


def test_chi_square_matches_gamma_scaling():
    gen = crng.generator(11)
    draws = crng.chi_square([gen], 4.0, 100_000)[0]
    assert float(np.mean(draws)) == pytest.approx(4.0, rel=0.02)


def test_pareto_ks_distance_across_seeds():
    # 1% critical value of the one-sample KS statistic, asymptotic form
    n = 100_000
    crit = 1.6276 / math.sqrt(n)
    below = 0
    for seed in range(20):
        draws = np.sort(crng.pareto([crng.generator(seed)], 4.0, n)[0])
        cdf = 1.0 - draws ** -4.0
        grid = np.arange(1, n + 1) / n
        d = float(np.max(np.maximum(np.abs(grid - cdf), np.abs(grid - 1 / n - cdf))))
        below += d < crit
    assert below >= 19


# The sampler's earlier formulas: the integer rule for uniforms, two uniform
# draws and a concatenate for Box-Muller, and a gathered acceptance test.
def _reference_open_uniform(gen, size):
    return (gen.integers(0, 2**53, size=size, dtype=np.int64) + 0.5) * 2**-53


def _reference_standard_normal(gen, size):
    half = (size + 1) // 2
    u1 = _reference_open_uniform(gen, half)
    u2 = _reference_open_uniform(gen, half)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * math.pi) * u2
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:size]


def _reference_gamma_at_least_one(gen, shape, size):
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(size, dtype=float)
    todo = np.arange(size)
    while todo.size:
        x = _reference_standard_normal(gen, todo.size)
        v = (1.0 + c * x) ** 3
        u = _reference_open_uniform(gen, todo.size)
        accept = np.zeros(todo.size, dtype=bool)
        pos = v > 0.0
        if pos.any():
            xp, vp = x[pos], v[pos]
            accept[pos] = np.log(u[pos]) < (0.5 * xp * xp + d - d * vp + d * np.log(vp))
        out[todo[accept]] = d * v[accept]
        todo = todo[~accept]
    return out


def _reference_standard_gamma(gen, shape, size):
    if shape < 1.0:
        boost = _reference_open_uniform(gen, size) ** (1.0 / shape)
        return _reference_gamma_at_least_one(gen, shape + 1.0, size) * boost
    return _reference_gamma_at_least_one(gen, shape, size)


# draw id -> (rng draw, called as f(gens, size) for one row per generator,
# reference draw, called as f(gen, size))
SAMPLER_DRAWS = {
    "uniform": (crng.open_uniform, _reference_open_uniform),
    "normal": (
        lambda gens, size: crng.standard_normal(gens, [size] * len(gens)).reshape(len(gens), size),
        _reference_standard_normal,
    ),
    **{
        f"gamma_{shape}": (
            lambda gens, size, shape=shape: crng.standard_gamma(gens, shape, size),
            lambda gen, size, shape=shape: _reference_standard_gamma(gen, shape, size),
        )
        for shape in (0.3, 0.5, 1.0, 2.0, 7.5)
    },
    **{
        f"chi_square_{df}": (
            lambda gens, size, df=df: crng.chi_square(gens, df, size),
            lambda gen, size, df=df: 2.0 * _reference_standard_gamma(gen, df / 2.0, size),
        )
        for df in (1.0, 4.0)
    },
    "pareto": (
        lambda gens, size: crng.pareto(gens, 4.0, size),
        lambda gen, size: _reference_open_uniform(gen, size) ** (-1.0 / 4.0),
    ),
}


SAMPLER_KEYS = [0, 1, 2, 3, 303, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15]


def _state(gen):
    return json.dumps(gen.bit_generator.state, default=lambda a: a.tolist(), sort_keys=True)


@pytest.mark.parametrize("draw", sorted(SAMPLER_DRAWS))
def test_sampler_matches_its_reference_formulas_bit_for_bit(draw):
    # shape 1.0 at size 1000 meets candidates with v <= 0 (about 0.7% of them);
    # a partial draw first leaves Philox mid-way through its four-word buffer
    new, reference = SAMPLER_DRAWS[draw]
    for key in SAMPLER_KEYS:
        for size in (1, 2, 3, 17, 1000, 1001):
            for before in (0, 1, 3):
                a, b = crng.generator(key), crng.generator(key)
                if before:
                    crng.standard_normal([a], [before])
                    _reference_standard_normal(b, before)
                got, want = new([a], size)[0], reference(b, size)
                assert got.dtype == want.dtype and got.shape == want.shape == (size,)
                assert got.tobytes() == want.tobytes(), (key, size, before)
                assert _state(a) == _state(b), (key, size, before)
                # the next draw starts at the same place
                assert new([a], 5)[0].tobytes() == reference(b, 5).tobytes()


@pytest.mark.parametrize("draw", sorted(SAMPLER_DRAWS))
def test_rows_draws_match_their_reference_formulas_row_by_row(draw):
    # one row per key, each generator first left at its own place in Philox's
    # four-word buffer; every row must equal its own reference draw, and every
    # generator must end where that draw leaves it
    rows, reference = SAMPLER_DRAWS[draw]
    for size in (1, 2, 3, 17, 1000, 1001):
        gens = [crng.generator(key) for key in SAMPLER_KEYS]
        refs = [crng.generator(key) for key in SAMPLER_KEYS]
        for before, (a, b) in enumerate(zip(gens, refs)):
            crng.standard_normal([a], [before % 4])
            _reference_standard_normal(b, before % 4)
        got = rows(gens, size)
        assert got.shape == (len(SAMPLER_KEYS), size)
        for i, (a, b) in enumerate(zip(gens, refs)):
            assert got[i].tobytes() == reference(b, size).tobytes(), (size, i)
            assert _state(a) == _state(b), (size, i)


def test_normal_rows_of_different_sizes_match_the_reference():
    # one Box-Muller over rows of odd, even and zero sizes, then a second draw
    sizes = [0, 1, 2, 5, 17, 64, 1001, 3]
    gens = [crng.generator(7, rep) for rep in range(len(sizes))]
    refs = [crng.generator(7, rep) for rep in range(len(sizes))]
    got = crng.standard_normal(gens, sizes)
    want = np.concatenate([_reference_standard_normal(b, k) for b, k in zip(refs, sizes)])
    assert got.tobytes() == want.tobytes()
    assert [_state(a) for a in gens] == [_state(b) for b in refs]
    for a, b in zip(gens, refs):
        assert crng.open_uniform([a], 3)[0].tobytes() == _reference_open_uniform(b, 3).tobytes()


def test_streams_rekey_one_pool_of_generators():
    first = crng.streams(5, range(3))
    assert [_state(gen) for gen in first] == [_state(crng.generator(5, rep)) for rep in range(3)]
    draws = [gen.random() for gen in first]
    again = crng.streams(5, [2, 0])
    assert again == first[:2]  # the same objects, re-keyed from counter 0
    assert [gen.random() for gen in again] == [draws[2], draws[0]]
    assert crng.streams(5, []) == []


def test_seed_mixing_distinct_streams():
    config = ModelConfig(LinearParetoModel(0.8, 0.1, 4.0), 100, 123)
    a, b = sample_dataset(config, 0), sample_dataset(config, 1)
    assert not np.array_equal(a.x, b.x)
    # replication 0 keeps the stream of a plain seeded generator
    plain = np.random.Generator(np.random.Philox(key=123))
    assert np.array_equal(a.x, crng.pareto([plain], 4.0, 100)[0])


def test_stream_keys_are_injective_in_seed_and_rep():
    # seed XOR rep would map (0, 1) and (1, 0), and (2**64, 0) and (0, 0), together
    seeds = [0, 1, 2, 3, 4, 7, 8, 255, 2**32, 2**63, 2**64 - 1]
    keys = {crng.stream_key(seed, rep).tobytes() for seed in seeds for rep in range(300)}
    assert len(keys) == len(seeds) * 300
    assert crng.stream_key(5, 2**64 - 1).tolist() == [5, 2**64 - 1]
    first = {crng.generator(seed, rep).random() for seed in seeds for rep in range(8)}
    assert len(first) == len(seeds) * 8


def test_adjacent_seeds_give_different_summaries():
    # 200 replications cover every key seed XOR rep for seeds 0-7 alike
    cells = []
    for seed in range(5):
        config = ModelConfig(LinearParetoModel(0.8, 0.1, 4.0), n=200, seed=seed)
        summary = run_mc(config, reps=200, k_fractions=[0.1], estimators=("tdc_quasispectral",))
        cells.append(summary.cells[("tdc_quasispectral", 0.1, None)])
    assert len({cell.mean for cell in cells}) == 5


def test_run_mc_single_rep_equals_direct_estimate():
    config = ModelConfig(LinearParetoModel(0.8, 0.1, 4.0), n=500, seed=303)
    summary = run_mc(
        config, reps=1, k_fractions=[0.1], estimators=("tdc_empirical", "edm")
    )
    cell = summary.cells[("tdc_empirical", 0.1, None)]
    sample = sample_dataset(config)
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
    # a CotailError in one row of a stack fails that replication's cell only;
    # one while binding a reader fails the cell in every row of the stack.
    # 10 replications drawn in chunks of 2 and swept in stacks of 4 (the byte
    # budget of 4 cut rows at width 20): rows 4-7 fail at the bind, and row 2
    # of each stack (replications 2 and 6) at its level
    real = simulate.level_reader
    binds, draws = [], []

    def flaky(name, sweep, **params):
        binds.append(sweep.rows)
        if len(binds) == 2:
            raise ZeroSpread("forced failure")
        reader = real(name, sweep, **params)

        def failed(k):
            return [ZeroSpread("forced") if i == 2 else None for i in range(sweep.rows)]

        return dataclasses.replace(reader, failed=failed)

    real_rows = simulate._sample_rows

    def counted(config, lo, hi):
        draws.append(hi - lo)
        return real_rows(config, lo, hi)

    monkeypatch.setattr(simulate, "level_reader", flaky)
    monkeypatch.setattr(simulate, "_sample_rows", counted)
    monkeypatch.setattr(simulate, "_chunk_rows", lambda n: 2)
    monkeypatch.setattr(simulate, "_STACK_BYTES", 4 * 64 * 21)
    config = ModelConfig(LinearParetoModel(0.8, 0.1, 4.0), n=100, seed=1)
    summary = run_mc(config, reps=10, k_fractions=[0.2], estimators=("tdc_empirical",))
    cell = summary.cells[("tdc_empirical", 0.2, None)]
    assert draws == [2] * 5
    assert binds == [4, 4, 2]
    assert cell.failures == 4 + 1
    assert cell.rep_count == 10
    kept = [0, 1, 3, 8, 9]
    expected = [tdc_empirical(sample_dataset(config, rep), 20).value for rep in kept]
    assert cell.mean == float(np.mean(expected))


def test_run_mc_failures_map_onto_their_cells(monkeypatch):
    # x sorted: 50 zeros, 1..30, then 20 ties at 50.  Hill at k_alpha = 10 sees
    # only the ties (ZeroSpread), at 50 a zero base (NonPositiveThreshold), at
    # 30 a positive spread; cte_aleph3's threshold is 0 at k = 60 only
    x = np.array([0.0] * 50 + [float(v) for v in range(1, 31)] + [50.0] * 20)
    def rows(model, seed, reps, n):
        return np.tile(x[::-1], (len(reps), 1)), np.tile(0.5 * x[::-1] + 1.0, (len(reps), 1))

    monkeypatch.setattr(LinearParetoModel, "sample_rows", rows)
    config = ModelConfig(LinearParetoModel(0.8, 0.1, 4.0), n=100, seed=1)
    summary = run_mc(
        config, reps=2, k_fractions=[0.1, 0.3, 0.6], k_alpha_fractions=[0.1, 0.3, 0.5],
        estimators=("tdc_empirical", "tdc_quasispectral_estimated", "cte_aleph3"),
    )
    failures = {key: cell.failures for key, cell in summary.cells.items()}
    for kf in (0.1, 0.3, 0.6):
        assert failures[("tdc_empirical", kf, None)] == 0
        assert failures[("tdc_quasispectral_estimated", kf, 0.1)] == 2
        assert failures[("tdc_quasispectral_estimated", kf, 0.3)] == 0
        assert failures[("tdc_quasispectral_estimated", kf, 0.5)] == 2
        assert failures[("cte_aleph3", kf, None)] == (2 if kf == 0.6 else 0)


def test_run_mc_lets_a_value_error_through(monkeypatch):
    def broken(name, sweep, **params):
        raise ValueError("forced")

    monkeypatch.setattr(simulate, "level_reader", broken)
    config = ModelConfig(LinearParetoModel(0.8, 0.1, 4.0), n=100, seed=1)
    with pytest.raises(ValueError, match="forced"):
        run_mc(config, reps=2, k_fractions=[0.2], estimators=("tdc_empirical",))


def _mc_by_estimate(config, reps, k_fracs, ka_fracs, names, y):
    """run_mc written as one ``estimate`` call per cell and replication."""
    n = config.n
    params = {"alpha": config.model.tail_index, "y": y, "norm": "l2"}
    values = {}
    for name in names:
        kafs = sorted(ka_fracs) if "k_alpha" in ESTIMATORS[name].params else [None]
        for kf in sorted(k_fracs):
            for kaf in kafs:
                values[(name, kf, kaf)] = []
    for rep in range(reps):
        sample = sample_dataset(config, rep)
        for (name, kf, kaf), vals in values.items():
            k = fraction_to_count(kf, n)
            ka = None if kaf is None else fraction_to_count(kaf, n)
            try:
                vals.append(estimate(name, sample, k, k_alpha=ka, **params).value)
            except CotailError:
                pass
    cells = {}
    for key, vals in values.items():
        stats = [None] * 7
        if vals:
            arr = np.asarray(vals)
            sd = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
            qs = np.quantile(arr, [0.05, 0.25, 0.5, 0.75, 0.95])
            stats = [float(np.mean(arr)), sd, *(float(q) for q in qs)]
        # a tdc_* cell at y = 1 estimates the model's tail dependence coefficient
        tdc = key[0].startswith("tdc_")
        truth = config.model.tail_dependence if y == 1.0 and tdc else None
        cells[key] = McCell(*stats, rep_count=reps, failures=reps - len(vals), truth=truth)
    return cells


@pytest.mark.parametrize("model", [BivariateTModel(4.0, 0.9), LinearParetoModel(0.8, 0.1, 0.8)])
def test_run_mc_equals_one_estimate_per_cell(model):
    # every estimator, two k_alpha fractions, y off the diagonal; alpha 0.8
    # fails every cte_aleph4 cell
    config = ModelConfig(model, n=150, seed=42)
    args = (config, 12, (0.05, 0.2, 0.4), (0.1, 0.3), tuple(ESTIMATORS), 1.5)
    summary = run_mc(*args)
    expected = _mc_by_estimate(*args)
    assert list(summary.cells) == list(expected)
    for key, cell in summary.cells.items():
        assert cell == expected[key], key


def _reference_draw(model, seed, rep, n):
    """Replication rep of seed, drawn in the order the model's ``sample_rows`` documents.

    Every draw is one of the reference formulas above, one row at a time.
    """
    gen = crng.generator(seed, rep)
    if isinstance(model, LinearParetoModel):
        x = _reference_open_uniform(gen, n) ** (-1.0 / model.alpha)
        return x, model.phi * x + model.sigma * np.abs(_reference_standard_normal(gen, n))
    root_w = np.sqrt(model.nu / (2.0 * _reference_standard_gamma(gen, model.nu / 2.0, n)))
    z1 = _reference_standard_normal(gen, n)
    z2 = model.rho * z1 + math.sqrt(1.0 - model.rho ** 2) * _reference_standard_normal(gen, n)
    return root_w * np.abs(z1), root_w * np.abs(z2)


@pytest.mark.parametrize("model", [BivariateTModel(4.0, 0.9), LinearParetoModel(0.8, 0.1, 4.0)])
@pytest.mark.parametrize("n", [57, 60])
def test_sample_rows_equal_one_sample_per_replication(model, n):
    # every row of a chunk, and sample_dataset's one row, is the documented draw
    config = ModelConfig(model, n=n, seed=2**64 + 11)
    x, y = model.sample_rows(config.seed, range(5, 12), n)
    assert x.shape == y.shape == (7, n)
    for i, rep in enumerate(range(5, 12)):
        want_x, want_y = _reference_draw(model, config.seed, rep, n)
        sample = sample_dataset(config, rep)
        for got_x, got_y in ((x[i], y[i]), (sample.x, sample.y)):
            assert got_x.tobytes() == want_x.tobytes() and got_y.tobytes() == want_y.tobytes()


@settings(max_examples=150, deadline=None, database=None)
@given(
    seed=st.integers(-(2**80), 2**80),
    start=st.integers(0, 2**64 - 9),
    rows=st.integers(1, 9),
    n=st.integers(1, 64),
    nu=st.one_of(st.just(2.0), st.floats(0.05, 60.0, exclude_min=True, exclude_max=True)),
    rho=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_bivariate_t_rows_equal_the_reference_draw(seed, start, rows, n, nu, rho):
    # nu = 2 is gamma shape 1, where candidates with v <= 0 occur; below it
    # the shape < 1 boost runs. Rows of one chunk finish their rounds apart.
    model = BivariateTModel(nu, rho)
    reps = range(start, start + rows)
    with np.errstate(over="ignore", divide="ignore"):  # as in simulate._sample_rows
        x, y = model.sample_rows(seed, reps, n)
        for i, rep in enumerate(reps):
            want_x, want_y = _reference_draw(model, seed, rep, n)
            assert x[i].tobytes() == want_x.tobytes() and y[i].tobytes() == want_y.tobytes()


@dataclasses.dataclass(frozen=True)
class _ScaledParetoModel:
    """A model written to the one draw contract: x standard Pareto(2), y = scale * x."""

    scale: float = 0.5

    @property
    def tail_index(self) -> float:
        return 2.0

    @property
    def tail_dependence(self) -> float:
        return self.scale ** 2

    def sample_rows(self, seed, reps, n):
        x = crng.pareto(crng.streams(seed, reps), 2.0, n)
        return x, self.scale * x


def test_a_model_with_only_sample_rows_runs_everywhere(monkeypatch, capsys):
    monkeypatch.setitem(simulate.MODELS, "scaled-pareto", _ScaledParetoModel)
    config = ModelConfig(_ScaledParetoModel(), n=60, seed=5)
    sample = sample_dataset(config, 2)
    want = crng.pareto([crng.generator(5, 2)], 2.0, 60)[0]
    assert sample.x.tobytes() == want.tobytes()
    assert sample.y.tobytes() == (0.5 * want).tobytes()

    args = (config, 6, (0.1, 0.3), (0.2,), ("tdc_empirical", "tdc_quasispectral_estimated"), 1.0)
    summary = run_mc(*args)
    assert summary.cells == _mc_by_estimate(*args)
    assert summary.truth == 0.25

    argv = ["simulate", "--model", "scaled-pareto", "--n", "60", "--seed", "5", "--scale", "0.5"]
    assert main(argv) == 0
    printed = ingest_text(capsys.readouterr().out.encode())
    first = sample_dataset(config)
    assert np.array_equal(printed.x, first.x) and np.array_equal(printed.y, first.y)


def test_run_mc_counts_non_finite_estimates_as_failures(monkeypatch):
    # x in [1, 1.1); replications 1 and 4 hold y = 1.7e308, so at k = 10 every
    # weight of both CTE estimators is finite but their sum is not
    x = 1.0 + np.arange(100) / 1000

    def rows(model, seed, reps, n):
        y = [np.full(n, 1.7e308) if rep % 3 == 1 else 0.5 * x for rep in reps]
        return np.tile(x, (len(reps), 1)), np.array(y)

    monkeypatch.setattr(LinearParetoModel, "sample_rows", rows)
    config = ModelConfig(LinearParetoModel(0.8, 0.1, 4.0), n=100, seed=1)
    names = ("cte_aleph3", "cte_aleph4", "tdc_empirical")
    cells = run_mc(config, reps=6, k_fractions=[0.1], estimators=names).cells
    assert cells[("cte_aleph3", 0.1, None)].failures == 2
    assert cells[("cte_aleph4", 0.1, None)].failures == 2
    assert cells[("cte_aleph4", 0.1, None)].mean == 4.0 / 3.0 * 0.5
    assert cells[("tdc_empirical", 0.1, None)].failures == 0


def test_run_mc_chunks_leave_the_summary_unchanged(monkeypatch):
    # 13 replications in chunks of 1, 5 (5 + 5 + 3) and the default size, each
    # swept in stacks of one chunk, of up to 3 rows (the budget of 3 cut rows
    # at width 20) and of the default size: edm's cells among them
    config = ModelConfig(LinearParetoModel(0.8, 0.1, 0.8), n=41, seed=77)
    args = (config, 13, (0.05, 0.2, 0.5), (0.1, 0.4), tuple(ESTIMATORS), 1.0)
    summaries = [run_mc(*args)]
    for rows in (1, 5):
        for stack_bytes in (0, 3 * 64 * 21, simulate._STACK_BYTES):
            monkeypatch.setattr(simulate, "_chunk_rows", lambda n: rows)
            monkeypatch.setattr(simulate, "_STACK_BYTES", stack_bytes)
            summaries.append(run_mc(*args))
    assert all(summary == summaries[0] for summary in summaries)
    assert summaries[0].cells == _mc_by_estimate(*args)


def test_chunk_rows_follow_a_byte_budget():
    assert simulate._chunk_rows(1000) == 10
    assert simulate._chunk_rows(10**7) == 1
    assert simulate._chunk_rows(100) == 102


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
    # the criterion-1 study: 15 cells and a Hill step. Each chunk of rows is
    # partitioned once, to its top pairs, and each stack of cut rows is
    # sorted once, never stably; the Hill step reads the same sort
    calls = []
    for name in ("argsort", "argpartition"):
        def counting(a, *args, _name=name, _real=getattr(np, name), **kwargs):
            calls.append((_name, np.shape(a), kwargs.get("kind")))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    monkeypatch.setattr(simulate, "_chunk_rows", lambda n: 2)
    monkeypatch.setattr(simulate, "_STACK_BYTES", 4 * 64 * 401)
    config = ModelConfig(LinearParetoModel(0.8, 0.1, 4.0), n=1000, seed=20_260_808)
    summary = run_mc(
        config,
        reps=5,
        k_fractions=(0.05, 0.1, 0.2, 0.3, 0.4),
        k_alpha_fractions=(0.2,),
        estimators=("tdc_empirical", "tdc_quasispectral", "tdc_quasispectral_estimated"),
    )
    assert len(summary.cells) == 15
    # chunks of 2, 2 and 1 rows; stacks of 4 and 1 rows, each cut to 401 pairs
    assert calls == [
        ("argpartition", (2, 1000), None), ("argpartition", (2, 1000), None),
        ("argsort", (4, 401), None), ("argpartition", (1, 1000), None), ("argsort", (1, 401), None),
    ]


def test_run_mc_sorts_each_sample_once_per_ranking(monkeypatch):
    # edm ranks the pairs by their l2 norm, the others by x: each chunk is
    # partitioned once per ranking, x's to k_alpha = 500 and the norm's to
    # k = 400, and each stack of cut rows is sorted once per ranking; edm
    # reads the norm's sweep as it is and the Hill step reads x's. With edm
    # alone, no row is cut or sorted by x
    calls = []
    for name in ("argsort", "argpartition"):
        def counting(a, *args, _name=name, _real=getattr(np, name), **kwargs):
            calls.append((_name, np.shape(a), kwargs.get("kind")))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    monkeypatch.setattr(simulate, "_chunk_rows", lambda n: 2)
    monkeypatch.setattr(simulate, "_STACK_BYTES", 4 * 64 * 501)
    config = ModelConfig(LinearParetoModel(0.8, 0.1, 4.0), n=1000, seed=20_260_808)
    summary = run_mc(
        config,
        reps=5,
        k_fractions=(0.05, 0.1, 0.2, 0.3, 0.4),
        k_alpha_fractions=(0.5,),
        estimators=("tdc_empirical", "tdc_quasispectral_estimated", "edm"),
    )
    assert len(summary.cells) == 15
    assert all(cell.failures == 0 for cell in summary.cells.values())
    # chunks of 2, 2 and 1 rows, each partitioned by x then by the norm;
    # stacks of 4 and 1 rows, cut to 501 pairs by x and 401 by the norm
    chunk = ("argpartition", (2, 1000), None)
    assert calls == [
        chunk, chunk, chunk, chunk, ("argsort", (4, 501), None), ("argsort", (4, 401), None),
        ("argpartition", (1, 1000), None), ("argpartition", (1, 1000), None),
        ("argsort", (1, 501), None), ("argsort", (1, 401), None),
    ]
    calls.clear()
    run_mc(config, reps=5, k_fractions=(0.05, 0.4), estimators=("edm",))
    assert calls == [
        chunk, chunk, ("argsort", (4, 401), None),
        ("argpartition", (1, 1000), None), ("argsort", (1, 401), None),
    ]


def _recorded_forks(monkeypatch):
    """The pids of the children ``os.fork`` starts from now on."""
    pids = []
    real = os.fork

    def recording():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


BLOCK_CONFIG = ModelConfig(BivariateTModel(4.0, 0.9), n=60, seed=9)
BLOCK_ARGS = dict(
    k_fractions=(0.1, 0.3), k_alpha_fractions=(0.2,),
    estimators=("tdc_empirical", "tdc_quasispectral_estimated", "cte_aleph3"),
)
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def test_blocks_split_by_cpu_count_and_block_floor(monkeypatch):
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
    assert simulate._blocks(1) == [(0, 1)]
    assert simulate._blocks(199) == [(0, 199)]
    assert simulate._blocks(250) == [(0, 125), (125, 250)]
    assert simulate._blocks(301) == [(0, 100), (100, 200), (200, 301)]
    assert simulate._blocks(4000) == [(0, 1333), (1333, 2666), (2666, 4000)]
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 1)
    assert simulate._blocks(4000) == [(0, 4000)]


def test_usable_cpus_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert simulate._usable_cpus() == (os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert simulate._usable_cpus() == 1


@needs_fork
def test_run_mc_blocks_leave_the_summary_unchanged(monkeypatch):
    pids = _recorded_forks(monkeypatch)
    summaries = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
        summaries.append(run_mc(BLOCK_CONFIG, reps=301, **BLOCK_ARGS))
    assert len(pids) == 0 + 1 + 2
    assert summaries[0] == summaries[1] == summaries[2]
    assert summaries[0].cells[("tdc_empirical", 0.1, None)].rep_count == 301
    _assert_reaped(pids)


@needs_fork
def test_run_mc_does_not_fork_beside_another_thread(monkeypatch):
    pids = _recorded_forks(monkeypatch)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        run_mc(BLOCK_CONFIG, reps=200, **BLOCK_ARGS)
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert pids == []


@needs_fork
def test_run_mc_raises_the_first_forked_blocks_error(monkeypatch):
    # only children raise, each naming its replication: three blocks of 301
    # replications start at 0, 100 and 200, so the caller must see rep 100
    pids = _recorded_forks(monkeypatch)
    parent = os.getpid()
    real = simulate._sample_rows

    def child_fails(config, lo, hi):
        if os.getpid() != parent:
            raise ValueError(f"rep {lo}")
        return real(config, lo, hi)

    monkeypatch.setattr(simulate, "_sample_rows", child_fails)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
    with pytest.raises(ValueError, match="^rep 100$"):
        run_mc(BLOCK_CONFIG, reps=301, **BLOCK_ARGS)
    assert len(pids) == 2
    _assert_reaped(pids)


@needs_fork
def test_run_mc_reports_a_block_that_exits_without_a_result(monkeypatch):
    pids = _recorded_forks(monkeypatch)
    parent = os.getpid()
    real = simulate._sample_rows

    def child_exits(config, lo, hi):
        if os.getpid() != parent:
            os._exit(3)
        return real(config, lo, hi)

    monkeypatch.setattr(simulate, "_sample_rows", child_exits)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    with pytest.raises(ChildProcessError, match="without a result"):
        run_mc(BLOCK_CONFIG, reps=200, **BLOCK_ARGS)
    assert len(pids) == 1
    _assert_reaped(pids)


@needs_fork
def test_run_mc_kills_its_children_when_its_own_block_fails(monkeypatch):
    # the children would sleep for a minute; the caller's error must not wait
    pids = _recorded_forks(monkeypatch)
    parent = os.getpid()

    def stall_or_fail(config, lo, hi):
        if os.getpid() != parent:
            time.sleep(60)
        raise ValueError("caller's block")

    monkeypatch.setattr(simulate, "_sample_rows", stall_or_fail)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
    start = time.monotonic()
    with pytest.raises(ValueError, match="caller's block"):
        run_mc(BLOCK_CONFIG, reps=300, **BLOCK_ARGS)
    assert time.monotonic() - start < 30
    assert len(pids) == 2
    _assert_reaped(pids)


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
    assert [cell.truth for cell in summary.cells.values()] == [None, None]
    off_level = run_mc(
        config, reps=2, k_fractions=[0.1], estimators=("tdc_empirical",), y=2.0
    )
    assert off_level.truth is None
    assert off_level.cells[("tdc_empirical", 0.1, None)].truth is None
    # mixed runs: at y = 1 the truth sits on each tdc_* cell and on no other,
    # at y = 2 on none
    for model in (LinearParetoModel(0.8, 0.1, 4.0), BivariateTModel(4.0, 0.9)):
        config = ModelConfig(model, n=200, seed=2)
        mixed = run_mc(config, 2, (0.1, 0.2), (0.2, 0.3), tuple(ESTIMATORS))
        assert mixed.truth == model.tail_dependence
        for (name, kf, kaf), cell in mixed.cells.items():
            want = model.tail_dependence if name.startswith("tdc_") else None
            assert cell.truth == want, (model, name, kf, kaf)
        at_two = run_mc(config, 2, (0.1, 0.2), (0.2, 0.3), tuple(ESTIMATORS), y=2.0)
        assert at_two.truth is None
        assert {cell.truth for cell in at_two.cells.values()} == {None}


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


# nu from 0.1 to 1e308 in steps of 10^(1/8), then the double maximum
_NU_GRID = [10.0 ** (e / 8) for e in range(-8, 308 * 8 + 1)] + [1.7976931348623157e308]


@pytest.mark.parametrize("rho", [-0.9, 0.0, 0.9])
def test_bivariate_t_tail_dependence_does_not_increase_in_nu(rho):
    # past nu = 1e5 the value underflows: 0.0 on, never NaN or an OverflowError
    truths = [BivariateTModel(nu, rho).tail_dependence for nu in _NU_GRID]
    assert all(0.0 <= t <= 1.0 for t in truths)
    assert all(t >= u for t, u in zip(truths, truths[1:]))
    assert truths[-1] == 0.0 < truths[0]


def test_bivariate_t_tail_dependence_limits():
    # nu -> inf: the Gaussian copula's tail independence, for every rho below 1
    for rho in (-0.9, 0.0, 0.9, 0.999999, 1 - 1e-12):
        assert BivariateTModel(1e308, rho).tail_dependence == 0.0, rho
    # rho -> -1 and rho -> 1, to an ulp from each: lambda rises from 0 to 1
    # as 2 t_(nu+1)(-sqrt((nu + 1)(1 - rho) / (1 + rho))) does
    near = [10.0 ** -k for k in range(1, 16)]
    rhos = [math.nextafter(-1.0, 0.0), *(h - 1.0 for h in near[::-1]), *(1.0 - h for h in near)]
    rhos.append(math.nextafter(1.0, 0.0))
    for nu in (0.5, 4.0, 1000.0):
        truths = [BivariateTModel(nu, rho).tail_dependence for rho in rhos]
        assert all(t <= u for t, u in zip(truths, truths[1:])), nu
        assert truths[0] < 1e-12 and 1.0 - 1e-6 < truths[-1] < 1.0, nu
        for rho in (rhos[0], rhos[-1]):
            arg = math.sqrt((nu + 1.0) * (1.0 - rho) / (1.0 + rho))
            want = float(2.0 * stdtr(nu + 1.0, -arg))
            assert BivariateTModel(nu, rho).tail_dependence == pytest.approx(want, rel=1e-13)


def _t_tail_truth(nu, rho):
    arg = math.sqrt((nu + 1.0) * (1.0 - rho) / (1.0 + rho))
    return float(2.0 * stdtr(nu + 1.0, -arg))


@pytest.mark.parametrize("nu", [1e17, 1e20, 1e308])
def test_bivariate_t_tail_dependence_an_ulp_below_one_at_a_huge_nu(nu):
    # (1 + rho) / 2 rounds to 1 there; at nu = 1e20 the value is 2 Phi(-105)
    rho = math.nextafter(1.0, 0.0)
    want = _t_tail_truth(nu, rho)
    assert BivariateTModel(nu, rho).tail_dependence == pytest.approx(want, rel=1e-13)
    assert (want > 0.01) == (nu == 1e17)


def test_bivariate_t_tail_dependence_past_the_normal_limit_switch():
    # far past (nu + 1) / 2 = 2^26, the normal limit with its 1/df term is near exact
    nus = [2.0**53 - 1.0, 2.0**53, *(10.0 ** (e / 4) for e in range(64, 80)), 2.7e19, 2.8e19]
    rhos = [1.0 - 2.0**-53, 1.0 - 2.0**-52, 1.0 - 1e-15, 1.0 - 1e-14, 0.9, -0.9]
    for nu in nus:
        for rho in rhos:
            got, want = BivariateTModel(nu, rho).tail_dependence, _t_tail_truth(nu, rho)
            if want > 1e-200:
                assert got == pytest.approx(want, rel=1e-12), (nu, rho)
            else:
                assert got == pytest.approx(want, abs=1e-200), (nu, rho)


# nu within a factor of 2 of the switch at (nu + 1) / 2 = 2^26 on both sides,
# and far from it; 1 - rho from 1.5 down to 1e-16, 2e-5 where the normal
# limit's error peaks at the switch (t^2 near 1340)
_SWITCH_NUS = (0.5, 4.0, 1e3, 1e6, 2.0**26, 1e8, 2.0**27 - 1.0, 2.0**27, 2e8, 2.0**28, 1e12,
               2.0**52 - 1.0, 2.0**52, 1e16, 1e300)
_SWITCH_COMPLEMENTS = (1.5, 1.0, 0.5, 0.1, 1e-2, 1e-3, 1e-4, 2e-5, 1e-5, 1e-6, 1e-8, 1e-10,
                       1e-12, 1e-14, 2.0**-52, 1e-16)


def test_bivariate_t_tail_dependence_on_both_sides_of_the_normal_limit_switch():
    # nu = 2^52 at rho = 1 - 2^-52 was -1.369 when the continued fraction ran to 2^52
    for nu in _SWITCH_NUS:
        rhos = [1.0 - c for c in _SWITCH_COMPLEMENTS]
        truths = [BivariateTModel(nu, rho).tail_dependence for rho in rhos]
        assert all(0.0 <= t <= 1.0 for t in truths), nu
        assert all(t <= u for t, u in zip(truths, truths[1:])), nu
        for rho, got in zip(rhos, truths):
            want = _t_tail_truth(nu, rho)
            if want > 1e-300:
                assert abs(got - want) <= 1e-5 * want, (nu, rho, got, want)


@pytest.mark.parametrize("nu", ["1e20", "1e200", "1e308", "1.7976931348623157e308"])
@pytest.mark.parametrize("rho", ["0.9", "0.9999999999999999"])
def test_mc_truth_at_a_huge_nu_is_json(capsys, nu, rho):
    argv = [
        "mc", "--model", "bivariate-t", "--nu", nu, "--rho", rho, "--n", "50", "--reps", "2",
        "--k-fracs", "0.1", "--format", "json",
    ]
    assert main(argv) == 0
    out, err = capsys.readouterr()

    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    assert err == ""
    assert json.loads(out, parse_constant=no_constant)["truth"] == 0.0
