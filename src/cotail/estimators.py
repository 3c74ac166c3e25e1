"""Estimators of conditional-on-extreme quantities for bivariate samples.

Conditional tail distribution / tail dependence coefficient:

- ``tdc_empirical``: joint-exceedance counting above the order-statistic
  threshold.
- ``tdc_quasispectral``: averages the capped ratio weights
  min(y_j / (y * x_j), 1)^alpha over x-exceedances; needs the tail index.
- ``tdc_quasispectral_estimated``: same, with the tail index replaced by a
  Hill estimate on k_alpha upper order statistics.

Both ratio-weight estimators read through one body: each binding computes
the capped ratio once and raises each row to that row's alpha (the known
alpha, or the row's Hill alpha or the error that fails the row).

Conditional tail expectation coefficients:

- ``cte_aleph3``: threshold-scaled average of y over x-exceedances.
- ``cte_aleph4``: ratio-based form, alpha/(alpha-1) times the mean of y/x
  over x-exceedances; requires alpha > 1.

High-quantile extrapolation ``theta_hat`` multiplies a CTE coefficient by the
threshold and the power-law factor (k/(n p))^(1/alpha). ``edm_estimate`` is
the extremal dependence measure, thresholded on norm order statistics rather
than the x margin; a row with a squared norm beyond the double range, or a
nonzero pair's squared norm below the normal range, fails with
``NonFiniteEstimate``. ``confidence_interval`` turns a plug-in variance
into a normal interval; its quantile comes from the standard library's
``statistics.NormalDist``.

``ESTIMATORS`` is the one table of the estimators above (all but
``theta_hat``): each id maps to its reader, the parameters it takes from
y / alpha / k_alpha / norm, and the upper end of its natural range. Every
estimator is read off a ``core.LevelSweep``, which gathers the exceedances
of one sample, or of each row of a block of replications, at a whole set of
levels k. ``level_reader`` binds an estimator and its parameters to a sweep:
the Hill step (which reads the sweep at k_alpha, a level of it or not) and
every weight that does not depend on k are computed once for all rows, and
each (row, level) is then one exactly rounded sum over a prefix of that
row's weights, from one ``core.level_sums`` call per reader (per level for
``cte_aleph3``, none for ``tdc_empirical``'s joint counts).
``LevelReader.values`` gives every row's estimate alone (the Monte Carlo
harness discards the variance);
``LevelReader.estimate`` gives a one-row sweep's full ``TailEstimate``.
``estimate`` runs a reader on a one-level sweep of one sample, and each
function above is one ``estimate`` call; the CLI's ``estimate`` and ``curve``
read their rows from one sweep per sample, as the Monte Carlo harness does.
A reader's ``metadata``, copied into each ``TailEstimate``, names the report
fields it fills (``y``, ``k_alpha``, ``alpha_source``); a CLI row is the
estimate's fields plus that metadata.

Plug-in variances are second moments of the same weights (the fixed-level
approximation at s = 1); they omit random-threshold corrections, so treat the
derived intervals as approximate. Ties are handled by the nominal-k
convention: exceedances are strict and sums always divide by k.

All estimators are scale invariant under (x, y) -> (c x, c y), permutation
invariant, and pure; sums are correctly rounded (``math.fsum``'s bits), so
results do not depend on evaluation order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from itertools import repeat
from statistics import NormalDist
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import (BivariateSample, LevelSweep, TailEstimate, check_level, check_positive_finite,
                   check_real, level_sums)
from .errors import (
    AlphaNotAboveOne,
    CotailError,
    InvalidP,
    MissingVariance,
    NonFiniteEstimate,
    NonPositiveThreshold,
    unwrap,
)
from .tail_function import norm_values, squared_norm
from .tail_index import sweep_alphas


@dataclass(frozen=True)
class CondTailCurve:
    """Conditional tail distribution estimates along an increasing y grid."""

    y_grid: np.ndarray
    values: np.ndarray
    estimator_id: str
    k: int
    alpha_used: float | None = None

    def __post_init__(self):
        grid = check_y_grid(self.y_grid)
        vals = np.asarray(self.values, dtype=float)
        if grid.size != vals.size:
            raise ValueError("y_grid and values must have equal length")
        if not np.all((0 <= vals) & (vals <= 1)):  # NaN fails it too
            raise ValueError("conditional tail values must lie in [0, 1]")
        if np.any(np.diff(vals) > 0):
            raise ValueError("conditional tail values must be nonincreasing in y")
        grid.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "y_grid", grid)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class CteExtrapolation:
    """A high-quantile conditional tail expectation, theta_hat(p)."""

    p: float
    theta_hat: float
    aleph_used: float
    alpha_used: float
    extrapolation_factor: float


def _quiet():
    # a row's gathered pairs beyond its exceedances may hold x = 0: their
    # weights are never summed, so their divisions must not warn either
    return np.errstate(divide="ignore", invalid="ignore", over="ignore")


@dataclass(frozen=True)
class LevelReader:
    """One estimator with its parameters bound to a sweep, read for all rows at any of its levels.

    ``sums(k, power)`` gives each row's exactly rounded sum (``core.level_sums``)
    of its exceedances' weights at level k, raised to ``power`` (1 or 2), and
    ``failed(k)`` each row's ``CotailError`` at level k, or None where the row
    has a value (None for every row if not given). A row's value is
    factor * (1/k) sum w and its plug-in variance factor^2 * (1/k) sum w^2,
    taken for all rows at once; one that is beyond the double range fails the
    row with ``NonFiniteEstimate``. ``alpha_used`` holds each row's alpha.
    """

    estimator_id: str
    sums: Callable[[int, int], np.ndarray]
    failed: Callable[[int], Iterable] = lambda k: repeat(None)
    factor: float = 1.0
    alpha_used: Sequence | None = None
    metadata: Mapping[str, object] = field(default_factory=dict)

    def values(self, k: int) -> list:
        """Each row's estimate at level k without its variance, or the error that fails the row."""
        means = self._means(self.sums(k, 1), k, self.factor)
        return [m if f is None else f for m, f in zip(means, self.failed(k))]

    def value(self, k: int) -> float:
        """The estimate of a one-row sweep at level k, without its variance."""
        return unwrap(self.values(k)[0])

    def estimate(self, k: int) -> TailEstimate:
        """The estimate of a one-row sweep at level k with its plug-in variance."""
        factor = self.factor
        return TailEstimate(
            value=self.value(k),
            k=k,
            estimator_id=self.estimator_id,
            plugin_variance=unwrap(self._means(self.sums(k, 2), k, factor * factor)[0]),
            alpha_used=None if self.alpha_used is None else self.alpha_used[0],
            metadata=dict(self.metadata),
        )

    def _means(self, sums: np.ndarray, k: int, scale: float) -> list:
        """scale * (1/k) times each row's sum, or a ``NonFiniteEstimate`` where that is not finite."""
        with _quiet():
            means = (scale * (sums / k)).tolist()  # the same IEEE bits as on floats
        beyond = f"{self.estimator_id} at k = {k} is beyond the double range"
        return [m if math.isfinite(m) else NonFiniteEstimate(beyond) for m in means]


def _prefix_sums(sweep: LevelSweep, weights: np.ndarray) -> Callable[[int, int], np.ndarray]:
    """``LevelReader.sums`` of weights free of k: a power's first read sums every level at once."""
    @cache
    def every_level(power):
        with _quiet():
            return level_sums(weights if power == 1 else weights * weights, sweep.counts)

    return lambda k, power: every_level(power)[:, sweep.column(k)]


def _empirical(sweep: LevelSweep, y: float) -> LevelReader:
    y = check_positive_finite(y, "y")

    def joint(k, power):
        # the indicator weights that are 1, and their squares, add up to the joint count
        thr = sweep.threshold(k)[:, None]
        with _quiet():  # a y X_(n-k) past the double range is inf, its exact limit
            cut = y * thr
        hits = (sweep.x[:, :k] > thr) & (sweep.y[:, :k] > cut)
        return np.count_nonzero(hits, axis=1).astype(float)

    return LevelReader("tdc_empirical", joint, metadata={"y": y})


def _ratio_power(sweep: LevelSweep, name: str, y: float, alphas: list, **metadata) -> LevelReader:
    """Weights min(y_j / (y x_j), 1)^alpha; each row's alpha is positive and finite, or an error."""
    y = check_positive_finite(y, "y")
    failed = [a if isinstance(a, CotailError) else None for a in alphas]
    weights = np.zeros(sweep.x.shape)  # a failed row sums its zeros
    with _quiet():
        capped = np.minimum(sweep.y / (y * sweep.x), 1.0)
        for row, a in enumerate(alphas):
            if failed[row] is None:
                weights[row] = capped[row] ** a
    return LevelReader(
        name, _prefix_sums(sweep, weights), lambda k: failed, alpha_used=alphas,
        metadata={"y": y, **metadata},
    )


def _quasispectral(sweep: LevelSweep, y: float, alpha: float) -> LevelReader:
    alpha = check_positive_finite(alpha, "alpha")
    return _ratio_power(
        sweep, "tdc_quasispectral", y, [alpha] * sweep.rows, alpha_source="supplied"
    )


def _quasispectral_estimated(sweep: LevelSweep, k_alpha: int, y: float) -> LevelReader:
    k_alpha = check_level(k_alpha, "k_alpha", 1, sweep.n - 1)
    return _ratio_power(
        sweep, "tdc_quasispectral_estimated", y, sweep_alphas(sweep, k_alpha),
        k_alpha=k_alpha, alpha_source="hill",
    )


def _aleph3(sweep: LevelSweep) -> LevelReader:
    def scaled(k, power):
        thr = sweep.threshold(k)[:, None]
        with _quiet():
            terms = sweep.y[:, :k] / thr
            return level_sums(terms if power == 1 else terms * terms, sweep.count(k)[:, None])[:, 0]

    def failed(k):
        return [
            NonPositiveThreshold(f"X_(n-k) = {t} is not positive") if t <= 0 else None
            for t in sweep.threshold(k).tolist()
        ]

    return LevelReader(
        "cte_aleph3", scaled, failed,
        metadata={"variance_note": "second-moment proxy, valid for tail index > 2"},
    )


def _aleph4(sweep: LevelSweep, alpha: float) -> LevelReader:
    alpha = check_real(alpha, "alpha", "(1, inf)", AlphaNotAboveOne)
    with _quiet():
        ratios = sweep.y / sweep.x
    return LevelReader(
        "cte_aleph4", _prefix_sums(sweep, ratios), factor=alpha / (alpha - 1.0),
        alpha_used=[alpha] * sweep.rows, metadata={"alpha_source": "supplied"},
    )


def _edm(sweep: LevelSweep, norm: str) -> LevelReader:
    sample = sweep.sample
    with _quiet():
        radii = norm_values(sample.x, sample.y, norm)  # rejects an unknown norm
        by_norm = LevelSweep(sample, sweep.ks, radii, sweep.n)
        xe, ye = by_norm.x, by_norm.y
        squares = squared_norm(xe, ye, norm)
        weights = (xe * ye) / squares
    # a square beyond the double range ties keys at inf and turns weights into 0
    # or NaN; the largest norms are the ones gathered, so their squares tell
    # whether any pair of the row has one. A nonzero pair's square below the
    # normal range has lost digits, or all of them, and fails its row as well
    over = (~np.isfinite(squares)).any(axis=1).tolist()
    under = ((squares < np.finfo(float).tiny) & ((xe > 0) | (ye > 0))).any(axis=1).tolist()
    failed = [
        NonFiniteEstimate(f"edm: a squared {norm} norm is beyond the double range") if o
        else NonFiniteEstimate(f"edm: a squared {norm} norm is below the normal range") if u
        else None
        for o, u in zip(over, under)
    ]
    return LevelReader(
        "edm", _prefix_sums(by_norm, weights), lambda k: failed,
        metadata={"norm": norm, "threshold_scale": "norm order statistic"},
    )


def tdc_empirical(sample: BivariateSample, k: int, y: float = 1.0) -> TailEstimate:
    """Share of x-exceedances whose y coordinate also clears y * threshold.

    The plug-in variance equals the value itself (indicator weights square to
    themselves).
    """
    return estimate("tdc_empirical", sample, k, y=y)


def tdc_quasispectral(
    sample: BivariateSample, k: int, y: float = 1.0, *, alpha: float
) -> TailEstimate:
    """Mean of min(y_j / (y x_j), 1)^alpha over x-exceedances, known alpha."""
    return estimate("tdc_quasispectral", sample, k, y=y, alpha=alpha)


def tdc_quasispectral_estimated(
    sample: BivariateSample, k: int, k_alpha: int, y: float = 1.0
) -> TailEstimate:
    """Ratio-weight estimator with alpha replaced by a Hill estimate."""
    return estimate("tdc_quasispectral_estimated", sample, k, k_alpha=k_alpha, y=y)


def check_y_grid(y_grid) -> np.ndarray:
    """The y grid as a float array; it must be nonempty, positive, finite and increasing."""
    grid = np.asarray(y_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("y_grid must be a nonempty one-dimensional sequence")
    if not (np.all((0 < grid) & (grid < math.inf)) and np.all(np.diff(grid) > 0)):
        raise ValueError("y_grid must be strictly increasing, positive and finite")
    return grid


def cond_tail_curve(
    sample: BivariateSample,
    k: int,
    y_grid,
    method: str,
    alpha: float | None = None,
) -> CondTailCurve:
    """Per-y conditional tail distribution estimates along an increasing grid.

    ``method`` is ``empirical`` or ``quasispectral`` (which needs ``alpha``).
    """
    grid = check_y_grid(y_grid)
    if method not in ("empirical", "quasispectral"):
        raise ValueError(f"unknown method {method!r}")
    name = f"tdc_{method}"
    k = check_level(k, "k", 1, sample.n - 1)  # reported as an int
    sweep = LevelSweep(sample, (k,))
    values = [level_reader(name, sweep, y=float(y), alpha=alpha).value(k) for y in grid]
    alpha_used = alpha if method == "quasispectral" else None
    return CondTailCurve(grid, np.asarray(values), name, k, alpha_used)


def cte_aleph3(sample: BivariateSample, k: int) -> TailEstimate:
    """Threshold-scaled conditional tail expectation coefficient.

    (1/k) * sum of y_j / X_{n:n-k} over x-exceedances. The second-moment
    plug-in is a variance proxy only when the tail index exceeds 2, which is
    noted in the metadata.
    """
    return estimate("cte_aleph3", sample, k)


def cte_aleph4(sample: BivariateSample, k: int, alpha: float) -> TailEstimate:
    """Ratio-based conditional tail expectation coefficient.

    alpha/(alpha - 1) times the mean of y_j / x_j over x-exceedances. The
    ratio form keeps the variance finite even when the tail index is below 2.
    """
    return estimate("cte_aleph4", sample, k, alpha=alpha)


def theta_hat(
    sample: BivariateSample, k: int, p: float, aleph: float, alpha: float
) -> CteExtrapolation:
    """Extrapolated conditional tail expectation at exceedance probability p.

    theta_hat = aleph * X_{n:n-k} * (k / (n p))^(1/alpha). Extrapolation is
    meaningful for p <= k/n (factor >= 1). A factor or theta_hat beyond the
    double range is a ValueError.
    """
    p = check_real(p, "p", "(0, 1)", InvalidP)
    aleph = check_real(aleph, "aleph", "[0, inf)")
    alpha = check_positive_finite(alpha, "alpha")
    k = check_level(k, "k", 1, sample.n - 1)
    thr = float(LevelSweep(sample, (k,)).threshold(k)[0])
    try:
        # evaluated as (k/n)/p so that p = k/n yields the factor 1.0 exactly
        factor = ((k / sample.n) / p) ** (1.0 / alpha)
    except OverflowError:
        raise ValueError(f"the extrapolation factor overflows at p = {p}") from None
    value = aleph * thr * factor
    if not math.isfinite(value):
        raise ValueError(f"theta_hat = {value} is not finite")
    return CteExtrapolation(
        p=p,
        theta_hat=value,
        aleph_used=aleph,
        alpha_used=alpha,
        extrapolation_factor=factor,
    )


def edm_estimate(sample: BivariateSample, k: int, norm: str = "l2") -> TailEstimate:
    """Extremal dependence measure: mean of x y / |(x, y)|^2 over norm exceedances.

    Unlike the other estimators this thresholds on order statistics of the
    chosen norm of the pairs, not on the x margin (flagged in the metadata).
    """
    return estimate("edm", sample, k, norm=norm)


@dataclass(frozen=True)
class EstimatorEntry:
    """One row of the estimator table.

    ``reader`` binds the estimator to a ``LevelSweep``; ``params`` names the
    keyword parameters it takes besides the sweep. The natural range is
    [0, ``upper``]; for ``edm`` the bound depends on the norm, so ``upper``
    maps each norm to its bound.
    """

    reader: Callable[..., LevelReader]
    params: tuple[str, ...]
    upper: float | Mapping[str, float] = math.inf


ESTIMATORS: Mapping[str, EstimatorEntry] = {
    "tdc_empirical": EstimatorEntry(_empirical, ("y",), 1.0),
    "tdc_quasispectral": EstimatorEntry(_quasispectral, ("y", "alpha"), 1.0),
    "tdc_quasispectral_estimated": EstimatorEntry(
        _quasispectral_estimated, ("k_alpha", "y"), 1.0
    ),
    "cte_aleph3": EstimatorEntry(_aleph3, ()),
    "cte_aleph4": EstimatorEntry(_aleph4, ("alpha",)),
    # x y / |(x, y)|^2 peaks on the diagonal x = y
    "edm": EstimatorEntry(_edm, ("norm",), {"l2": 0.5, "l1": 0.25, "linf": 1.0}),
}


def level_reader(name: str, sweep: LevelSweep, **params) -> LevelReader:
    """Bind the estimator ``name`` from ``ESTIMATORS`` to a sweep.

    Each parameter the estimator takes must be in ``params`` and not None;
    the others are ignored, so callers can pass one shared set.
    """
    entry = ESTIMATORS.get(name)
    if entry is None:
        raise ValueError(f"unknown estimator {name!r}")
    kwargs = {}
    for param in entry.params:
        if params.get(param) is None:
            raise ValueError(f"{name} requires {param}")
        kwargs[param] = params[param]
    return entry.reader(sweep, **kwargs)


def estimate(name: str, sample: BivariateSample, k: int, **params) -> TailEstimate:
    """Run the estimator ``name`` from ``ESTIMATORS`` at level k (see ``level_reader``)."""
    reader = level_reader(name, LevelSweep(sample, (k,)), **params)
    return reader.estimate(k)


def confidence_interval(est: TailEstimate, level: float) -> tuple[float, float]:
    """Normal interval from the plug-in variance, clipped to the natural range.

    The range is [0, upper] from the estimator's ``ESTIMATORS`` entry (for
    ``edm``, the bound of the norm in its metadata); ids outside the table
    clip to [0, inf).
    """
    if est.plugin_variance is None:
        raise MissingVariance(f"{est.estimator_id} carries no plug-in variance")
    level = check_real(level, "level", "(0, 1)")
    q = 0.5 * (1.0 + level)
    # at the largest levels below 1 that sum rounds to 1, while 1 - level is exact
    z = NormalDist().inv_cdf(q) if q < 1.0 else -NormalDist().inv_cdf(0.5 * (1.0 - level))
    half = z * math.sqrt(est.plugin_variance / est.k)
    lo, hi = est.value - half, est.value + half
    entry = ESTIMATORS.get(est.estimator_id)
    upper = math.inf if entry is None else entry.upper
    if isinstance(upper, Mapping):
        norm = est.metadata.get("norm")
        if norm not in upper:
            raise ValueError(f"{est.estimator_id} needs a norm in {tuple(upper)}, got {norm!r}")
        upper = upper[norm]
    return max(lo, 0.0), min(hi, upper)
