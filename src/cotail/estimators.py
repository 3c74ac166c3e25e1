"""Estimators of conditional-on-extreme quantities for bivariate samples.

Conditional tail distribution / tail dependence coefficient:

- ``tdc_empirical``: joint-exceedance counting above the order-statistic
  threshold.
- ``tdc_quasispectral``: averages the capped ratio weights
  min(y_j / (y * x_j), 1)^alpha over x-exceedances; needs the tail index.
- ``tdc_quasispectral_estimated``: same, with the tail index replaced by a
  Hill estimate on k_alpha upper order statistics.

Conditional tail expectation coefficients:

- ``cte_aleph3``: threshold-scaled average of y over x-exceedances.
- ``cte_aleph4``: ratio-based form, alpha/(alpha-1) times the mean of y/x
  over x-exceedances; requires alpha > 1.

High-quantile extrapolation ``theta_hat`` multiplies a CTE coefficient by the
threshold and the power-law factor (k/(n p))^(1/alpha). ``edm_estimate`` is
the extremal dependence measure, thresholded on norm order statistics rather
than the x margin. ``confidence_interval`` turns a plug-in variance into a
normal interval; its quantile comes from the standard library's
``statistics.NormalDist``.

``ESTIMATORS`` is the one table of the estimators above (all but
``theta_hat``): each id maps to its function, the parameters it takes from
y / alpha / k_alpha / norm, and the upper end of its natural range.
``estimate`` runs an estimator by id; the CLI and the Monte Carlo harness
dispatch through it.

Plug-in variances are second moments of the same weights (the fixed-level
approximation at s = 1); they omit random-threshold corrections, so treat the
derived intervals as approximate. Ties are handled by the nominal-k
convention: exceedances are strict and sums always divide by k.

All estimators are scale invariant under (x, y) -> (c x, c y), permutation
invariant, and pure; sums use exactly rounded accumulation, so results do not
depend on evaluation order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import Callable, Mapping

import numpy as np

from .core import BivariateSample, TailEstimate, above_level, order_view
from .errors import (
    AlphaNotAboveOne,
    InvalidP,
    MissingVariance,
    NonPositiveThreshold,
)
from .tail_function import norm_values, squared_norm
from .tail_index import hill_estimate


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
        if np.any(vals < 0) or np.any(vals > 1):
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


def _check_y(y: float) -> None:
    if not 0 < y < math.inf:
        raise ValueError("y must be positive and finite")


def _weight_mean(
    weights: np.ndarray, k: int, estimator_id: str, factor: float = 1.0, **fields
) -> TailEstimate:
    """factor * (1/k) sum w as the value, factor^2 * (1/k) sum w^2 as the variance."""
    return TailEstimate(
        value=factor * (math.fsum(weights) / k),
        k=k,
        estimator_id=estimator_id,
        plugin_variance=(factor * factor) * (math.fsum(weights * weights) / k),
        **fields,
    )


def tdc_empirical(sample: BivariateSample, k: int, y: float = 1.0) -> TailEstimate:
    """Share of x-exceedances whose y coordinate also clears y * threshold.

    The plug-in variance equals the value itself (indicator weights square to
    themselves).
    """
    _check_y(y)
    thr, _, ye = order_view(sample).exceedances(k)
    joint = int(np.count_nonzero(ye > y * thr))
    value = joint / k
    return TailEstimate(
        value=value, k=k, estimator_id="tdc_empirical", plugin_variance=value
    )


def tdc_quasispectral(
    sample: BivariateSample, k: int, y: float = 1.0, *, alpha: float
) -> TailEstimate:
    """Mean of min(y_j / (y x_j), 1)^alpha over x-exceedances, known alpha."""
    _check_y(y)
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    _, xe, ye = order_view(sample).exceedances(k)
    weights = np.minimum(ye / (y * xe), 1.0) ** alpha
    return _weight_mean(weights, k, "tdc_quasispectral", alpha_used=alpha)


def tdc_quasispectral_estimated(
    sample: BivariateSample, k: int, k_alpha: int, y: float = 1.0
) -> TailEstimate:
    """Ratio-weight estimator with alpha replaced by a Hill estimate."""
    hill = hill_estimate(order_view(sample), k_alpha)
    est = tdc_quasispectral(sample, k, y, alpha=hill.alpha_hat)
    return replace(
        est,
        estimator_id="tdc_quasispectral_estimated",
        metadata={"k_alpha": k_alpha, "alpha_source": "hill"},
    )


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
    values = [estimate(name, sample, k, y=float(y), alpha=alpha).value for y in grid]
    alpha_used = alpha if method == "quasispectral" else None
    return CondTailCurve(grid, np.asarray(values), name, k, alpha_used)


def cte_aleph3(sample: BivariateSample, k: int) -> TailEstimate:
    """Threshold-scaled conditional tail expectation coefficient.

    (1/k) * sum of y_j / X_{n:n-k} over x-exceedances. The second-moment
    plug-in is a variance proxy only when the tail index exceeds 2, which is
    noted in the metadata.
    """
    thr, _, ye = order_view(sample).exceedances(k)
    if thr <= 0:
        raise NonPositiveThreshold(f"X_(n-k) = {thr} is not positive")
    return _weight_mean(
        ye / thr, k, "cte_aleph3",
        metadata={"variance_note": "second-moment proxy, valid for tail index > 2"},
    )


def cte_aleph4(sample: BivariateSample, k: int, alpha: float) -> TailEstimate:
    """Ratio-based conditional tail expectation coefficient.

    alpha/(alpha - 1) times the mean of y_j / x_j over x-exceedances. The
    ratio form keeps the variance finite even when the tail index is below 2.
    """
    if not 1 < alpha < math.inf:
        raise AlphaNotAboveOne(f"alpha must exceed 1 and be finite, got {alpha}")
    _, xe, ye = order_view(sample).exceedances(k)
    factor = alpha / (alpha - 1.0)
    return _weight_mean(ye / xe, k, "cte_aleph4", factor, alpha_used=alpha)


def theta_hat(
    sample: BivariateSample, k: int, p: float, aleph: float, alpha: float
) -> CteExtrapolation:
    """Extrapolated conditional tail expectation at exceedance probability p.

    theta_hat = aleph * X_{n:n-k} * (k / (n p))^(1/alpha). Extrapolation is
    meaningful for p <= k/n (factor >= 1). A factor or theta_hat beyond the
    double range is a ValueError.
    """
    if not 0.0 < p < 1.0:
        raise InvalidP(f"p must lie in (0, 1), got {p}")
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    thr = order_view(sample).threshold(k)
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
    radii = norm_values(sample.x, sample.y, norm)  # rejects an unknown norm
    _, mask = above_level(radii, np.sort(radii), k)
    xe, ye = sample.x[mask], sample.y[mask]
    return _weight_mean(
        (xe * ye) / squared_norm(xe, ye, norm), k, "edm",
        metadata={"norm": norm, "threshold_scale": "norm order statistic"},
    )


@dataclass(frozen=True)
class EstimatorEntry:
    """One row of the estimator table.

    ``params`` names the keyword parameters the function takes besides the
    sample and k. The natural range is [0, ``upper``]; for ``edm`` the bound
    depends on the norm, so ``upper`` maps each norm to its bound.
    """

    fn: Callable[..., TailEstimate]
    params: tuple[str, ...]
    upper: float | Mapping[str, float] = math.inf


ESTIMATORS: Mapping[str, EstimatorEntry] = {
    "tdc_empirical": EstimatorEntry(tdc_empirical, ("y",), 1.0),
    "tdc_quasispectral": EstimatorEntry(tdc_quasispectral, ("y", "alpha"), 1.0),
    "tdc_quasispectral_estimated": EstimatorEntry(
        tdc_quasispectral_estimated, ("k_alpha", "y"), 1.0
    ),
    "cte_aleph3": EstimatorEntry(cte_aleph3, ()),
    "cte_aleph4": EstimatorEntry(cte_aleph4, ("alpha",)),
    # x y / |(x, y)|^2 peaks on the diagonal x = y
    "edm": EstimatorEntry(edm_estimate, ("norm",), {"l2": 0.5, "l1": 0.25, "linf": 1.0}),
}


def estimate(name: str, sample: BivariateSample, k: int, **params) -> TailEstimate:
    """Run the estimator ``name`` from ``ESTIMATORS`` at level k.

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
    return entry.fn(sample, k, **kwargs)


def confidence_interval(est: TailEstimate, level: float) -> tuple[float, float]:
    """Normal interval from the plug-in variance, clipped to the natural range.

    The range is [0, upper] from the estimator's ``ESTIMATORS`` entry (for
    ``edm``, the bound of the norm in its metadata); ids outside the table
    clip to [0, inf).
    """
    if est.plugin_variance is None:
        raise MissingVariance(f"{est.estimator_id} carries no plug-in variance")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    half = z * math.sqrt(est.plugin_variance / est.k)
    lo, hi = est.value - half, est.value + half
    entry = ESTIMATORS.get(est.estimator_id)
    upper = math.inf if entry is None else entry.upper
    if isinstance(upper, Mapping):
        upper = upper[est.metadata["norm"]]
    return max(lo, 0.0), min(hi, upper)
