"""Sample containers, order-statistic access and the level-k exceedance rule.

Everything here is immutable after construction, so samples and views can be
shared freely between concurrent tasks. The order of pairs inside a sample
carries no meaning; every downstream estimator is permutation invariant.

``level_threshold`` (X_(n-k), 1 <= k <= n-1) and ``exceedance_count`` (the
number of keys strictly above it) are the one level-k rule. They read rows
of keys sorted in descending order, so one call serves a single sample or a
block of replications held as rows (``SampleRows``). A ``LevelSweep``
applies the rule to a whole set of levels at once: per row, ``argpartition``
selects the largest max(k) + 1 keys and only those are sorted, and the pairs
behind them are gathered in descending key order, so the exceedances at each
level are a prefix of every row. No sort needs to be stable: every count is
strict and every sum exact, so the order among tied keys changes no value.

``order_view`` is the full ascending sort of a sample's x margin (stable, and
cached on the sample) for callers that want every order statistic; no
estimator uses it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import NegativeValue


def _check_values(arr: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    if np.any(arr < 0):
        raise NegativeValue(f"{name} contains negative values")


def _as_readonly_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size == 0:
        raise ValueError(f"{name} must contain at least one observation")
    _check_values(arr, name)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class BivariateSample:
    """Paired nonnegative observations, the substrate of every estimator."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _as_readonly_array(self.x, "x"))
        object.__setattr__(self, "y", _as_readonly_array(self.y, "y"))
        if self.x.shape != self.y.shape:
            raise ValueError("x and y must have the same length")

    @property
    def n(self) -> int:
        return int(self.x.size)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "BivariateSample":
        rows = list(pairs)
        if not rows:
            raise ValueError("at least one pair is required")
        xs, ys = zip(*rows)
        return cls(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))

    def pairs(self) -> list[tuple[float, float]]:
        return list(zip(self.x.tolist(), self.y.tolist()))

    def __reduce__(self):
        # unpickle through __post_init__: read-only arrays, no stale cached order
        return type(self), (self.x, self.y)

    @cached_property
    def _x_order(self) -> tuple[np.ndarray, np.ndarray]:
        # the arrays, not the view: a cached view would hold its sample in a cycle
        order = np.argsort(self.x, kind="stable")
        x_sorted = self.x[order]
        order.setflags(write=False)
        x_sorted.setflags(write=False)
        return order, x_sorted


@dataclass(frozen=True)
class SampleRows:
    """Samples of equal size as the rows of x and y, checked as ``BivariateSample`` checks one.

    The Monte Carlo harness holds a chunk of replications this way; row r of
    x and y are the pairs of one sample.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.x.ndim != 2 or self.x.shape != self.y.shape or self.x.shape[1] == 0:
            raise ValueError("x and y must be equal nonempty (rows, n) arrays")
        _check_values(self.x, "x")
        _check_values(self.y, "y")


@dataclass(frozen=True)
class OrderedView:
    """Sorted-by-x view of a sample with order-statistic access.

    Sorting is stable: among tied x values the original input position decides
    order, so the permutation is deterministic.
    """

    sample: BivariateSample
    order: np.ndarray
    x_sorted: np.ndarray

    def order_statistic(self, m: int) -> float:
        """Return the m-th smallest x value (1-based)."""
        n = self.sample.n
        if not 1 <= m <= n:
            raise ValueError(f"m must be in [1, {n}], got {m}")
        return float(self.x_sorted[m - 1])

    def threshold(self, k: int) -> float:
        """Return the (k+1)-th largest x value, the exceedance level for k."""
        return float(level_threshold(self.x_sorted[None, ::-1], k, self.sample.n)[0])


def order_view(sample: BivariateSample) -> OrderedView:
    """The ascending-x view of a sample; x is sorted on first access only."""
    order, x_sorted = sample._x_order
    return OrderedView(sample=sample, order=order, x_sorted=x_sorted)


def _check_level(k: int, n: int, what: str) -> None:
    if not 1 <= k <= n - 1:
        raise ValueError(f"{what} must be in [1, {n - 1}], got {k}")


def level_threshold(top: np.ndarray, k: int, n: int, what: str = "k") -> np.ndarray:
    """X_(n-k) of each row of n keys, 1 <= k <= n-1: the row's (k+1)-th largest key.

    ``top`` holds at least the largest k + 1 keys of every row, in descending
    order.
    """
    _check_level(k, n, what)
    return top[:, k]


def exceedance_count(top: np.ndarray, k: int, threshold: np.ndarray) -> np.ndarray:
    """The count of each row's keys strictly above its level-k threshold.

    With tie-free data the count is k; ties at the threshold shrink it
    (estimators still divide by the nominal k).
    """
    return np.count_nonzero(top[:, :k] > threshold[:, None], axis=1)


def _take(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """a[r, cols[r, j]] for every row r: ``np.take_along_axis`` without its index building."""
    return a.ravel()[cols + np.arange(0, a.size, a.shape[1])[:, None]]


@dataclass(frozen=True, eq=False)
class LevelSweep:
    """The strict exceedances of one sample, or of every row of a block, at a set of levels k.

    ``sample`` is a ``BivariateSample`` (one row) or ``SampleRows``. Nothing
    is read until first use. Then each row's largest max(ks) + 1 keys are
    selected and sorted in descending order, each level's threshold and
    strict exceedance count follow from them, and ``x``/``y`` receive the
    pairs behind the largest max(ks) keys, so the exceedances of a row at
    level k are the first ``count(k)[row]`` entries of that row. The key is
    x unless another per-pair ``key`` of the same shape is given (the norm of
    the dependence measure).
    """

    sample: BivariateSample | SampleRows
    ks: tuple[int, ...]
    key: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.sample.x.shape[-1]

    @property
    def rows(self) -> int:
        return np.atleast_2d(self.sample.x).shape[0]

    @cached_property
    def _read(self):
        x, y = np.atleast_2d(self.sample.x), np.atleast_2d(self.sample.y)
        key = x if self.key is None else np.atleast_2d(self.key)
        n, width = self.n, max(self.ks, default=0)
        for k in self.ks:
            _check_level(k, n, "k")
        # the largest width + 1 keys of each row; which of several tied keys
        # make the cut changes no threshold, count or sum
        part = np.argpartition(key, n - width - 1, axis=1)[:, n - width - 1:]
        part_keys = _take(key, part)
        order = np.argsort(part_keys, axis=1)[:, ::-1]
        top = _take(part_keys, order)
        levels = {}
        for k in self.ks:
            thr = level_threshold(top, k, n)
            levels[k] = (thr, exceedance_count(top, k, thr).tolist())
        gather = _take(part, order[:, :width])
        xs = top[:, :width] if self.key is None else _take(x, gather)
        return top, levels, xs, _take(y, gather)

    @property
    def x(self) -> np.ndarray:
        """Per row, the x of the pairs with the largest max(ks) keys, in descending key order."""
        return self._read[2]

    @property
    def y(self) -> np.ndarray:
        """The y of the same pairs as ``x``."""
        return self._read[3]

    def _level(self, k: int) -> tuple[np.ndarray, list[int]]:
        levels = self._read[1]
        if k not in levels:
            raise ValueError(f"k = {k} is not a level of this sweep")
        return levels[k]

    def threshold(self, k: int) -> np.ndarray:
        """Each row's threshold X_(n-k)."""
        return self._level(k)[0]

    def count(self, k: int) -> list[int]:
        """Each row's count of strict exceedances at level k."""
        return self._level(k)[1]

    def top_x(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Each row's x order statistic X_(n-k) and the k x values above it, in no set order."""
        _check_level(k, self.n, "k_alpha")
        part = np.partition(np.atleast_2d(self.sample.x), self.n - k - 1, axis=1)
        return part[:, self.n - k - 1], part[:, self.n - k:]


def fraction_to_count(frac: float, n: int, what: str = "fraction") -> int:
    """Nearest-integer count for a fraction of n, clamped to [1, n - 1]; n >= 2."""
    if not 0.0 < frac < 1.0:
        raise ValueError(f"{what} must lie in (0, 1), got {frac}")
    if n < 2:
        raise ValueError(f"{what} needs n >= 2 for a count in [1, n - 1], got n = {n}")
    return min(max(int(round(frac * n)), 1), n - 1)


def exceedance_indices(view: OrderedView, k: int) -> np.ndarray:
    """Indices j with x_j strictly above the level-k threshold, ascending."""
    top = view.x_sorted[None, ::-1]
    m = int(exceedance_count(top, k, level_threshold(top, k, view.sample.n))[0])
    return np.sort(view.order[view.sample.n - m:])


@dataclass(frozen=True)
class TailEstimate:
    """An estimator output.

    ``plugin_variance`` is the fixed-level approximation of the asymptotic
    variance of sqrt(k) * (estimate - limit); interpret accordingly.
    """

    value: float
    k: int
    estimator_id: str
    plugin_variance: float | None = None
    alpha_used: float | None = None
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.plugin_variance is not None and self.plugin_variance < 0:
            raise ValueError("plugin_variance must be nonnegative")
