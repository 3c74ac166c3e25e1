"""Sample containers, order-statistic access and the level-k exceedance rule.

Everything here is immutable after construction, so samples and views can be
shared freely between concurrent tasks. The order of pairs inside a sample
carries no meaning; every downstream estimator is permutation invariant.

A sample sorts x once, lazily: the first ``order_view`` caches the ordering on
the sample for every later view, k and Hill step; a concurrent first access
at worst sorts twice. ``level_threshold`` (X_(n-k), 1 <= k <= n-1) and
``exceedance_count`` (the number of keys strictly above it) are the one
level-k rule. A ``LevelSweep`` applies it to a whole set of levels at once:
it reads every threshold and count from the sorted key and gathers the pairs
above the lowest level in one pass, so the exceedances at each level are a
prefix of the gathered arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import NegativeValue


def _as_readonly_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size == 0:
        raise ValueError(f"{name} must contain at least one observation")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    if np.any(arr < 0):
        raise NegativeValue(f"{name} contains negative values")
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
        return level_threshold(self.x_sorted, k)


def order_view(sample: BivariateSample) -> OrderedView:
    """The ascending-x view of a sample; x is sorted on first access only."""
    order, x_sorted = sample._x_order
    return OrderedView(sample=sample, order=order, x_sorted=x_sorted)


def level_threshold(key_sorted: np.ndarray, k: int, what: str = "k") -> float:
    """X_(n-k) of an ascending key: its (k+1)-th largest value, 1 <= k <= n-1."""
    n = key_sorted.size
    if not 1 <= k <= n - 1:
        raise ValueError(f"{what} must be in [1, {n - 1}], got {k}")
    return float(key_sorted[n - k - 1])


def exceedance_count(key_sorted: np.ndarray, k: int) -> tuple[float, int]:
    """The level-k threshold of an ascending key and the count of keys strictly above it.

    With tie-free data the count is k; ties at the threshold shrink it
    (estimators still divide by the nominal k).
    """
    thr = level_threshold(key_sorted, k)
    return thr, key_sorted.size - int(np.searchsorted(key_sorted, thr, side="right"))


@dataclass(frozen=True, eq=False)
class LevelSweep:
    """The strict exceedances of a sample at a set of levels k, gathered once.

    Nothing is read until first use. Then each level's threshold X_(n-k) and
    strict exceedance count come from the sorted key, and ``x``/``y``
    receive the pairs above the lowest level in descending key order, so the
    exceedances at level k are their first ``count`` entries. The key is x,
    whose cached order is reused, unless another per-pair ``key`` is given
    (the norm of the dependence measure); that one is sorted here.
    """

    sample: BivariateSample
    ks: tuple[int, ...]
    key: np.ndarray | None = None

    @cached_property
    def _read(self) -> tuple[dict[int, tuple[float, int]], np.ndarray, np.ndarray]:
        if self.key is None:
            order, key_sorted = self.sample._x_order
        else:
            order = np.argsort(self.key, kind="stable")
            key_sorted = self.key[order]
        levels = {k: exceedance_count(key_sorted, k) for k in self.ks}
        n = key_sorted.size
        top = order[n - max((m for _, m in levels.values()), default=0):][::-1]
        return levels, self.sample.x[top], self.sample.y[top]

    @property
    def x(self) -> np.ndarray:
        return self._read[1]

    @property
    def y(self) -> np.ndarray:
        return self._read[2]

    def level(self, k: int) -> tuple[float, int]:
        """The threshold and the strict exceedance count at level k."""
        levels = self._read[0]
        if k not in levels:
            raise ValueError(f"k = {k} is not a level of this sweep")
        return levels[k]


def fraction_to_count(frac: float, n: int, what: str = "fraction") -> int:
    """Nearest-integer count for a fraction of n, clamped to [1, n - 1]; n >= 2."""
    if not 0.0 < frac < 1.0:
        raise ValueError(f"{what} must lie in (0, 1), got {frac}")
    if n < 2:
        raise ValueError(f"{what} needs n >= 2 for a count in [1, n - 1], got n = {n}")
    return min(max(int(round(frac * n)), 1), n - 1)


def exceedance_indices(view: OrderedView, k: int) -> np.ndarray:
    """Indices j with x_j strictly above the level-k threshold, ascending."""
    _, m = exceedance_count(view.x_sorted, k)
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
