"""Sample containers, order-statistic access and the level-k exceedance rule.

Everything here is immutable after construction, so samples and views can be
shared freely between concurrent tasks. The order of pairs inside a sample
carries no meaning; every downstream estimator is permutation invariant.

A ``LevelSweep`` holds the one level-k rule: the threshold X_(n-k)
(1 <= k <= n-1) is the (k+1)-th largest key and the exceedances are the
keys strictly above it. It applies the rule to a whole set of levels at
once, for a single sample or a block of replications held as rows
(``SampleRows``): per row, ``argpartition`` selects the largest max(k) + 1
keys and only those are sorted, and the pairs behind them are gathered in
descending key order, so the exceedances at each level are a prefix of every
row. No sort needs to be stable: every count is strict and every sum exact,
so the order among tied keys changes no value. Since a sweep reads no more
of a row than those max(k) + 1 pairs, its rows may be cut to them first
(``top_pairs``), with the samples' n given: the Monte Carlo harness sweeps
many replications at once that way. The Hill step reads a sweep too, at
k_alpha.

``level_sums`` is the one exact reduction: for each row of a weight array it
returns ``math.fsum`` of the row's prefix at each of a set of counts, bit for
bit, from a few ``np.cumsum`` runs over pieces of the weights cut at fixed
power-of-two boundaries. The estimators and the Hill step sum through it.

Every numeric argument passes one of three rules, which return it as an
``int`` or a float and reject anything else (None, NaN, bools and strings
too) with an error naming the argument and its range, a ``ValueError`` unless
the caller names a ``CotailError``: ``check_level`` takes integers (numpy's
and 0-d integer arrays too) in [lo, hi], ``check_positive_finite`` reals in
(0, inf) and ``check_real`` reals in a stated interval. README lists the
range of each parameter.

``order_view`` sorts a sample's x margin in full (a stable sort on each call)
for callers that want every order statistic; no estimator uses it. Its
``threshold`` and ``exceedance_indices`` follow the definitions: X_(n-k) is
the (n-k)-th smallest x, and the exceedances are the pairs with x above it.
"""
from __future__ import annotations

import math
import operator
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
        # unpickle through __post_init__, so the arrays come back read-only
        return type(self), (self.x, self.y)


@dataclass(frozen=True)
class SampleRows:
    """Samples of equal size as the rows of x and y, checked as ``BivariateSample`` checks one.

    The Monte Carlo harness holds a chunk of replications this way; row r of
    x and y are the pairs of one sample.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))  # no copy of a float array
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
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
        return float(self.x_sorted[check_level(m, "m", 1, self.sample.n) - 1])

    def threshold(self, k: int) -> float:
        """Return X_(n-k), the (k+1)-th largest x value: the exceedance level for k."""
        n = self.sample.n
        return self.order_statistic(n - check_level(k, "k", 1, n - 1))


def order_view(sample: BivariateSample) -> OrderedView:
    """The ascending-x view of a sample; each call sorts x afresh."""
    order = np.argsort(sample.x, kind="stable")
    x_sorted = sample.x[order]
    order.setflags(write=False)
    x_sorted.setflags(write=False)
    return OrderedView(sample=sample, order=order, x_sorted=x_sorted)


def _take(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """a[r, cols[r, j]] for every row r: ``np.take_along_axis`` without its index building."""
    return a.ravel()[cols + np.arange(0, a.size, a.shape[1])[:, None]]


@dataclass(frozen=True, eq=False)
class LevelSweep:
    """The strict exceedances of one sample, or of every row of a block, at a set of levels k.

    ``sample`` is a ``BivariateSample`` (one row) or ``SampleRows``. Its rows
    are whole samples, or samples of ``n`` pairs cut to the pairs of their
    largest max(ks) + 1 keys or more (``top_pairs``): the levels run up to
    n - 1 and everything read depends on those keys alone. Nothing is read
    until first use. Then each row's largest max(ks) + 1 keys are selected and
    sorted in descending order, each level's threshold and strict exceedance
    count follow from them, and ``x``/``y`` receive the pairs behind the
    largest max(ks) keys, so the exceedances of a row at level k are the first
    ``count(k)[row]`` entries of that row. The key is x unless another
    per-pair ``key`` is given (the norm of the dependence measure); it must
    have x's shape and no NaN (inf is a key), or the first read is a
    ``ValueError`` naming it.
    """

    sample: BivariateSample | SampleRows
    ks: tuple[int, ...]
    key: np.ndarray | None = None
    n: int | None = None

    def __post_init__(self):
        pairs = self.sample.x.shape[-1]
        n = pairs if self.n is None else check_level(self.n, "n", pairs)
        object.__setattr__(self, "n", n)

    @property
    def rows(self) -> int:
        return np.atleast_2d(self.sample.x).shape[0]

    @cached_property
    def _read(self):
        x, y = np.atleast_2d(self.sample.x), np.atleast_2d(self.sample.y)
        key = x if self.key is None else np.atleast_2d(self.key)
        ks = [check_level(k, "k", 1, self.n - 1) for k in self.ks]
        shape = self.sample.x.shape
        if self.key is not None and (np.shape(self.key) != shape or np.isnan(key).any()):
            raise ValueError(f"key must have the shape of x, {shape}, and no NaN")
        width, pairs = max(ks, default=0), x.shape[1]
        if width >= pairs:
            raise ValueError(f"level {width} needs {width + 1} pairs a row, the rows hold {pairs}")
        # the largest width + 1 keys of each row, unless the rows hold just
        # those; which of several tied keys make the cut changes no threshold,
        # count or sum
        cut = pairs - width - 1
        part = np.argpartition(key, cut, axis=1)[:, cut:] if cut else None
        part_keys = key if part is None else _take(key, part)
        order = np.argsort(part_keys, axis=1)[:, ::-1]
        top = _take(part_keys, order)
        # X_(n-k) is each row's (k+1)-th largest key; ties at it make the
        # strict count fall below k (estimators still divide by the nominal k)
        columns = {k: i for i, k in enumerate(dict.fromkeys(ks))}
        thresholds = top[:, list(columns)]
        counts = np.empty(thresholds.shape, dtype=np.intp)
        for i, k in enumerate(columns):
            counts[:, i] = np.count_nonzero(top[:, :k] > top[:, k, None], axis=1)
        gather = order[:, :width] if part is None else _take(part, order[:, :width])
        xs = top[:, :width] if self.key is None else _take(x, gather)
        return columns, thresholds, counts, xs, _take(y, gather)

    @property
    def x(self) -> np.ndarray:
        """Per row, the x of the pairs with the largest max(ks) keys, in descending key order."""
        return self._read[3]

    @property
    def y(self) -> np.ndarray:
        """The y of the same pairs as ``x``."""
        return self._read[4]

    @property
    def counts(self) -> np.ndarray:
        """Each row's strict exceedance counts, one column per distinct level in ``ks``' order."""
        return self._read[2]

    def column(self, k: int) -> int:
        """The column of level k in ``counts``."""
        columns = self._read[0]
        try:
            return columns[check_level(k, "k", -math.inf)]
        except KeyError:
            raise ValueError(f"k = {k} is not a level of this sweep") from None

    def threshold(self, k: int) -> np.ndarray:
        """Each row's threshold X_(n-k)."""
        return self._read[1][:, self.column(k)]

    def count(self, k: int) -> np.ndarray:
        """Each row's count of strict exceedances at level k."""
        return self.counts[:, self.column(k)]


def top_pairs(rows: SampleRows, width: int, key: np.ndarray | None = None):
    """x and y of each row's width + 1 pairs of largest key (x unless ``key``), in no order.

    A ``LevelSweep`` of these rows, given the rows' n and keyed alike, reads
    the thresholds, counts and exceedances of the whole rows at every level
    up to width.
    """
    key = rows.x if key is None else key
    cut = rows.x.shape[1] - width - 1
    if cut <= 0:
        return rows.x, rows.y
    part = np.argpartition(key, cut, axis=1)[:, cut:]
    return _take(rows.x, part), _take(rows.y, part)


def level_sums(w: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``math.fsum(w[r, :counts[r, i]])`` for every row r and level i, bit for bit, as an array.

    ``w`` is (rows, width) and ``counts`` (rows, levels), each count in
    [0, width]. Each row is cut at fixed power-of-two boundaries (Demmel &
    Hida, SIAM J. Sci. Comput. 25(4), 2003) into pieces of b = 53 -
    m.bit_length() bits, m the largest count. With 2^e the power of two
    above the row's largest |w| and sigma = 2^(e + m.bit_length()) from
    ``np.ldexp``, (w + sigma) - sigma is w rounded to a multiple of
    2^(e - b), exactly, and w minus it is exact too (Rump, Ogita & Oishi,
    SIAM J. Sci. Comput. 31(1), 2008); that is the first piece, and the
    next is cut from the rest with sigma * 2^-b. A piece is 2^(e - b) times
    an integer of at most 2^b in magnitude, so ``np.cumsum`` adds up to m of
    them exactly; pieces are taken until nothing is left, two on the Monte
    Carlo studies. A prefix sum is then the exact sum of its pieces' running
    sums, and rounding that once gives fsum's bits: one add of at most two
    of them, else one ``math.fsum`` of them. No piece is -0.0, so an exact 0
    is +0.0, as in fsum. A row with a non-finite weight, or one of magnitude
    2^(1023 - m.bit_length()) or more, is summed by ``math.fsum`` prefix by
    prefix, and where fsum raises (an intermediate overflow, inf - inf) the
    sum is NaN.
    """
    rows, levels = counts.shape
    width = int(counts.max())
    w = w[:, :width]
    bits = width.bit_length()
    top = np.abs(w).max(axis=1, initial=0.0)
    fast = top < math.ldexp(1.0, 1023 - bits)  # NaN fails it too; the others are summed apart
    sigma = np.ldexp(1.0, np.frexp(np.where(fast, top, 0.0))[1] + bits)[:, None]
    rest = np.where(fast[:, None], w, 0.0)
    # each piece is cut into ``piece`` and summed there in place, so that
    # piece[r, c - 1] sums row r's first c; ``at`` indexes it flat
    piece = np.empty(w.shape)
    empty = counts == 0
    at = np.maximum(counts - 1, 0) + np.arange(rows)[:, None] * width
    parts = []
    while np.count_nonzero(rest):
        np.add(rest, sigma, out=piece)
        piece -= sigma
        rest -= piece
        np.cumsum(piece, axis=1, out=piece)
        parts.append(np.where(empty, 0.0, piece.take(at)))
        sigma = np.ldexp(sigma, bits - 53)
    if len(parts) <= 2:  # 0 + the first part is exact, adding the second rounds once
        sums = sum(parts, np.zeros((rows, levels)))
    else:
        exact = np.stack(parts, axis=2).reshape(-1, len(parts)).tolist()
        sums = np.array([math.fsum(terms) for terms in exact]).reshape(rows, levels)
    for r in np.flatnonzero(~fast).tolist():
        row = w[r].tolist()
        for i, count in enumerate(counts[r].tolist()):
            try:
                sums[r, i] = math.fsum(row[:count])
            except (OverflowError, ValueError):
                sums[r, i] = math.nan
    return sums


def check_level(value, what: str, lo: float = 1, hi: float = math.inf) -> int:
    """The one rule for an integer (numpy's, 0-d arrays too, not a bool) in [lo, hi], as an int."""
    try:
        level = operator.index(value)
        integer = not isinstance(value, bool)  # numpy would read a bool index as a mask
    except TypeError:
        integer = False
    if not integer:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if not lo <= level <= hi:
        bounds = f"[{lo}, {hi}]" if hi < math.inf else f"[{lo}, inf)"
        raise ValueError(f"{what} = {value} is not in {bounds}")
    return level


def check_real(value, name: str, interval: str = "(0, inf)", error: type = ValueError) -> float:
    """The one rule for a real (numpy's, 0-d arrays too) in an interval such as "(0, 1]"."""
    lo, hi = map(float, interval[1:-1].split(","))
    try:
        not_real = isinstance(value, (bool, np.bool_, str, bytes)) or getattr(value, "ndim", 0)
        real = math.nan if not_real else float(value)
    except (TypeError, ValueError, OverflowError):
        real = math.nan
    closed = real == lo and interval[0] == "[" or real == hi and interval[-1] == "]"
    if not (lo < real < hi or closed):
        raise error(f"{name} must be a number in {interval}, got {value!r}")
    return real


check_positive_finite = check_real  # the rule for a positive, finite parameter: (0, inf)


def fraction_to_count(frac: float, n: int, what: str = "fraction") -> int:
    """Nearest-integer count for a fraction in (0, 1) of n, clamped to [1, n - 1]; n >= 2."""
    frac = check_real(frac, what, "(0, 1)")
    n = check_level(n, "n", 2)
    return min(max(int(round(frac * n)), 1), n - 1)


def exceedance_indices(view: OrderedView, k: int) -> np.ndarray:
    """Indices j with x_j strictly above the level-k threshold, ascending."""
    return np.flatnonzero(view.sample.x > view.threshold(k))


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
        object.__setattr__(self, "k", check_level(self.k, "k"))
        object.__setattr__(self, "value", check_real(self.value, "value", "(-inf, inf)"))
        if self.plugin_variance is not None:
            check_real(self.plugin_variance, "plugin_variance", "[0, inf)")
