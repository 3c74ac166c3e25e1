"""Hill estimator of the regular-variation index from the first margin.

The estimate targets the positive index alpha, so a Pareto(alpha) sample
yields alpha_hat close to alpha. The number of upper order statistics used
(``k_alpha``) is an independent tuning parameter; it is typically chosen much
larger than the exceedance level k of the downstream estimator. A common
heuristic default is k_alpha = 2k, documented as a heuristic only.

``hill_alphas`` runs the Hill step on one sample's x or on every row of a
block of x, partitioning it for the top k_alpha + 1 order statistics;
``hill_estimate`` is its one-sample form. k_alpha passes ``core.check_level``
like any other level, so it is reported as an ``int``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import OrderedView, check_level
from .errors import NonFiniteEstimate, NonPositiveThreshold, ZeroSpread, unwrap


@dataclass(frozen=True)
class HillEstimate:
    alpha_hat: float
    k_alpha: int


def hill_alphas(x: np.ndarray, k_alpha: int) -> list:
    """Each row's Hill alpha on its top k_alpha order statistics (one sample's x is one row).

    alpha_hat = k_alpha / sum_{i=0..k_alpha-1} log(X_{n:n-i} / X_{n:n-k_alpha}).
    A row whose X_{n:n-k_alpha} is not positive, or whose log-ratios sum to
    0 or past the double range, gets the ``CotailError`` instead.
    """
    x = np.atleast_2d(x)
    n = x.shape[1]
    k_alpha = check_level(k_alpha, "k_alpha", 1, n - 1)
    part = np.partition(x, n - k_alpha - 1, axis=1)
    base, above = part[:, n - k_alpha - 1], part[:, n - k_alpha:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logs = np.log(above / base[:, None]).tolist()
    out = []
    for b, row in zip(base.tolist(), logs):
        if b <= 0:
            out.append(NonPositiveThreshold(
                f"order statistic X_({n - k_alpha}) = {b} is not positive"))
            continue
        log_sum = math.fsum(row)
        if log_sum <= 0:
            out.append(ZeroSpread(f"top {k_alpha + 1} order statistics are all equal to {b}"))
        elif log_sum == math.inf:  # alpha would be 0
            out.append(NonFiniteEstimate(f"X_(n) / X_({n - k_alpha}) is beyond the double range"))
        else:
            out.append(k_alpha / log_sum)
    return out


def hill_estimate(view: OrderedView, k_alpha: int) -> HillEstimate:
    """Reciprocal mean log-ratio of the top k_alpha order statistics of the view's sample."""
    k_alpha = check_level(k_alpha, "k_alpha", 1, view.sample.n - 1)
    alpha = unwrap(hill_alphas(view.sample.x, k_alpha)[0])
    return HillEstimate(alpha_hat=alpha, k_alpha=k_alpha)
