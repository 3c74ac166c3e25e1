"""Hill estimator of the regular-variation index from the first margin.

The estimate targets the positive index alpha, so a Pareto(alpha) sample
yields alpha_hat close to alpha. The number of upper order statistics used
(``k_alpha``) is an independent tuning parameter; it is typically chosen much
larger than the exceedance level k of the downstream estimator. A common
heuristic default is k_alpha = 2k, documented as a heuristic only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import OrderedView, level_threshold
from .errors import NonPositiveThreshold, ZeroSpread


@dataclass(frozen=True)
class HillEstimate:
    alpha_hat: float
    k_alpha: int


def hill_estimate(view: OrderedView, k_alpha: int) -> HillEstimate:
    """Reciprocal mean log-ratio of the top k_alpha order statistics.

    alpha_hat = k_alpha / sum_{i=0..k_alpha-1} log(X_{n:n-i} / X_{n:n-k_alpha})
    """
    n = view.sample.n
    base = level_threshold(view.x_sorted, k_alpha, "k_alpha")
    if base <= 0:
        raise NonPositiveThreshold(
            f"order statistic X_({n - k_alpha}) = {base} is not positive"
        )
    log_sum = math.fsum(np.log(view.x_sorted[n - k_alpha:] / base))
    if log_sum <= 0:
        raise ZeroSpread(
            f"top {k_alpha + 1} order statistics are all equal to {base}"
        )
    return HillEstimate(alpha_hat=k_alpha / log_sum, k_alpha=k_alpha)
