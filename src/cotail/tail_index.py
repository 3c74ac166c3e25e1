"""Hill estimator of the regular-variation index from the first margin.

The estimate targets the positive index alpha, so a Pareto(alpha) sample
yields alpha_hat close to alpha. The number of upper order statistics used
(``k_alpha``) is an independent tuning parameter; it is typically chosen much
larger than the exceedance level k of the downstream estimator. A common
heuristic default is k_alpha = 2k, documented as a heuristic only.

``hill_alphas`` runs the Hill step on every row of a ``LevelSweep``;
``hill_estimate`` is its one-sample form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LevelSweep, OrderedView
from .errors import CotailError, NonPositiveThreshold, ZeroSpread


@dataclass(frozen=True)
class HillEstimate:
    alpha_hat: float
    k_alpha: int


def hill_alphas(sweep: LevelSweep, k_alpha: int) -> list:
    """Each row's Hill alpha on its top k_alpha order statistics of x.

    alpha_hat = k_alpha / sum_{i=0..k_alpha-1} log(X_{n:n-i} / X_{n:n-k_alpha}).
    A row whose X_{n:n-k_alpha} is not positive, or whose log-ratios sum to
    0, gets the ``CotailError`` instead.
    """
    base, above = sweep.top_x(k_alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(above / base[:, None]).tolist()
    out = []
    for b, row in zip(base.tolist(), logs):
        if b <= 0:
            out.append(NonPositiveThreshold(
                f"order statistic X_({sweep.n - k_alpha}) = {b} is not positive"))
            continue
        log_sum = math.fsum(row)
        if log_sum <= 0:
            out.append(ZeroSpread(f"top {k_alpha + 1} order statistics are all equal to {b}"))
        else:
            out.append(k_alpha / log_sum)
    return out


def hill_estimate(view: OrderedView, k_alpha: int) -> HillEstimate:
    """Reciprocal mean log-ratio of the top k_alpha order statistics of the view's sample."""
    alpha = hill_alphas(LevelSweep(view.sample, ()), k_alpha)[0]
    if isinstance(alpha, CotailError):
        raise alpha
    return HillEstimate(alpha_hat=alpha, k_alpha=k_alpha)
