"""Hill estimator of the regular-variation index from the first margin.

The estimate targets the positive index alpha, so a Pareto(alpha) sample
yields alpha_hat close to alpha. The number of upper order statistics used
(``k_alpha``) is an independent tuning parameter; it is typically chosen much
larger than the exceedance level k of the downstream estimator. A common
heuristic default is k_alpha = 2k, documented as a heuristic only.

``sweep_alphas`` is the one Hill step: it reads every row of a
``core.LevelSweep`` at k_alpha, taking X_(n-k_alpha) as the sweep's
threshold at k_alpha and the top k_alpha order statistics as the first
k_alpha entries of its x (a sweep without that level, or ranked by a norm
rather than x, is read through a one-level sweep of its rows), and sums
every row's log-ratios in one ``core.level_sums`` call, exactly rounded as
``math.fsum`` rounds them. ``hill_estimate`` is its one-sample form, over a
one-level sweep of the sample. k_alpha passes ``core.check_level`` like any
other level, so it is reported as an ``int``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LevelSweep, OrderedView, check_level, level_sums
from .errors import NonFiniteEstimate, NonPositiveThreshold, ZeroSpread, unwrap


@dataclass(frozen=True)
class HillEstimate:
    alpha_hat: float
    k_alpha: int


def sweep_alphas(sweep: LevelSweep, k_alpha: int) -> list:
    """Each row's Hill alpha on its top k_alpha order statistics of x, read off the sweep.

    alpha_hat = k_alpha / sum_{i=0..k_alpha-1} log(X_{n:n-i} / X_{n:n-k_alpha}).
    A sweep by x with k_alpha among its levels is read as it is; any other
    is read through a one-level sweep of its rows at k_alpha (which fails, as
    a sweep does, on rows cut below k_alpha + 1 pairs). A row whose
    X_{n:n-k_alpha} is not positive, or whose log-ratios sum to 0 or past the
    double range, gets the ``CotailError`` instead.
    """
    n = sweep.n
    k_alpha = check_level(k_alpha, "k_alpha", 1, n - 1)
    if sweep.norm is not None or k_alpha not in sweep.ks:
        sweep = LevelSweep(sweep.sample, (k_alpha,), n=n)
    base = sweep.threshold(k_alpha)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logs = sweep.x[:, :k_alpha] / base[:, None]
        np.log(logs, out=logs)
    log_sums = level_sums(logs, np.full((len(base), 1), k_alpha))[:, 0].tolist()
    out = []
    for b, log_sum in zip(base.tolist(), log_sums):
        if b <= 0:
            out.append(NonPositiveThreshold(
                f"order statistic X_({n - k_alpha}) = {b} is not positive"))
        elif log_sum <= 0:
            out.append(ZeroSpread(f"top {k_alpha + 1} order statistics are all equal to {b}"))
        elif log_sum == math.inf:  # alpha would be 0
            out.append(NonFiniteEstimate(f"X_(n) / X_({n - k_alpha}) is beyond the double range"))
        else:
            out.append(k_alpha / log_sum)
    return out


def hill_estimate(view: OrderedView, k_alpha: int) -> HillEstimate:
    """Reciprocal mean log-ratio of the top k_alpha order statistics of the view's sample."""
    k_alpha = check_level(k_alpha, "k_alpha", 1, view.sample.n - 1)
    alpha = unwrap(sweep_alphas(LevelSweep(view.sample, (k_alpha,)), k_alpha)[0])
    return HillEstimate(alpha_hat=alpha, k_alpha=k_alpha)
