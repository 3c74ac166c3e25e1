"""Recompute the reference means in studies.py (about 5 s on 2 cores).

Usage: python3 perfbench/reference_values.py
"""
from __future__ import annotations

import math

import numpy as np
from scipy import integrate, stats

from studies import MC_STUDIES


def linear_fixed_level(k_frac: float, phi=0.8, sigma=0.1, alpha=4.0):
    """(ratio-weight mean, counting mean) at the level u = k_frac^(-1/alpha)."""
    u = k_frac ** (-1.0 / alpha)

    def density(x):
        return alpha * u ** alpha * x ** (-alpha - 1.0)

    def ratio(z, x):
        return min(phi + sigma * z / x, 1.0) ** alpha * density(x) * 2.0 * stats.norm.pdf(z)

    ratio_mean = integrate.dblquad(ratio, u, np.inf, 0.0, np.inf, epsabs=1e-10)[0]

    def counting(x):
        # P(phi x + sigma |Z| > u) given X = x
        if phi * x >= u:
            return density(x)
        return density(x) * 2.0 * stats.norm.sf((u - phi * x) / sigma)

    count_mean = (
        integrate.quad(counting, u, u / phi, epsabs=1e-12, limit=200)[0]
        + integrate.quad(counting, u / phi, np.inf, epsabs=1e-12)[0]
    )
    return ratio_mean, count_mean


def bivt_estimated(reps=40_000, chunk=1000, seed=12345):
    """Independent Monte Carlo of the Hill-alpha ratio estimator on the t model."""
    spec = MC_STUDIES["mc_bivt_n1k"]
    nu, rho = spec["model"][1]["nu"], spec["model"][1]["rho"]
    n = spec["n"]
    k = round(spec["k_fracs"][0] * n)
    ka = round(spec["k_alpha_fracs"][0] * n)
    gen = np.random.Generator(np.random.PCG64(seed))
    values = []
    for _ in range(reps // chunk):
        w = nu / gen.chisquare(nu, size=(chunk, n))
        z1 = gen.standard_normal((chunk, n))
        z2 = rho * z1 + math.sqrt(1.0 - rho * rho) * gen.standard_normal((chunk, n))
        x, y = np.sqrt(w) * np.abs(z1), np.sqrt(w) * np.abs(z2)
        xs = np.sort(x, axis=1)
        thr = xs[:, n - k - 1][:, None]
        base = xs[:, n - ka - 1][:, None]
        alpha = ka / np.log(xs[:, n - ka:] / base).sum(axis=1)
        weights = np.where(x > thr, np.minimum(y / x, 1.0) ** alpha[:, None], 0.0)
        values.append(weights.sum(axis=1) / k)
    v = np.concatenate(values)
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(v.size))


def main() -> None:
    for kf in MC_STUDIES["mc_linear_n1k"]["k_fracs"]:
        ratio_mean, count_mean = linear_fixed_level(kf)
        print(f"linear k_frac={kf}: ratio {ratio_mean:.6f} counting {count_mean:.6f}")
    mean, se = bivt_estimated()
    print(f"bivariate-t Hill-alpha ratio mean {mean:.6f} (se {se:.6f})")


if __name__ == "__main__":
    main()
