"""Generic weighted tail-exceedance averages.

A :class:`TailFunctionSpec` bundles a nonnegative weight ``psi``, homogeneous
of degree ``gamma``, with an inclusion region. Membership of a pair (x, y) in
the scaled region s*u*C is evaluated as ``region(x / (s*u), y / (s*u))``; for
every built-in region this makes scaled copies nested, so shrinking s only
enlarges the included set.

``psi`` and ``region`` must accept equal-length numpy arrays and evaluate
elementwise. ``psi`` is only ever evaluated on points inside the region, so
it may be undefined elsewhere (coordinate ratios at x = 0, for instance).

Two evaluation modes exist:

- ``tef_fixed`` uses a deterministic level u together with the caller-supplied
  survival mass ``fbar_u`` at that level. The survival mass is only knowable
  in simulations, so this form is a simulation-side diagnostic.
- ``tef_random`` replaces the level with the order statistic X_{n:n-k} and the
  normalization with the nominal k. The psi arguments are scaled by the same
  order statistic (the fully data-driven form every estimator in this package
  uses) unless a deterministic level ``u`` is passed, which then scales them
  instead; only a simulation knows such a u.

Sums are accumulated with ``math.fsum`` (exactly rounded), so results do not
depend on summation order and are bit-reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import BivariateSample, LevelSweep, check_positive_finite, check_real
from .errors import NonPositiveThreshold

Weight = Callable[[np.ndarray, np.ndarray], np.ndarray]
Region = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class TailFunctionSpec:
    """Homogeneous weight plus inclusion region defining a tail functional."""

    psi: Weight
    gamma: float
    region: Region
    name: str = ""


# ---------------------------------------------------------------------------
# norms shared by the built-in specs and the dependence-measure estimator
# ---------------------------------------------------------------------------

NORMS = ("l2", "l1", "linf")


def norm_values(x: np.ndarray, y: np.ndarray, norm: str) -> np.ndarray:
    if norm == "l2":
        return np.sqrt(x * x + y * y)
    if norm == "l1":
        return x + y
    if norm == "linf":
        return np.maximum(x, y)
    raise ValueError(f"unknown norm {norm!r}, expected one of {NORMS}")


def squared_norm(x: np.ndarray, y: np.ndarray, norm: str) -> np.ndarray:
    # l2 avoids the sqrt round-trip so x = y gives the ratio 1/2 exactly
    if norm == "l2":
        return x * x + y * y
    r = norm_values(x, y, norm)
    return r * r


# ---------------------------------------------------------------------------
# built-in specs
# ---------------------------------------------------------------------------

def margin_exceedance() -> TailFunctionSpec:
    """psi = 1 on {x1 > 1}: the plain exceedance counter."""
    return TailFunctionSpec(
        psi=lambda u, v: np.ones_like(u),
        gamma=0.0,
        region=lambda u, v: u > 1.0,
        name="margin_exceedance",
    )


def joint_exceedance(y_cut: float = 1.0) -> TailFunctionSpec:
    """psi = 1 on {x1 > 1, x2 > y_cut}: joint exceedance counting."""
    check_positive_finite(y_cut, "y_cut")
    return TailFunctionSpec(
        psi=lambda u, v: np.ones_like(u),
        gamma=0.0,
        region=lambda u, v: (u > 1.0) & (v > y_cut),
        name=f"joint_exceedance(y={y_cut})",
    )


def capped_ratio_power(alpha: float, y_cut: float = 1.0) -> TailFunctionSpec:
    """psi = min(x2 / (y_cut * x1), 1)^alpha on {x1 > 1}."""
    check_positive_finite(alpha, "alpha")
    check_positive_finite(y_cut, "y_cut")
    return TailFunctionSpec(
        psi=lambda u, v: np.minimum(v / (y_cut * u), 1.0) ** alpha,
        gamma=0.0,
        region=lambda u, v: u > 1.0,
        name=f"capped_ratio_power(alpha={alpha}, y={y_cut})",
    )


def second_coordinate() -> TailFunctionSpec:
    """psi = x2 on {x1 > 1}, homogeneous of degree 1."""
    return TailFunctionSpec(
        psi=lambda u, v: v,
        gamma=1.0,
        region=lambda u, v: u > 1.0,
        name="second_coordinate",
    )


def coordinate_ratio() -> TailFunctionSpec:
    """psi = x2 / x1 on {x1 > 1}."""
    return TailFunctionSpec(
        psi=lambda u, v: v / u,
        gamma=0.0,
        region=lambda u, v: u > 1.0,
        name="coordinate_ratio",
    )


def normalized_product(norm: str = "l2") -> TailFunctionSpec:
    """psi = x1 * x2 / |x|^2 on {|x| > 1}: the dependence-measure weight."""
    if norm not in NORMS:
        raise ValueError(f"unknown norm {norm!r}, expected one of {NORMS}")
    return TailFunctionSpec(
        psi=lambda u, v: (u * v) / squared_norm(u, v, norm),
        gamma=0.0,
        region=lambda u, v: norm_values(u, v, norm) > 1.0,
        name=f"normalized_product({norm})",
    )


def builtin_specs() -> list[TailFunctionSpec]:
    """All built-in specs, for homogeneity and nesting property checks."""
    return [
        margin_exceedance(),
        joint_exceedance(0.5),
        joint_exceedance(1.0),
        joint_exceedance(2.0),
        capped_ratio_power(2.0),
        capped_ratio_power(4.0, y_cut=1.5),
        second_coordinate(),
        coordinate_ratio(),
        normalized_product("l2"),
        normalized_product("l1"),
        normalized_product("linf"),
    ]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _weighted_sum(
    x: np.ndarray, y: np.ndarray, spec: TailFunctionSpec, s: float, level: float, denom: float
) -> float:
    # a ratio past the double range is inf, its exact limit (inside the region)
    with np.errstate(over="ignore"):
        scale = s * level
        if scale > 0:
            mask = np.asarray(spec.region(x / scale, y / scale), dtype=bool)
        else:
            # s * level underflows to 0 only if both are at most 1/2, so each
            # division below only grows a value: none underflows, and one that
            # overflows is past the double range at the exact scale too
            mask = np.asarray(spec.region(x / level / s, y / level / s), dtype=bool)
        if not mask.any():
            return 0.0
        x, y = x[mask], y[mask]
        u, v = x / denom, y / denom
        over = np.isinf(u) | np.isinf(v)
        if not over.any():
            return math.fsum(np.asarray(spec.psi(u, v), dtype=float))
        # psi is not evaluated at inf: the weight's homogeneity gives
        # psi(x / d, y / d) = psi(x, y) / d^gamma for the pairs that overflow
        terms = np.asarray(spec.psi(u[~over], v[~over]), dtype=float)
        past = np.asarray(spec.psi(x[over], y[over]), dtype=float) / denom ** spec.gamma
    return math.fsum(np.concatenate([terms, past]))


def tef_fixed(
    sample: BivariateSample,
    spec: TailFunctionSpec,
    u: float,
    s: float,
    fbar_u: float,
) -> float:
    """Tail functional at the deterministic level u.

    Returns (1 / (n * fbar_u)) * sum_j psi(x_j/u, y_j/u) * 1{(x_j, y_j) in s*u*C}
    where fbar_u is the caller-supplied survival mass at u.
    """
    check_positive_finite(u, "u")
    check_positive_finite(s, "s")
    fbar_u = check_real(fbar_u, "fbar_u", "(0, 1]")
    total = _weighted_sum(sample.x, sample.y, spec, s, level=u, denom=u)
    return total / (sample.n * fbar_u)


def tef_random(
    sample: BivariateSample,
    spec: TailFunctionSpec,
    k: int,
    s: float = 1.0,
    u: float | None = None,
) -> float:
    """Tail functional at the random level X_{n:n-k}, normalized by nominal k.

    The psi arguments are scaled by the deterministic level ``u`` when it is
    given (simulation-side use only), else by the order statistic itself. The
    inclusion region is always scaled by s * X_{n:n-k}.
    """
    check_positive_finite(s, "s")
    if u is not None:
        check_positive_finite(u, "u")
    thr = float(LevelSweep(sample, (k,)).threshold(k)[0])
    if thr <= 0:
        raise NonPositiveThreshold(f"X_(n-k) = {thr} is not positive")
    denom = thr if u is None else u
    return _weighted_sum(sample.x, sample.y, spec, s, level=thr, denom=denom) / k
