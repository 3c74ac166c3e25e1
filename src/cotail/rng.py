"""Deterministic random draws built on a counter-based bit generator.

Everything reduces to the 64-bit Philox generator, so a seed fully determines
the output and distinct keys give non-overlapping streams:

- uniforms are taken on the open interval (0, 1) as (m + 0.5) / 2^53 with m a
  53-bit integer, so logarithms never see zero;
- normals come from the Box-Muller transform on open-interval uniform pairs;
- gamma variates use Marsaglia-Tsang rejection for shape >= 1 and the
  power-of-uniform boost below 1; chi-square(df) is 2 * gamma(df / 2);
- Pareto(alpha) is an inverse-power transform of an open uniform.

Per-replication streams are keyed with ``mix_seed`` (base seed XOR replication
index), the convention the Monte Carlo harness documents and tests rely on.
"""
from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_TWO53 = 1 << 53


def generator(seed: int) -> np.random.Generator:
    """A Philox-backed generator keyed by ``seed``."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def mix_seed(base_seed: int, rep: int) -> int:
    """The per-replication key: base_seed XOR rep, reduced to 64 bits."""
    return (base_seed ^ rep) & _MASK64


def open_uniform(gen: np.random.Generator, size: int) -> np.ndarray:
    """Uniform draws strictly inside (0, 1)."""
    return (gen.integers(0, _TWO53, size=size, dtype=np.int64) + 0.5) * 2.0 ** -53


def standard_normal(gen: np.random.Generator, size: int) -> np.ndarray:
    """Box-Muller pairs; for odd sizes the last variate of a pair is dropped."""
    half = (size + 1) // 2
    u1 = open_uniform(gen, half)
    u2 = open_uniform(gen, half)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * math.pi) * u2
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:size]


def standard_gamma(gen: np.random.Generator, shape: float, size: int) -> np.ndarray:
    """Gamma(shape, scale=1) via Marsaglia-Tsang with the shape < 1 boost."""
    # an infinite shape would make every acceptance test NaN, so the
    # rejection loop would never finish
    if not 0 < shape < math.inf:
        raise ValueError("shape must be positive and finite")
    if shape < 1.0:
        boost = open_uniform(gen, size) ** (1.0 / shape)
        return _gamma_at_least_one(gen, shape + 1.0, size) * boost
    return _gamma_at_least_one(gen, shape, size)


def _gamma_at_least_one(gen: np.random.Generator, shape: float, size: int) -> np.ndarray:
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(size, dtype=float)
    todo = np.arange(size)
    while todo.size:
        x = standard_normal(gen, todo.size)
        v = (1.0 + c * x) ** 3
        u = open_uniform(gen, todo.size)
        accept = np.zeros(todo.size, dtype=bool)
        pos = v > 0.0
        if pos.any():
            xp, vp = x[pos], v[pos]
            accept[pos] = np.log(u[pos]) < (
                0.5 * xp * xp + d - d * vp + d * np.log(vp)
            )
        out[todo[accept]] = d * v[accept]
        todo = todo[~accept]
    return out


def chi_square(gen: np.random.Generator, df: float, size: int) -> np.ndarray:
    return 2.0 * standard_gamma(gen, df / 2.0, size)


def pareto(gen: np.random.Generator, alpha: float, size: int) -> np.ndarray:
    """Standard Pareto(alpha): survival x^(-alpha) on x >= 1."""
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    return open_uniform(gen, size) ** (-1.0 / alpha)
