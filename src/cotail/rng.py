"""Deterministic random draws built on a counter-based bit generator.

Everything reduces to the 64-bit Philox generator, so a seed fully determines
the output and distinct keys give non-overlapping streams:

- uniforms are taken on the open interval (0, 1) as (m + 0.5) / 2^53 with m a
  53-bit integer, so logarithms never see zero. ``Generator.random`` returns
  m * 2^-53 with m = next_uint64 >> 11, the same m that ``integers(0, 2^53)``
  draws: Lemire's method over a power-of-two range keeps the top 53 bits and
  never rejects. m * 2^-53 is exact, and adding 2^-54 rounds as m + 0.5 does,
  scaled by a power of two. So ``random() + 2^-54`` gives the values and the
  generator state of ``(integers(0, 2^53) + 0.5) * 2^-53`` bit for bit,
  without the range checks ``integers`` makes on every call;
- normals come from the Box-Muller transform on open-interval uniform pairs;
- gamma variates use Marsaglia-Tsang rejection for shape >= 1 and the
  power-of-uniform boost below 1; chi-square(df) is 2 * gamma(df / 2);
- Pareto(alpha) is an inverse-power transform of an open uniform.

Streams are keyed on the pair (seed, replication): Philox takes a 128-bit
key, and replication ``rep`` of ``seed`` uses ``[seed mod 2^64, rep]``
(``stream_key``), the counter-based design of Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3" (SC'11). Distinct pairs give distinct keys, so
streams are independent across seeds as well as across replications.
``Philox(key=seed)`` is the key ``[seed, 0]``, so replication 0 draws the
stream a plain seeded generator draws. ``streams`` serves a run of
replications from one Philox, re-keyed through its state for each.

The transforms (``pareto_of``, ``box_muller``) act elementwise or along the
last axis, so a block of uniforms drawn as rows transforms to the same bits
as each row drawn alone.
"""
from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

_MASK64 = (1 << 64) - 1


def stream_key(seed: int, rep: int = 0) -> np.ndarray:
    """The Philox key of replication ``rep`` of ``seed``: [seed mod 2^64, rep]."""
    return np.array([seed & _MASK64, rep], dtype=np.uint64)


def generator(seed: int, rep: int = 0) -> np.random.Generator:
    """A Philox-backed generator keyed by the pair (seed, rep)."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, rep)))


def streams(seed: int, reps: Iterable[int]) -> Iterator[np.random.Generator]:
    """``generator(seed, rep)`` for each rep in turn, from one re-keyed Philox.

    Each yielded generator is the same object, valid until the next one is
    yielded. Setting a Philox's state costs about 3 us, building one about 15.
    """
    bitgen = np.random.Philox(key=stream_key(seed))
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state  # counter 0 and an empty buffer
    for rep in reps:
        fresh["state"]["key"] = stream_key(seed, rep)
        bitgen.state = fresh
        yield gen


def open_uniform(gen: np.random.Generator, size: int, out: np.ndarray | None = None) -> np.ndarray:
    """Uniform draws strictly inside (0, 1): (m + 0.5) * 2^-53, m a 53-bit integer.

    With ``out`` (a C-contiguous float array of ``size`` values) they are
    written there.
    """
    u = gen.random(size, out=out)
    u += 2.0 ** -54
    return u


def standard_normal(gen: np.random.Generator, size: int) -> np.ndarray:
    """Box-Muller pairs; for odd sizes the last variate of a pair is dropped."""
    return box_muller(open_uniform(gen, 2 * ((size + 1) // 2)), size)


def box_muller(u: np.ndarray, size: int) -> np.ndarray:
    """``size`` normals from 2 * ceil(size / 2) open uniforms along u's last axis.

    The uniforms hold the radius block then the angle block; for odd sizes
    the last variate of a pair is dropped. Rows of a 2-D u transform alike.
    """
    half = (size + 1) // 2
    radius = np.sqrt(-2.0 * np.log(u[..., :half]))
    angle = (2.0 * math.pi) * u[..., half:]
    out = np.empty(u.shape)
    np.multiply(radius, np.cos(angle), out=out[..., :half])
    np.multiply(radius, np.sin(angle), out=out[..., half:])
    return out[..., :size]


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
        # log(v) is NaN or -inf where v <= 0; the v > 0 term rejects those
        with np.errstate(invalid="ignore", divide="ignore"):
            accept = (v > 0.0) & (np.log(u) < 0.5 * x * x + d - d * v + d * np.log(v))
        out[todo[accept]] = d * v[accept]
        todo = todo[~accept]
    return out


def chi_square(gen: np.random.Generator, df: float, size: int) -> np.ndarray:
    return 2.0 * standard_gamma(gen, df / 2.0, size)


def pareto(gen: np.random.Generator, alpha: float, size: int) -> np.ndarray:
    """Standard Pareto(alpha): survival x^(-alpha) on x >= 1."""
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    return pareto_of(open_uniform(gen, size), alpha)


def pareto_of(u: np.ndarray, alpha: float) -> np.ndarray:
    """Standard Pareto(alpha) variates from open uniforms: u^(-1/alpha), elementwise."""
    return u ** (-1.0 / alpha)
