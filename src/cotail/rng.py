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
stream a plain seeded generator draws. ``streams`` serves a chunk of
replications from generators kept per thread, re-keyed through their state.

Each draw (``open_uniform``, ``standard_normal``, ``standard_gamma``,
``chi_square``, ``pareto``) has one form, which takes one generator per row:
row i draws from gens[i] alone, so a draw over [gen] is one generator's
draw. The rows draw their uniforms into one padded buffer, and one transform
covers it. The gamma rejection runs in rounds (Marsaglia & Tsang 2000, *ACM
TOMS* 26): in each, every row with pending candidates draws its normals'
uniforms and then its acceptance uniforms, and one Box-Muller and one
acceptance test cover the pending candidates of every row.

``box_muller`` acts along the last axis, on contiguous rows, so a block of
uniforms drawn as rows transforms to the same bits as each row drawn alone.
"""
from __future__ import annotations

import math
import threading
from typing import Iterable, Sequence

import numpy as np

from .core import check_real

_MASK64 = (1 << 64) - 1


def stream_key(seed: int, rep: int = 0) -> np.ndarray:
    """The Philox key of replication ``rep`` of ``seed``: [seed mod 2^64, rep]."""
    return np.array([seed & _MASK64, rep], dtype=np.uint64)


def generator(seed: int, rep: int = 0) -> np.random.Generator:
    """A Philox-backed generator keyed by the pair (seed, rep)."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, rep)))


_pool = threading.local()  # this thread's generators for ``streams``


def streams(seed: int, reps: Iterable[int]) -> list[np.random.Generator]:
    """``generator(seed, rep)`` for each rep in turn, all alive at once.

    The generators are kept per thread and re-keyed through their state, so a
    list is valid until the next call in the same thread. On a 2-vCPU host
    with numpy 2.4, building a Philox generator took about 16 us and setting
    its state about 1.6 us.
    """
    keys = [stream_key(seed, rep) for rep in reps]
    if not hasattr(_pool, "gens"):
        _pool.gens, _pool.fresh = [], generator(0).bit_generator.state  # counter 0, empty buffer
    gens = _pool.gens
    gens += [generator(0) for _ in keys[len(gens):]]
    for gen, key in zip(gens, keys):
        _pool.fresh["state"]["key"] = key
        gen.bit_generator.state = _pool.fresh
    return gens[:len(keys)]


def open_uniform(gens: Sequence[np.random.Generator], size: int) -> np.ndarray:
    """Row i: ``size`` uniforms in (0, 1) from gens[i], (m + 0.5) * 2^-53 for 53-bit m."""
    return _fill_rows(gens, [size] * len(gens), np.empty((len(gens), size)))


def _fill_rows(gens: Sequence[np.random.Generator], sizes: Sequence[int], out: np.ndarray) -> np.ndarray:
    """Start row i of ``out`` with ``sizes[i]`` open uniforms from gens[i].

    The rest of each row gains 2^-54, which leaves a 1 as it is.
    """
    for gen, size, row in zip(gens, sizes, out):
        if size:
            gen.random(out=row[:size])
    out += 2.0 ** -54
    return out


def _leading(a: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The first ``counts[j]`` values of each row j along a's last axis, concatenated.

    Where every row is taken whole, this is a view of a.
    """
    if np.all(counts == a.shape[-1]):
        return a.reshape(-1)
    return a[np.arange(a.shape[-1]) < counts[..., None]]


def standard_normal(gens: Sequence[np.random.Generator], sizes: Sequence[int]) -> np.ndarray:
    """``sizes[i]`` normals from gens[i] for each row i, concatenated in row order.

    Each row draws its radius block and then its angle block, ceil(size / 2)
    uniforms each, into the two halves of its row of one buffer padded with
    1s, so one ``box_muller`` covers every row; for an odd size the last
    variate of a pair is dropped.
    """
    sizes = np.asarray(sizes)
    half = (sizes + 1) // 2
    width = int(half.max())
    u = np.ones((len(gens), 2, width))
    _fill_rows(gens, half.tolist(), u[:, 0])
    _fill_rows(gens, half.tolist(), u[:, 1])
    box_muller(u.reshape(len(gens), 2 * width), 2 * width)  # cosines in u[:, 0], sines in u[:, 1]
    return _leading(u, np.stack([half, sizes - half], axis=-1))


def box_muller(u: np.ndarray, size: int) -> np.ndarray:
    """``size`` normals from 2 * ceil(size / 2) open uniforms along u's last axis.

    The uniforms hold the radius block then the angle block; for odd sizes
    the last variate of a pair is dropped. Rows of a 2-D u transform alike.
    The normals overwrite u, and a view of it is returned.
    """
    half = (size + 1) // 2
    radius = np.log(u[..., :half])
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = u[..., half:]
    angle *= 2.0 * math.pi
    np.cos(angle, out=u[..., :half])
    np.sin(angle, out=angle)
    u[..., :half] *= radius
    angle *= radius
    return u[..., :size]


def standard_gamma(gens: Sequence[np.random.Generator], shape: float, size: int) -> np.ndarray:
    """Gamma(shape, scale=1) as rows, row i from gens[i]: Marsaglia-Tsang with the shape < 1 boost.

    Below shape 1 each row draws its ``size`` boost uniforms first.
    """
    # an infinite shape would make every acceptance test NaN, so the
    # rejection loop would never finish
    check_real(shape, "shape")
    if shape < 1.0:
        boost = open_uniform(gens, size) ** (1.0 / shape)
        return _gamma_at_least_one(gens, shape + 1.0, size).reshape(boost.shape) * boost
    return _gamma_at_least_one(gens, shape, size).reshape(len(gens), size)


def _gamma_at_least_one(gens: Sequence[np.random.Generator], shape: float, size: int) -> np.ndarray:
    """``size`` variates for each row, concatenated, by rounds over every row's pending candidates.

    In a round, a row with m pending candidates draws what it would draw
    alone: m normals, then m acceptance uniforms.
    """
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(len(gens) * size)
    pending = np.ones(out.size, dtype=bool)  # candidates not yet accepted, row by row
    while (counts := pending.reshape(len(gens), size).sum(axis=1)).any():
        x = standard_normal(gens, counts)
        v = (1.0 + c * x) ** 3
        # log(v) is NaN or -inf where v <= 0; the v > 0 term rejects those
        with np.errstate(invalid="ignore", divide="ignore"):
            bound = 0.5 * x * x + d - d * v + d * np.log(v)
            u = _fill_rows(gens, counts.tolist(), np.ones((len(gens), int(counts.max()))))
            accept = (v > 0.0) & (np.log(_leading(u, counts)) < bound)
        out[pending] = d * v  # a rejected candidate's value is replaced in a later round
        pending[pending] = ~accept
    return out


def chi_square(gens: Sequence[np.random.Generator], df: float, size: int) -> np.ndarray:
    """Chi-square(df) as rows, row i from gens[i]: 2 * gamma(df / 2)."""
    return 2.0 * standard_gamma(gens, df / 2.0, size)


def pareto(gens: Sequence[np.random.Generator], alpha: float, size: int) -> np.ndarray:
    """Standard Pareto(alpha) as rows, row i from gens[i]: u^(-1/alpha) of open uniforms u."""
    check_real(alpha, "alpha")
    return open_uniform(gens, size) ** (-1.0 / alpha)
