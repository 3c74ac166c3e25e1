"""Data generators for the two study models and the Monte Carlo harness.

Models
------
``MODELS`` maps each model id to its class; the CLI builds its ``--model``
choices and parameter flags from it. Every field has a default, the
parameters of the paper's simulation studies, and ``sample(gen, n)`` draws n
pairs from a generator (its docstring gives the draw order).

LinearParetoModel
    Y = phi * X + sigma * |Z| with X standard Pareto(alpha) (survival
    x^(-alpha) on x >= 1) and Z standard normal, independent of X. The tail
    dependence coefficient is phi^alpha.

BivariateTModel
    (X, Y) = sqrt(W) * (|Z1|, |Z2|) where nu / W is chi-square(nu) and
    (Z1, Z2) are standard normal with correlation rho, built as
    Z2 = rho * Z1 + sqrt(1 - rho^2) * Z2'. Each margin is |t_nu|, so the tail
    index is nu. The tail dependence coefficient is the t-copula's
    2 t_{nu+1}(-sqrt((nu+1)(1-rho)/(1+rho))) (Demarta & McNeil 2005),
    evaluated as the regularised incomplete beta I_{(1+rho)/2}((nu+1)/2, 1/2)
    by a continued fraction.

The harness ``run_mc`` evaluates a set of estimators over replications. Each
replication's sample is swept once (``core.LevelSweep``): one sort of x, one
gather of the pairs above the lowest level, one Hill step per k_alpha and one
set of weights per estimator, after which every cell is an exactly rounded
sum over a prefix of those weights. Only values are computed: the plug-in
variance is not part of a summary.

The replication r uses the generator keyed with ``mix_seed(seed, r)`` =
seed XOR r, so the streams of one run are distinct, but seeds whose key sets
overlap share streams (seeds 1, 2 and 3 give identical summaries). Philox is
counter-based, so replication r draws the same stream whichever process runs
it. The replications are split into contiguous blocks, one per usable CPU
with at least 100 replications to a block. The calling process runs the
first block and a forked child runs each other one; with one block, no
``os.fork`` or another live thread, the caller runs them all. The blocks'
values are joined in replication order before any statistic is taken, so
summaries are bit-identical whatever the block count. An error in a block is
raised in block order, the one a single process would meet first. A
replication whose estimator raises a ``CotailError`` is left out of that
cell's values and counted in its failures instead of aborting the run.
"""
from __future__ import annotations

import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from . import rng
from .core import BivariateSample, LevelSweep, fraction_to_count
from .errors import CotailError
from .estimators import ESTIMATORS, level_reader


@dataclass(frozen=True)
class LinearParetoModel:
    phi: float = 0.8
    sigma: float = 0.1
    alpha: float = 4.0

    def __post_init__(self):
        if not 0.0 < self.phi < 1.0:
            raise ValueError("phi must lie in (0, 1)")
        if not self.sigma >= 0.0:
            raise ValueError("sigma must be nonnegative (0 is the degenerate case)")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")

    @property
    def tail_index(self) -> float:
        return self.alpha

    @property
    def tail_dependence(self) -> float:
        return self.phi ** self.alpha

    def sample(self, gen: np.random.Generator, n: int) -> BivariateSample:
        """Draw order: the n Pareto uniforms, then the n normals."""
        x = rng.pareto(gen, self.alpha, n)
        z = rng.standard_normal(gen, n)
        return BivariateSample(x, self.phi * x + self.sigma * np.abs(z))


@dataclass(frozen=True)
class BivariateTModel:
    nu: float = 4.0
    rho: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.nu < math.inf:
            raise ValueError("nu must be positive and finite")
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (-1, 1)")

    @property
    def tail_index(self) -> float:
        return self.nu

    @property
    def tail_dependence(self) -> float:
        return _betainc(
            (self.nu + 1.0) / 2.0, 0.5, (1.0 + self.rho) / 2.0, (1.0 - self.rho) / 2.0
        )

    def sample(self, gen: np.random.Generator, n: int) -> BivariateSample:
        """Draw order: the chi-square, then Z1, then Z2'."""
        w = self.nu / rng.chi_square(gen, self.nu, n)
        z1 = rng.standard_normal(gen, n)
        z2 = self.rho * z1 + math.sqrt(1.0 - self.rho ** 2) * rng.standard_normal(gen, n)
        root_w = np.sqrt(w)
        return BivariateSample(root_w * np.abs(z1), root_w * np.abs(z2))


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularised incomplete beta I_x(a, b) for a, b > 0, 0 < x < 1 and y = 1 - x.

    Below x = (a + 1) / (a + b + 2) the continued fraction of DLMF 8.17.22
    converges fast (under 150 terms at b = 1/2 over a sweep of a up to 5e5);
    above it, I_x(a, b) = 1 - I_y(b, a). y is passed rather than formed as
    1 - x, which would lose the digits of a small complement (rho near 1).
    """
    flip = x > (a + 1.0) / (a + b + 2.0)
    if flip:  # no second test on the swapped side: x + y may exceed 1 by an ulp
        a, b, x = b, a, y
    log_front = (
        a * math.log(x) + b * math.log1p(-x)
        + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    )
    # modified Lentz evaluation of 1 + d_1 / (1 + d_2 / (1 + ...))
    f = c = 1.0
    d = 0.0
    for j in range(1, 10_000):
        m = j // 2
        if j % 2:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 / (1.0 + num * d)
        c = 1.0 + num / c
        f *= c * d
        if abs(c * d - 1.0) < 1e-16:
            break
    value = math.exp(log_front) / (a * f)
    return 1.0 - value if flip else value


Model = Union[LinearParetoModel, BivariateTModel]

# model id -> class: the one list of models, in CLI order
MODELS = {"linear-pareto": LinearParetoModel, "bivariate-t": BivariateTModel}


@dataclass(frozen=True)
class ModelConfig:
    model: Model
    n: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")


def sample_dataset(config: ModelConfig) -> BivariateSample:
    """Sample ``config`` from the generator keyed by its seed.

    A draw past the double range is left to the sample's finiteness check,
    which raises ``ValueError``, without numpy's overflow warnings.
    """
    if not isinstance(config.model, tuple(MODELS.values())):
        raise TypeError(f"unknown model type {type(config.model).__name__}")
    with np.errstate(over="ignore", divide="ignore"):
        return config.model.sample(rng.generator(config.seed), config.n)


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------

CellKey = tuple[str, float, Union[float, None]]


@dataclass(frozen=True)
class McCell:
    """One cell's summary; the statistics are None when every replication failed."""

    mean: float | None
    sd: float | None
    q05: float | None
    q25: float | None
    q50: float | None
    q75: float | None
    q95: float | None
    rep_count: int
    failures: int


@dataclass(frozen=True)
class McSummary:
    """Per-(estimator, k fraction, k_alpha fraction) distribution summaries."""

    cells: Mapping[CellKey, McCell]
    truth: float | None
    y: float
    reps: int


def run_mc(
    config: ModelConfig,
    reps: int,
    k_fractions: Sequence[float],
    k_alpha_fractions: Sequence[float] = (),
    estimators: Sequence[str] = ("tdc_empirical", "tdc_quasispectral"),
    y: float = 1.0,
) -> McSummary:
    """Replicate the simulation protocol over estimators and k fractions.

    ``estimators`` are ids from ``ESTIMATORS``; those that take k_alpha get
    one cell per k_alpha fraction. Known-alpha estimators receive the model's
    true tail index and ``edm`` uses the l2 norm. The truth field carries the
    model's tail dependence coefficient when a TDC estimator (one that takes
    y) is evaluated at y = 1.

    Each replication sorts, gathers and runs the Hill step once per k_alpha:
    one ``LevelSweep`` covers every k, and one reader per (estimator,
    k_alpha) gives each of its cells a value. A ``CotailError`` while binding
    a reader fails all of its cells; one at a level fails that cell only.
    The replications run in blocks across processes as the module docstring
    describes; the summary does not depend on the block count.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if not 0 < y < math.inf:
        raise ValueError("y must be positive and finite")
    names = list(dict.fromkeys(estimators))
    if not names:
        raise ValueError("at least one estimator is required")
    for name in names:
        if name not in ESTIMATORS:
            raise ValueError(f"unknown estimator {name!r}")
    k_fracs = sorted(set(float(f) for f in k_fractions))
    ka_fracs = sorted(set(float(f) for f in k_alpha_fractions))
    if not k_fracs:
        raise ValueError("at least one k fraction is required")

    n = config.n
    keys: list[CellKey] = []  # in output order
    # (estimator, k_alpha count) -> (cell index, k count) of each of its cells
    readers: dict[tuple[str, int | None], list[tuple[int, int]]] = {}
    for name in names:
        takes_k_alpha = "k_alpha" in ESTIMATORS[name].params
        if takes_k_alpha and not ka_fracs:
            raise ValueError(f"{name} needs k_alpha fractions")
        for kf in k_fracs:
            k = fraction_to_count(kf, n)
            for kaf in ka_fracs if takes_k_alpha else (None,):
                ka = None if kaf is None else fraction_to_count(kaf, n)
                readers.setdefault((name, ka), []).append((len(keys), k))
                keys.append((name, kf, kaf))
    ks = tuple(sorted({fraction_to_count(kf, n) for kf in k_fracs}))

    params = {"alpha": config.model.tail_index, "y": y, "norm": "l2"}
    parts = _run_blocks(
        _blocks(reps), lambda lo, hi: _replicate(config, lo, hi, ks, readers, params)
    )
    # a failed replication is simply missing from its cell's list
    values = {key: [v for part in parts for v in part[i]] for i, key in enumerate(keys)}

    cells: dict[CellKey, McCell] = {}
    for key, vals in values.items():
        stats = [None] * 7
        if vals:
            arr = np.asarray(vals, dtype=float)
            sd = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
            quantiles = np.quantile(arr, [0.05, 0.25, 0.5, 0.75, 0.95])
            stats = [float(np.mean(arr)), sd, *(float(q) for q in quantiles)]
        cells[key] = McCell(*stats, rep_count=reps, failures=reps - len(vals))

    truth = None
    if y == 1.0 and any("y" in ESTIMATORS[name].params for name in names):
        truth = config.model.tail_dependence
    return McSummary(cells=cells, truth=truth, y=y, reps=reps)


def _replicate(
    config: ModelConfig,
    lo: int,
    hi: int,
    ks: tuple[int, ...],
    readers: Mapping[tuple[str, int | None], Sequence[tuple[int, int]]],
    params: Mapping[str, object],
) -> list[list[float]]:
    """Each cell's values over replications lo..hi-1, in replication order.

    One ``LevelSweep`` per sample covers every k in ``ks``; ``readers`` maps
    (estimator, k_alpha) to the (cell index, k) of its cells.
    """
    values: list[list[float]] = [[] for cells in readers.values() for _ in cells]
    for rep in range(lo, hi):
        sample = sample_dataset(replace(config, seed=rng.mix_seed(config.seed, rep)))
        sweep = LevelSweep(sample, ks)
        for (name, ka), cells in readers.items():
            try:
                reader = level_reader(name, sweep, k_alpha=ka, **params)
            except CotailError:  # a Hill step or parameter failed: all its cells
                continue
            for index, k in cells:
                try:
                    values[index].append(reader.value(k))
                except CotailError:
                    pass
    return values


# A fork and join costs about 5-7 ms, 100 replications at n = 1000 about 40 ms.
_MIN_BLOCK = 100


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where there is one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blocks(reps: int) -> list[tuple[int, int]]:
    """Contiguous [lo, hi) replication blocks, one per usable CPU, each >= _MIN_BLOCK.

    Forking a process with a second live thread could copy a lock that thread
    holds, so then, as without ``os.fork``, there is one block.
    """
    count = min(_usable_cpus(), reps // _MIN_BLOCK)
    if count < 2 or not hasattr(os, "fork") or threading.active_count() != 1:
        return [(0, reps)]
    bounds = [reps * i // count for i in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def _run_blocks(blocks: Sequence[tuple[int, int]], work: Callable[[int, int], object]) -> list:
    """``work(lo, hi)`` of every block, in block order.

    The caller runs the first block; a forked child runs each other one,
    pickles ``(ok, result or exception)`` into a pipe and leaves with
    ``os._exit``. Results and errors are taken in block order. Every child
    is killed, if still running, and reaped before this returns or raises.
    """
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe), not yet reaped
    try:
        for lo, hi in blocks[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:  # the child: never returns into the caller's stack
                code = 1
                try:
                    try:
                        outcome = (True, work(lo, hi))
                    except Exception as exc:
                        outcome = (False, exc)
                    # pickled whole first, so a failure leaves the pipe empty
                    data = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
                    with os.fdopen(write_fd, "wb") as pipe:
                        pipe.write(data)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children.append((pid, read_fd))
        results = [work(*blocks[0])]
        while children:
            pid, read_fd = children.pop(0)
            try:
                with os.fdopen(read_fd, "rb") as pipe:
                    data = pipe.read()
            finally:
                _stop(pid)
            if not data:
                raise RuntimeError(f"Monte Carlo block process {pid} exited without a result")
            ok, result = pickle.loads(data)
            if not ok:
                raise result
            results.append(result)
        return results
    finally:
        for pid, read_fd in children:
            os.close(read_fd)
            _stop(pid)


def _stop(pid: int) -> None:
    """Kill a child (a no-op once it has exited) and reap it."""
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
