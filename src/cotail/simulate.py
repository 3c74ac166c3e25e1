"""Data generators for the two study models and the Monte Carlo harness.

Models
------
``MODELS`` maps each model id to its class; the CLI builds its ``--model``
choices and parameter flags from it, and ``ModelConfig`` takes no other
model. Every field has a default, the parameters of the paper's simulation
studies. ``sample_rows(seed, reps, n)``, a model's one draw method, draws
replications ``reps`` as rows, row i from ``rng.generator(seed, reps[i])``
in its documented order; ``sample_dataset(config, rep)`` is its one-row case.

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
    by a continued fraction below (nu + 1) / 2 = 2^26, and from the normal
    limit with its 1/(nu + 1) term from there on.

The harness ``run_mc`` evaluates a set of estimators over replications,
held as the rows of 2-D arrays. Each model draws a chunk of replications
into rows with ``sample_rows``, row r equal to ``sample_dataset(config, r)``
bit for bit: linear-Pareto fills each row with two uniform draws and runs the
Pareto power and Box-Muller once per chunk. Bivariate-t runs its gamma
rejection in rounds over the chunk, each round one Box-Muller and one
acceptance test over every row's pending candidates, then draws each row's
Z1 and Z2' uniforms into a buffer and runs Box-Muller once more. Each
drawn row is then cut, for each ranking the estimators read, to its top
pairs (``core.top_pairs``), the only ones they read: max(k, k_alpha) + 1
by x for the Hill step and every estimator but ``edm``, max(k) + 1 by the
l2 norm for ``edm``. One ``core.LevelSweep`` per ranking, with the true n,
covers a stack of such cut rows from several chunks: one sort of each
row's kept keys, one Hill step per k_alpha (a level of the sweep by x) and
one set of weights per estimator, after which every (row, cell) is an
exactly rounded sum over a prefix of that row's weights. A chunk's row
count comes from a fixed byte budget and n, a stack's from another budget
and the widest cut. Only values are computed: the plug-in variance is not
part of a summary.

Replication r of seed s draws from the Philox stream keyed by the pair
(s, r) (``rng.stream_key``), so streams are distinct across replications and
across seeds; a chunk re-keys one Philox for each of its rows. Philox is
counter-based, so replication r draws the same stream whichever process and
chunk run it. The replications are split into contiguous blocks, one per
usable CPU with at least 100 replications to a block. The calling process
runs the first block and a forked child runs each other one; with one
block, no ``os.fork`` or another live thread, the caller runs them all. The
blocks' values are joined in replication order before any statistic is
taken, so summaries are bit-identical whatever the block count and chunk
size. An error in a block is raised in block order, the one a single process
would meet first; a child that dies without a result is a
``ChildProcessError``. ``_run_blocks``, which splits its own blocks with
``_blocks``, is the package's one fork-join: the CLI parses and writes CSV
rows through it too, with a block floor of its own. A replication whose
estimator raises a ``CotailError`` is left out of that cell's values and
counted in its failures instead of aborting the run.
"""
from __future__ import annotations

import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from . import rng
from .core import (BivariateSample, LevelSweep, SampleRows, check_level, check_real,
                   fraction_to_count, top_pairs)
from .errors import CotailError
from .estimators import ESTIMATORS, level_reader


@dataclass(frozen=True)
class LinearParetoModel:
    phi: float = 0.8
    sigma: float = 0.1
    alpha: float = 4.0

    def __post_init__(self):
        check_real(self.phi, "phi", "(0, 1)")
        check_real(self.sigma, "sigma", "[0, inf)")  # 0 is the degenerate case
        check_real(self.alpha, "alpha")

    @property
    def tail_index(self) -> float:
        return self.alpha

    @property
    def tail_dependence(self) -> float:
        return self.phi ** self.alpha

    def sample_rows(self, seed: int, reps: range, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Replications ``reps`` of ``seed`` as the rows of x and y.

        Row i draws from ``rng.generator(seed, reps[i])`` n open uniforms for
        the Pareto x, then 2 * ceil(n / 2) for the Box-Muller normals Z, each
        into its row of a buffer; the transforms then run once over all rows.
        """
        gens = rng.streams(seed, reps)
        x = rng.pareto(gens, self.alpha, n)
        z = rng.box_muller(rng.open_uniform(gens, 2 * ((n + 1) // 2)), n)
        return x, self.phi * x + self.sigma * np.abs(z)


@dataclass(frozen=True)
class BivariateTModel:
    nu: float = 4.0
    rho: float = 0.9

    def __post_init__(self):
        nu = check_real(self.nu, "nu")
        if nu / 2.0 == 0.0:  # the chi-square draw is 2 * gamma(nu / 2)
            raise ValueError(f"nu must be a number whose half is positive, got {self.nu!r}")
        check_real(self.rho, "rho", "(-1, 1)")

    @property
    def tail_index(self) -> float:
        return self.nu

    @property
    def tail_dependence(self) -> float:
        """2 t_(nu+1)(-t) at t^2 = (nu + 1)(1 - rho) / (1 + rho).

        That is I_x((nu + 1) / 2, 1/2) at x = (1 + rho) / 2, t_df being the t
        distribution function. Against scipy's ``stdtr``, on values above
        1e-300, the continued fraction's relative error grows with a, from
        3.4e-6 just below a = 2^26 to 3.4e4 near a = 2^51 (rho an ulp or two
        below 1); the normal limit's is 5.6e-6 at a = 2^26 and falls 16-fold
        for each doubling of a. So the limit is taken from a = 2^26 on.
        """
        a, x, y = (self.nu + 1.0) / 2.0, (1.0 + self.rho) / 2.0, (1.0 - self.rho) / 2.0
        if a < 2.0**26:
            return _betainc(a, 0.5, x, y)
        return _twice_t_tail(self.nu + 1.0, y / x)

    def sample_rows(self, seed: int, reps: range, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Replications ``reps`` of ``seed`` as the rows of x and y.

        Row i draws from ``rng.generator(seed, reps[i])`` n chi-square variates
        for W, then n normals Z1, then n normals Z2'. The chi-square rejection
        runs in rounds over all rows (``rng.chi_square``); each row's Z1
        and Z2' uniforms then go into its row of a buffer, and Box-Muller runs
        once over all rows.
        """
        gens = rng.streams(seed, reps)
        root_w = np.sqrt(self.nu / rng.chi_square(gens, self.nu, n))
        half = (n + 1) // 2
        z = rng.box_muller(rng.open_uniform(gens, 4 * half).reshape(len(reps), 2, 2 * half), n)
        z1, z2 = z[:, 0], z[:, 1]
        z2 *= math.sqrt(1.0 - self.rho ** 2)
        z2 += self.rho * z1  # Z2 = rho Z1 + sqrt(1 - rho^2) Z2', in place to save a buffer
        return root_w * np.abs(z1), root_w * np.abs(z2)


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularised incomplete beta I_x(a, b) for a, b > 0, 0 < x < 1 and y = 1 - x.

    Below x = (a + 1) / (a + b + 2) the continued fraction of DLMF 8.17.22
    converges fast (under 150 terms at b = 1/2 over a sweep of a up to 5e5);
    above it, I_x(a, b) = 1 - I_y(b, a). y is passed rather than formed as
    1 - x, which would lose the digits of a small complement (rho near 1).
    ``BivariateTModel`` calls it only below a = 2^26: above it lgamma(a + 1/2)
    - lgamma(a) loses digits, and with x an ulp below 1 the fraction converges
    on neither side.
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


def _twice_t_tail(df: float, ratio: float) -> float:
    """2 t_df(-t) at t^2 = df * ratio, for df >= 2^27, from the normal limit and its 1/df term.

    2 t_df(-t) = erfc(t / sqrt 2) + phi(t) (t^3 + t) / (2 df) + O(phi(t) t^7 / df^2)
    (Abramowitz and Stegun 26.7.5). The dropped term is about (t^4 / (4 df))^2 / 2
    of the value: against scipy's ``stdtr`` on values above 1e-300 (t^2 up to
    1400), at most 5.6e-6 at df = 2^27, 8.8e-8 at 2^30 and below 1e-10 from 2^40.
    """
    t2 = df * ratio
    if t2 > 1500.0:  # erfc and phi are below e^-750 there, past the least double
        return 0.0
    t = math.sqrt(t2)
    return math.erfc(math.sqrt(t2 / 2.0)) + math.exp(-t2 / 2.0) * t * (t2 + 1.0) / (
        2.0 * math.sqrt(2.0 * math.pi) * df
    )


Model = Union[LinearParetoModel, BivariateTModel]

# model id -> class: the one list of models, in CLI order
MODELS = {"linear-pareto": LinearParetoModel, "bivariate-t": BivariateTModel}


# the largest n whose buffers, about 64 bytes a pair (``_CHUNK_BYTES``), a
# numpy array can index; a larger n is refused before anything is allocated
_MAX_N = np.iinfo(np.intp).max // 64


@dataclass(frozen=True)
class ModelConfig:
    model: Model
    n: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.model, tuple(MODELS.values())):
            raise TypeError(f"unknown model type {type(self.model).__name__}")
        object.__setattr__(self, "n", check_level(self.n, "n", 1, _MAX_N))
        object.__setattr__(self, "seed", check_level(self.seed, "seed", -math.inf))


def sample_dataset(config: ModelConfig, rep: int = 0) -> BivariateSample:
    """Replication ``rep`` of ``config``: the one row of ``_sample_rows(config, rep, rep + 1)``."""
    rep = check_level(rep, "rep", 0, (1 << 64) - 1)
    rows = _sample_rows(config, rep, rep + 1)
    return BivariateSample(rows.x[0], rows.y[0])


def _sample_rows(config: ModelConfig, lo: int, hi: int) -> SampleRows:
    """Replications lo..hi-1 of ``config`` as rows, checked as a ``BivariateSample`` checks one."""
    # a draw past the double range is left to that check (a ValueError)
    with np.errstate(over="ignore", divide="ignore"):
        return SampleRows(*config.model.sample_rows(config.seed, range(lo, hi), config.n))


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------

CellKey = tuple[str, float, Union[float, None]]


@dataclass(frozen=True)
class McCell:
    """One cell's summary; the statistics are None when every replication failed.

    ``truth`` is the model's tail dependence coefficient on a cell whose
    estimator takes y, run at y = 1, and None on every other cell.
    """

    mean: float | None
    sd: float | None
    q05: float | None
    q25: float | None
    q50: float | None
    q75: float | None
    q95: float | None
    rep_count: int
    failures: int
    truth: float | None = None


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
    true tail index and ``edm`` uses the l2 norm. At y = 1 each cell of a TDC
    estimator (one that takes y) carries the model's tail dependence
    coefficient as its ``truth``; the summary's ``truth`` is that value when
    some cell carries it, else None.

    Each stack of replications is swept once per ranking: one ``LevelSweep``
    of the rows cut to their top pairs by x covers every k and k_alpha of
    every row, one by the norm every k of ``edm``, and one reader per
    (estimator, k_alpha) gives each of its cells a value per row.
    A ``CotailError`` while binding a reader fails all of its cells in the
    stack; one in a row fails that row's cells of the reader (a Hill step)
    or that row's cell at one level. The replications run in blocks across
    processes as the module docstring describes; the summary depends on
    neither the block count nor the chunk or stack size.
    """
    reps = check_level(reps, "reps")
    check_real(y, "y")
    names = list(dict.fromkeys(estimators))
    if not names:
        raise ValueError("at least one estimator is required")
    for name in names:
        if name not in ESTIMATORS:
            raise ValueError(f"unknown estimator {name!r}")
    k_fracs = sorted({check_real(f, "k fraction", "(0, 1)") for f in k_fractions})
    ka_fracs = sorted({check_real(f, "k_alpha fraction", "(0, 1)") for f in k_alpha_fractions})
    if not k_fracs:
        raise ValueError("at least one k fraction is required")

    n = config.n
    params = {"alpha": config.model.tail_index, "y": y, "norm": "l2"}
    keys: list[CellKey] = []  # in output order
    # (estimator, k_alpha count, ranking) -> (cell index, k count) of each of
    # its cells; the ranking is the norm for edm, else x (None)
    readers: dict[tuple[str, int | None, str | None], list[tuple[int, int]]] = {}
    wanted: dict[str | None, set[int]] = {}  # each ranking's levels, as its readers read them
    for name in names:
        takes_k_alpha = "k_alpha" in ESTIMATORS[name].params
        if takes_k_alpha and not ka_fracs:
            raise ValueError(f"{name} needs k_alpha fractions")
        norm = params["norm"] if "norm" in ESTIMATORS[name].params else None
        for kf in k_fracs:
            k = fraction_to_count(kf, n)
            for kaf in ka_fracs if takes_k_alpha else (None,):
                ka = None if kaf is None else fraction_to_count(kaf, n)
                readers.setdefault((name, ka, norm), []).append((len(keys), k))
                keys.append((name, kf, kaf))
                wanted.setdefault(norm, set()).update([k] if ka is None else [k, ka])
    levels = {norm: tuple(sorted(ks)) for norm, ks in wanted.items()}
    parts = _run_blocks(
        reps, lambda lo, hi: _sweep_replications(config, lo, hi, levels, readers, params)
    )
    # a failed replication is simply missing from its cell's list
    values = {key: [v for part in parts for v in part[i]] for i, key in enumerate(keys)}

    truth = None
    if y == 1.0 and any("y" in ESTIMATORS[name].params for name in names):
        truth = config.model.tail_dependence
    cells: dict[CellKey, McCell] = {}
    for key, vals in values.items():
        stats = [None] * 7
        if vals:
            arr = np.asarray(vals, dtype=float)
            sd = _finite_stat(lambda a: np.std(a, ddof=1), arr) if arr.size > 1 else 0.0
            quantiles = np.quantile(arr, [0.05, 0.25, 0.5, 0.75, 0.95])
            stats = [_finite_stat(np.mean, arr), sd, *(float(q) for q in quantiles)]
        cell_truth = truth if "y" in ESTIMATORS[key[0]].params else None
        cells[key] = McCell(*stats, rep_count=reps, failures=reps - len(vals), truth=cell_truth)
    return McSummary(cells=cells, truth=truth, y=y, reps=reps)


def _finite_stat(stat: Callable[[np.ndarray], float], arr: np.ndarray) -> float:
    """``stat(arr)``, or where its sums overflow, ``stat(arr / m) * m`` with m = max|arr|."""
    with np.errstate(over="ignore"):
        value = float(stat(arr))
    if not math.isfinite(value):
        scale = float(np.max(np.abs(arr)))
        value = float(stat(arr / scale)) * scale
    return value


# Replications are drawn a chunk of rows at a time. A row costs roughly 64 n
# bytes of buffers, so at n = 1000 a chunk holds 10 rows. Memory is the limit:
# larger chunks are faster, as each call covers more rows, but each row adds
# its buffers to the peak memory.
_CHUNK_BYTES = 5 << 17
# Each drawn row is cut to its top width + 1 pairs, and the cut rows of whole
# chunks are swept together, about 64 (width + 1) bytes of sweep a row: 50
# rows of the criterion-1 study (width 400) and 200 of a width of 100. Each
# bind and read then covers more rows, which the estimators pay per call.
_STACK_BYTES = 5 << 18


def _chunk_rows(n: int) -> int:
    return max(1, _CHUNK_BYTES // (64 * n))


def _stack_rows(n: int, width: int) -> int:
    """Rows a sweep covers: as many whole chunks as ``_STACK_BYTES`` holds at the width, or one."""
    chunk = _chunk_rows(n)
    return chunk * max(1, _STACK_BYTES // (64 * (width + 1)) // chunk)


def _sweep_replications(
    config: ModelConfig,
    lo: int,
    hi: int,
    levels: Mapping[str | None, tuple[int, ...]],
    readers: Mapping[tuple[str, int | None, str | None], Sequence[tuple[int, int]]],
    params: Mapping[str, object],
) -> list[list[float]]:
    """Each cell's values over replications lo..hi-1, in replication order.

    ``levels`` holds the levels of each ranking's sweep; ``readers`` maps
    (estimator, k_alpha, ranking) to the (cell index, k) of its cells. Each
    stack of replications is swept once per ranking (``_stack_sweeps``). A
    row's error fails that row's cell only.
    """
    values: list[list[float]] = [[] for cells in readers.values() for _ in cells]
    depth = _stack_rows(config.n, max(map(max, levels.values())))
    for stack in range(lo, hi, depth):
        sweeps = _stack_sweeps(config, stack, min(stack + depth, hi), levels)
        for (name, ka, norm), cells in readers.items():
            sweep = sweeps[norm]
            for (index, _), got in zip(cells, _cell_values(sweep, name, ka, cells, params)):
                values[index] += got
        del sweeps, sweep  # the stack's arrays go before the next stack is drawn
    return values


def _cell_values(sweep: LevelSweep, name: str, ka: int | None, cells, params) -> list[list[float]]:
    """The values of each (cell index, k) of ``cells`` over the sweep's rows, bar failed rows."""
    try:
        reader = level_reader(name, sweep, k_alpha=ka, **params)
    except CotailError:  # a parameter failed: all its cells, in every row
        return [[] for _ in cells]
    return [[v for v in reader.values(k) if not isinstance(v, CotailError)] for _, k in cells]


def _stack_sweeps(
    config: ModelConfig, lo: int, hi: int, levels: Mapping[str | None, tuple[int, ...]]
) -> dict[str | None, LevelSweep]:
    """The sweeps of replications lo..hi-1, one per ranking in ``levels`` (None for x, or a norm).

    The rows are drawn a chunk at a time, and each row is cut to its top
    max(levels) + 1 pairs by each ranking: all that a sweep at those levels,
    ranked alike, reads of it (``core.top_pairs``).
    """
    n, step = config.n, _chunk_rows(config.n)
    cut = {norm: (np.empty((hi - lo, max(ks) + 1)), np.empty((hi - lo, max(ks) + 1)))
           for norm, ks in levels.items()}
    for start in range(lo, hi, step):
        rows = _sample_rows(config, start, min(start + step, hi))
        at = slice(start - lo, start - lo + len(rows.x))
        for norm, (x, y) in cut.items():
            x[at], y[at] = top_pairs(rows, max(levels[norm]), norm)
    return {norm: LevelSweep(SampleRows(*xy), levels[norm], norm, n) for norm, xy in cut.items()}


# From a small heap a fork and join costs about 2-3 ms; 100 replications of
# the criterion-1 study at n = 1000 take about 17-24 ms on one CPU of a
# 2-vCPU host.
_MIN_BLOCK = 100


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where there is one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blocks(size: int, minimum: int = _MIN_BLOCK) -> list[tuple[int, int]]:
    """Contiguous [lo, hi) blocks of range(size), one per usable CPU, each >= ``minimum``.

    Forking a process with a second live thread could copy a lock that thread
    holds, so then, as without ``os.fork``, there is one block.
    """
    count = min(_usable_cpus(), size // minimum)
    if count < 2 or not hasattr(os, "fork") or threading.active_count() != 1:
        return [(0, size)]
    bounds = [size * i // count for i in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def _run_blocks(size: int, work: Callable[[int, int], object], minimum: int = _MIN_BLOCK) -> list:
    """``work(lo, hi)`` of every block of ``_blocks(size, minimum)``, in block order.

    The caller runs the first block; a forked child runs each other one,
    pickles ``(ok, result or exception)`` into a pipe and leaves with
    ``os._exit``. Results and errors are taken in block order. Every child
    is killed, if still running, and reaped before this returns or raises.
    """
    blocks = _blocks(size, minimum)
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
                raise ChildProcessError(f"forked block process {pid} exited without a result")
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
