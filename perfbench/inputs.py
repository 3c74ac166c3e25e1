"""Deterministic benchmark inputs, derived from the workload seed with numpy.

Nothing here uses ``cotail.rng``: the CLI tables come from numpy's PCG64 so
that a change to the program's own random streams cannot change the inputs
the program is measured on.
"""
from __future__ import annotations

import numpy as np

# Distinct tags keep the streams of one workload seed apart.
TAGS = {"mc_linear_n1k": 1, "mc_bivt_n1k": 2, "cli_simulate": 3, "prices": 4, "pairs": 5}


def derived_seed(seed: int, tag: int) -> int:
    """A 63-bit program seed for one use of the workload seed.

    Large seeds keep ``seed XOR rep`` keying of different workload seeds
    apart, so two benchmark seeds never replay the same replications.
    """
    state = np.random.SeedSequence([seed, tag]).generate_state(1, np.uint64)[0]
    return int(state) >> 1


def _generator(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag])))


def price_table(seed: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Two positive price paths with heavy-tailed, dependent log-returns."""
    gen = _generator(seed, TAGS["prices"])
    shock = gen.standard_t(4.0, size=(2, rows - 1))
    r1 = 0.01 * shock[0]
    r2 = 0.6 * r1 + 0.008 * shock[1]
    p1 = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(r1)]))
    p2 = 50.0 * np.exp(np.concatenate([[0.0], np.cumsum(r2)]))
    return p1, p2


def pair_table(seed: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Linear-Pareto pairs Y = 0.8 X + 0.1 |Z| with X Pareto(4)."""
    gen = _generator(seed, TAGS["pairs"])
    x = (1.0 - gen.random(rows)) ** -0.25
    y = 0.8 * x + 0.1 * np.abs(gen.standard_normal(rows))
    return x, y


def table_text(a: np.ndarray, b: np.ndarray, header: str) -> str:
    """Two-column CSV with repr floats, which re-parse to the same values."""
    lines = [header]
    lines.extend(f"{u!r},{v!r}" for u, v in zip(a.tolist(), b.tolist()))
    return "\n".join(lines) + "\n"
