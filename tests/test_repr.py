"""The sample writer's float kernel against Python's repr and json.dumps, byte for byte."""
import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cotail.cli as cli
import cotail.simulate as simulate
from cotail._repr import _CHUNK, _K_MAX, _K_MIN, _flog2pow10, _g, repr_rows

TINY, HUGE = 5e-324, sys.float_info.max


def rows_text(x, y) -> bytes:
    return "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())).encode()


def items_text(x) -> bytes:
    """Every item of json.dumps of x, each with the ", " after it."""
    return b"".join(json.dumps(v).encode() + b", " for v in x.tolist())


def check(values) -> None:
    x = np.asarray(values, dtype=np.float64)
    y = x[::-1].copy()
    assert repr_rows((x, y)) == rows_text(x, y)
    assert repr_rows([x], end=b", ") == items_text(x)


finite = st.floats(allow_nan=False, allow_infinity=False)
edges = st.sampled_from([0.0, -0.0, TINY, -TINY, HUGE, -HUGE, 2.0**-1022, 1e-4, 1e-5, 1e16])


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(1, 40), elements=finite | edges))
def test_rows_and_items_are_repr_and_json_dumps(x):
    check(x)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60))
def test_random_bit_patterns(words):
    x = np.array(words, dtype=np.uint64).view(np.float64)
    check(x[np.isfinite(x)] if np.isfinite(x).any() else [1.0])


def neighbours(values: np.ndarray) -> np.ndarray:
    values = values[np.isfinite(values)]
    down, up = np.nextafter(values, -np.inf), np.nextafter(values, np.inf)
    both = np.concatenate([down, values, up])
    return both[np.isfinite(both)]


def test_every_power_of_two_and_ten_with_its_neighbours():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    for values in (twos, tens):
        check(neighbours(values))


def test_layout_edges():
    # positional from 1e-4 up to 16 digits before the point, scientific beyond
    check([1e-4, 1e-5, 1e16, 9999999999999998.0, 2.0**53 - 1, 2.0**53, 2.0**53 + 2,
           0.1, 0.5, 1.0, 10.0, 123456789012345.6, 1.5e-7, 1.2345e-5, 1e22, 1e23, 5e-324,
           1e-320, 2.2250738585072014e-308, 2.225073858507201e-308, HUGE])
    check(neighbours(np.array([1e-4, 1e-5, 1e15, 1e16, 1e17, 2.0**53])))


@pytest.mark.parametrize("rows", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
def test_chunk_edges(rows):
    gen = np.random.default_rng(rows)
    x = np.exp(gen.uniform(-20, 40, rows)) * gen.choice([-1.0, 1.0], rows)
    x[::97] = 0.0
    x[::101] = 2.5e-310
    check(x)


def test_schubfach_table_brackets_every_power_of_ten():
    # g - 1 <= 10^-k 2^-r < g, with r = flog2pow10(-k) - 125 and 2^125 <= g - 1 < 2^126
    g1, _, _, g00, g01 = _g()
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        g = (int(g1[i]) << 63) + (int(g01[i]) << 32) + int(g00[i])
        r = _flog2pow10(-k) - 125
        num, den = 10 ** max(-k, 0) << max(-r, 0), 10 ** max(k, 0) << max(r, 0)
        assert (g - 1) * den <= num < g * den
        assert 2**125 <= g - 1 < 2**126


EDGE_CELLS = ["-0.0", "0", "5e-324", "1e-320", "1e-5", "1e16", "1.7976931348623157e308"]


def test_ingest_writes_the_edge_values_as_repr_and_json(capsys, tmp_path):
    table = tmp_path / "edges.csv"
    table.write_text("".join(f"{a},{b}\n" for a, b in zip(EDGE_CELLS, EDGE_CELLS[::-1])))
    x = np.array([float(cell) for cell in EDGE_CELLS])
    y = x[::-1].copy()
    assert cli.main(["ingest", "--input", str(table)]) == 0
    assert capsys.readouterr().out == "x,y\n" + rows_text(x, y).decode()
    assert cli.main(["ingest", "--input", str(table), "--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps({"x": x.tolist(), "y": y.tolist()}) + "\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("cpus", [2, 3])
def test_block_edges(capsys, tmp_path, monkeypatch, cpus):
    # one block per CPU, cut off the chunk grid, of values of every magnitude
    rows = cpus * cli._MIN_ROWS + 5
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
    assert len(simulate._blocks(rows - 1, cli._MIN_ROWS)) == cpus  # JSON leaves the last out
    assert all(lo % _CHUNK for lo, _ in simulate._blocks(rows, cli._MIN_ROWS)[1:])
    gen = np.random.default_rng(cpus)
    x = np.abs(gen.integers(0, 2**63, rows).astype(np.uint64).view(np.float64))
    x[~np.isfinite(x)] = math.pi
    y = np.exp(gen.uniform(-12, 40, rows))
    table = tmp_path / "table.csv"
    table.write_bytes(rows_text(x, y))
    assert cli.main(["ingest", "--input", str(table)]) == 0
    assert capsys.readouterr().out.encode() == b"x,y\n" + rows_text(x, y)
    assert cli.main(["ingest", "--input", str(table), "--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps({"x": x.tolist(), "y": y.tolist()}) + "\n"
