"""Tests of the benchmark's own inputs, checkers and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import studies  # noqa: E402
from mc_child import cells_of, study_call  # noqa: E402
from run import Tally, end_to_end  # noqa: E402

from cotail import LinearParetoModel, ModelConfig, sample_dataset  # noqa: E402
from cotail import cli  # noqa: E402


def failed_share(problems: list[str]) -> float:
    tally = Tally()
    tally.record(problems)
    return tally.error_rate


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("table", [inputs.pair_table, inputs.price_table])
def test_tables_are_deterministic_in_the_seed(table):
    first = inputs.table_text(*table(7, 500), "a,b")
    assert first == inputs.table_text(*table(7, 500), "a,b")
    assert first != inputs.table_text(*table(8, 500), "a,b")


def test_prices_are_positive_and_tables_round_trip():
    p1, p2 = inputs.price_table(3, 2000)
    assert (p1 > 0).all() and (p2 > 0).all()
    x, y = checks.parse_pairs(inputs.table_text(p1, p2, "x,y"))
    assert np.array_equal(x, p1) and np.array_equal(y, p2)


def test_derived_seeds_are_deterministic_and_distinct():
    seeds = {inputs.derived_seed(s, t) for s in range(3) for t in inputs.TAGS.values()}
    assert len(seeds) == 3 * len(inputs.TAGS)
    assert inputs.derived_seed(1, 1) == inputs.derived_seed(1, 1)


# ---------------------------------------------------------------------------
# reference kernel and scaling
# ---------------------------------------------------------------------------

def test_kernel_does_the_same_work_every_time():
    assert calibrate.kernel() == calibrate.kernel()


def test_times_scale_with_the_kernel():
    fast, _ = end_to_end([2.0, 2.0, 2.0, 2.8], [0.1, 0.1, 0.2], ([1.0], [0.1]), 100.0)
    slow, raw = end_to_end([3.0, 3.0, 3.0, 4.0], [0.15, 0.15], ([1.5], [0.15]), 100.0)
    assert fast["scaled_wall_s"]["value"] == pytest.approx(2.0 * calibrate.NOMINAL_S / 0.1)
    assert slow["scaled_wall_s"]["value"] == pytest.approx(fast["scaled_wall_s"]["value"])
    assert slow["setup_s"]["value"] == pytest.approx(fast["setup_s"]["value"])
    assert raw["wall_s"]["value"] == 3.0 and raw["raw_setup_s"]["value"] == 1.5


# ---------------------------------------------------------------------------
# Monte Carlo checks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def linear_cells():
    return cells_of(study_call("mc_linear_n1k", inputs.derived_seed(5, 1))())


def test_real_summary_passes(linear_cells):
    assert checks.check_mc("mc_linear_n1k", linear_cells) == []


def _perturb(cells, key, field, change):
    cells = copy.deepcopy(cells)
    for cell in cells:
        if (cell["estimator_id"], cell["k_frac"], cell["k_alpha_frac"]) == key:
            cell[field] = change(cell[field])
    return cells


@pytest.mark.parametrize(
    "key, field, change",
    [
        (("tdc_quasispectral", 0.1, None), "mean", lambda v: v + 0.02),
        (("tdc_empirical", 0.3, None), "mean", lambda v: v - 0.05),
        (("tdc_quasispectral_estimated", 0.05, 0.2), "rep_count", lambda v: v - 1),
        (("tdc_empirical", 0.1, None), "failures", lambda v: v + 1),
        (("tdc_quasispectral", 0.4, None), "sd", lambda v: 0.5),
        (("tdc_quasispectral", 0.2, None), "q95", lambda v: 1.5),
    ],
)
def test_perturbed_summary_fails(linear_cells, key, field, change):
    problems = checks.check_mc("mc_linear_n1k", _perturb(linear_cells, key, field, change))
    assert problems
    assert failed_share(problems) == 1.0


def test_missing_cell_fails(linear_cells):
    assert checks.check_mc("mc_linear_n1k", linear_cells[1:])


# ---------------------------------------------------------------------------
# CLI output checks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    x, y = inputs.pair_table(11, 5000)
    p1, p2 = inputs.price_table(11, 5001)
    files = {name: str(tmp / name) for name in
             ("prices", "pairs", "simulate", "ingest", "estimate", "curve")}
    Path(files["pairs"]).write_text(inputs.table_text(x, y, "x,y"))
    Path(files["prices"]).write_text(inputs.table_text(p1, p2, "p1,p2"))
    outputs = {}
    for command in ("ingest", "estimate", "curve"):
        assert cli.main(studies.cli_argv(command, 0, files)) == 0
        outputs[command] = Path(files[command]).read_text()
    assert cli.main(["simulate", "--model", "linear-pareto", "--n", "3000",
                     "--seed", "9", "--out", files["simulate"]]) == 0
    outputs["simulate"] = Path(files["simulate"]).read_text()
    sample = sample_dataset(ModelConfig(LinearParetoModel(0.8, 0.1, 4.0), n=3000, seed=9))
    return outputs, (x, y), (p1, p2), sample


def _checks(outputs, pairs, prices, sample):
    return {
        "simulate": checks.check_simulate(outputs["simulate"], sample.x, sample.y),
        "ingest": checks.check_ingest(outputs["ingest"], *prices),
        "estimate": checks.check_estimate(outputs["estimate"], *pairs),
        "curve": checks.check_curve(outputs["curve"], *pairs),
    }


def test_real_cli_outputs_pass(cli_outputs):
    assert _checks(*cli_outputs) == {c: [] for c in ("simulate", "ingest", "estimate", "curve")}


def _bump_first_value(text: str) -> str:
    """Change the first data row's second cell by one part in a million."""
    head, row, rest = text.split("\n", 2)
    cells = row.split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-6))
    return "\n".join([head, ",".join(cells), rest])


def _bump_estimate(text: str) -> str:
    doc = json.loads(text)
    doc["rows"][0]["value"] *= 1 + 1e-6
    return json.dumps(doc)


def _bump_curve(text: str) -> str:
    head, row, rest = text.split("\n", 2)
    cells = row.split(",")
    cells[3] = repr(float(cells[3]) + 1e-3)
    return "\n".join([head, ",".join(cells), rest])


@pytest.mark.parametrize(
    "command, perturb",
    [
        ("simulate", _bump_first_value),
        ("ingest", _bump_first_value),
        ("estimate", _bump_estimate),
        ("curve", _bump_curve),
        ("curve", lambda t: t.rsplit("\n", 2)[0] + "\n"),  # last row dropped
        ("simulate", lambda t: t.replace("x,y", "a,b", 1)),
    ],
)
def test_perturbed_cli_output_fails(cli_outputs, command, perturb):
    outputs, pairs, prices, sample = cli_outputs
    bad = dict(outputs, **{command: perturb(outputs[command])})
    problems = _checks(bad, pairs, prices, sample)[command]
    assert problems
    assert failed_share(problems) == 1.0


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def _bindings():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "cotail" or name.startswith("cotail.")
    }


def test_tracer_counts_restores_and_leaves_outputs_alone(monkeypatch):
    spec = dict(studies.MC_STUDIES["mc_linear_n1k"], reps=3)
    monkeypatch.setitem(studies.MC_STUDIES, "mc_linear_n1k", spec)
    call = study_call("mc_linear_n1k", 123)
    before = _bindings()
    post_init = sample_dataset.__globals__["BivariateSample"].__post_init__
    untraced = cells_of(call())
    tracer = layers.Tracer()
    with tracer:
        traced = cells_of(call())
    assert traced == untraced
    assert _bindings() == before
    assert sample_dataset.__globals__["BivariateSample"].__post_init__ is post_init
    metrics = layers.metrics_from_counters(tracer.counters())
    assert set(metrics) == set(layers.METRICS)
    assert metrics["core.order_view.calls"]["value"] == 20 * 3
    assert metrics["estimators.fsum.calls"]["value"] == 20 * 3
    assert metrics["estimators.calls"]["value"] == 15 * 3
    assert metrics["simulate.sample.pairs"]["value"] == 1000 * 3
    assert metrics["tail_function.calls"]["value"] == 0
    assert tracer.missing == []


def test_missing_binding_is_listed_not_fatal(monkeypatch):
    monkeypatch.setattr(layers, "TARGETS", layers.TARGETS + (
        ("cli.parse", "cotail.cli", "no_such_parser"),
        ("core.order_view", "cotail.core", "NoSuchClass.method"),
    ))
    before = _bindings()
    tracer = layers.Tracer()
    with tracer:
        pass
    assert tracer.missing == ["cotail.cli.no_such_parser", "cotail.core.NoSuchClass.method"]
    assert _bindings() == before


def test_layer_without_bindings_drops_its_metrics(monkeypatch):
    monkeypatch.setattr(layers, "TARGETS", tuple(
        t for t in layers.TARGETS if t[0] != "cli.parse"))
    tracer = layers.Tracer()
    with tracer:
        pass
    metrics = layers.metrics_from_counters(tracer.counters())
    assert "cli.parse.s" not in metrics and "cli.parse.rows" not in metrics
    assert metrics["cli.emit.s"]["value"] == 0.0
