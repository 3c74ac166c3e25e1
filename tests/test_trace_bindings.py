"""The names the benchmark's tracer binds still exist, and every per-layer metric comes out.

``perfbench/layers.py`` traces the program from outside: it rebinds functions
it names (``rng._gamma_at_least_one``, ``rng.standard_normal``,
``cli._read_text``, ...) and reads its counters from their calls. A traced
benchmark run whose result loses a per-layer metric is not a result, so a
rename in ``src/`` that drops a binding must fail here first. The module is
loaded from the checkout as it stands, without writing its bytecode, and its
``Tracer`` is used as a context manager, so every binding is restored.
"""
import importlib.util
import sys
from pathlib import Path
from unittest import mock

import pytest

from cotail import (BivariateTModel, LinearParetoModel, ModelConfig, cli, hill_estimate,
                    order_view, run_mc, sample_dataset)

LAYERS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "dont_write_bytecode", True), \
            mock.patch.dict(sys.modules, {spec.name: module}):
        spec.loader.exec_module(module)  # its dataclasses look the module up by name
    return module


def _bindings():
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "cotail" or name.startswith("cotail.")}


def _work(tmp_path):
    """One call through each traced layer, each counter hook included."""
    table, out = tmp_path / "pairs.csv", tmp_path / "out"
    assert cli.main(["simulate", "--model", "linear-pareto", "--n", "200", "--out", str(table)]) == 0
    assert cli.main(["ingest", "--input", str(table), "--transform", "abs-log-returns",
                     "--out", str(out)]) == 0
    assert cli.main(["estimate", "--input", str(table), "--estimator", "tdc-quasispectral-estimated",
                     "--k-frac", "0.1", "--k-alpha-frac", "0.1", "--format", "json",
                     "--out", str(out)]) == 0
    sample = sample_dataset(ModelConfig(LinearParetoModel(), 200, 3))
    hill_estimate(order_view(sample), 20)
    run_mc(ModelConfig(BivariateTModel(), 100, 5), 3, [0.1])


def test_every_traced_binding_exists_and_every_metric_comes_out(layers, tmp_path):
    before = _bindings()
    with layers.Tracer() as tracer:
        _work(tmp_path)
    after = _bindings()  # the work may import more modules, but rebinds nothing
    assert all(after[name][attr] is value
               for name, names in before.items() for attr, value in names.items())
    assert tracer.missing == []
    metrics = layers.metrics_from_counters(tracer.counters())
    assert sorted(set(layers.METRICS) - set(metrics)) == []
    # the gamma rejection's candidates are counted from the normals it draws
    # through ``standard_normal``; Marsaglia-Tsang accepts about 98% at shape 2
    assert 0.9 < metrics["rng.gamma.accept_ratio"]["value"] < 1.0
