"""``tools/bench_pairs.py`` refuses a benchmark run whose last line is not a full result.

Each case runs the tool's check on a stand-in ``perfbench/run.py`` that prints
one fixed last line, so no benchmark runs here.
"""
import importlib.util
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

TOOL_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
PER_LAYER = ["rng.s", "rng.gamma.accept_ratio"]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "dont_write_bytecode", True):
        spec.loader.exec_module(module)
    return module


def _side(tmp_path, last_line: str, code: int = 0) -> Path:
    (tmp_path / "perfbench").mkdir(parents=True)
    (tmp_path / "perfbench" / "run.py").write_text(
        f"import sys\nprint('[perfbench] a line before the last')\nprint({last_line!r})\n"
        f"sys.exit({code})\n")
    return tmp_path


def _result(correct=True, metrics=PER_LAYER, ratio="0.98"):
    body = ", ".join(f'"{name}": {{"value": {ratio}, "unit": "x"}}' for name in metrics)
    return (f'{{"correct": {json.dumps(correct)}, "attempted": 1, "failed": 0, '
            f'"metrics": {{{body}}}}}')


def test_a_full_traced_result_passes(bench_pairs, tmp_path):
    bench_pairs.traced_check(_side(tmp_path, _result()), "change", "w", 7, PER_LAYER)


@pytest.mark.parametrize("last_line, code, fault", [
    (_result(ratio="NaN"), 0, "not a strict JSON result"),
    (_result(ratio="Infinity"), 0, "not a strict JSON result"),
    ("[perfbench] w rng.s 0.1 s", 0, "not a strict JSON result"),
    (_result(correct=False), 0, "`correct` is not true"),
    (_result(metrics=PER_LAYER[:1]), 0, "absent: ['rng.gamma.accept_ratio']"),
    (_result(), 1, "exited 1"),
])
def test_a_traced_run_that_is_not_a_full_result_stops_the_tool(
    bench_pairs, tmp_path, last_line, code, fault
):
    with pytest.raises(SystemExit) as stop:
        bench_pairs.traced_check(_side(tmp_path, last_line, code), "change", "w", 7, PER_LAYER)
    message = str(stop.value)
    assert message.startswith("traced w run on the change side: ") and fault in message


def test_an_untraced_run_is_parsed_as_strictly(bench_pairs, tmp_path):
    with pytest.raises(RuntimeError, match="not a strict JSON result"):
        bench_pairs.run_side(_side(tmp_path, _result(ratio="NaN")), "w", 7, 1.0)
    assert bench_pairs.run_side(_side(tmp_path / "ok", _result()), "w", 7, 1.0)["metrics"] == {
        "rng.s": 0.98, "rng.gamma.accept_ratio": 0.98}
