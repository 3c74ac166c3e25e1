import dataclasses
import errno
import io
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cotail._decimal as _decimal
import cotail.cli as cli
import cotail.simulate as simulate
from cotail import BivariateSample, BivariateTModel, LinearParetoModel, tdc_quasispectral
from cotail.cli import REPORT_COLUMNS, ingest_text, main
from cotail.errors import NegativeValue, NonPositivePrice, ParseError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def test_ingest_abs_log_returns_hand_values():
    e = repr(math.e)
    text = f"1.0,1.0\n{e},1.0\n{e},{e}\n"
    sample = ingest_text(text.encode(), "abs-log-returns")
    assert sample.pairs() == [(1.0, 0.0), (0.0, 1.0)]


def test_ingest_four_row_price_table():
    prices = [(1.0, 2.0), (2.0, 2.0), (1.0, 4.0), (4.0, 1.0)]
    text = "\n".join(f"{repr(a)},{repr(b)}" for a, b in prices)
    sample = ingest_text(text.encode(), "abs-log-returns")
    expected_x = [abs(math.log(2.0 / 1.0)), abs(math.log(1.0 / 2.0)), abs(math.log(4.0 / 1.0))]
    expected_y = [abs(math.log(2.0 / 2.0)), abs(math.log(4.0 / 2.0)), abs(math.log(1.0 / 4.0))]
    assert np.allclose(sample.x, expected_x, rtol=1e-15, atol=0.0)
    assert np.allclose(sample.y, expected_y, rtol=1e-15, atol=0.0)


# price ratios beyond the double range, each log-return finite: 1e300 / 1e-300
# overflows and 1e-300 / 1e300 underflows to 0, as do 1e308 / 0.5 and 1e-308 / 1e308
_WIDE_PRICES = {
    "1e-300,1\n1e300,1\n1,1\n": [600 * math.log(10), 300 * math.log(10)],
    "0.5,1\n1e308,1\n1e-308,1\n": [
        math.log(1e308) - math.log(0.5), math.log(1e308) - math.log(1e-308),
    ],
}


@pytest.mark.parametrize("text", sorted(_WIDE_PRICES))
def test_ingest_log_returns_of_ratios_beyond_the_double_range(capsys, monkeypatch, text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample = ingest_text(text.encode(), "abs-log-returns")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
        code, out, err = run_cli(
            capsys, "ingest", "--input", "-", "--transform", "abs-log-returns"
        )
    assert sample.y.tolist() == [0.0, 0.0]
    assert sample.x.tolist() == pytest.approx(_WIDE_PRICES[text], rel=1e-15)
    assert (code, err) == (0, "")
    assert out == "x,y\n" + "".join(f"{x},0.0\n" for x in sample.x.tolist())


def test_ingest_single_row_rejected():
    with pytest.raises(ParseError):
        ingest_text(b"5.0,6.0\n", "abs-log-returns")


def test_ingest_header_autodetected():
    sample = ingest_text(b"x,y\n1.0,2.0\n3.0,4.0\n", "none")
    assert sample.pairs() == [(1.0, 2.0), (3.0, 4.0)]


def test_ingest_ignores_a_leading_byte_order_mark():
    assert ingest_text(b"\xef\xbb\xbf1.0,2.0\n3.0,4.0\n").n == 2
    assert ingest_text(b"\xef\xbb\xbfx,y\n1.0,2.0\n3.0,4.0\n").pairs() == [(1.0, 2.0), (3.0, 4.0)]
    # the UTF-8 bytes on the standard input of a process: the header plus both rows
    proc = subprocess.run(
        [sys.executable, "-m", "cotail.cli", "ingest", "--input", "-"],
        input=b"\xef\xbb\xbf1.0,2.0\n3.0,4.0\n", capture_output=True, check=True,
    )
    assert proc.stdout == b"x,y\n1.0,2.0\n3.0,4.0\n"


def test_ingest_cell_whitespace():
    # U+001F is the one character that str.isspace() accepts, float() rejects
    # and str.splitlines() does not split on
    for space in (" ", "\t", "\xa0", "\u2003", "\x1f"):
        text = f"{space}1.5{space},{space}2{space}\n3,{space}4\n"
        assert ingest_text(text.encode(), "none").pairs() == [(1.5, 2.0), (3.0, 4.0)], repr(space)


def test_ingest_parse_errors():
    with pytest.raises(ParseError):
        ingest_text(b"", "none")
    with pytest.raises(ParseError):
        ingest_text(b"1.0,2.0,3.0\n", "none")
    with pytest.raises(ParseError):
        ingest_text(b"1.0,abc\n", "none")
    with pytest.raises(NonPositivePrice):
        ingest_text(b"1.0,0.0\n2.0,1.0\n", "abs-log-returns")
    with pytest.raises(NegativeValue):
        ingest_text(b"1.0,-2.0\n", "none")
    # rows are numbered among non-blank lines, the header counting as row 1
    messages = {
        "x,y\n1.0,2.0\n3.0\n": "row 3: expected 2 columns, got 1",
        "x,y\n1.0,2.0\n3.0,x\n": "row 3: non-numeric cell",
        "1.0,2.0\n\n  \n3.0,4.0,5.0\n": "row 2: expected 2 columns, got 3",
        "x,y\n\n1.0,2.0\n\n\n3.0,\n": "row 3: non-numeric cell",
        " 1.0 ,\t2.0 \n 3.0 , 4.0 , \n": "row 2: expected 2 columns, got 3",
        " 1.0 ,\t2.0 \n 3.0 , 4 .0 \n": "row 2: non-numeric cell",
        "x,y\r\n1.0,2.0\r\n\r\n3.0;4.0\r\n": "row 3: expected 2 columns, got 1",
        "1.0,2.0\r\n3.0,nan?\r\n": "row 2: non-numeric cell",
    }
    for text, message in messages.items():
        with pytest.raises(ParseError) as info:
            ingest_text(text.encode(), "none")
        assert str(info.value) == message, text


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_simulate_then_ingest_roundtrip_bit_exact(tmp_path, capsys):
    out = tmp_path / "data.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--model", "linear-pareto", "--n", "200",
        "--seed", "9", "--out", str(out),
    )
    assert code == 0
    from cotail import LinearParetoModel, ModelConfig, sample_dataset

    direct = sample_dataset(ModelConfig(LinearParetoModel(0.8, 0.1, 4.0), 200, 9))
    reread = ingest_text(out.read_bytes(), "none")
    assert np.array_equal(direct.x, reread.x)
    assert np.array_equal(direct.y, reread.y)

    code, estimate_out, _ = run_cli(
        capsys, "estimate", "--input", str(out), "--estimator", "tdc-quasispectral",
        "--k-frac", "0.1", "--alpha", "4.0", "--format", "json",
    )
    assert code == 0
    report = json.loads(estimate_out)["rows"][0]
    in_memory = tdc_quasispectral(direct, 20, 1.0, alpha=4.0)
    assert report["value"] == in_memory.value
    assert report["plugin_variance"] == in_memory.plugin_variance


def test_estimate_identity_pair(tmp_path, capsys):
    data = tmp_path / "xy.csv"
    xs = np.linspace(1.0, 40.0, 40)
    data.write_text("\n".join(f"{repr(float(v))},{repr(float(v))}" for v in xs) + "\n")
    code, out, _ = run_cli(
        capsys, "estimate", "--input", str(data), "--estimator", "tdc-quasispectral",
        "--k", "10", "--alpha", "3.0", "--format", "json",
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["value"] == 1.0
    assert row["ci_hi"] <= 1.0
    assert row["alpha_source"] == "supplied"
    assert row["k"] == 10


def test_estimate_report_columns_csv(tmp_path, capsys):
    data = tmp_path / "xy.csv"
    data.write_text("\n".join(f"{v}.0,{v}.0" for v in range(1, 30)) + "\n")
    code, out, _ = run_cli(
        capsys, "estimate", "--input", str(data), "--estimator", "cte-aleph4",
        "--k", "5", "--alpha", "4.0",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split(",")[0] == "estimator_id"
    assert row.split(",")[0] == "cte_aleph4"


def test_estimate_theta_report(tmp_path, capsys):
    data = tmp_path / "xy.csv"
    data.write_text("\n".join(f"{v}.0,{v}.0" for v in range(1, 101)) + "\n")
    code, out, _ = run_cli(
        capsys, "estimate", "--input", str(data), "--estimator", "theta",
        "--k", "10", "--p", "0.05", "--alpha", "2.0", "--format", "json",
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["p"] == 0.05
    assert row["extrapolation_factor"] == pytest.approx((0.1 / 0.05) ** 0.5, rel=1e-12)
    assert row["value"] > 0


def test_mc_csv_columns_and_truth(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--model", "linear-pareto", "--n", "200", "--reps", "10",
        "--seed", "4", "--k-fracs", "0.1,0.2", "--k-alpha-fracs", "0.2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "estimator_id,k_frac,k_alpha_frac,mean,sd,q05,q25,q50,q75,q95,"
        "rep_count,failures,truth"
    )
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6  # 3 estimators x 2 k fractions
    for row in rows:
        assert float(row[12]) == pytest.approx(0.8 ** 4)  # truth column
        assert int(row[10]) == 10  # rep_count
    names = {row[0] for row in rows}
    assert names == {
        "tdc_empirical", "tdc_quasispectral", "tdc_quasispectral_estimated"
    }
    # each row prints its cell's truth: the model's coefficient on a tdc_* cell
    # at y = 1, an empty cell elsewhere
    for model, tdc_truth in (
        ("linear-pareto", LinearParetoModel().tail_dependence),
        ("bivariate-t", BivariateTModel().tail_dependence),
    ):
        for y, want in (("1", tdc_truth), ("2", None)):
            code, out, _ = run_cli(
                capsys, "mc", "--model", model, "--n", "200", "--reps", "4",
                "--k-fracs", "0.1", "--y", y,
                "--estimators", "tdc-empirical,cte-aleph3,edm,tdc-quasispectral-estimated",
            )
            assert code == 0
            truths = {line.split(",")[0]: line.split(",")[12] for line in out.splitlines()[1:]}
            assert truths == {
                "tdc_empirical": "" if want is None else repr(want),
                "cte_aleph3": "",
                "edm": "",
                "tdc_quasispectral_estimated": "" if want is None else repr(want),
            }, (model, y)


def test_mc_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--model", "bivariate-t", "--n", "150", "--reps", "5",
        "--seed", "2", "--k-fracs", "0.2", "--k-alpha-fracs", "0.2",
        "--estimators", "tdc-quasispectral-estimated", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"truth", "y", "reps", "rows"}
    assert payload["reps"] == 5
    row = payload["rows"][0]
    assert set(row) == {
        "estimator_id", "k_frac", "k_alpha_frac", "mean", "sd",
        "q05", "q25", "q50", "q75", "q95", "rep_count", "failures", "truth",
    }
    assert row["estimator_id"] == "tdc_quasispectral_estimated"
    assert row["k_alpha_frac"] == 0.2


def test_curve_k_sweep_quasispectral_less_variable(tmp_path, capsys):
    data = tmp_path / "sim.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--model", "linear-pareto", "--n", "4000",
        "--seed", "31", "--out", str(data),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "curve", "--input", str(data), "--k-grid", "0.05,0.1,0.2,0.3,0.4",
        "--y", "1.0", "--alpha", "4.0", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    emp = [r["value"] for r in rows if r["estimator_id"] == "tdc_empirical"]
    qs = [r["value"] for r in rows if r["estimator_id"] == "tdc_quasispectral"]
    assert len(emp) == len(qs) == 5
    assert max(qs) - min(qs) < max(emp) - min(emp)


def test_curve_y_grid(tmp_path, capsys):
    data = tmp_path / "xy.csv"
    data.write_text("\n".join(f"{v}.0,{v}.0" for v in range(1, 61)) + "\n")
    code, out, _ = run_cli(
        capsys, "curve", "--input", str(data), "--y-grid", "0.5,1.0,2.0",
        "--k", "10", "--alpha", "4.0", "--methods", "quasispectral",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "estimator_id,k,y,value,plugin_variance"
    values = [float(line.split(",")[3]) for line in lines[1:]]
    assert values[0] == 1.0 and values[1] == 1.0  # y = x gives ratio exactly 1
    for bad_grid in ("2,1", "1,1", "0,1", "-1,2", ","):
        code, out, err = run_cli(
            capsys, "curve", "--input", str(data), f"--y-grid={bad_grid}",
            "--k", "10", "--methods", "empirical",
        )
        assert (code, out) == (1, "")
        assert json.loads(err)["error"]["type"] == "ValueError"


def test_curve_ignores_k_alpha_flags_for_methods_without_a_hill_step(tmp_path, capsys):
    # as estimate does: an out-of-range --k-alpha-frac only fails where it is used
    data = tmp_path / "xy.csv"
    data.write_text("\n".join(f"{v}.0,{v}.0" for v in range(1, 61)) + "\n")
    code, out, err = run_cli(
        capsys, "curve", "--input", str(data), "--k", "10", "--y-grid", "1,2",
        "--methods", "empirical", "--k-alpha-frac", "1.5",
    )
    assert (code, err) == (0, "")
    assert len(out.strip().splitlines()) == 3
    code, _, _ = run_cli(
        capsys, "estimate", "--input", str(data), "--estimator", "tdc-empirical",
        "--k", "10", "--k-alpha-frac", "1.5",
    )
    assert code == 0
    code, out, err = run_cli(
        capsys, "curve", "--input", str(data), "--k", "10", "--y-grid", "1,2",
        "--methods", "quasispectral-estimated", "--k-alpha-frac", "1.5",
    )
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_curve_and_estimate_report_the_same_numbers(capsys):
    data = str(Path(__file__).parent / "golden" / "linear_pareto.csv")

    def row(command, *argv):
        code, out, _ = run_cli(
            capsys, command, "--input", data, "--alpha", "4", "--k-alpha", "50", *argv,
            "--format", "json",
        )
        assert code == 0
        return json.loads(out)["rows"][0]

    # one --y-grid point at k = 15, one --k-grid point at k = 0.2 * 200 = 40
    points = (
        (["--k", "15", "--y-grid", "0.7"], 15, 0.7),
        (["--k-grid", "0.2", "--y", "1.3"], 40, 1.3),
    )
    for method in ("empirical", "quasispectral", "quasispectral-estimated"):
        for grid, k, y in points:
            curve = row("curve", "--methods", method, *grid)
            single = row(
                "estimate", "--estimator", f"tdc-{method}", "--k", str(k), "--y", str(y)
            )
            assert (curve["k"], curve["y"]) == (k, y)
            for field in ("estimator_id", "value", "plugin_variance"):
                assert curve[field] == single[field], (method, grid, field)


def test_error_is_machine_readable(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text("1.0,2.0\nbroken,4.0\n")
    code, out, err = run_cli(capsys, "ingest", "--input", str(data))
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["type"] == "ParseError"
    assert "row 2" in payload["error"]["message"]


def test_a_nan_in_a_json_report_is_the_json_error(tmp_path, capsys, monkeypatch):
    # a report that would hold NaN is no JSON: it takes the error path, and CSV prints nan
    class NanReader:
        def __init__(self, reader):
            self.reader = reader

        def estimate(self, k):
            return dataclasses.replace(self.reader.estimate(k), alpha_used=math.nan)

    real = cli.level_reader
    monkeypatch.setattr(cli, "level_reader", lambda *a, **kw: NanReader(real(*a, **kw)))
    data = tmp_path / "xy.csv"
    data.write_text("\n".join(f"{v}.0,{v}.0" for v in range(1, 30)) + "\n")
    argv = ["estimate", "--input", str(data), "--estimator", "tdc-empirical", "--k", "5"]
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["type"] == "ValueError"
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split(",")[REPORT_COLUMNS.index("alpha_used")] == "nan"


# command lines rejected on their flags alone; each names a missing input
# file, so a rule that ran after the read would fail on the read instead
_MISSING = str(Path(__file__).parent / "golden" / "missing.csv")
_EST = ["estimate", "--input", _MISSING, "--estimator", "cte-aleph3", "--k", "10"]
_CURVE_INPUT = ["curve", "--input", _MISSING]
_CURVE = [*_CURVE_INPUT, "--k", "10", "--y-grid", "1"]
_SIM = ["simulate", "--model", "linear-pareto", "--n", "10"]
_MC = ["mc", "--model", "linear-pareto", "--n", "20", "--reps", "2"]
_INGEST = ["ingest", "--input", _MISSING]
REJECTED_COMMAND_LINES = {
    "no_subcommand": [],
    "unknown_subcommand": ["frobnicate"],
    "estimate_unknown_flag": [*_EST, "--bogus"],
    "curve_unknown_flag": [*_CURVE, "--bogus", "1"],
    "simulate_unknown_flag": [*_SIM, "--bogus"],
    "mc_unknown_flag": [*_MC, "--bogus"],
    "ingest_unknown_flag": [*_INGEST, "--bogus"],
    "estimate_unknown_estimator": [*_EST, "--estimator", "nope"],
    "simulate_unknown_model": ["simulate", "--model", "nope"],
    "mc_unknown_model": ["mc", "--model", "nope"],
    "ingest_unknown_format": [*_INGEST, "--format", "xml"],
    "curve_unknown_transform": [*_CURVE, "--transform", "log"],
    "estimate_unknown_norm": [*_EST, "--norm", "l3"],
    "estimate_unknown_aleph_from": [*_EST, "--aleph-from", "cte-aleph5"],
    "estimate_k_not_integer": [*_EST, "--k", "2.5"],
    "curve_k_not_integer": [*_CURVE, "--k", "ten"],
    "simulate_n_not_integer": [*_SIM, "--n", "1e3"],
    "mc_reps_not_integer": [*_MC, "--reps", "2.0"],
    "mc_seed_not_integer": [*_MC, "--seed", "x"],
    "curve_alpha_not_number": [*_CURVE, "--alpha", "four"],
    "estimate_y_not_number": [*_EST, "--y", "one"],
    "estimate_p_not_number": [*_EST, "--p", "1%"],
    "estimate_k_frac_not_number": [*_EST, "--k-frac", "tenth"],
    "simulate_phi_not_number": [*_SIM, "--phi", "0,8"],
    # nu / 2 underflows to 0; the model names nu, not the gamma shape it halves to
    "simulate_nu_half_underflows": [
        "simulate", "--model", "bivariate-t", "--n", "3", "--nu", "5e-324"],
    "ingest_missing_input": ["ingest"],
    "mc_missing_model": ["mc", "--reps", "2"],
    "estimate_missing_estimator": ["estimate", "--input", _MISSING, "--k", "10"],
    "estimate_flag_missing_value": [*_EST, "--k"],
    # each pair of level flags is one argparse group, whether or not a Hill step runs
    "estimate_k_and_k_frac": [*_EST, "--k-frac", "0.1"],
    "curve_k_and_k_frac": [*_CURVE, "--k-frac", "0.1"],
    "estimate_k_alpha_and_k_alpha_frac": [
        *_EST, "--estimator", "tdc-empirical", "--k-alpha", "2", "--k-alpha-frac", "0.1",
    ],
    "curve_k_alpha_and_k_alpha_frac": [
        *_CURVE, "--methods", "empirical", "--k-alpha", "2", "--k-alpha-frac", "0.1",
    ],
    # the rules that read only the flags run before the input is read
    "curve_y_grid_not_numbers": [*_CURVE_INPUT, "--k", "10", "--y-grid", "1,x"],
    "curve_y_grid_inf": [*_CURVE_INPUT, "--k", "10", "--y-grid", "1,inf"],
    "curve_k_grid_with_k": [*_CURVE_INPUT, "--k-grid", "0.1", "--k", "5"],
    "curve_y_grid_with_y": [*_CURVE, "--y", "5"],
    "curve_y_grid_without_k": [*_CURVE_INPUT, "--y-grid", "1,2"],
    "curve_empty_k_grid": [*_CURVE_INPUT, "--k-grid", ","],
    "curve_unknown_method": [*_CURVE, "--methods", "nope"],
    "curve_no_methods": [*_CURVE, "--methods", ","],
    "estimate_no_k": ["estimate", "--input", _MISSING, "--estimator", "tdc-empirical"],
    "estimate_theta_without_p": [*_EST, "--estimator", "theta"],
}


@pytest.mark.parametrize("case", sorted(REJECTED_COMMAND_LINES))
def test_a_rejected_command_line_is_one_json_error(capsys, case):
    code, out, err = run_cli(capsys, *REJECTED_COMMAND_LINES[case])
    assert (code, out) == (1, "")
    assert err.endswith("\n") and err.count("\n") == 1
    error = json.loads(err)["error"]
    assert set(error) == {"type", "message"}
    assert error["type"] == "ValueError" and error["message"]
    if case == "simulate_nu_half_underflows":
        assert error["message"] == "nu must be a number whose half is positive, got 5e-324"


@pytest.mark.parametrize(
    "argv, flag", [(_CURVE, "--y-grid"), (_MC, "--k-fracs")], ids=["curve", "mc"]
)
def test_a_list_flag_that_is_no_list_is_an_argparse_rejection(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv, flag, "0.1,x")
    assert (code, out) == (1, "")
    message = f"argument {flag}: expected a comma-separated list of numbers, got '0.1,x'"
    assert json.loads(err)["error"] == {"type": "ValueError", "message": message}


@pytest.mark.parametrize("argv, message", [
    (["curve", "--k-grid", "-1,0.5"], "--k-grid fractions must be a number in (0, 1), got -1.0"),
    (["curve", "--y-grid", "-0.0,1", "--k", "5"],
     "y_grid must be strictly increasing, positive and finite"),
    (["mc", "--model", "linear-pareto", "--n", "50", "--reps", "2", "--k-fracs", "-0.1,0.2"],
     "k fraction must be a number in (0, 1), got -0.1"),
], ids=["k_grid", "y_grid", "k_fracs"])
def test_a_list_that_starts_with_a_minus_is_a_value_not_a_flag(tmp_path, capsys, argv, message):
    # argparse alone would take "-1,0.5" for a flag and say --k-grid lacks its value
    table = tmp_path / "table.csv"
    table.write_text("".join(f"{i},{i + 1}\n" for i in range(1, 21)))
    if argv[0] == "curve":
        argv = [*argv, "--input", str(table)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {"type": "ValueError", "message": message}


_SIZED = {
    "simulate": ["simulate", "--model", "linear-pareto"],
    "mc": ["mc", "--model", "bivariate-t", "--reps", "2", "--k-fracs", "0.1"],
}


@pytest.mark.parametrize("n", [2**63, 2**64])
@pytest.mark.parametrize("command", sorted(_SIZED))
def test_an_n_no_numpy_array_can_hold_names_n_and_its_range(capsys, command, n):
    code, out, err = run_cli(capsys, *_SIZED[command], "--n", str(n))
    assert (code, out) == (1, "")
    bound = np.iinfo(np.intp).max // 64
    message = f"n = {n} is not in [1, {bound}]"
    assert json.loads(err)["error"] == {"type": "ValueError", "message": message}
    # an n within the bound that cannot be allocated is still a MemoryError
    code, out, err = run_cli(capsys, *_SIZED[command], "--n", str(bound))
    assert (code, out, json.loads(err)["error"]["type"]) == (1, "", "MemoryError")


@pytest.mark.parametrize("argv", [["--help"], ["estimate", "--help"]])
def test_help_prints_usage_and_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: cotail") and captured.err == ""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_mc_block_process_that_dies_is_a_json_error(capsys, monkeypatch):
    # two blocks of 100 replications; the forked one exits without a result
    parent = os.getpid()
    real = simulate._sample_rows

    def child_exits(config, lo, hi):
        if os.getpid() != parent:
            os._exit(3)
        return real(config, lo, hi)

    monkeypatch.setattr(simulate, "_sample_rows", child_exits)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    code, out, err = run_cli(
        capsys, "mc", "--model", "linear-pareto", "--n", "50", "--reps", "200",
        "--k-fracs", "0.1", "--estimators", "tdc-empirical",
    )
    assert (code, out) == (1, "")
    payload = json.loads(err)["error"]
    assert payload["type"] == "ChildProcessError"
    assert "without a result" in payload["message"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts fds in /proc/self/fd")
def test_mc_fork_failure_is_a_json_error_and_closes_the_pipe(capsys, monkeypatch):
    # two blocks of 100 replications; the fork of the second fails, so no
    # process starts and both ends of its pipe must be closed
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    fds = len(os.listdir("/proc/self/fd"))
    code, out, err = run_cli(
        capsys, "mc", "--model", "linear-pareto", "--n", "50", "--reps", "200",
        "--k-fracs", "0.1", "--estimators", "tdc-empirical",
    )
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"]["type"] == "BlockingIOError"
    assert len(os.listdir("/proc/self/fd")) == fds


# samples are written in row blocks of at least _MIN_ROWS rows: three of them
_ROWS = 3 * cli._MIN_ROWS


def _blocked(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
    assert len(simulate._blocks(_ROWS, cli._MIN_ROWS)) == cpus


@pytest.mark.skipif(
    shutil.which("taskset") is None or not hasattr(os, "sched_getaffinity"),
    reason="needs taskset and os.sched_getaffinity",
)
def test_a_process_pinned_to_one_cpu_runs_one_block():
    # the other block tests patch the CPU count; the byte comparisons of CI's
    # console script step pin real processes with taskset and rest on this
    cpu = str(min(os.sched_getaffinity(0)))  # CPU 0 where this process may use it
    script = "import cotail.simulate as s; print(s._usable_cpus(), s._blocks(4000))"
    proc = subprocess.run(
        ["taskset", "-c", cpu, sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "1 [(0, 4000)]\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_csv_bytes_do_not_depend_on_the_cpu_count(tmp_path, capsys, monkeypatch):
    outputs = set()
    for cpus in (1, 2, 3):
        _blocked(monkeypatch, cpus)
        simulated, ingested = tmp_path / f"sim{cpus}.csv", tmp_path / f"ing{cpus}.csv"
        assert run_cli(
            capsys, "simulate", "--model", "linear-pareto", "--n", str(_ROWS),
            "--seed", "5", "--out", str(simulated),
        ) == (0, "", "")
        assert run_cli(
            capsys, "ingest", "--input", str(simulated), "--out", str(ingested)
        ) == (0, "", "")
        as_json = []
        for argv in (
            ("simulate", "--model", "linear-pareto", "--n", str(_ROWS), "--seed", "5"),
            ("ingest", "--input", str(simulated)),
        ):
            code, out, err = run_cli(capsys, *argv, "--format", "json")
            assert (code, err) == (0, "")
            as_json.append(out)
        outputs.add((simulated.read_bytes(), ingested.read_bytes(), *as_json))
    assert len(outputs) == 1
    data, reread, simulated_json, ingested_json = outputs.pop()
    assert data == reread and data.count(b"\n") == _ROWS + 1
    # the blocks' JSON items join to the text of one json.dumps of the sample
    sample = ingest_text(data)
    whole = json.dumps({"x": sample.x.tolist(), "y": sample.y.tolist()}) + "\n"
    assert simulated_json == ingested_json == whole


# strings on which a converter other than float()'s would differ: half the
# least subnormal and the overflow threshold from both sides, a tie at 2**53 + 1,
# a 40-digit mantissa, the normal range's edge, the ends of the kernel's power
# table (10^-342 and 10^308) and just past them, 21 digits with 4 of zero
# padding, and forms float() rejects
_HARD_CELLS = [
    "2.4703282292062327e-324", "2.4703282292062328e-324", "4.9406564584124654e-324",
    "1.7976931348623158e308", "1.7976931348623159e308", "1e400", "-1e400", "1e-400",
    "9007199254740993", "9007199254740993.0000000000000000001", "-9007199254740995",
    "1234567890123456789012345678901234567890", "0.1234567890123456789012345678901234567890",
    "2.2250738585072011e-308", "2.2250738585072014e-308", "0.1", "-0", "-0.0", "000.5e+0001",
    "1e-342", "9999999999999999999e-342", "1e-343", "1e308", "1e309", "0.1e309",
    "0.00012345678901234567",
    "1.", ".5", "-.5E-3", "+1e+2", "1e", "+-1", "1e+", "1e-", ".", "-", "+", "e5", "E",
    ".e1", "1..2", "1.2.3", "1e5.5", "--1", "1-1", "1e+-3", "1ee3", "",
]


# 2000 rows of subnormals and sevenths, 80 KB: with the byte floor patched to
# 4 KiB they split into one block per CPU
_SMALL_BYTES = 4096
_LF_TABLE = "x,y\n" + "".join(f"{i / 7!r},{i * 1e-310!r}\n" for i in range(2000))
_LF_COLUMNS = (
    np.array([i / 7 for i in range(2000)]).tobytes(),
    np.array([i * 1e-310 for i in range(2000)]).tobytes(),
)


def _byte_blocked(monkeypatch, cpus: int, data: bytes) -> None:
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "_MIN_BYTES", _SMALL_BYTES)
    assert len(simulate._blocks(len(data), cli._MIN_BYTES)) == cpus


def _spy_on_per_line_rules(monkeypatch, tmp_path):
    """Log the line count of each ``_parse_rows`` call, in this process or a block's.

    The function returned reads the counts and empties the log.
    """
    log = tmp_path / "per_line_calls.log"
    log.write_text("")
    real = cli._parse_rows

    def spy(lines):
        with open(log, "a") as out:
            out.write(f"{len(lines)}\n")
        return real(lines)

    def calls() -> list[int]:
        counts = [int(count) for count in log.read_text().split()]
        log.write_text("")
        return counts

    monkeypatch.setattr(cli, "_parse_rows", spy)
    return calls


def test_the_kernel_converts_each_cell_as_float_does(tmp_path, monkeypatch):
    # the byte blocks rest on _decimal.read_block giving float()'s bits, in
    # numpy or by float() itself: a kernel that differs on one of these fails here
    calls = _spy_on_per_line_rules(monkeypatch, tmp_path)
    for cell in _HARD_CELLS:
        data = f"{cell},{cell}\n".encode()
        assert set(data) <= set(b"0123456789.,eE+-\n"), cell
        table, count, fault = cli._parse_block(data, 0, 0, len(data))
        try:
            want = float(cell)
        except ValueError:
            # the kernel refused the block, and the per-line rules named the fault
            assert (count, fault, calls()) == (0, "non-numeric cell", [1]), cell
            continue
        assert (count, fault, calls()) == (1, None, []), cell  # the kernel's values alone
        assert table.tobytes() == np.array([[want, want]]).tobytes(), cell


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("bad, message", [
    ("1.0,2.0,3.0", "expected 2 columns, got 3"), ("1.0,x", "non-numeric cell"),
])
def test_parse_blocks_report_the_first_bad_row(monkeypatch, bad, message):
    # blank lines, the header (row 1), then data row i as row i + 2; bad rows
    # in the second and the third of three blocks
    lines = ["", "  ", *_LF_TABLE.splitlines()]
    lines[3 + 1000] = lines[3 + 1800] = bad
    data = ("\n".join(lines) + "\n").encode()
    for cpus in (1, 2, 3):
        _byte_blocked(monkeypatch, cpus, data)
        with pytest.raises(ParseError) as info:
            ingest_text(data)
        assert str(info.value) == f"row 1002: {message}", cpus


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_decode_error_in_a_later_block_beats_an_earlier_bad_row(tmp_path, capsys, monkeypatch):
    # as when the whole file is decoded before any row is read
    header, *rows = _LF_TABLE.splitlines(keepends=True)
    text = "".join([header, *rows[:10], "1.0,x\n", *rows[10:]])
    at = len(text) - 2000  # in the last block, 50 rows from the end
    data = text[:at].encode() + b"\xff" + text[at:].encode()
    with pytest.raises(UnicodeDecodeError) as info:
        data.decode("utf-8")
    want = {"type": "UnicodeDecodeError", "message": str(info.value)}
    assert f"position {at}:" in want["message"]
    table = tmp_path / "table.csv"
    table.write_bytes(data)
    for cpus in (1, 2, 3):
        _byte_blocked(monkeypatch, cpus, data)
        for path in (str(table), "-"):
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
            code, out, err = run_cli(capsys, "ingest", "--input", path)
            assert (code, out, json.loads(err)) == (1, "", {"error": want}), (cpus, path)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_only_a_block_numpy_refuses_takes_the_per_line_rules(tmp_path, monkeypatch, cpus):
    data = _LF_TABLE.encode()
    calls = _spy_on_per_line_rules(monkeypatch, tmp_path)
    # a space in the last row, or a lone CR before its CRLF (a blank line)
    for last in (b"1.5, 2.5\n", b"1.5,2.5\r\r\n"):
        _byte_blocked(monkeypatch, cpus, data + last)
        sample = ingest_text(data + last)
        assert (sample.n, sample.x[-1], sample.y[-1]) == (2001, 1.5, 2.5), last
        assert (sample.x[:-1].tobytes(), sample.y[:-1].tobytes()) == _LF_COLUMNS, last
        # the last block's rows alone
        blocks = calls()
        assert len(blocks) == 1, last
        assert (blocks[0] == 2001) == (cpus == 1), last


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_parse_block_process_that_dies_is_a_json_error(tmp_path, capsys, monkeypatch):
    parent = os.getpid()
    real = cli._parse_block

    def child_exits(data, body, lo, hi):
        if os.getpid() != parent:
            os._exit(3)
        return real(data, body, lo, hi)

    table = tmp_path / "table.csv"
    table.write_text(_LF_TABLE)
    monkeypatch.setattr(cli, "_parse_block", child_exits)
    _byte_blocked(monkeypatch, 2, _LF_TABLE.encode())
    code, out, err = run_cli(capsys, "ingest", "--input", str(table))
    assert (code, out) == (1, "")
    payload = json.loads(err)["error"]
    assert payload["type"] == "ChildProcessError"
    assert "without a result" in payload["message"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("cpus", [1, 2])
def test_byte_blocks_report_the_line_reader_s_errors(tmp_path, capsys, monkeypatch, cpus):
    table = tmp_path / "table.csv"
    data = _LF_TABLE.encode()
    _byte_blocked(monkeypatch, cpus, data)
    utf8 = data[:70_000] + b"\xff" + data[70_000:]
    with pytest.raises(UnicodeDecodeError) as info:
        utf8.decode("utf-8")  # the whole file's decode
    cases = {
        # an invalid UTF-8 byte deep in the file, in the last block
        "utf8": (utf8, "UnicodeDecodeError", str(info.value)),
        # a bad cell in the last row, so in the last block
        "cell": (data + b"1.0,x\n", "ParseError", "row 2002: non-numeric cell"),
        "columns": (data + b"1.0,2.0,3.0\n", "ParseError", "row 2002: expected 2 columns, got 3"),
    }
    assert "position 70000:" in cases["utf8"][2]
    for name, (bad, kind, message) in cases.items():
        table.write_bytes(bad)
        code, out, err = run_cli(capsys, "ingest", "--input", str(table))
        assert (code, out) == (1, ""), name
        assert json.loads(err) == {"error": {"type": kind, "message": message}}, name


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("cpus", [1, 2])
def test_crlf_and_bom_copies_ingest_as_the_lf_table(tmp_path, capsys, monkeypatch, cpus):
    data = _LF_TABLE.encode()
    _byte_blocked(monkeypatch, cpus, data)
    calls = _spy_on_per_line_rules(monkeypatch, tmp_path)
    outputs = set()
    copies = {
        "lf": data,  # the kernel's blocks
        "crlf": data.replace(b"\n", b"\r\n"),  # the kernel's blocks too
        "bom": b"\xef\xbb\xbf" + data,  # the kernel's blocks after the header
    }
    for name, copy in copies.items():
        table = tmp_path / f"{name}.csv"
        table.write_bytes(copy)
        code, out, err = run_cli(capsys, "ingest", "--input", str(table))
        assert (code, err) == (0, ""), name
        outputs.add(out)
        assert calls() == [], name
    assert outputs == {_LF_TABLE}


def test_a_clean_crlf_block_is_read_by_the_kernel(tmp_path, monkeypatch):
    calls = _spy_on_per_line_rules(monkeypatch, tmp_path)
    reads = []
    real = _decimal.read_block

    def read_block(data, start, end):
        reads.append(data[start:end])
        return real(data, start, end)

    monkeypatch.setattr(_decimal, "read_block", read_block)
    block = b"1.5,2\r\n\r\n-3e1,.25\r\n"
    table, count, fault = cli._parse_block(block, 0, 0, len(block))
    assert (table.tolist(), count, fault) == ([[1.5, 2.0], [-30.0, 0.25]], 2, None)
    assert reads == [block] and calls() == []
    # a block of CR and LF alone is no rows, without the per-line rules
    table, count, fault = cli._parse_block(b"\r\n\r\n", 0, 0, 4)
    assert (table.shape, count, fault, calls()) == ((0, 2), 0, None, [])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("header", [True, False])
def test_every_line_end_cuts_blocks_and_rows_are_read_only_in_them(tmp_path, monkeypatch, header):
    # a copy with any line end str.splitlines breaks at (CR, NEL and U+2028
    # among them) splits into the LF table's count of blocks, each holding
    # rows, and the first data row (with or without a header before it) is
    # read in a block: the log starts with the fork-join
    log = tmp_path / "calls.log"
    real_run_blocks, real_parse_block, real_parse_rows = (
        cli._run_blocks, cli._parse_block, cli._parse_rows,
    )

    def note(entry: str) -> None:
        with open(log, "a") as out:
            out.write(f"{entry}\n")

    def run_blocks(size, work, minimum):
        note("blocks")
        return real_run_blocks(size, work, minimum)

    def parse_block(data, body, lo, hi):
        rows, count, fault = real_parse_block(data, body, lo, hi)
        note(f"rows {count}")
        return rows, count, fault

    def parse_rows(lines):
        note("per-line")
        return real_parse_rows(lines)

    monkeypatch.setattr(cli, "_run_blocks", run_blocks)
    monkeypatch.setattr(cli, "_parse_block", parse_block)
    monkeypatch.setattr(cli, "_parse_rows", parse_rows)
    text = _LF_TABLE if header else _LF_TABLE.split("\n", 1)[1]
    counts = {}
    ends = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
    for end in ends:
        data = text.replace("\n", end).encode()
        _byte_blocked(monkeypatch, 3, data)
        log.write_text("")
        sample = ingest_text(data)
        assert (sample.x.tobytes(), sample.y.tobytes()) == _LF_COLUMNS, repr(end)
        first, *entries = log.read_text().splitlines()
        assert first == "blocks", repr(end)
        counts[end] = [int(e.split()[1]) for e in entries if e.startswith("rows")]
        assert all(counts[end]) and sum(counts[end]) == 2000, repr(end)
        assert ("per-line" in entries) == (end not in ("\n", "\r\n")), repr(end)
    assert {len(blocks) for blocks in counts.values()} == {3}
    # and no cut falls inside CRLF
    crlf = b"1,2\r\n3,4\r\n"
    assert {cli._line_start(crlf, i) for i in range(1, len(crlf) + 1)} == {5, 10}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("cpus", [1, 2])
def test_blank_lines_take_the_byte_blocks(tmp_path, capsys, monkeypatch, cpus):
    # blank lines after the header and among the rows, and a trailing run long
    # enough that the second of two blocks holds nothing else
    header, *rows = _LF_TABLE.splitlines(keepends=True)
    text = "".join([header, "\n\n", *rows[:700], "\n", *rows[700:], "\n" * 100_000])
    data = text.encode()
    _byte_blocked(monkeypatch, cpus, data)
    calls = _spy_on_per_line_rules(monkeypatch, tmp_path)
    got = ingest_text(data)
    assert (got.x.tobytes(), got.y.tobytes()) == _LF_COLUMNS
    assert calls() == []  # the kernel read every block
    table, count, fault = cli._parse_block(b"1,2\n\n\n\n", 0, 4, 8)  # blank lines alone
    assert (table.shape, count, fault) == ((0, 2), 0, None)
    # a bad row after them is numbered without the blank lines
    table = tmp_path / "table.csv"
    table.write_bytes(data + b"1.0,x\n")
    code, out, err = run_cli(capsys, "ingest", "--input", str(table))
    assert (code, out) == (1, "")
    want = {"type": "ParseError", "message": "row 2002: non-numeric cell"}
    assert json.loads(err) == {"error": want}


# each table's rows and the count of its blocks read by the per-line rules,
# or its error's type and text; first the tables the kernel's blocks read whole
_READS = {
    b"x,y\n1,2\n": ([(1.0, 2.0)], 0),
    b"1,2\n3,4": ([(1.0, 2.0), (3.0, 4.0)], 0),
    b"\xef\xbb\xbf1,2\n": ([(1.0, 2.0)], 0),
    b"\xef\xbb\xbfx,y\n1,2\n": ([(1.0, 2.0)], 0),
    b"1e,2\n3,4\n": ([(3.0, 4.0)], 0),  # a first line float() rejects is a header
    b"x,y\r\n1,2\n": ([(1.0, 2.0)], 0),
    b"\xce\xb1,\xce\xb2\n-1e-320,+.5E3\n": ([(-1e-320, 500.0)], 0),
    b"x,y\n\n1,2\n": ([(1.0, 2.0)], 0),  # blank lines are skipped
    b"1,2\n\n3,4\n": ([(1.0, 2.0), (3.0, 4.0)], 0),
    b"1,2\n3,4\n\n\n": ([(1.0, 2.0), (3.0, 4.0)], 0),
    b"\n\n1,2\n3,4\n": ([(1.0, 2.0), (3.0, 4.0)], 0),
    b"1,2\r\n3,4\r\n": ([(1.0, 2.0), (3.0, 4.0)], 0),  # CRLF
    b"1,2\r\n\r\n3,4\r\n\r\n": ([(1.0, 2.0), (3.0, 4.0)], 0),
    b"1,2\r\n3,4\r": ([(1.0, 2.0), (3.0, 4.0)], 0),  # a last lone CR
    # a block the kernel refuses is read by the per-line rules
    b"1,2\r3,4\n": ([(1.0, 2.0), (3.0, 4.0)], 1),  # a lone CR before data
    b"1,2\r\r\n3,4\r\n": ([(1.0, 2.0), (3.0, 4.0)], 1),
    b"x\ry\n1,2\n": (ParseError, "row 2: expected 2 columns, got 1"),
    b"1,2\n3, 4\n": ([(1.0, 2.0), (3.0, 4.0)], 1),
    b"1,2\n3,4\x1f\n": ([(1.0, 2.0), (3.0, 4.0)], 1),
    b"1,2\n1_0,4\n": ([(1.0, 2.0), (10.0, 4.0)], 1),
    b"1,2\nnan,4\n": ([(1.0, 2.0), (math.nan, 4.0)], 1),
    b"1,2\n3,\xd9\xa1\n": ([(1.0, 2.0), (3.0, 1.0)], 1),
    b"1,2\n3,4,5\n": (ParseError, "row 2: expected 2 columns, got 3"),
    b"1,2\n3,\n": (ParseError, "row 2: non-numeric cell"),
    b"1\n2\n": (ParseError, "row 1: expected 2 columns, got 1"),
    b"\xff,y\n1,2\n": (
        UnicodeDecodeError, "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    ),
    # an invalid byte after a bad first row, in a block or on the same CR line
    b"1\n3,4\xff\n": (
        UnicodeDecodeError, "'utf-8' codec can't decode byte 0xff in position 5: invalid start byte"
    ),
    b"x,y\r1\r\xff": (
        UnicodeDecodeError, "'utf-8' codec can't decode byte 0xff in position 6: invalid start byte"
    ),
    b"": (ParseError, "input contains no rows"),
    b"\n \r\n": (ParseError, "input contains no rows"),
    b"x,y\n": (ParseError, "input contains no data rows"),
    b"x,y\n\n\n": (ParseError, "input contains no data rows"),
}


def test_byte_blocks_take_clean_tables_and_refuse_the_rest(tmp_path, monkeypatch):
    calls = _spy_on_per_line_rules(monkeypatch, tmp_path)
    for data, (want, detail) in _READS.items():
        if isinstance(want, type):
            with pytest.raises(want) as info:
                cli._parse_table(data)
            assert str(info.value) == detail, data
            calls()
            continue
        first, second = cli._parse_table(data)
        assert np.array_equal(np.column_stack([first, second]), want, equal_nan=True), data
        assert len(calls()) == detail, data


def test_memory_error_is_a_json_error(capsys, monkeypatch):
    # the draw is replaced, so nothing is allocated
    def no_memory(config, lo, hi):
        raise MemoryError("Unable to allocate 1.46 TiB")

    monkeypatch.setattr(simulate, "_sample_rows", no_memory)
    code, out, err = run_cli(
        capsys, "simulate", "--model", "linear-pareto", "--n", "100000000000"
    )
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": {"type": "MemoryError", "message": "Unable to allocate 1.46 TiB"}
    }


# at k = 3 the ratios y / x are finite but their sum is not, y / X_(n-k)
# = y / 0.1 is infinite, and so is every squared norm
_OVERFLOW_CSV = "x,y\n0.1,1.7e308\n1.0,1.7e308\n1.1,1.7e308\n1.2,1.7e308\n"


@pytest.mark.parametrize("argv", [
    ("--estimator", "cte-aleph4", "--alpha", "2"),
    ("--estimator", "cte-aleph3", "--format", "json"),
    ("--estimator", "theta", "--aleph-from", "cte-aleph4", "--alpha", "2", "--p", "0.1"),
    ("--estimator", "edm"),
    ("--estimator", "edm", "--norm", "linf"),
])
def test_estimate_beyond_the_double_range_is_a_json_error(tmp_path, capsys, argv):
    data = tmp_path / "huge.csv"
    data.write_text(_OVERFLOW_CSV)
    code, out, err = run_cli(capsys, "estimate", "--input", str(data), "--k", "3", *argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["type"] == "NonFiniteEstimate"


def test_edm_on_infinite_norm_keys_is_one_json_error(tmp_path, capsys):
    # every l2 key here is inf: numpy warns of the overflow, which must not reach stderr
    data = tmp_path / "wide.csv"
    data.write_text("1e200,1e200\n1e200,2e200\n1e200,3e200\n1e200,4e200\n2e200,1e200\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(
            capsys, "estimate", "--input", str(data), "--estimator", "edm", "--k", "3"
        )
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["type"] == "NonFiniteEstimate"


def test_edm_on_squared_norms_below_the_normal_range_is_one_json_error(tmp_path, capsys):
    # every l2 square here underflows to 0, which made the estimate 0.0
    data = tmp_path / "tiny.csv"
    for second in ((2, 1, 4, 3, 6, 5, 8, 7), (2, 1, 4, 3, 6)):
        rows = zip(range(1, 9), second)
        data.write_text("".join(f"{a}e-200,{b}e-200\n" for a, b in rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(
                capsys, "estimate", "--input", str(data), "--estimator", "edm", "--k", "3"
            )
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == {
            "type": "NonFiniteEstimate",
            "message": "edm: a squared l2 norm is below the normal range",
        }


def test_ci_level_whose_upper_tail_rounds_to_one(tmp_path, capsys):
    data = tmp_path / "xy.csv"
    data.write_text("\n".join(f"{v}.0,{v}.0" for v in range(1, 61)) + "\n")
    code, out, err = run_cli(
        capsys, "estimate", "--input", str(data), "--estimator", "tdc-empirical", "--k", "10",
        "--ci-level", "0.9999999999999999", "--format", "json",
    )
    assert (code, err) == (0, "")
    row = json.loads(out)["rows"][0]
    # z is about 8.2, so the interval is clipped to the whole of [0, 1]
    assert (row["value"], row["ci_lo"], row["ci_hi"]) == (1.0, 0.0, 1.0)


def test_theta_reads_the_coefficient_without_its_variance(tmp_path, capsys):
    # cte_aleph4's mean ratio is finite here but its mean square is not
    data = tmp_path / "wide.csv"
    data.write_text("1,1\n2,3e200\n3,3e200\n4,1\n")
    common = ("estimate", "--input", str(data), "--k", "3", "--alpha", "2")
    code, _, err = run_cli(capsys, *common, "--estimator", "cte-aleph4")
    assert code == 1 and json.loads(err)["error"]["type"] == "NonFiniteEstimate"
    code, out, _ = run_cli(
        capsys, *common, "--estimator", "theta", "--aleph-from", "cte-aleph4",
        "--p", "0.75", "--format", "json",
    )
    assert code == 0
    aleph = json.loads(out)["rows"][0]["aleph_used"]
    assert aleph == 2.0 * (math.fsum([1.5e200, 1e200, 0.25]) / 3)


def test_mc_counts_sums_beyond_the_double_range_as_failures(capsys):
    # at seed 0 two of the three replications' cte_aleph4 sums overflow
    code, out, _ = run_cli(
        capsys, "mc", "--model", "linear-pareto", "--sigma", "3e307", "--n", "200",
        "--reps", "3", "--k-fracs", "0.1", "--estimators", "cte-aleph4", "--format", "json",
    )
    assert code == 0
    [row] = json.loads(out, parse_constant=pytest.fail)["rows"]
    assert (row["rep_count"], row["failures"]) == (3, 2)


def test_mc_statistics_of_values_near_the_double_maximum_stay_finite(capsys):
    # the 100 values are each about 5e306, but their sum and their sum of
    # squared deviations are beyond the double range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "mc", "--model", "linear-pareto", "--sigma", "1e307", "--n", "200",
            "--reps", "100", "--k-fracs", "0.1", "--estimators", "cte-aleph4",
            "--format", "json",
        )
    assert (code, err) == (0, "")
    [row] = json.loads(out, parse_constant=pytest.fail)["rows"]
    assert row["failures"] == 0
    assert row["q05"] <= row["mean"] <= row["q95"]
    assert 0 < row["sd"] < row["q95"] - row["q05"]


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COTAIL_SEED", "91")
    code, out_env, _ = run_cli(
        capsys, "simulate", "--model", "linear-pareto", "--n", "5",
    )
    monkeypatch.delenv("COTAIL_SEED")
    code2, out_explicit, _ = run_cli(
        capsys, "simulate", "--model", "linear-pareto", "--n", "5", "--seed", "91",
    )
    assert code == code2 == 0
    assert out_env == out_explicit
    monkeypatch.setenv("COTAIL_SEED", "abc")
    code, out, err = run_cli(capsys, "simulate", "--model", "linear-pareto", "--n", "5")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {
        "type": "ValueError", "message": "argument --seed: invalid int value: 'abc'",
    }
    # COTAIL_SEED is only --seed's default: a given --seed never reads it
    code, out, _ = run_cli(
        capsys, "simulate", "--model", "linear-pareto", "--n", "5", "--seed", "91",
    )
    assert (code, out) == (0, out_explicit)


@pytest.mark.parametrize("command", ["simulate", "mc"])
@pytest.mark.parametrize("model, flag", [
    ("linear-pareto", "--nu"),
    ("linear-pareto", "--rho"),
    ("bivariate-t", "--phi"),
    ("bivariate-t", "--sigma"),
    ("bivariate-t", "--alpha"),
])
def test_a_flag_of_another_model_is_a_json_error(capsys, command, model, flag):
    argv = [command, "--model", model, "--n", "20", "--seed", "1", flag, "0.3"]
    if command == "mc":
        argv += ["--reps", "2", "--k-fracs", "0.2"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {
        "type": "ValueError", "message": f"{flag} is not a parameter of {model}",
    }


@pytest.mark.parametrize("model, defaults", [
    ("linear-pareto", ["--phi", "0.8", "--sigma", "0.1", "--alpha", "4"]),
    ("bivariate-t", ["--nu", "4", "--rho", "0.9"]),
])
def test_unset_model_flags_take_the_model_defaults(capsys, model, defaults):
    argv = ["simulate", "--model", model, "--n", "5", "--seed", "3"]
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv, *defaults)


def test_k_flag_validation(tmp_path, capsys):
    data = tmp_path / "xy.csv"
    data.write_text("\n".join(f"{v}.0,{v}.0" for v in range(1, 21)) + "\n")
    code, _, err = run_cli(
        capsys, "estimate", "--input", str(data), "--estimator", "tdc-empirical",
        "--k", "5", "--k-frac", "0.2",
    )
    assert code == 1
    assert json.loads(err)["error"]["type"] == "ValueError"
    code, _, err = run_cli(
        capsys, "estimate", "--input", str(data), "--estimator", "tdc-empirical",
    )
    assert code == 1
    code, _, err = run_cli(
        capsys, "estimate", "--input", str(data), "--estimator", "tdc-empirical",
        "--k", "25",
    )
    assert code == 1  # k out of range for n = 20


def test_estimated_alpha_defaults_to_twice_k(tmp_path, capsys):
    data = tmp_path / "xy.csv"
    rows = [f"{1.0 + 0.37 * i},{0.9 + 0.11 * i}" for i in range(60)]
    data.write_text("\n".join(rows) + "\n")
    code, out, _ = run_cli(
        capsys, "estimate", "--input", str(data),
        "--estimator", "tdc-quasispectral-estimated", "--k", "10",
        "--format", "json",
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["k_alpha"] == 20
    assert row["alpha_source"] == "hill"


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"1.0,2.0\n3.0,4.0\n")))
    code, out, _ = run_cli(capsys, "ingest", "--input", "-")
    assert code == 0
    assert out.splitlines()[0] == "x,y"
    assert len(out.strip().splitlines()) == 3


# invalid UTF-8 in the first row, in row 2's cell, and a truncated sequence at the end
_INVALID_UTF8 = [b"\xff1,2\n3,4\n", b"1,2\n3\xff,4\n", b"x,y\n1,2\n3,4\xc3"]


@pytest.mark.parametrize("data", _INVALID_UTF8)
def test_stdin_and_a_named_file_give_the_same_error(tmp_path, data):
    # real stdin, whatever its decoder: its bytes are read, never its text
    table = tmp_path / "table.csv"
    table.write_bytes(data)
    env = {k: v for k, v in os.environ.items() if k not in ("LC_ALL", "PYTHONIOENCODING")}
    errors = set()
    for extra in (
        {}, {"LC_ALL": "C"}, {"PYTHONIOENCODING": "utf-8:strict"}, {"PYTHONIOENCODING": "latin-1"},
    ):
        for path, stdin in (("-", data), (str(table), b"")):
            proc = subprocess.run(
                [sys.executable, "-m", "cotail.cli", "ingest", "--input", path],
                input=stdin, capture_output=True, env={**env, **extra},
            )
            assert (proc.returncode, proc.stdout) == (1, b""), (extra, path)
            errors.add(proc.stderr)
    assert len(errors) == 1
    assert json.loads(errors.pop())["error"]["type"] == "UnicodeDecodeError"


@pytest.mark.parametrize("argv, redirect", [
    (["ingest", "--input", "-"], "<&-"),
    (["simulate", "--model", "linear-pareto", "--n", "3"], ">&-"),
])
def test_a_closed_standard_stream_is_a_json_error(argv, redirect):
    # a stream closed before Python starts is None in sys, not a file
    command = shlex.join([sys.executable, "-m", "cotail.cli", *argv])
    proc = subprocess.run(["sh", "-c", f"{command} {redirect}"], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    name = "stdin" if redirect == "<&-" else "stdout"
    want = {"type": "OSError", "message": f"[Errno {errno.EBADF}] {name} is closed"}
    assert json.loads(proc.stderr) == {"error": want}


def test_cli_import_skips_scipy_stats():
    # the runtime needs numpy only: no scipy module at all loads
    for module in ("cotail", "cotail.cli"):
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, {module}; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "[]", module


def test_cli_runs_without_scipy(tmp_path):
    data = tmp_path / "bt.csv"
    script = f"""
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from cotail.cli import main
codes = [
    main(["simulate", "--model", "bivariate-t", "--n", "200", "--out", {str(data)!r}]),
    main(["estimate", "--input", {str(data)!r}, "--estimator", "tdc-quasispectral-estimated",
          "--k-frac", "0.1", "--ci-level", "0.9"]),
    main(["mc", "--model", "bivariate-t", "--n", "200", "--reps", "3", "--k-fracs", "0.1"]),
]
sys.exit(max(codes))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("estimator_id,")
    assert lines[2].startswith("estimator_id,")


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cotail.cli", "simulate", "--model",
         "linear-pareto", "--n", "3", "--seed", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("x,y\n")
