"""Byte-for-byte CLI outputs on two small fixed datasets.

``tests/golden/linear_pareto.csv`` and ``tests/golden/bivariate_t.csv`` are
200-pair files written by ``cotail simulate`` (seeds 11 and 12);
``headerless.csv`` is a hand-written table with blank lines and whitespace
around its cells, and ``prices.csv`` a headed table of price levels for
``--transform abs-log-returns``. Each success case pins its exit code and its
stdout, stored in ``tests/golden/<case>.out``.
Each error case pins the exit code, an empty stdout and the JSON error type;
the message text is free to change.

After an intended output change, rewrite the stored outputs with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of ``tests/golden/``.
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from cotail.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = {"lp": GOLDEN / "linear_pareto.csv", "bt": GOLDEN / "bivariate_t.csv"}
HEADERLESS = str(GOLDEN / "headerless.csv")
PRICES = str(GOLDEN / "prices.csv")

ESTIMATORS = {
    "tdc-empirical": [],
    "tdc-quasispectral": ["--alpha", "4"],
    "tdc-quasispectral-estimated": [],
    "cte-aleph3": [],
    "cte-aleph4": ["--alpha", "4"],
    "edm": [],
    "theta": ["--p", "0.01"],
}

ESTIMATE_VARIANTS = {
    "k_abs": ["tdc-empirical", "--k", "15"],
    "k_alpha_frac": ["tdc-quasispectral-estimated", "--k-alpha-frac", "0.3"],
    "k_alpha_abs": ["tdc-quasispectral-estimated", "--k-alpha", "50"],
    "theta_k_alpha_frac": ["theta", "--p", "0.01", "--k-alpha-frac", "0.3"],
    "y_empirical": ["tdc-empirical", "--y", "0.5"],
    "y_quasispectral": ["tdc-quasispectral", "--alpha", "4", "--y", "1.5"],
    "y_estimated": ["tdc-quasispectral-estimated", "--y", "0.75"],
    "theta_aleph4_hill": ["theta", "--p", "0.005", "--aleph-from", "cte-aleph4"],
    "theta_aleph4_alpha": [
        "theta", "--p", "0.005", "--aleph-from", "cte-aleph4", "--alpha", "3",
    ],
    "edm_l1": ["edm", "--norm", "l1"],
    "edm_linf": ["edm", "--norm", "linf"],
    "edm_l2_k8": ["edm", "--k", "8", "--ci-level", "0.99"],
    "edm_l1_k8": ["edm", "--k", "8", "--norm", "l1", "--ci-level", "0.99"],
    "edm_linf_k8": ["edm", "--k", "8", "--norm", "linf", "--ci-level", "0.99"],
    "ci90_quasispectral": ["tdc-quasispectral", "--alpha", "4", "--ci-level", "0.9"],
    "ci99_quasispectral": ["tdc-quasispectral", "--alpha", "4", "--ci-level", "0.99"],
    "ci90_aleph3": ["cte-aleph3", "--ci-level", "0.9"],
    "ci99_empirical": ["tdc-empirical", "--ci-level", "0.99"],
}

ALL_METHODS = "empirical,quasispectral,quasispectral-estimated"
CURVE_VARIANTS = {
    "y_grid_csv": ["--k-frac", "0.1", "--y-grid", "0.5,0.75,1,1.5,2"],
    "y_grid_json": [
        "--k", "25", "--y-grid", "0.25,1,3", "--k-alpha", "60", "--format", "json",
    ],
    "k_grid_csv": ["--k-grid", "0.05,0.1,0.2,0.3"],
    "k_grid_json": [
        "--k-grid", "0.05,0.2", "--y", "0.8", "--k-alpha-frac", "0.4",
        "--format", "json",
    ],
}

MC_MODELS = {
    "lp": ["--model", "linear-pareto", "--seed", "3"],
    "bt": ["--model", "bivariate-t", "--seed", "4"],
}
SIMULATE_MODELS = {
    "lp": ["--model", "linear-pareto", "--n", "40", "--seed", "5"],
    "lp_params": [
        "--model", "linear-pareto", "--n", "40", "--seed", "6",
        "--phi", "0.5", "--sigma", "0.3", "--alpha", "2.5",
    ],
    "bt": ["--model", "bivariate-t", "--n", "40", "--seed", "7"],
    "bt_params": [
        "--model", "bivariate-t", "--n", "40", "--seed", "8", "--nu", "2.5", "--rho", "0.3",
    ],
}
INGEST_INPUTS = {
    "headerless": ["--input", HEADERLESS],
    "headed": ["--input", str(DATA["lp"])],
    "prices": ["--input", PRICES, "--transform", "abs-log-returns"],
}
MC_ARGS = [
    "--n", "200", "--reps", "8", "--k-fracs", "0.1,0.2", "--k-alpha-fracs", "0.2,0.3",
    "--estimators",
    "tdc-empirical,tdc-quasispectral,tdc-quasispectral-estimated,cte-aleph3,cte-aleph4",
]


def _success_cases() -> dict[str, list[str]]:
    cases = {}
    for tag, path in DATA.items():
        base = ["estimate", "--input", str(path)]
        for name, extra in ESTIMATORS.items():
            for fmt in ("csv", "json"):
                cases[f"estimate_{tag}_{name}_{fmt}"] = [
                    *base, "--estimator", name, "--k-frac", "0.1", *extra,
                    "--format", fmt,
                ]
        for variant, (name, *extra) in ESTIMATE_VARIANTS.items():
            k = [] if "--k" in extra else ["--k-frac", "0.1"]
            cases[f"estimate_{tag}_{variant}"] = [
                *base, "--estimator", name, *k, *extra,
            ]
        for variant, extra in CURVE_VARIANTS.items():
            cases[f"curve_{tag}_{variant}"] = [
                "curve", "--input", str(path), "--methods", ALL_METHODS,
                "--alpha", "4", *extra,
            ]
    for tag, model in SIMULATE_MODELS.items():
        cases[f"simulate_{tag}_csv"] = ["simulate", *model]
        cases[f"simulate_{tag}_json"] = ["simulate", *model, "--format", "json"]
    for tag, inputs in INGEST_INPUTS.items():
        cases[f"ingest_{tag}_csv"] = ["ingest", *inputs]
        cases[f"ingest_{tag}_json"] = ["ingest", *inputs, "--format", "json"]
    for tag, model in MC_MODELS.items():
        cases[f"mc_{tag}_csv"] = ["mc", *model, *MC_ARGS]
        cases[f"mc_{tag}_json"] = ["mc", *model, *MC_ARGS, "--format", "json"]
    # the model's alpha 0.8 reaches cte_aleph4, so each of its replications fails
    all_failed = [
        "mc", "--model", "linear-pareto", "--alpha", "0.8", "--estimators",
        "cte-aleph4,tdc-empirical", "--n", "200", "--reps", "3", "--k-fracs", "0.1",
    ]
    cases["mc_lp_all_failed_csv"] = all_failed
    cases["mc_lp_all_failed_json"] = [*all_failed, "--format", "json"]
    cases["mc_lp_y_off_one"] = [
        "mc", *MC_MODELS["lp"], "--n", "150", "--reps", "4", "--k-fracs", "0.1",
        "--y", "1.5",
    ]
    # 250 replications run as two blocks wherever two CPUs are usable
    cases["mc_bt_two_blocks"] = [
        "mc", *MC_MODELS["bt"], "--n", "200", "--reps", "250", "--k-fracs", "0.1,0.2",
        "--k-alpha-fracs", "0.2", "--estimators",
        "tdc-empirical,tdc-quasispectral-estimated",
    ]
    return cases


SUCCESS = _success_cases()

LP = str(DATA["lp"])
ESTIMATE_LP = ["estimate", "--input", LP]
CURVE_LP = ["curve", "--input", LP]
MC_LP = ["mc", "--model", "linear-pareto", "--n", "100", "--reps", "2", "--seed", "1"]

# case -> (argv, exit code, JSON error type; None when argparse rejects the line)
ERRORS = {
    "quasispectral_without_alpha": (
        [*ESTIMATE_LP, "--estimator", "tdc-quasispectral", "--k", "10"], 1, "ValueError"),
    "aleph4_without_alpha": (
        [*ESTIMATE_LP, "--estimator", "cte-aleph4", "--k", "10"], 1, "ValueError"),
    "theta_without_p": (
        [*ESTIMATE_LP, "--estimator", "theta", "--k", "10"], 1, "ValueError"),
    "k_and_k_frac": (
        [*ESTIMATE_LP, "--estimator", "tdc-empirical", "--k", "10", "--k-frac", "0.1"],
        1, "ValueError"),
    "k_alpha_and_k_alpha_frac": (
        [*ESTIMATE_LP, "--estimator", "tdc-quasispectral-estimated", "--k", "10",
         "--k-alpha", "20", "--k-alpha-frac", "0.1"], 1, "ValueError"),
    "no_k": ([*ESTIMATE_LP, "--estimator", "tdc-empirical"], 1, "ValueError"),
    "k_frac_above_one": (
        [*ESTIMATE_LP, "--estimator", "tdc-empirical", "--k-frac", "1.5"], 1, "ValueError"),
    "k_frac_zero": (
        [*ESTIMATE_LP, "--estimator", "cte-aleph3", "--k-frac", "0"], 1, "ValueError"),
    "k_alpha_frac_out_of_range": (
        [*ESTIMATE_LP, "--estimator", "tdc-quasispectral-estimated", "--k", "10",
         "--k-alpha-frac", "1.0"], 1, "ValueError"),
    "k_out_of_range": (
        [*ESTIMATE_LP, "--estimator", "tdc-empirical", "--k", "200"], 1, "ValueError"),
    "theta_p_out_of_range": (
        [*ESTIMATE_LP, "--estimator", "theta", "--k", "10", "--p", "1.5", "--alpha", "3"],
        1, "InvalidP"),
    "aleph4_alpha_below_one": (
        [*ESTIMATE_LP, "--estimator", "cte-aleph4", "--k", "10", "--alpha", "0.9"],
        1, "AlphaNotAboveOne"),
    "aleph4_alpha_inf": (
        [*ESTIMATE_LP, "--estimator", "cte-aleph4", "--k", "10", "--alpha", "inf"],
        1, "AlphaNotAboveOne"),
    "quasispectral_alpha_inf": (
        [*ESTIMATE_LP, "--estimator", "tdc-quasispectral", "--k", "10", "--alpha", "inf"],
        1, "ValueError"),
    # (0.05 / 1e-300)^2 is past the double range
    "theta_factor_overflow": (
        [*ESTIMATE_LP, "--estimator", "theta", "--k", "10", "--p", "1e-300",
         "--alpha", "0.5"], 1, "ValueError"),
    "ci_level_out_of_range": (
        [*ESTIMATE_LP, "--estimator", "cte-aleph3", "--k", "10", "--ci-level", "1.5"],
        1, "ValueError"),
    "y_nan": (
        [*ESTIMATE_LP, "--estimator", "tdc-empirical", "--k", "10", "--y", "nan"],
        1, "ValueError"),
    "y_inf": (
        [*ESTIMATE_LP, "--estimator", "tdc-empirical", "--k", "10", "--y", "inf"],
        1, "ValueError"),
    "unknown_estimator": ([*ESTIMATE_LP, "--estimator", "nope", "--k", "10"], 2, None),
    "curve_unknown_method": (
        [*CURVE_LP, "--k", "10", "--y-grid", "1,2", "--methods", "empirical,nope"],
        1, "ValueError"),
    "curve_k_grid_unknown_method": (
        [*CURVE_LP, "--k-grid", "0.1", "--methods", "nope"], 1, "ValueError"),
    "curve_quasispectral_without_alpha": (
        [*CURVE_LP, "--k", "10", "--y-grid", "1,2", "--methods", "quasispectral"],
        1, "ValueError"),
    "curve_k_grid_out_of_range": (
        [*CURVE_LP, "--k-grid", "0.1,1.2", "--methods", "empirical"], 1, "ValueError"),
    "curve_both_grids": (
        [*CURVE_LP, "--k", "10", "--y-grid", "1,2", "--k-grid", "0.1"], 1, "ValueError"),
    "curve_no_grid": ([*CURVE_LP, "--k", "10"], 1, "ValueError"),
    "curve_y_grid_without_k": ([*CURVE_LP, "--y-grid", "1,2"], 1, "ValueError"),
    "curve_bad_number": ([*CURVE_LP, "--k", "10", "--y-grid", "1,x"], 1, "ValueError"),
    "curve_y_grid_inf": (
        [*CURVE_LP, "--k", "10", "--y-grid", "1,inf", "--methods", "empirical"],
        1, "ValueError"),
    "curve_k_grid_with_k": (
        [*CURVE_LP, "--k-grid", "0.1", "--k", "5", "--methods", "empirical"], 1, "ValueError"),
    "curve_y_grid_with_y": (
        [*CURVE_LP, "--k", "10", "--y-grid", "1", "--y", "5", "--methods", "empirical"],
        1, "ValueError"),
    "curve_no_methods": (
        [*CURVE_LP, "--k", "10", "--y-grid", "1,2", "--methods", ","], 1, "ValueError"),
    "curve_empty_k_grid": (
        [*CURVE_LP, "--k-grid", ",", "--methods", "empirical"], 1, "ValueError"),
    "mc_unknown_estimator": ([*MC_LP, "--estimators", "nope"], 1, "ValueError"),
    "mc_no_estimators": ([*MC_LP, "--estimators", ","], 1, "ValueError"),
    "mc_estimated_without_k_alpha": (
        [*MC_LP, "--estimators", "tdc-quasispectral-estimated", "--k-alpha-fracs", ""],
        1, "ValueError"),
    "mc_k_frac_out_of_range": ([*MC_LP, "--k-fracs", "0.1,1.5"], 1, "ValueError"),
    "mc_no_reps": ([*MC_LP, "--reps", "0"], 1, "ValueError"),
    "mc_n_one": (
        ["mc", "--model", "linear-pareto", "--n", "1", "--reps", "2"], 1, "ValueError"),
    "mc_alpha_inf": ([*MC_LP, "--alpha", "inf"], 1, "ValueError"),
    "simulate_nu_inf": (
        ["simulate", "--model", "bivariate-t", "--n", "10", "--nu", "inf"], 1, "ValueError"),
    # draws past the double range: the JSON error alone, no numpy warning first
    "simulate_pareto_overflow": (
        ["simulate", "--model", "linear-pareto", "--n", "10", "--alpha", "0.001"],
        1, "ValueError"),
    "simulate_chi_square_zero": (
        ["simulate", "--model", "bivariate-t", "--n", "10", "--nu", "0.001"], 1, "ValueError"),
    "simulate_sigma_overflow": (
        ["simulate", "--model", "linear-pareto", "--n", "10", "--sigma", "1e308"],
        1, "ValueError"),
    "input_missing": (
        ["estimate", "--input", str(GOLDEN / "missing.csv"), "--estimator",
         "tdc-empirical", "--k", "10"], 1, "FileNotFoundError"),
    "out_dir_missing": (
        ["ingest", "--input", LP, "--out", str(GOLDEN / "no-such-dir" / "o.csv")],
        1, "FileNotFoundError"),
}


def run(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", sorted(SUCCESS))
def test_golden_stdout(case, monkeypatch):
    monkeypatch.delenv("COTAIL_SEED", raising=False)
    code, out, err = run(SUCCESS[case])
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(ERRORS))
def test_golden_error_type(case, monkeypatch):
    monkeypatch.delenv("COTAIL_SEED", raising=False)
    argv, expected_code, expected_type = ERRORS[case]
    code, out, err = run(argv)
    assert code == expected_code
    assert out == ""
    if expected_type is not None:
        assert json.loads(err)["error"]["type"] == expected_type


def test_all_failed_mc_cell_is_strict_json():
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    text = (GOLDEN / "mc_lp_all_failed_json.out").read_text(encoding="utf-8")
    failed, ok = json.loads(text, parse_constant=reject)["rows"]
    assert failed["estimator_id"] == "cte_aleph4"
    assert failed["failures"] == failed["rep_count"] == 3
    stats = ("mean", "sd", "q05", "q25", "q50", "q75", "q95")
    assert all(failed[s] is None for s in stats)
    assert ok["failures"] == 0 and all(ok[s] is not None for s in stats)


def test_every_stored_output_has_a_case():
    stored = {p.stem for p in GOLDEN.glob("*.out")}
    assert stored == set(SUCCESS)


if __name__ == "__main__":
    for old in GOLDEN.glob("*.out"):
        old.unlink()
    for name, argv in SUCCESS.items():
        code, out, err = run(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit {code}: {err}")
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
    print(f"wrote {len(SUCCESS)} outputs to {GOLDEN}")
