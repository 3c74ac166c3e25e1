"""The benchmark's Monte Carlo studies, their CLI commands and reference values.

Reference means do not come from ``cotail``'s own random streams, so a change
of stream keying cannot move them:

- linear-Pareto cells: the fixed-level mean at u = (k/n)^(-1/alpha) by
  numerical quadrature (the known-alpha value also serves the Hill-alpha
  cells, whose bias at these settings is far below the slack);
- bivariate-t cell: an independent numpy/PCG64 Monte Carlo of the same
  estimator with 40,000 replications (standard error 0.00018).

``python3 perfbench/reference_values.py`` recomputes both.
"""
from __future__ import annotations

MC_STUDIES = {
    # criterion-1 study: 15 cells, sorting and per-call overhead dominate
    "mc_linear_n1k": {
        "model": ("linear-pareto", {"phi": 0.8, "sigma": 0.1, "alpha": 4.0}),
        "n": 1000,
        "reps": 1000,
        "k_fracs": (0.05, 0.1, 0.2, 0.3, 0.4),
        "k_alpha_fracs": (0.2,),
        "estimators": (
            "tdc_empirical",
            "tdc_quasispectral",
            "tdc_quasispectral_estimated",
        ),
        "slack": 0.003,
    },
    # criterion-4 configuration at 4x the replications: the sampler dominates
    "mc_bivt_n1k": {
        "model": ("bivariate-t", {"nu": 4.0, "rho": 0.9}),
        "n": 1000,
        "reps": 4000,
        "k_fracs": (0.1,),
        "k_alpha_fracs": (0.1,),
        "estimators": ("tdc_quasispectral_estimated",),
        "slack": 0.002,
    },
}

# fixed-level quadrature, linear-Pareto(0.8, 0.1, 4): k fraction -> mean
LINEAR_RATIO_MEAN = {
    0.05: 0.477456,
    0.1: 0.491737,
    0.2: 0.509320,
    0.3: 0.521420,
    0.4: 0.530905,
}
LINEAR_COUNTING_MEAN = {
    0.05: 0.482213,
    0.1: 0.498894,
    0.2: 0.520068,
    0.3: 0.534914,
    0.4: 0.546620,
}
BIVT_ESTIMATED_MEAN = 0.673067


def reference_mean(study: str, estimator: str, k_frac: float) -> float:
    if study == "mc_bivt_n1k":
        return BIVT_ESTIMATED_MEAN
    if estimator == "tdc_empirical":
        return LINEAR_COUNTING_MEAN[k_frac]
    return LINEAR_RATIO_MEAN[k_frac]


# cli_csv_1m: table sizes and the four commands, run in this order
CLI_ROWS = 1_000_000
PRICE_ROWS = CLI_ROWS + 1
CLI_SIMULATE = {"phi": 0.8, "sigma": 0.1, "alpha": 4.0}
ESTIMATE_K_FRAC = 0.01
ESTIMATE_K_ALPHA_FRAC = 0.02
CURVE_K_FRAC = 0.01
CURVE_Y_GRID = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)
CURVE_METHODS = ("empirical", "quasispectral")
CURVE_ALPHA = 4.0
CLI_COMMANDS = ("simulate", "ingest", "estimate", "curve")


def cli_argv(command: str, seed: int, files: dict) -> list[str]:
    """Arguments after ``python -m cotail.cli`` for one command."""
    if command == "simulate":
        model = [f"--{k}={v:g}" for k, v in CLI_SIMULATE.items()]
        return ["simulate", "--model", "linear-pareto", *model, "--n", str(CLI_ROWS),
                "--seed", str(seed), "--out", files["simulate"]]
    if command == "ingest":
        return ["ingest", "--input", files["prices"], "--transform",
                "abs-log-returns", "--out", files["ingest"]]
    if command == "estimate":
        return ["estimate", "--input", files["pairs"], "--estimator",
                "tdc-quasispectral-estimated", "--k-frac", str(ESTIMATE_K_FRAC),
                "--k-alpha-frac", str(ESTIMATE_K_ALPHA_FRAC), "--format", "json",
                "--out", files["estimate"]]
    if command == "curve":
        return ["curve", "--input", files["pairs"], "--k-frac", str(CURVE_K_FRAC),
                "--y-grid", ",".join(f"{v:g}" for v in CURVE_Y_GRID),
                "--methods", ",".join(CURVE_METHODS), "--alpha", f"{CURVE_ALPHA:g}",
                "--out", files["curve"]]
    raise ValueError(f"unknown command {command!r}")
