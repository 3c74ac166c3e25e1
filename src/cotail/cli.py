"""Command-line front end.

Subcommands::

    cotail simulate --model linear-pareto --n 1000 --seed 7 --out data.csv
    cotail ingest --input prices.csv --transform abs-log-returns --out pairs.csv
    cotail estimate --input pairs.csv --estimator tdc-quasispectral --k-frac 0.1 --alpha 4
    cotail curve --input pairs.csv --k-grid 0.05,0.1,0.2,0.3,0.4 --y 1 --alpha 4
    cotail mc --model linear-pareto --reps 1000 --k-fracs 0.05,0.1,0.2,0.3,0.4

Datasets are two-column CSV (optional header, comma separated, dot decimal).
Floats are written with repr-level precision, so a simulated file re-ingests
to bit-identical values. The default seed is 0, overridable per command with
--seed or globally with the COTAIL_SEED environment variable.

Every failure, a command line that argparse rejects included, writes one JSON
object {"error": {"type": ..., "message": ...}} to stderr and exits 1; a
rejected command line fails before any input is read. --help exits 0.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from itertools import starmap
from pathlib import Path

import numpy as np

from .core import BivariateSample, LevelSweep, fraction_to_count
from .errors import CotailError, NonPositivePrice, ParseError, unwrap
from .estimators import (
    ESTIMATORS,
    check_y_grid,
    confidence_interval,
    level_reader,
    theta_hat,
)
from .simulate import MODELS, McCell, ModelConfig, run_mc, sample_dataset
from .tail_function import NORMS
from .tail_index import hill_alphas

TRANSFORMS = ("none", "abs-log-returns")

# rows spread an McCell between the cell key and the truth
MC_COLUMNS = (
    "estimator_id", "k_frac", "k_alpha_frac", *(f.name for f in fields(McCell)), "truth"
)

REPORT_COLUMNS = (
    "estimator_id",
    "n",
    "k",
    "k_alpha",
    "y",
    "value",
    "plugin_variance",
    "ci_level",
    "ci_lo",
    "ci_hi",
    "alpha_used",
    "alpha_source",
    "p",
    "extrapolation_factor",
    "aleph_used",
)


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def _parse_table(text: str) -> tuple[list[float], list[float]]:
    text = text.removeprefix("\ufeff")  # else a byte order mark makes row 1 a header
    # float() ignores the same surrounding whitespace as str.strip(), except
    # U+001F; mapping it to a space keeps cells stripped without a per-cell strip
    lines = [line for line in text.replace("\x1f", " ").splitlines() if line.strip()]
    if not lines:
        raise ParseError("input contains no rows")
    start = 0
    try:
        for cell in lines[0].split(","):
            float(cell)
    except ValueError:
        start = 1  # non-numeric first row is a header
    first: list[float] = []
    second: list[float] = []
    for lineno, line in enumerate(lines[start:], start=start + 1):
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"row {lineno}: expected 2 columns, got {len(parts)}")
        try:
            first.append(float(parts[0]))
            second.append(float(parts[1]))
        except ValueError:
            raise ParseError(f"row {lineno}: non-numeric cell") from None
    if not first:
        raise ParseError("input contains no data rows")
    return first, second


def ingest_text(text: str, transform: str = "none") -> BivariateSample:
    """Parse a two-column table, optionally mapping prices to |log-returns|."""
    transform = transform.replace("_", "-")
    if transform not in TRANSFORMS:
        raise ValueError(f"unknown transform {transform!r}, expected {TRANSFORMS}")
    first, second = map(np.asarray, _parse_table(text))
    if transform == "none":
        return BivariateSample(first, second)
    if first.size < 2:
        raise ParseError("abs-log-returns needs at least 2 rows of prices")
    if np.any(first <= 0) or np.any(second <= 0):
        raise NonPositivePrice("all price levels must be strictly positive")
    x = np.abs(np.log(first[1:] / first[:-1]))
    y = np.abs(np.log(second[1:] / second[:-1]))
    return BivariateSample(x, y)


# ---------------------------------------------------------------------------
# io helpers
# ---------------------------------------------------------------------------

def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _rows_to_csv(columns, rows) -> str:
    """The one CSV writer; a cell is str(value), for a float its exact repr."""
    line = ",".join(["{}"] * len(columns)).format
    return "\n".join([",".join(columns), *starmap(line, rows)]) + "\n"


def _emit(args, columns, rows, extra: dict | None = None) -> None:
    # each row is projected onto the columns: a field it lacks is None, an empty CSV cell
    rows = [{c: row.get(c) for c in columns} for row in rows]
    if args.format == "csv":
        values = (["" if v is None else v for v in row.values()] for row in rows)
        _write_text(args.out, _rows_to_csv(columns, values))
    else:
        payload = {**(extra or {}), "rows": rows}
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")


def _default_seed() -> int:
    text = os.environ.get("COTAIL_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"COTAIL_SEED must be an integer, got {text!r}") from None


def _sample_payload(args, sample: BivariateSample) -> None:
    x, y = sample.x.tolist(), sample.y.tolist()
    if args.format == "csv":
        _write_text(args.out, _rows_to_csv(("x", "y"), zip(x, y)))
    else:
        _write_text(args.out, json.dumps({"x": x, "y": y}) + "\n")


def _load_sample(args) -> BivariateSample:
    return ingest_text(_read_text(args.input), args.transform)


def _model_config(args) -> ModelConfig:
    """The chosen model from its flags; a flag of another model is a ``ValueError``."""
    cls = MODELS[args.model]
    own = {f.name for f in fields(cls)}
    given = {
        f.name: getattr(args, f.name)
        for model in MODELS.values() for f in fields(model)
        if getattr(args, f.name) is not None
    }
    for name in given:
        if name not in own:
            raise ValueError(f"--{name} is not a parameter of {args.model}")
    model = cls(**given)  # unset fields take the model's defaults
    seed = _default_seed() if args.seed is None else args.seed
    return ModelConfig(model=model, n=args.n, seed=seed)


def _resolve_count(absolute, fraction, n: int, what: str) -> int:
    if absolute is not None and fraction is not None:
        raise ValueError(f"pass either --{what} or --{what}-frac, not both")
    if absolute is not None:
        return int(absolute)
    if fraction is not None:
        return fraction_to_count(fraction, n, f"--{what}-frac")
    raise ValueError(f"one of --{what} or --{what}-frac is required")


def _k_alpha(args, k: int, n: int) -> int:
    """--k-alpha or --k-alpha-frac when given, else the documented 2k heuristic."""
    if args.k_alpha is None and args.k_alpha_frac is None:
        return min(max(2 * k, 1), n - 1)
    return _resolve_count(args.k_alpha, args.k_alpha_frac, n, "k-alpha")


def _comma_list(text: str) -> list[str]:
    """The tokens of a comma-separated flag value, stripped, blanks dropped."""
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in _comma_list(text)]
    except ValueError:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}")


def _registry_id(name: str) -> str:
    """CLI ids spell with dashes what registry ids spell with underscores."""
    return name.replace("-", "_")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> None:
    _sample_payload(args, sample_dataset(_model_config(args)))


def _cmd_ingest(args) -> None:
    _sample_payload(args, _load_sample(args))


def _report_row(args, sweep: LevelSweep, name: str, k: int, y: float):
    """Read the ``ESTIMATORS`` entry ``name`` off a sweep at (k, y), with its report fields."""
    params = ESTIMATORS[name].params
    k_alpha = _k_alpha(args, k, sweep.n) if "k_alpha" in params else None
    # curve has no --norm: none of its tdc methods takes one
    norm = getattr(args, "norm", None)
    reader = level_reader(name, sweep, y=y, alpha=args.alpha, k_alpha=k_alpha, norm=norm)
    est = reader.estimate(k)
    source = "hill" if k_alpha is not None else "supplied" if "alpha" in params else None
    return est, {
        "estimator_id": est.estimator_id,
        "k": k,
        "k_alpha": k_alpha,
        "y": y if "y" in params else None,
        "value": est.value,
        "plugin_variance": est.plugin_variance,
        "alpha_used": est.alpha_used,
        "alpha_source": source,
    }


def _cmd_estimate(args) -> None:
    sample = _load_sample(args)
    k = _resolve_count(args.k, args.k_frac, sample.n, "k")
    sweep = LevelSweep(sample, (k,))
    if args.estimator == "theta":
        row = _theta_report(args, sweep, k)
    else:
        est, row = _report_row(args, sweep, _registry_id(args.estimator), k, args.y)
        lo, hi = confidence_interval(est, args.ci_level)
        row.update(ci_level=args.ci_level, ci_lo=lo, ci_hi=hi)
    _emit(args, REPORT_COLUMNS, [{"n": sample.n, **row}])


def _theta_report(args, sweep: LevelSweep, k: int) -> dict:
    """theta_hat composes a Hill or supplied alpha, a CTE coefficient and k."""
    if args.p is None:
        raise ValueError("theta requires --p")
    k_alpha = None if args.alpha is not None else _k_alpha(args, k, sweep.n)
    alpha = args.alpha if k_alpha is None else unwrap(hill_alphas(sweep.sample.x, k_alpha)[0])
    aleph = level_reader(_registry_id(args.aleph_from), sweep, alpha=alpha).value(k)
    ext = theta_hat(sweep.sample, k, args.p, aleph, alpha)
    return {
        "estimator_id": "theta_hat",
        "k": k,
        "k_alpha": k_alpha,
        "value": ext.theta_hat,
        "alpha_source": "supplied" if k_alpha is None else "hill",
        **asdict(ext),  # alpha_used, p, extrapolation_factor, aleph_used
    }


_CURVE_COLUMNS = ("estimator_id", "k", "y", "value", "plugin_variance")


def _cmd_curve(args) -> None:
    sample = _load_sample(args)
    if args.y_grid is not None:
        if args.y is not None:
            raise ValueError("--y sets the y of a --k-grid sweep only")
        k = _resolve_count(args.k, args.k_frac, sample.n, "k")
        points = [(k, y) for y in check_y_grid(_float_list(args.y_grid)).tolist()]
    else:
        if args.k is not None or args.k_frac is not None:
            raise ValueError("--k/--k-frac set the level of a --y-grid sweep only")
        y = 1.0 if args.y is None else args.y
        points = [
            (fraction_to_count(frac, sample.n, "--k-grid fractions"), y)
            for frac in _float_list(args.k_grid)
        ]
        if not points:
            raise ValueError("--k-grid needs at least one fraction")
    methods = _comma_list(args.methods)
    if not methods:
        raise ValueError("at least one method is required")
    # one sweep gathers the exceedances of every point's k for all methods
    sweep = LevelSweep(sample, tuple(dict.fromkeys(k for k, _ in points)))
    rows = []
    for method in methods:
        name = "tdc_" + _registry_id(method)
        if name not in ESTIMATORS:
            raise ValueError(f"unknown method {method!r}")
        rows += [_report_row(args, sweep, name, k, y)[1] for k, y in points]
    _emit(args, _CURVE_COLUMNS, rows)


def _cmd_mc(args) -> None:
    summary = run_mc(
        _model_config(args),
        reps=args.reps,
        k_fractions=_float_list(args.k_fracs),
        k_alpha_fractions=_float_list(args.k_alpha_fracs),
        estimators=[_registry_id(name) for name in _comma_list(args.estimators)],
        y=args.y,
    )
    rows = [
        {
            "estimator_id": name,
            "k_frac": kf,
            "k_alpha_frac": kaf,
            **asdict(cell),
            "truth": summary.truth if "y" in ESTIMATORS[name].params else None,
        }
        for (name, kf, kaf), cell in summary.cells.items()
    ]
    extra = {"truth": summary.truth, "y": summary.y, "reps": summary.reps}
    _emit(args, MC_COLUMNS, rows, extra)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argparse parser whose rejections are ``ValueError``s, so they take the JSON path."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    # the flags several subcommands share, each group declared once as a parent
    table, model, levels, output = (_Parser(add_help=False) for _ in range(4))
    table.add_argument("--input", required=True, help="input path, '-' for stdin")
    table.add_argument(
        "--transform",
        choices=TRANSFORMS,
        default="none",
        help="apply to the input table before estimating",
    )
    model.add_argument("--model", choices=tuple(MODELS), required=True)
    model.add_argument("--n", type=int, default=1000)
    for name, cls in MODELS.items():
        for f in fields(cls):
            model.add_argument(f"--{f.name}", type=float, help=f"{name} only; default {f.default}")
    model.add_argument("--seed", type=int, help="default: COTAIL_SEED, else 0")
    levels.add_argument("--k", type=int, help="number of upper order statistics")
    levels.add_argument("--k-frac", type=float, help="fraction of n instead of --k")
    levels.add_argument("--k-alpha", type=int, help="order statistics for the Hill step")
    levels.add_argument("--k-alpha-frac", type=float)
    output.add_argument("--out", default="-", help="output path, '-' for stdout")
    output.add_argument("--format", choices=("csv", "json"), default="csv")

    parser = _Parser(
        prog="cotail",
        description="Conditional-on-extreme-event estimation for bivariate heavy tails",
    )
    sub = parser.add_subparsers(dest="command", required=True)  # sub-parsers are _Parsers

    def command(name, func, help, *parents):
        p = sub.add_parser(name, help=help, parents=[*parents, output])
        p.set_defaults(func=func)
        return p

    command("simulate", _cmd_simulate, "draw a synthetic dataset", model)
    command("ingest", _cmd_ingest, "normalize a two-column table", table)

    p = command("estimate", _cmd_estimate, "run one estimator and report it", table, levels)
    p.add_argument(
        "--estimator",
        required=True,
        choices=(*(name.replace("_", "-") for name in ESTIMATORS), "theta"),
    )
    p.add_argument("--y", type=float, default=1.0)
    p.add_argument("--alpha", type=float, help="tail index when known")
    p.add_argument("--p", type=float, help="exceedance probability for theta")
    p.add_argument("--aleph-from", choices=("cte-aleph3", "cte-aleph4"), default="cte-aleph3")
    p.add_argument("--norm", choices=NORMS, default="l2")
    p.add_argument("--ci-level", type=float, default=0.95)

    p = command("curve", _cmd_curve, "sweep estimators over a y grid or a k grid", table, levels)
    p.add_argument(
        "--methods",
        default="empirical,quasispectral",
        help="comma list of empirical, quasispectral, quasispectral-estimated",
    )
    p.add_argument("--y", type=float, help="fixed y for --k-grid sweeps (default 1)")
    grid = p.add_mutually_exclusive_group(required=True)
    grid.add_argument("--y-grid", help="comma list of y values (needs --k or --k-frac)")
    grid.add_argument("--k-grid", help="comma list of k fractions, at --y")
    p.add_argument("--alpha", type=float, help="tail index for quasispectral")

    p = command("mc", _cmd_mc, "Monte Carlo study over replications", model)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--k-fracs", default="0.05,0.1,0.2,0.3,0.4")
    p.add_argument("--k-alpha-fracs", default="0.2")
    p.add_argument(
        "--estimators",
        default="tdc-empirical,tdc-quasispectral,tdc-quasispectral-estimated",
    )
    p.add_argument("--y", type=float, default=1.0)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        args.func(args)
    except (CotailError, ValueError, OSError, MemoryError) as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(payload), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
