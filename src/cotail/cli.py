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

Parsing a table and writing a sample as CSV run in contiguous row blocks, one
per usable CPU, through the fork-join that runs ``mc``'s replications. The
bytes written and every error's text are the same for any block count
(``taskset -c 0`` gives the same bytes), and there is no option for it.

Every failure, a command line that argparse rejects included, writes one JSON
object {"error": {"type": ..., "message": ...}} to stderr and exits 1. A
rejected command line, and every rule that reads only the flags, fails before
any input is read. --help exits 0.
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
from .simulate import MODELS, McCell, ModelConfig, _run_blocks, run_mc, sample_dataset
from .tail_function import NORMS
from .tail_index import hill_alphas

TRANSFORMS = ("none", "abs-log-returns")

# CSV rows are parsed and written in blocks of at least this many, one per
# usable CPU: a fork and join from a CLI-sized heap costs about 6-12 ms,
# 50000 rows take about 50 ms to parse and 100 ms to write.
_MIN_ROWS = 50_000

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

def _parse_table(text: str) -> tuple[np.ndarray, np.ndarray]:
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
    if start == len(lines):
        raise ParseError("input contains no data rows")
    parts = _run_blocks(
        len(lines) - start, lambda lo, hi: _parse_rows(lines, start + lo, start + hi), _MIN_ROWS
    )
    return tuple(np.concatenate(column) for column in zip(*parts))


def _parse_rows(lines: list[str], lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Lines lo..hi-1 as two float columns; line i is row i + 1 in a ``ParseError``."""
    first: list[float] = []
    second: list[float] = []
    for lineno, line in enumerate(lines[lo:hi], start=lo + 1):
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"row {lineno}: expected 2 columns, got {len(parts)}")
        try:
            first.append(float(parts[0]))
            second.append(float(parts[1]))
        except ValueError:
            raise ParseError(f"row {lineno}: non-numeric cell") from None
    return np.array(first, dtype=float), np.array(second, dtype=float)


def ingest_text(text: str, transform: str = "none") -> BivariateSample:
    """Parse a two-column table, optionally mapping prices to |log-returns|."""
    transform = transform.replace("_", "-")
    if transform not in TRANSFORMS:
        raise ValueError(f"unknown transform {transform!r}, expected {TRANSFORMS}")
    first, second = _parse_table(text)
    if transform == "none":
        return BivariateSample(first, second)
    if first.size < 2:
        raise ParseError("abs-log-returns needs at least 2 rows of prices")
    if np.any(first <= 0) or np.any(second <= 0):
        raise NonPositivePrice("all price levels must be strictly positive")
    return BivariateSample(_abs_log_returns(first), _abs_log_returns(second))


def _abs_log_returns(p: np.ndarray) -> np.ndarray:
    """|log(p_t / p_(t-1))|, or |log p_t - log p_(t-1)| where the ratio leaves the double range."""
    with np.errstate(all="ignore"):  # a non-finite price stays so, for the sample to reject
        returns = np.log(p[1:] / p[:-1])
        bad = ~np.isfinite(returns)
        if bad.any():
            returns[bad] = np.log(p[1:][bad]) - np.log(p[:-1][bad])
    return np.abs(returns)


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


def _csv_lines(rows, width: int) -> str:
    """The one CSV row writer: a line per row; a cell is str(value), for a float its exact repr."""
    line = (",".join(["{}"] * width) + "\n").format
    return "".join(starmap(line, rows))


def _emit(args, columns, rows, extra: dict | None = None) -> None:
    # each row is projected onto the columns: a field it lacks is None, an empty CSV cell
    rows = [{c: row.get(c) for c in columns} for row in rows]
    if args.format == "csv":
        values = (["" if v is None else v for v in row.values()] for row in rows)
        _write_text(args.out, ",".join(columns) + "\n" + _csv_lines(values, len(columns)))
    else:
        payload = {**(extra or {}), "rows": rows}
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")


def _sample_payload(args, sample: BivariateSample) -> None:
    x, y = sample.x, sample.y
    if args.format == "csv":
        blocks = _run_blocks(
            sample.n,
            lambda lo, hi: _csv_lines(zip(x[lo:hi].tolist(), y[lo:hi].tolist()), 2),
            _MIN_ROWS,
        )
        _write_text(args.out, "".join(["x,y\n", *blocks]))
    else:
        _write_text(args.out, json.dumps({"x": x.tolist(), "y": y.tolist()}) + "\n")


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
    return ModelConfig(model=model, n=args.n, seed=args.seed)


def _resolve_count(absolute, fraction, n: int, what: str, default: int | None = None) -> int:
    """--<what> or --<what>-frac (argparse admits one of them), else ``default``."""
    if absolute is not None:
        return absolute
    if fraction is not None:
        return fraction_to_count(fraction, n, f"--{what}-frac")
    return default


def _require_k(args) -> None:
    if args.k is None and args.k_frac is None:
        raise ValueError("one of --k or --k-frac is required")


def _k_alpha(args, k: int, n: int) -> int:
    """--k-alpha or --k-alpha-frac when given, else the documented 2k heuristic."""
    return _resolve_count(args.k_alpha, args.k_alpha_frac, n, "k-alpha", min(max(2 * k, 1), n - 1))


def _comma_list(text: str) -> list[str]:
    """The tokens of a comma-separated flag value, stripped, blanks dropped."""
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in _comma_list(text)]
    except ValueError:
        message = f"expected a comma-separated list of numbers, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None


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
    """The ``ESTIMATORS`` entry ``name`` read off a sweep at (k, y), and its report row."""
    k_alpha = _k_alpha(args, k, sweep.n) if "k_alpha" in ESTIMATORS[name].params else None
    # curve has no --norm: none of its tdc methods takes one
    norm = getattr(args, "norm", None)
    est = level_reader(name, sweep, y=y, alpha=args.alpha, k_alpha=k_alpha, norm=norm).estimate(k)
    return est, {**asdict(est), **est.metadata}


def _cmd_estimate(args) -> None:
    _require_k(args)
    if args.estimator == "theta" and args.p is None:
        raise ValueError("theta requires --p")
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
    if args.y_grid is None:
        if args.k is not None or args.k_frac is not None:
            raise ValueError("--k/--k-frac set the level of a --y-grid sweep only")
        if not args.k_grid:
            raise ValueError("--k-grid needs at least one fraction")
        ys = [1.0 if args.y is None else args.y]
    else:
        if args.y is not None:
            raise ValueError("--y sets the y of a --k-grid sweep only")
        _require_k(args)
        ys = check_y_grid(args.y_grid).tolist()
    if not args.methods:
        raise ValueError("at least one method is required")
    names = ["tdc_" + _registry_id(method) for method in args.methods]
    for method, name in zip(args.methods, names):
        if name not in ESTIMATORS:
            raise ValueError(f"unknown method {method!r}")
    sample = _load_sample(args)
    if args.y_grid is None:
        ks = [fraction_to_count(frac, sample.n, "--k-grid fractions") for frac in args.k_grid]
    else:
        ks = [_resolve_count(args.k, args.k_frac, sample.n, "k")]
    # one sweep gathers the exceedances of every k for all methods
    sweep = LevelSweep(sample, tuple(dict.fromkeys(ks)))
    rows = [_report_row(args, sweep, name, k, y)[1] for name in names for k in ks for y in ys]
    _emit(args, _CURVE_COLUMNS, rows)


def _cmd_mc(args) -> None:
    summary = run_mc(
        _model_config(args),
        reps=args.reps,
        k_fractions=args.k_fracs,
        k_alpha_fractions=args.k_alpha_fracs,
        estimators=[_registry_id(name) for name in args.estimators],
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
    # argparse passes a string default through type=int as it does a given value
    seed = os.environ.get("COTAIL_SEED", "0")
    model.add_argument("--seed", type=int, default=seed, help="default: COTAIL_SEED, else 0")
    k, k_alpha = levels.add_mutually_exclusive_group(), levels.add_mutually_exclusive_group()
    k.add_argument("--k", type=int, help="number of upper order statistics")
    k.add_argument("--k-frac", type=float, help="fraction of n instead of --k")
    k_alpha.add_argument("--k-alpha", type=int, help="order statistics for the Hill step")
    k_alpha.add_argument("--k-alpha-frac", type=float)
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
        type=_comma_list,
        default="empirical,quasispectral",
        help="comma list of empirical, quasispectral, quasispectral-estimated",
    )
    p.add_argument("--y", type=float, help="fixed y for --k-grid sweeps (default 1)")
    grid = p.add_mutually_exclusive_group(required=True)
    grid.add_argument("--y-grid", type=_float_list, help="comma list of y values, at --k/--k-frac")
    grid.add_argument("--k-grid", type=_float_list, help="comma list of k fractions, at --y")
    p.add_argument("--alpha", type=float, help="tail index for quasispectral")

    p = command("mc", _cmd_mc, "Monte Carlo study over replications", model)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--k-fracs", type=_float_list, default="0.05,0.1,0.2,0.3,0.4")
    p.add_argument("--k-alpha-fracs", type=_float_list, default="0.2")
    p.add_argument(
        "--estimators",
        type=_comma_list,
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
