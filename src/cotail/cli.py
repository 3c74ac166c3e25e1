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

Parsing a table and writing a sample, as CSV or JSON, run in contiguous
blocks, one per usable CPU, through the fork-join that runs ``mc``'s
replications. A table, named file or stdin, is read as bytes and cut into
byte blocks at line ends, wherever ``str.splitlines`` breaks the UTF-8 text
(never inside CRLF). A leading byte order mark and the first non-blank line,
a header or not, are judged first; every row is read in a block. numpy's C
text reader converts a block whose rows hold only digits, ``.,eE+-`` and LF
or CRLF newlines with the routine ``float()`` uses, skipping blank lines. A
block with any other byte (spaces, U+001F, non-ASCII, ``1_0``, ``nan``,
invalid UTF-8), or one numpy refuses (a lone CR, a wrong column count, an
empty cell), is decoded and read line by line on its own. Each sample's blocks are
written in order, never joined. The values, the bytes written and every
error's text are the same for any block count (``taskset -c 0`` gives the
same bytes), and there is no option for it.

Every failure, a command line that argparse rejects included, writes one JSON
object {"error": {"type": ..., "message": ...}} to stderr and exits 1. A
rejected command line, and each rule on the flags that a subcommand below
checks first (--y with --y-grid, a missing --k, the --y-grid order, theta
without --p, ...), fails before any input is read. Every other parameter
value, a parameter an estimator requires included, is judged by the
library's rules after the read. --help exits 0.
"""
from __future__ import annotations

import argparse
import codecs
import errno
import io
import json
import os
import re
import sys
from contextlib import contextmanager, suppress
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
from .tail_index import sweep_alphas

TRANSFORMS = ("none", "abs-log-returns")

# Sample rows are written in blocks of at least this many, one per usable
# CPU: a fork and join from a CLI-sized heap costs about 6-12 ms, 50000 rows
# take about 100 ms to write.
_MIN_ROWS = 50_000
# A table's byte blocks hold at least this many bytes: numpy's reader
# takes about 30 ms a MiB of repr floats (about 28000 rows) on a 2-vCPU
# host, where a fork and join holding the table's bytes takes 6-11 ms.
_MIN_BYTES = 1 << 20
# the only bytes a byte block may hold
_ROW_BYTES = b"0123456789.,eE+-\r\n"
# the UTF-8 of every line end str.splitlines breaks at, CRLF as one
_LINE_END = re.compile(rb"\r\n?|[\n\x0b\x0c\x1c-\x1e]|\xc2\x85|\xe2\x80[\xa8\xa9]")

# a row is the cell key, then the McCell as it is
MC_COLUMNS = ("estimator_id", "k_frac", "k_alpha_frac", *(f.name for f in fields(McCell)))

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

def _parse_table(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """A table's two float columns, every row read in byte blocks by ``_run_blocks``.

    After a leading byte order mark, lines are decoded one at a time up to
    the first non-blank one. That line is a header unless every cell passes
    ``float()``. The blocks start after it if it is a header, else at it;
    each holds at least ``_MIN_BYTES`` bytes and is cut at a ``_line_start``.
    Rows are numbered among non-blank lines, the header included.
    """
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    lines: list[str] = []
    while not lines and start < len(data):
        head, start = start, _line_start(data, start + 1)
        lines = _lines(data, head, start)
    if not lines:
        raise ParseError("input contains no rows")
    header = int(_is_header(lines[0]))
    body = start if header else head
    parts = _run_blocks(
        len(data) - body, lambda lo, hi: _parse_block(data, body, lo, hi), _MIN_BYTES
    )
    row = header
    for _, count, fault in parts:  # no block raised: an invalid byte wins over a bad row
        if fault is not None:
            raise ParseError(f"row {row + count + 1}: {fault}")
        row += count
    if row == header:
        raise ParseError("input contains no data rows")
    table = np.concatenate([rows for rows, _, _ in parts])
    return table[:, 0], table[:, 1]


def _is_header(line: str) -> bool:
    """The first non-blank line is a header unless every cell passes ``float()``."""
    try:
        for cell in line.split(","):
            float(cell)
    except ValueError:
        return True
    return False


def _parse_block(data: bytes, body: int, lo: int, hi: int) -> tuple[np.ndarray, int, str | None]:
    """The rows that start in bytes body+lo..body+hi-1, as ``_parse_rows`` returns them.

    numpy's text reader converts each cell with ``PyOS_string_to_double``,
    the routine ``float()`` uses (tests/test_cli.py pins the two together).
    It is given a block of digits, ``.,eE+-``, CR and LF bytes only, and
    skips blank lines as the per-line rules do; a block of blank lines alone
    is no rows, without calling numpy (which warns on a block with no data).
    numpy ends a line at LF or CRLF and refuses a lone CR with data after
    it, so a block it reads gives the per-line rules' rows. A block with
    any other byte (spaces, U+001F, non-ASCII, ``_``, ``nan``), or one numpy
    refuses (a lone CR, a wrong column count, an empty cell), takes the
    per-line rules.
    """
    start = body if lo == 0 else _line_start(data, body + lo)
    end = _line_start(data, body + hi)
    block = data[start:end]
    if not block.strip(b"\r\n"):  # no line starts in this block, or only blank ones
        return np.empty((0, 2)), 0, None
    if not block.translate(None, _ROW_BYTES):
        with suppress(ValueError):  # numpy refuses the block
            table = np.loadtxt(io.BytesIO(block), delimiter=",", comments=None, ndmin=2)
            if table.shape[1] == 2:
                return table, len(table), None
    return _parse_rows(_lines(data, start, end))


def _line_start(data: bytes, i: int) -> int:
    """Just after the first ``_LINE_END`` found from byte i - 1 on (i > 0), else the end."""
    found = _LINE_END.search(data, i - 1)
    return found.end() if found else len(data)


def _lines(data: bytes, start: int, end: int) -> list[str]:
    """The non-blank lines of bytes start..end-1 as ``str.splitlines`` cuts the UTF-8 text.

    An invalid byte is a ``UnicodeDecodeError`` at its position in data.
    """
    try:
        text = str(memoryview(data)[start:end], "utf-8")
    except UnicodeDecodeError as exc:
        raise UnicodeDecodeError(
            exc.encoding, data, start + exc.start, start + exc.end, exc.reason
        ) from None
    # float() ignores the same surrounding whitespace as str.strip(), except
    # U+001F; mapping it to a space keeps cells stripped without a per-cell strip
    return [line for line in text.replace("\x1f", " ").splitlines() if line.strip()]


def _parse_rows(lines: list[str]) -> tuple[np.ndarray, int, str | None]:
    """The per-line rules: the lines' ``float()`` values as an (r, 2) array, r, None.

    At the first bad line, i lines in: no rows, i, and the fault's text.
    """
    values: list[float] = []
    for i, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) != 2:
            return np.empty((0, 2)), i, f"expected 2 columns, got {len(cells)}"
        try:
            values += (float(cells[0]), float(cells[1]))
        except ValueError:
            return np.empty((0, 2)), i, "non-numeric cell"
    return np.array(values, dtype=float).reshape(-1, 2), len(lines), None


def ingest_text(data: bytes, transform: str = "none") -> BivariateSample:
    """Parse a two-column table's bytes, optionally mapping prices to |log-returns|."""
    transform = transform.replace("_", "-")
    if transform not in TRANSFORMS:
        raise ValueError(f"unknown transform {transform!r}, expected {TRANSFORMS}")
    first, second = _parse_table(data)
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

def _std(name: str):
    """``sys.stdin`` or ``sys.stdout``; one closed when Python started (None) is an OSError."""
    stream = getattr(sys, name)
    if stream is None:
        raise OSError(errno.EBADF, f"{name} is closed")
    return stream


def _read_text(path: str) -> bytes:
    """The bytes of the table at --input, stdin's for '-', for ``ingest_text``."""
    if path == "-":
        return _std("stdin").buffer.read()
    return Path(path).read_bytes()


@contextmanager
def _output(path: str):
    """stdout for '-', else the file, created or truncated, as UTF-8 text."""
    if path == "-":
        yield _std("stdout")
    else:
        with open(path, "w", encoding="utf-8") as out:
            yield out


def _write_text(out, text: str) -> None:
    """Every piece of text the CLI writes passes here (perfbench times and counts it)."""
    out.write(text)


def _csv_lines(rows, width: int) -> str:
    """The one CSV row writer: a line per row; a cell is str(value), for a float its exact repr."""
    line = (",".join(["{}"] * width) + "\n").format
    return "".join(starmap(line, rows))


def _emit(args, columns, rows, extra: dict | None = None) -> None:
    # each row is projected onto the columns: a field it lacks is None, an empty CSV cell
    rows = [{c: row.get(c) for c in columns} for row in rows]
    if args.format == "csv":
        values = (["" if v is None else v for v in row.values()] for row in rows)
        text = ",".join(columns) + "\n" + _csv_lines(values, len(columns))
    else:
        text = json.dumps({**(extra or {}), "rows": rows}, indent=2) + "\n"
    with _output(args.out) as out:
        _write_text(out, text)


def _sample_payload(args, sample: BivariateSample) -> None:
    """The sample as CSV rows or a JSON object, formatted in blocks by ``_run_blocks``.

    Each block's text is written as it is, in block order, never joined.
    """

    def rows(lo: int, hi: int):
        x, y = sample.x[lo:hi].tolist(), sample.y[lo:hi].tolist()
        if args.format == "csv":
            return _csv_lines(zip(x, y), 2)
        # each column's items, unbracketed; json.dumps separates items with ", "
        sep = ", " if lo else ""
        return [sep + json.dumps(x)[1:-1], sep + json.dumps(y)[1:-1]]

    blocks = _run_blocks(sample.n, rows, _MIN_ROWS)
    if args.format == "csv":
        pieces = ["x,y\n", *blocks]
    else:
        xs, ys = zip(*blocks)
        pieces = ['{"x": [', *xs, '], "y": [', *ys, "]}\n"]
    with _output(args.out) as out:
        for piece in pieces:
            _write_text(out, piece)


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


def _sweep(args, sample: BivariateSample, ks: list, hill: bool) -> LevelSweep:
    """One sweep at every k and, if ``hill``, at each k's k_alpha.

    Each Hill step then reads this sweep, sorted once, rather than a one-level
    sweep of its own (``tail_index.sweep_alphas``). A k_alpha outside [1, n - 1] is no level: the reader that takes it names
    it in its error, after the rows read before it.
    """
    n = sample.n
    k_alphas = [_k_alpha(args, k, n) for k in ks] if hill else []
    levels = [*ks, *(ka for ka in k_alphas if 1 <= ka <= n - 1)]
    return LevelSweep(sample, tuple(dict.fromkeys(levels)))


def _cmd_estimate(args) -> None:
    _require_k(args)
    if args.estimator == "theta" and args.p is None:
        raise ValueError("theta requires --p")
    sample = _load_sample(args)
    k = _resolve_count(args.k, args.k_frac, sample.n, "k")
    name = _registry_id(args.estimator)
    theta = name == "theta"
    hill = args.alpha is None if theta else "k_alpha" in ESTIMATORS[name].params
    sweep = _sweep(args, sample, [k], hill)
    if theta:
        row = _theta_report(args, sweep, k)
    else:
        est, row = _report_row(args, sweep, name, k, args.y)
        lo, hi = confidence_interval(est, args.ci_level)
        row.update(ci_level=args.ci_level, ci_lo=lo, ci_hi=hi)
    _emit(args, REPORT_COLUMNS, [{"n": sample.n, **row}])


def _theta_report(args, sweep: LevelSweep, k: int) -> dict:
    """theta_hat composes a Hill or supplied alpha, a CTE coefficient and k."""
    k_alpha = None if args.alpha is not None else _k_alpha(args, k, sweep.n)
    alpha = args.alpha if k_alpha is None else unwrap(sweep_alphas(sweep, k_alpha)[0])
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
    sweep = _sweep(args, sample, ks, any("k_alpha" in ESTIMATORS[name].params for name in names))
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
        {"estimator_id": name, "k_frac": kf, "k_alpha_frac": kaf, **asdict(cell)}
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
