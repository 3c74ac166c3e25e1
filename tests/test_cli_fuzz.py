"""Grammar fuzz of the CLI: each command line exits 0 with its output, or 1 with one JSON error.

Command lines are built from ``cli._build_parser()``'s own actions: each
subcommand's flags, their choices and types, and its mutually exclusive
groups (mostly one flag of a group, sometimes none or two). Half of the
lines also keep the rules between flags that the parser cannot state (only
the chosen model's parameters; one curve grid with its level flags), so
more of them get past the flags to the data. Numeric flags take edge
numerals beside ordinary ones; ``--n`` and ``--reps`` take small sizes
only, or sizes that fail before anything is allocated (``--n`` 2^63 and
2^64), so no run holds more than a few MB or forks. Tables are small files
with ties, zeros, values near the double maximum or the least double, and
prices, read by name or from stdin.

Each command runs through ``cli.main`` in-process with warnings as errors
(the test configuration), and must either

- exit 0 with nothing on stderr and, on stdout or in its ``--out`` file,
  strict JSON (a NaN or infinity fails the parse) or the pinned CSV header,
  where every ``mc`` truth, the report's and each cell's, is empty (null) or
  in [0, 1];
- or exit 1 with nothing on stdout and exactly one JSON error object,
  ``{"error": {"type": ..., "message": ...}}``, on one line of stderr.
"""
import argparse
import contextlib
import io
import json
import sys
from dataclasses import fields
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import cotail.cli as cli
from cotail import ESTIMATORS
from cotail.simulate import MODELS

# the counts and lists below are fixed: add to them, never cut them
EXAMPLES = 300
EDGE_NUMERALS = [
    "0", "-0.0", "5e-324", "1e-320", "1e200", "1e308", "1.7976931348623157e308",
    "inf", "nan", "1e400", str(2**64), "1234567890123456789012",
    # bivariate-t --nu past the switch of its truth to the normal limit
    "1e8", "1e12", str(2**52 - 1),
]
# ordinary values of int and float flags, drawn three times as often as the edges
ORDINARY = {
    int: ["1", "2", "3", "4", "10", "-1"],
    float: ["0.05", "0.1", "0.2", "0.4", "0.5", "0.9", "1", "1.5", "2", "4"],
}
N_VALUES = ["1", "2", "3", "50", "200", "0", "-1", str(2**63), str(2**64)]
REPS_VALUES = [*map(str, range(1, 51)), "0", "-1"]

# the header of each command's CSV output, as README pins it
CSV_HEADERS = {
    "simulate": "x,y",
    "ingest": "x,y",
    "estimate": "estimator_id,n,k,k_alpha,y,value,plugin_variance,ci_level,ci_lo,ci_hi,"
                "alpha_used,alpha_source,p,extrapolation_factor,aleph_used",
    "curve": "estimator_id,k,y,value,plugin_variance",
    "mc": "estimator_id,k_frac,k_alpha_frac,mean,sd,q05,q25,q50,q75,q95,rep_count,failures,truth",
}

_PRICES = [100.0, 101.5, 99.0, 99.0, 120.0, 1e-300, 5.0, 7.5, 7.5, 1e300, 3.0, 3.25]
TABLES = {
    "ties": "x,y\n" + "".join(f"{x},{y}\n" for x, y in zip(
        [0, 1, 2, 2, 2, 2, 3, 3, 5, 5, 8, 8, 8, 0, 1, 2, 13, 13, 2, 21],
        [1, 0, 2, 4, 2, 0, 3, 9, 5, 1, 8, 0, 16, 0, 0, 2, 13, 1, 2, 40])),
    "zeros": "".join(f"{x},0\n" for x in [0, 0, 0, 1, 0, 2, 0, 0, 3, 0, 0, 4]),
    "huge": "".join(f"{x!r},{y!r}\n" for x, y in zip(
        [1.7976931348623157e308, 1e308, 8.9e307, 1e300, 5e307, 1.0, 2.0, 1.7e308],
        [1e308, 1.7976931348623157e308, 1.0, 9e307, 0.0, 1e308, 3.0, 1.7976931348623157e308])),
    "tiny": "".join(f"{x!r},{y!r}\n" for x, y in zip(
        [5e-324, 1e-320, 1e-200, 2e-200, 3e-200, 0.0, 1e-160, 4e-200],
        [1e-200, 5e-324, 2e-200, 0.0, 1e-200, 1e-300, 1e-160, 4e-200])),
    "prices": "a,b\n" + "".join(f"{p!r},{q!r}\n" for p, q in zip(_PRICES, _PRICES[::-1])),
    "pareto": "".join(f"{(i % 17 + 1) ** 1.5!r},{(i * 7 % 23) / 3!r}\n" for i in range(60)),
    "one_row": "3.0,4.0\n",
}
INPUTS = [*TABLES, "-", "missing"]


def _numeral_list(numerals):
    return st.lists(numerals, min_size=1, max_size=3).map(",".join)


NUMERALS = {
    kind: st.sampled_from([EDGE_NUMERALS, ordinary, ordinary, ordinary]).flatmap(st.sampled_from)
    for kind, ordinary in ORDINARY.items()
}
# the comma-list flags whose tokens are ids rather than numbers
ID_TOKENS = {
    "estimators": [name.replace("_", "-") for name in ESTIMATORS],
    "methods": [name[4:].replace("_", "-") for name in ESTIMATORS if name.startswith("tdc_")],
}


def _value(action: argparse.Action):
    """Values for one flag, from its choices, its type or, for a few flags, their own lists."""
    if action.choices is not None:
        return st.sampled_from([*action.choices] * 3 + ["nope"])
    if action.dest == "n":
        return st.sampled_from(N_VALUES)
    if action.dest == "reps":
        return st.sampled_from(REPS_VALUES)
    if action.dest == "input":
        return st.sampled_from(INPUTS)
    if action.dest == "out":
        return st.sampled_from(["-", "file", "no_such_dir/out"])
    if action.type is cli._float_list:
        return _numeral_list(NUMERALS[float])
    if action.type is cli._comma_list:
        return _numeral_list(st.sampled_from([*ID_TOKENS[action.dest]] * 3 + ["nope"]))
    return NUMERALS[action.type]


_SUBCOMMANDS = next(
    a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    sub = _SUBCOMMANDS[command]
    actions = {action.dest: action for action in sub._actions if action.dest != "help"}
    grouped = {id(a) for g in sub._mutually_exclusive_groups for a in g._group_actions}
    chosen = []
    for group in sub._mutually_exclusive_groups:
        count = draw(st.sampled_from([1] * 5 + [0, 2]))
        chosen += draw(st.permutations(group._group_actions))[:count]
    for action in actions.values():
        if not action.option_strings or id(action) in grouped:
            continue
        odds = [True] * 19 + [False] if action.required else [True, False, False, False]
        if draw(st.sampled_from(odds)):
            chosen.append(action)
    values = {action.dest: draw(_value(action)) for action in chosen}
    if draw(st.booleans()):
        # half of the lines keep the rules the parser cannot state: only the
        # chosen model's parameters; for curve one grid, a --y-grid sweep
        # with --k or --k-frac and no --y, a --k-grid sweep with neither
        if values.get("model") in MODELS:
            own = {f.name for f in fields(MODELS[values["model"]])}
            for model in MODELS.values():
                for name in {f.name for f in fields(model)} - own:
                    values.pop(name, None)
        if command == "curve":
            grid = draw(st.sampled_from(["y_grid", "k_grid"]))
            drop = {"y", "k_grid"} if grid == "y_grid" else {"k", "k_frac", "y_grid"}
            values = {dest: value for dest, value in values.items() if dest not in drop}
            needed = [grid, "alpha"] + (["k_frac"] if grid == "y_grid" else [])
            for dest in needed:
                if dest not in values and not (dest == "k_frac" and "k" in values):
                    values[dest] = draw(_value(actions[dest]))
    flags = [(actions[dest].option_strings[0], value) for dest, value in values.items()]
    return [command, *(token for flag in draw(st.permutations(flags)) for token in flag)]


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, text in TABLES.items():
        paths[name] = root / f"{name}.csv"
        paths[name].write_text(text)
    paths["missing"] = root / "missing.csv"
    return root, paths


@settings(max_examples=EXAMPLES, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command_lines(), st.sampled_from(sorted(TABLES)))
def test_every_command_line_exits_0_with_its_output_or_1_with_one_json_error(
    tables, argv, stdin_table
):
    root, paths = tables
    out_file = root / "out"
    out_file.unlink(missing_ok=True)
    # the names of --input and --out values, which no other token spells
    places = {**{name: str(path) for name, path in paths.items()},
              "file": str(out_file), "no_such_dir/out": str(root / "no_such_dir" / "out")}
    argv = [places.get(token, token) for token in argv]
    stdin = io.TextIOWrapper(io.BytesIO(TABLES[stdin_table].encode()))
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", stdin), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    out, err = stdout.getvalue(), stderr.getvalue()
    event(f"{argv[0]} exits {code}")
    if code == 1:
        assert out == "", argv
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
        payload = json.loads(err, parse_constant=_no_constant)
        assert list(payload) == ["error"], (argv, err)
        assert set(payload["error"]) == {"type", "message"}, (argv, err)
        assert all(isinstance(v, str) for v in payload["error"].values()), (argv, err)
        return
    assert (code, err) == (0, ""), (argv, code, err)
    if "--out" in argv and argv[argv.index("--out") + 1] != "-":
        assert out == "", argv
        out = out_file.read_text()
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        payload = json.loads(out, parse_constant=_no_constant)
        assert isinstance(payload, dict), argv
        if argv[0] == "mc":
            truths = [payload["truth"], *(row["truth"] for row in payload["rows"])]
    else:
        assert out.split("\n", 1)[0] == CSV_HEADERS[argv[0]], (argv, out[:200])
        if argv[0] == "mc":
            truths = [line.rsplit(",", 1)[1] or None for line in out.splitlines()[1:]]
    if argv[0] == "mc":
        # a tail dependence coefficient, or none where the cell has no truth
        assert all(t is None or 0.0 <= float(t) <= 1.0 for t in truths), (argv, truths)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")
