"""The cotail benchmark: three closed-loop workloads with output checks.

    python3 perfbench/run.py --workload mc_linear_n1k --seed 1 --seconds 20 --trace 0

Workloads (one caller waits for each step; the program under test is the
checkout's ``src``):

- ``mc_linear_n1k``: ``run_mc`` on the criterion-1 study (15 cells).
- ``mc_bivt_n1k``: ``run_mc`` on the criterion-4 configuration, 4000 reps.
- ``cli_csv_1m``: four ``python -m cotail.cli`` processes in sequence
  (simulate, ingest, estimate, curve) on 1M-row tables.
- ``all``: the three above in turn, for a human reader.

With ``--trace 0`` the last line reports the end-to-end metrics
``scaled_wall_s`` (the timed operation), ``setup_s`` (a fresh interpreter's
import) and ``peak_rss_mb``. Both times are lower quartiles over the run,
scaled to a fixed machine speed by a reference kernel timed beside them
(calibrate.py); the lines before the last also print the raw ``wall_s`` and
``raw_setup_s``, the kernel's time, ``error_rate`` and, for ``cli_csv_1m``,
each command's time. With
``--trace 1`` untraced and traced operations alternate and the last line
reports the per-layer metrics (see layers.py). Every output is checked
(checks.py); a failed check fails its operation and clears ``correct``.

Children get PYTHONPATH=src and one BLAS/OpenMP thread each. Scratch files go
to ``.perfbench_work/`` in the checkout and are removed at exit.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

import calibrate
import checks
import inputs
import layers
import studies

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MC_WORKLOADS = ("mc_linear_n1k", "mc_bivt_n1k")
WORKLOADS = MC_WORKLOADS + ("cli_csv_1m",)
SETUP_RUNS = 5  # timed fresh-interpreter imports per run, after one warm-up
IMPORT_PROFILE_RUNS = 3
CHILD_TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class Tally:
    """Operations attempted and failed; a failed output check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv: list[str], stderr_path: Path | None = None) -> tuple[float, int, float]:
    """Run to completion; return (wall seconds, exit code, peak RSS in MB)."""
    stderr = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
    try:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=stderr)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stderr_path:
            stderr.close()
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def tail(path: Path, chars: int = 400) -> str:
    try:
        return path.read_text(encoding="utf-8", errors="replace")[-chars:].strip()
    except OSError:
        return ""


def measure_setup(statement: str, work: Path) -> tuple[list[float], list[float]]:
    """Walls of fresh interpreters running ``statement``, each followed by a kernel run."""
    argv = [sys.executable, "-c", statement]
    err = work / "setup.err"
    run_child(argv, err)  # warm-up: bytecode caches and page cache
    walls, kernel_walls = [], []
    for _ in range(SETUP_RUNS):
        wall, code, _ = run_child(argv, err)
        if code != 0:
            raise RuntimeError(f"{statement!r} exited {code}: {tail(err)}")
        walls.append(wall)
        kernel_walls.append(calibrate.timed_kernel())
    return walls, kernel_walls


def import_profile(statement: str, work: Path) -> dict:
    """setup.numpy.s / setup.scipy.s / setup.cotail.s from ``-X importtime``.

    Each is the summed self time of the package's modules, median of runs.
    """
    argv = [sys.executable, "-X", "importtime", "-c", statement]
    err = work / "importtime.err"
    run_child(argv, err)
    runs = []
    for _ in range(IMPORT_PROFILE_RUNS):
        code = run_child(argv, err)[1]
        if code != 0:
            raise RuntimeError(f"{statement!r} exited {code}: {tail(err)}")
        totals = {"numpy": 0, "scipy": 0, "cotail": 0}
        for line in err.read_text(encoding="utf-8").splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            top = name.strip().split(".")[0]
            if top in totals:
                totals[top] += int(self_us)
        runs.append(totals)
    return {
        f"setup.{pkg}.s": {"value": statistics.median(r[pkg] for r in runs) / 1e6, "unit": "s"}
        for pkg in ("numpy", "scipy", "cotail")
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def median_metrics(per_op: list[dict]) -> dict:
    """Median of each metric over operations (counts repeat exactly)."""
    out = {}
    for name in per_op[0]:
        values = [m[name]["value"] for m in per_op if name in m]
        value = values[0] if len(set(values)) == 1 else statistics.median(values)
        out[name] = {"value": value, "unit": per_op[0][name]["unit"]}
    return out


def run_mc_workload(study: str, seed: int, seconds: float, trace: int, work: Path):
    tally, notes = Tally(), {}
    program_seed = inputs.derived_seed(seed, inputs.TAGS[study])
    spec = studies.MC_STUDIES[study]
    notes["program_seed"] = program_seed
    notes["input"] = {"n": spec["n"], "reps": spec["reps"],
                      "cells": len(checks.expected_cells(study))}
    # set-up first: its fresh interpreters also bring the vCPU up to speed
    setup = measure_setup("import cotail", work) if not trace else None
    out, err = work / "mc.json", work / "mc.err"
    argv = [sys.executable, str(HERE / "mc_child.py"), "--study", study,
            "--seed", str(program_seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(out)]
    child_wall, code, rss = run_child(argv, err)
    if code != 0 or not out.exists():
        tally.record([f"{study} child exited {code}: {tail(err)}"])
        walls, traced_walls, result = [child_wall], [child_wall], None
    else:
        result = json.loads(out.read_text(encoding="utf-8"))
        problems = checks.check_mc(study, result["first_cells"]) if result["first_cells"] else []
        for op in result["ops"]:
            if op["error"]:
                tally.record([f"run_mc raised: {op['error']}"])
            elif not op["same_as_first"]:
                what = "traced summary" if op["traced"] else "repeat"
                tally.record([f"{what} differs from the first summary"])
            else:
                tally.record(problems)
        walls = [op["wall"] for op in result["ops"] if not op["traced"]]
        traced_walls = [op["wall"] for op in result["ops"] if op["traced"]]
    notes["operations"] = f"{len(walls)} untraced run_mc calls"

    kernel_walls = result["kernel_walls"] if result else [calibrate.timed_kernel()]
    if not trace:
        metrics, notes["shown"] = end_to_end(walls, kernel_walls, setup, rss)
        notes["wall_s quartiles"] = quartiles(walls)
        return tally, metrics, notes

    metrics = {}
    if result and result["counters"]:
        metrics = median_metrics([layers.metrics_from_counters(c) for c in result["counters"]])
        notes["missing_bindings"] = result["missing"]
        notes["attached_bindings"] = len(result["attached"])
    metrics.update(import_profile("import cotail", work))
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(traced_walls) / statistics.median(walls), "unit": "ratio"}
    metrics["trace.wall_s"] = {"value": statistics.median(traced_walls), "unit": "s"}
    notes["traced_shares"] = layer_shares(metrics)
    metrics.update(untraced_times(walls, kernel_walls))
    for command in ("simulate", "ingest", "estimate", "curve"):
        metrics[f"{command}_s"] = {"value": 0.0, "unit": "s"}  # no CLI command here
    return tally, metrics, notes


def run_cli_workload(seed: int, seconds: float, trace: int, work: Path):
    sys.path.insert(0, str(SRC))  # the simulate check re-draws the sample in-process
    tally, notes = Tally(), {}
    files = {name: str(work / f"{name}.{ext}") for name, ext in (
        ("prices", "csv"), ("pairs", "csv"), ("simulate", "csv"), ("ingest", "csv"),
        ("estimate", "json"), ("curve", "csv"))}
    p1, p2 = inputs.price_table(seed, studies.PRICE_ROWS)
    x, y = inputs.pair_table(seed, studies.CLI_ROWS)
    for name, (a, b, header) in {"prices": (p1, p2, "p1,p2"), "pairs": (x, y, "x,y")}.items():
        Path(files[name]).write_text(inputs.table_text(a, b, header), encoding="utf-8")
    program_seed = inputs.derived_seed(seed, inputs.TAGS["cli_simulate"])
    notes["program_seed"] = program_seed
    notes["input_rows"] = {"prices": int(p1.size), "pairs": int(x.size)}
    notes["input_bytes"] = {n: os.path.getsize(files[n]) for n in ("prices", "pairs")}

    def check(command: str, text: str) -> list[str]:
        if command == "simulate":
            from cotail import LinearParetoModel, ModelConfig, sample_dataset

            model = LinearParetoModel(**studies.CLI_SIMULATE)
            want = sample_dataset(ModelConfig(model, n=studies.CLI_ROWS, seed=program_seed))
            return checks.check_simulate(text, want.x, want.y)
        if command == "ingest":
            return checks.check_ingest(text, p1, p2)
        if command == "estimate":
            return checks.check_estimate(text, x, y)
        return checks.check_curve(text, x, y)

    # set-up first: like the table writing above, it brings the vCPU up to speed
    setup = measure_setup("import cotail.cli", work) if not trace else None
    checked: dict[str, str] = {}  # command -> digest of an output that passed
    kernel_walls: list[float] = []
    rounds: list[dict] = []
    counters: dict = {}
    missing: set[str] = set()
    start = perf_counter()
    while len(rounds) < 2 or perf_counter() - start < seconds:
        traced = bool(trace) and len(rounds) % 2 == 1
        walls, rss = {}, {}
        for command in studies.CLI_COMMANDS:
            cli_args = studies.cli_argv(command, program_seed, files)
            trace_out = work / f"{command}.trace.json"
            if traced:
                argv = [sys.executable, str(HERE / "cli_child.py"),
                        "--trace-out", str(trace_out), "--", *cli_args]
            else:
                argv = [sys.executable, "-m", "cotail.cli", *cli_args]
            err = work / f"{command}.err"
            walls[command], code, rss[command] = run_child(argv, err)
            if not traced:
                kernel_walls.append(calibrate.timed_kernel())
            output = Path(files[command])
            if code != 0 or not output.exists():
                tally.record([f"{command} exited {code}: {tail(err)}"])
                continue
            data = output.read_bytes()
            output.unlink()
            digest = hashlib.sha256(data).hexdigest()
            if command in checked:
                same = digest == checked[command]
                tally.record([] if same else [
                    f"{'traced ' if traced else ''}{command} output differs from the checked one"])
            else:
                problems = check(command, data.decode("utf-8"))
                tally.record(problems)
                if not problems:
                    checked[command] = digest
            if traced and trace_out.exists():
                part = json.loads(trace_out.read_text(encoding="utf-8"))
                layers.add_counters(counters, part["counters"])
                missing.update(part["missing"])
                notes["attached_bindings"] = len(part["attached"])
        rounds.append({"traced": traced, "walls": walls, "rss": rss})

    plain = [r for r in rounds if not r["traced"]]
    per_command = {c: statistics.median(r["walls"].get(c, 0.0) for r in plain)
                   for c in studies.CLI_COMMANDS}
    round_walls = [sum(r["walls"].values()) for r in plain]
    notes["operations"] = f"{len(plain)} untraced rounds of {len(studies.CLI_COMMANDS)} commands"
    notes["wall_s quartiles"] = quartiles(round_walls)
    if not trace:
        rss = statistics.median(max(r["rss"].values(), default=0.0) for r in plain)
        metrics, notes["shown"] = end_to_end(round_walls, kernel_walls, setup, rss)
        notes["shown"].update({f"{c}_s": {"value": v, "unit": "s"} for c, v in per_command.items()})
        return tally, metrics, notes

    traced_walls = [sum(r["walls"].values()) for r in rounds if r["traced"]]
    metrics = layers.metrics_from_counters(counters)
    # counters are summed over traced rounds: report them per round
    n_traced = len(traced_walls)
    for value in metrics.values():
        if n_traced > 1 and value["unit"] != "ratio":
            value["value"] = value["value"] / n_traced
    notes["missing_bindings"] = sorted(missing)
    metrics.update(import_profile("import cotail.cli", work))
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(traced_walls) / statistics.median(round_walls),
        "unit": "ratio"}
    metrics["trace.wall_s"] = {"value": statistics.median(traced_walls), "unit": "s"}
    notes["traced_shares"] = layer_shares(metrics)
    metrics.update(untraced_times(round_walls, kernel_walls))
    for command, value in per_command.items():
        metrics[f"{command}_s"] = {"value": value, "unit": "s"}
    return tally, metrics, notes


def end_to_end(walls: list[float], kernel_walls: list[float],
               setup: tuple[list[float], list[float]], rss: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and the raw times they come from (printed only).

    Each time is scaled by the reference kernel runs timed beside it
    (calibrate.py), so that a slow spell of the shared host does not read as
    a slower program.
    """
    metrics = {
        "scaled_wall_s": {"value": calibrate.scaled(walls, kernel_walls), "unit": "s"},
        "setup_s": {"value": calibrate.scaled(*setup), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    raw = untraced_times(walls, kernel_walls)
    raw["raw_setup_s"] = {"value": calibrate.lower_quartile(setup[0]), "unit": "s"}
    return metrics, raw


def untraced_times(walls: list[float], kernel_walls: list[float]) -> dict:
    """Per-layer view of the untraced operations: raw time and the kernel's time."""
    return {
        "wall_s": {"value": calibrate.lower_quartile(walls), "unit": "s"},
        "kernel_s": {"value": calibrate.lower_quartile(kernel_walls), "unit": "s"},
    }


def layer_shares(metrics: dict) -> dict:
    """Each layer's self time as a share of the traced wall time.

    ``unattributed`` is interpreter start, imports and the benchmark's own
    driving code.
    """
    wall = metrics["trace.wall_s"]["value"]
    shares = {
        name: round(m["value"] / wall, 4)
        for name, m in metrics.items()
        if name in layers.METRICS and m["unit"] == "s" and m["value"] > 0
    }
    shares["unattributed"] = round(1.0 - sum(shares.values()), 4)
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [round(values[0], 4)] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [round(q1, 4), round(q2, 4), round(q3, 4)]


# ---------------------------------------------------------------------------
# provenance and entry point
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def src_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "cotail").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_commit": git_commit(), "src_sha256": src_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy_version, "nproc": os.cpu_count(), "machine": platform.machine(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    work = WORK / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if workload in MC_WORKLOADS:
            return run_mc_workload(workload, seed, seconds, trace, work)
        return run_cli_workload(seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


def report(workload: str, prov: dict, tally: Tally, metrics: dict, notes: dict) -> None:
    shown = notes.pop("shown", {})
    print(f"[perfbench] provenance {json.dumps({**prov, **notes}, sort_keys=True)}")
    for name, m in {**metrics, **shown}.items():
        print(f"[perfbench] {workload} {name:<26} {m['value']:.6g} {m['unit']}")
    print(f"[perfbench] {workload} {'error_rate':<26} {tally.error_rate:.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations failed)")
    for problem in tally.problems[:20]:
        print(f"[perfbench] {workload} FAILED CHECK: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cotail" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'cotail'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total, merged = Tally(), {}
    for name in names:
        tally, metrics, notes = run_workload(name, args.seed, args.seconds, args.trace)
        report(name, provenance(name, args.seed, args.seconds, args.trace), tally, metrics, notes)
        total.attempted += tally.attempted
        total.failed += tally.failed
        prefix = f"{name}." if len(names) > 1 else ""
        merged.update({prefix + k: v for k, v in metrics.items()})
    result = {
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": merged,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
