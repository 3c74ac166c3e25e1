"""Run the benchmark on a parent commit and on a change in alternating pairs; write a BENCH file.

    python3 tools/bench_pairs.py --parent <rev> --out BENCH_<n>.json \
        [--change <rev>] [--pairs 10] [--seconds 20] [--seed 23] [--workloads a,b]
    python3 tools/bench_pairs.py --rejudge BENCH_<n>.json

Both sides are ``git archive`` copies in a scratch directory: the parent at
``--parent``, the change at ``--change`` or, by default, the working tree
(tracked and staged files, as ``git stash create`` records them; untracked
files under ``src/`` are refused). Each side runs its own unchanged
``perfbench/run.py --trace 0`` once per workload and pair. Within a workload
the pairs alternate which side runs first, and pair i runs seed + i on both
sides.

The BENCH file holds, per workload and end-to-end metric of
``BENCHMARK.json``, each side's runs, median and quartiles, the pairs in which
the change read better, and a verdict against the metric's bound:

- ``gain``: better in at least 9 of 10 pairs, by more in the median than the
  parent's interquartile range, with no more operations failed than at the
  parent;
- ``unresolved``: the parent's own interquartile range, over its median, is
  wider than the bound, and not every change run reads better than every
  parent run;
- ``within bound``: the change's median is no worse than the parent's by more
  than the bound;
- ``worse than bound``: the rest.

``--rejudge BENCH.json`` gives the verdicts again from the runs a BENCH file
records, and rewrites it, without running anything.

It also records the operations attempted and failed, the usable CPUs, numpy's
version and SIMD dispatch, and both revisions. The bounds are read, never
changed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The files of ``rev`` at ``dest``, from ``git archive``."""
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as out:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=out)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def change_revision(change: str | None) -> dict:
    """The change's commit, or a commit of the working tree made by ``git stash create``."""
    if change is not None:
        return {"rev": git("rev-parse", change), "working_tree": False}
    untracked = git("ls-files", "--others", "--exclude-standard", "src")
    if untracked:
        raise SystemExit(f"untracked files under src/ would be left out: {untracked.split()}")
    stash = git("stash", "create")
    return {"rev": stash or git("rev-parse", "HEAD"), "working_tree": bool(stash),
            "base": git("rev-parse", "HEAD")}


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def simd() -> dict:
    try:
        from numpy._core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
    except ImportError:
        return {}
    return {"baseline": list(__cpu_baseline__),
            "dispatch": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]}


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run: its end-to-end metrics and operation counts."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=20 * seconds + 900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} in {root} exited {proc.returncode}: {proc.stderr[-800:]}")
    result = json.loads(lines[-1])
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"]}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": values}


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            more_failed: bool) -> dict:
    """The change's runs of one metric against the parent's; ``more_failed``: more failures."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = spread(parent), spread(change)
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    worse_by = sign * (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    wide = p["iqr"] / p["median"] > bound if p["median"] else False
    if (wins >= 0.9 * len(parent) and sign * (p["median"] - c["median"]) > p["iqr"]
            and not more_failed):
        word = "gain"
    elif wide and not all(sign * (b - a) < 0 for a in parent for b in change):
        word = "unresolved"
    elif worse_by <= bound:
        word = "within bound"
    else:
        word = "worse than bound"
    return {"parent": p, "change": c, "change_better_in": wins, "pairs": len(parent),
            "median_ratio": c["median"] / p["median"] if p["median"] else None,
            "bound": bound, "better": better, "verdict": word}


def judge(bench: dict, values: dict, operations: dict) -> dict:
    """Each end-to-end metric's verdict from ``values[metric][side]``, the runs of each side."""
    share = {s: ops["failed"] / ops["attempted"] if ops["attempted"] else 0.0
             for s, ops in operations.items()}
    return {m["name"]: verdict(values[m["name"]]["parent"], values[m["name"]]["change"],
                               m["better"], m["bound"], share["change"] > share["parent"])
            for m in bench["end_to_end"]}


def rejudge(path: Path, bench: dict) -> dict:
    """A BENCH file's verdicts given again from the runs it records."""
    out = json.loads(path.read_text(encoding="utf-8"))
    for entry in out["workloads"].values():
        values = {name: {s: m[s]["runs"] for s in ("parent", "change")}
                  for name, m in entry["metrics"].items()}
        entry["metrics"] = judge(bench, values, entry["operations"])
    return out


def show(report: dict) -> None:
    for workload, entry in report.items():
        for name, m in entry["metrics"].items():
            print(f"{workload:<14} {name:<14} parent {m['parent']['median']:.4g} "
                  f"(IQR {m['parent']['iqr']:.3g}) change {m['change']['median']:.4g} "
                  f"(IQR {m['change']['iqr']:.3g}) better in {m['change_better_in']}/"
                  f"{m['pairs']}, bound {m['bound']:.0%}: {m['verdict']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent")
    parser.add_argument("--change", help="default: the working tree")
    parser.add_argument("--out")
    parser.add_argument("--rejudge", help="a BENCH file to give the verdicts of again")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--workloads", help="comma list; default: every workload")
    parser.add_argument("--work", help="scratch directory; default: a temporary one, removed")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.rejudge:
        path = Path(args.rejudge)
        out = rejudge(path, bench)
        path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
        show(out["workloads"])
        return 0
    if not (args.parent and args.out):
        parser.error("--parent and --out are required to run the pairs")
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    sides = {"parent": {"rev": git("rev-parse", args.parent)},
             "change": change_revision(args.change)}
    work = Path(args.work or tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        for name, side in sides.items():
            export(side["rev"], work / name)
            side["src_sha256"] = src_digest(work / name)
        runs = {w: {"parent": [], "change": []} for w in workloads}
        for workload in workloads:
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for name in order:
                    result = run_side(work / name, workload, args.seed + i, seconds)
                    runs[workload][name].append(result)
                    shown = {k: round(v, 4) for k, v in result["metrics"].items()}
                    print(f"{workload} pair {i + 1} {name}: {shown}", flush=True)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)

    report = {}
    for workload, by_side in runs.items():
        operations = {s: {"attempted": sum(r["attempted"] for r in rs),
                          "failed": sum(r["failed"] for r in rs)}
                      for s, rs in by_side.items()}
        values = {m["name"]: {s: [r["metrics"][m["name"]] for r in rs]
                              for s, rs in by_side.items()}
                  for m in bench["end_to_end"]}
        report[workload] = {"pairs": args.pairs, "metrics": judge(bench, values, operations),
                            "operations": operations}
    out = {
        "command": [Path(sys.argv[0]).name, *(argv if argv is not None else sys.argv[1:])],
        "revisions": sides,
        "settings": {"seconds": seconds, "seeds": [args.seed + i for i in range(args.pairs)],
                     "pairs": args.pairs, "order": "alternating, parent first in pair 1"},
        "host": {"usable_cpus": usable_cpus(), "cpu_count": os.cpu_count(),
                 "machine": platform.machine(), "python": platform.python_version(),
                 "numpy": np.__version__, "simd": simd()},
        "workloads": report,
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    show(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
