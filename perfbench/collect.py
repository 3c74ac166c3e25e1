"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 perfbench/collect.py --workloads mc_linear_n1k,cli_csv_1m \
        --seeds 1-10 --out summary.json [--traced]

For each workload and end-to-end metric this reports the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, next to the bound in BENCHMARK.json. ``--traced`` adds
one traced run per workload on the first seed. Seeds run in the outer loop,
so slow drift of the machine affects every workload alike.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    prov = next((json.loads(line.split(" ", 2)[2]) for line in lines
                 if line.startswith("[perfbench] provenance ")), {})
    return {"seed": seed, "result": result, "provenance": prov, "stderr": proc.stderr[-800:]}


def summarise(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "bound": bounds.get(name), "values": values,
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    seeds = seed_list(args.seeds)
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            run = run_once(w, seed, spec["run_seconds"], 0)
            runs[w].append(run)
            m = run["result"]["metrics"]
            print(f"{w} seed {seed} correct={run['result']['correct']} "
                  + " ".join(f"{k}={v['value']:.4f}" for k, v in m.items()), flush=True)
    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for w in workloads:
        entry = {
            "correct": all(r["result"]["correct"] for r in runs[w]),
            "attempted": sum(r["result"]["attempted"] for r in runs[w]),
            "failed": sum(r["result"]["failed"] for r in runs[w]),
            "provenance": runs[w][0]["provenance"],
            "end_to_end": summarise(runs[w], bounds),
        }
        if args.traced:
            traced = run_once(w, seeds[0], spec["run_seconds"], 1)
            entry["per_layer"] = traced["result"]["metrics"]
            entry["traced_provenance"] = traced["provenance"]
        summary["workloads"][w] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{w} {name}: median {s['median']:.4f} spread {s['spread']:.4f} "
                  f"bound {s['bound']}", flush=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
