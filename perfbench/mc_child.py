"""Run one Monte Carlo study repeatedly in a fresh process; write JSON results.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``:

    python3 perfbench/mc_child.py --study mc_linear_n1k --seed N \
        --seconds 20 --trace 0 --out results.json

One untimed call comes first; each timed untraced call is followed by a run
of the reference kernel (calibrate.py). Every call uses the same
configuration, so each later summary must equal the first. With
``--trace 1`` untraced and traced calls alternate and each traced summary
must equal the untraced one before it.
"""
from __future__ import annotations

import argparse
import json
import traceback
from dataclasses import asdict
from time import perf_counter

from cotail import simulate

import calibrate
import layers
import studies


def study_call(study: str, seed: int):
    spec = studies.MC_STUDIES[study]
    kind, params = spec["model"]
    if kind == "linear-pareto":
        model = simulate.LinearParetoModel(**params)
    else:
        model = simulate.BivariateTModel(**params)
    config = simulate.ModelConfig(model=model, n=spec["n"], seed=seed)

    def call():
        # looked up at call time so that an installed tracer sees it
        return simulate.run_mc(
            config,
            reps=spec["reps"],
            k_fractions=spec["k_fracs"],
            k_alpha_fractions=spec["k_alpha_fracs"],
            estimators=spec["estimators"],
        )

    return call


def cells_of(summary) -> list[dict]:
    return [
        {"estimator_id": name, "k_frac": kf, "k_alpha_frac": kaf, **asdict(cell)}
        for (name, kf, kaf), cell in summary.cells.items()
    ]


def timed(call) -> dict:
    start = perf_counter()
    try:
        cells = cells_of(call())
        error = None
    except Exception:  # one failed operation must not end the run
        cells, error = None, traceback.format_exc(limit=5)
    return {"wall": perf_counter() - start, "cells": cells, "error": error}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--study", required=True, choices=sorted(studies.MC_STUDIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    call = study_call(args.study, args.seed)
    timed(call)  # warm-up: first-call costs, and the host runs a vCPU slowly after idling
    ops, kernel_walls, counters, missing, attached = [], [], [], [], []
    deadline = perf_counter() + args.seconds
    while not ops or perf_counter() < deadline:
        untraced = timed(call)
        untraced["traced"] = False
        ops.append(untraced)
        kernel_walls.append(calibrate.timed_kernel())
        if args.trace:
            tracer = layers.Tracer()
            with tracer:
                traced = timed(call)
            traced["traced"] = True
            ops.append(traced)
            counters.append(tracer.counters())
            missing, attached = tracer.missing, sorted(map(list, tracer.attached))

    # the first summary is checked by the caller; every other one must match it
    first = ops[0]["cells"]
    for op in ops:
        op["same_as_first"] = op["cells"] is not None and op["cells"] == first
    result = {
        "first_cells": first,
        "ops": [{k: op[k] for k in ("wall", "error", "traced", "same_as_first")} for op in ops],
        "kernel_walls": kernel_walls,
        "counters": counters,
        "missing": missing,
        "attached": attached,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
