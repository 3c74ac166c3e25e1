"""Output checks. Each returns a list of problems; an empty list means correct.

The Monte Carlo checks use statistical bands around reference values, never
the program's own earlier output, so a legitimate change of random-stream
keying still passes. The CLI checks compare against the benchmark's own
brute-force recomputation on the tables it generated.
"""
from __future__ import annotations

import json
import math
from statistics import NormalDist

import numpy as np

import studies

RTOL = 1e-9  # room for a reordered sum, far below any real defect
BAND_SE = 5.0  # band half-width in standard errors of the cell mean

QUANTILES = ("q05", "q25", "q50", "q75", "q95")


# ---------------------------------------------------------------------------
# Monte Carlo summaries
# ---------------------------------------------------------------------------

def expected_cells(study: str) -> list[tuple[str, float, float | None]]:
    spec = studies.MC_STUDIES[study]
    keys = []
    for name in spec["estimators"]:
        for kf in spec["k_fracs"]:
            if name == "tdc_quasispectral_estimated":
                keys.extend((name, kf, kaf) for kaf in spec["k_alpha_fracs"])
            else:
                keys.append((name, kf, None))
    return keys


def check_mc(study: str, cells: list[dict]) -> list[str]:
    """Cell set, replication/failure counts, reference bands, sd ordering."""
    spec = studies.MC_STUDIES[study]
    reps = spec["reps"]
    by_key = {(c["estimator_id"], c["k_frac"], c["k_alpha_frac"]): c for c in cells}
    problems = []
    wanted = expected_cells(study)
    if sorted(by_key, key=repr) != sorted(wanted, key=repr):
        problems.append(f"cells {sorted(by_key, key=repr)} != expected {wanted}")
    for key in wanted:
        cell = by_key.get(key)
        if cell is None:
            continue
        name, kf, _ = key
        if cell["rep_count"] != reps:
            problems.append(f"{key}: rep_count {cell['rep_count']} != {reps}")
        if cell["failures"] != 0:
            problems.append(f"{key}: {cell['failures']} failed replications")
        qs = [cell[q] for q in QUANTILES]
        if not (0.0 <= qs[0] and all(a <= b for a, b in zip(qs, qs[1:])) and qs[-1] <= 1.0):
            problems.append(f"{key}: quantiles {qs} not ordered inside [0, 1]")
        if not (cell["sd"] > 0.0 and math.isfinite(cell["sd"])):
            problems.append(f"{key}: sd {cell['sd']} is not positive")
            continue
        ref = studies.reference_mean(study, name, kf)
        tol = BAND_SE * cell["sd"] / math.sqrt(reps) + spec["slack"]
        if not abs(cell["mean"] - ref) <= tol:
            problems.append(f"{key}: mean {cell['mean']:.6f} outside {ref} +/- {tol:.6f}")
    for kf in spec["k_fracs"]:
        ratio = by_key.get(("tdc_quasispectral", kf, None))
        count = by_key.get(("tdc_empirical", kf, None))
        if ratio and count and not ratio["sd"] < count["sd"]:
            problems.append(
                f"k_frac {kf}: ratio-weight sd {ratio['sd']:.5f} not below "
                f"counting sd {count['sd']:.5f}"
            )
    return problems


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

def parse_pairs(text: str, header: str = "x,y") -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column CSV with a header; raises ValueError if malformed."""
    head, _, body = text.partition("\n")
    if head != header:
        raise ValueError(f"header {head!r} != {header!r}")
    cells = body.replace("\n", ",").split(",")
    if cells[-1] != "":
        raise ValueError("missing final newline")
    values = np.array([float(c) for c in cells[:-1]], dtype=float)
    if values.size % 2:
        raise ValueError("odd number of cells")
    return values[0::2], values[1::2]


def _count(frac: float, n: int) -> int:
    return min(max(int(round(frac * n)), 1), n - 1)


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= RTOL * max(abs(want), 1e-300)


def check_simulate(text: str, x: np.ndarray, y: np.ndarray) -> list[str]:
    """The simulated table must re-parse bit-identically to the in-memory sample."""
    try:
        got_x, got_y = parse_pairs(text)
    except ValueError as exc:
        return [f"simulate output: {exc}"]
    if got_x.shape != x.shape or got_y.shape != y.shape:
        return [f"simulate output has {got_x.size} rows, expected {x.size}"]
    if not (np.array_equal(got_x, x) and np.array_equal(got_y, y)):
        bad = int(np.count_nonzero((got_x != x) | (got_y != y)))
        return [f"simulate output differs from sample_dataset in {bad} rows"]
    return []


def abs_log_returns(p1: np.ndarray, p2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.abs(np.log(p1[1:] / p1[:-1])), np.abs(np.log(p2[1:] / p2[:-1]))


def check_ingest(text: str, p1: np.ndarray, p2: np.ndarray) -> list[str]:
    try:
        got_x, got_y = parse_pairs(text)
    except ValueError as exc:
        return [f"ingest output: {exc}"]
    want_x, want_y = abs_log_returns(p1, p2)
    if got_x.shape != want_x.shape:
        return [f"ingest output has {got_x.size} rows, expected {want_x.size}"]
    err = max(
        float(np.max(np.abs(got_x - want_x) / np.maximum(want_x, 1e-300))),
        float(np.max(np.abs(got_y - want_y) / np.maximum(want_y, 1e-300))),
    )
    if not err <= RTOL:
        return [f"ingest output off by relative {err:.3g} from abs-log-returns"]
    return []


def brute_estimate(x: np.ndarray, y: np.ndarray) -> dict:
    """tdc-quasispectral-estimated at the benchmark's k fractions, from scratch."""
    n = x.size
    k = _count(studies.ESTIMATE_K_FRAC, n)
    ka = _count(studies.ESTIMATE_K_ALPHA_FRAC, n)
    xs = np.sort(x)
    base = xs[n - ka - 1]
    alpha = ka / math.fsum(np.log(xs[n - ka:] / base))
    mask = x > xs[n - k - 1]
    w = np.minimum(y[mask] / x[mask], 1.0) ** alpha
    value = math.fsum(w) / k
    variance = math.fsum(w * w) / k
    half = NormalDist().inv_cdf(0.975) * math.sqrt(variance / k)
    return {
        "estimator_id": "tdc_quasispectral_estimated", "n": n, "k": k,
        "k_alpha": ka, "y": 1.0, "value": value, "plugin_variance": variance,
        "ci_level": 0.95, "ci_lo": max(value - half, 0.0),
        "ci_hi": min(value + half, 1.0), "alpha_used": alpha,
        "alpha_source": "hill", "p": None, "extrapolation_factor": None,
        "aleph_used": None,
    }


def _compare_row(got: dict, want: dict, where: str) -> list[str]:
    problems = []
    for key, value in want.items():
        if key not in got:
            problems.append(f"{where}: missing {key}")
        elif isinstance(value, float):
            if not isinstance(got[key], (int, float)) or not _close(float(got[key]), value):
                problems.append(f"{where}: {key} = {got[key]!r}, expected {value!r}")
        elif got[key] != value:
            problems.append(f"{where}: {key} = {got[key]!r}, expected {value!r}")
    return problems


def check_estimate(text: str, x: np.ndarray, y: np.ndarray) -> list[str]:
    try:
        rows = json.loads(text)["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"estimate output is not the JSON report: {exc!r}"]
    if len(rows) != 1:
        return [f"estimate output has {len(rows)} rows, expected 1"]
    return _compare_row(rows[0], brute_estimate(x, y), "estimate")


def brute_curve(x: np.ndarray, y: np.ndarray) -> list[dict]:
    n = x.size
    k = _count(studies.CURVE_K_FRAC, n)
    thr = np.sort(x)[n - k - 1]
    mask = x > thr
    xe, ye = x[mask], y[mask]
    rows = []
    for method in studies.CURVE_METHODS:
        for yv in studies.CURVE_Y_GRID:
            if method == "empirical":
                value = int(np.count_nonzero(ye > yv * thr)) / k
                variance, est_id = value, "tdc_empirical"
            else:
                w = np.minimum(ye / (yv * xe), 1.0) ** studies.CURVE_ALPHA
                value, variance = math.fsum(w) / k, math.fsum(w * w) / k
                est_id = "tdc_quasispectral"
            rows.append({"estimator_id": est_id, "k": k, "y": yv,
                         "value": value, "plugin_variance": variance})
    return rows


def check_curve(text: str, x: np.ndarray, y: np.ndarray) -> list[str]:
    lines = text.splitlines()
    columns = ("estimator_id", "k", "y", "value", "plugin_variance")
    if not lines or tuple(lines[0].split(",")) != columns:
        return [f"curve header {lines[:1]} != {columns}"]
    want = brute_curve(x, y)
    if len(lines) - 1 != len(want):
        return [f"curve output has {len(lines) - 1} rows, expected {len(want)}"]
    problems = []
    for i, (line, expected) in enumerate(zip(lines[1:], want), start=1):
        cells = line.split(",")
        if len(cells) != len(columns):
            problems.append(f"curve row {i}: {len(cells)} cells")
            continue
        try:
            got = {"estimator_id": cells[0], "k": int(cells[1]), "y": float(cells[2]),
                   "value": float(cells[3]), "plugin_variance": float(cells[4])}
        except ValueError:
            problems.append(f"curve row {i}: non-numeric cell in {line!r}")
            continue
        problems.extend(_compare_row(got, expected, f"curve row {i}"))
    return problems
