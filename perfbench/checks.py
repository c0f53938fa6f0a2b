"""Per-command output checks: a list of problems (empty = pass) per command.

The reference for strip_solve is the closed-form arc of constant mean
curvature, written out here so that check does not depend on the code it
checks. exhaust writes no solution field, so for exhaust_arc the arc error is
the program's own compact_error_vs_arc, computed by the code under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import Workload


def arc(y: np.ndarray, d: float, H: float) -> np.ndarray:
    """u(y) spanning [-d/2, d/2] with (u'/sqrt(1 + u'^2))' = 2H, u(+-d/2) = 0."""
    return (math.sqrt(1.0 - H * H * d * d) - np.sqrt(1.0 - 4.0 * H * H * y * y)) / (2.0 * H)


def strip_arc_error(solution_csv: Path, d: float, H: float, halfwidth: float) -> float:
    """sup over the window |x| <= halfwidth of |u - arc| from a solution.csv."""
    xyu = np.loadtxt(solution_csv, delimiter=",", skiprows=1)
    window = np.abs(xyu[:, 0]) <= halfwidth + 1e-9
    if not window.any():
        return math.inf
    return float(np.max(np.abs(xyu[window, 2] - arc(xyu[window, 1], d, H))))


def digests(out: Path, names: tuple[str, ...]) -> dict[str, str]:
    found = {}
    for name in names:
        path = out / name
        found[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"
    return found


def _non_finite(value, where="report.json") -> list[str]:
    if isinstance(value, str) and value.lower() in ("nan", "inf", "-inf"):
        return [f"{where} holds {value}"]
    if isinstance(value, float) and not math.isfinite(value):
        return [f"{where} holds {value}"]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _non_finite(v, f"{where}.{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _non_finite(v, f"{where}[{i}]")]
    return []


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_command(wl: Workload, out: Path, rc: int, arc_cache: dict) -> tuple[list[str], dict]:
    """Problems with one command's outputs, and the values the benchmark reports.

    ``arc_cache`` maps solution.csv digests to their arc error, so identical
    outputs of one seed are parsed once."""
    problems: list[str] = []
    found: dict = {}
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return problems + [f"report.json unreadable: {exc}"], found
    problems += _non_finite(report)

    if wl.command == "sweep":
        rows = _read_csv(out / "sweep.csv")
        outcomes = [r["outcome"] for r in rows]
        expected = ["converged"] * (len(wl.params["values"]) - 1)
        if outcomes[:-1] != expected or outcomes[-1:] not in (["diverged"], ["max_iters"]):
            problems.append(f"sweep outcomes {outcomes}")
        if report.get("threshold") != wl.params["threshold"]:
            problems.append(f"threshold {report.get('threshold')}, expected {wl.params['threshold']}")
        for r in rows[:-1]:
            if not all(math.isfinite(float(r[k])) for k in ("max_rho", "final_residual")):
                problems.append(f"non-finite row {r}")
    elif wl.command == "solve":
        if report.get("outcome") != "converged":
            problems.append(f"outcome {report.get('outcome')}")
        key = digests(out, ("solution.csv",))["solution.csv"]
        if key not in arc_cache:
            p = wl.params
            arc_cache[key] = strip_arc_error(out / "solution.csv", p["d"], p["H"], p["halfwidth"])
        found["arc_err"] = arc_cache[key]
    elif wl.command == "exhaust":
        if report.get("tail_below_tol") is not True:
            problems.append("tail_below_tol is not true")
        if report.get("truncations") != wl.params["truncations"]:
            problems.append(f"truncations {report.get('truncations')}")
        if any(r["outcome"] != "converged" for r in _read_csv(out / "tail.csv")):
            problems.append("a truncation did not converge")
        found["arc_err"] = float(report.get("compact_error_vs_arc", math.inf))

    if "arc_err" in found and not found["arc_err"] <= wl.params["arc_bound"]:
        problems.append(f"arc_err {found['arc_err']:.3e} above {wl.params['arc_bound']:.1e}")
    return problems, found
