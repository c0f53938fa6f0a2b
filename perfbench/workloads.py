"""Seed-driven workload generator: one INI config per (workload, seed, size).

Every workload keeps its regime for any seed: the seed moves data-field
coefficients, the curvature H and the Λ seed inside narrow bands, so that the
same code paths run with the same iteration counts (give or take one), while
no run can be tuned to one fixed input. ``size="tiny"`` shrinks each workload
to a second-long version of itself for the self-test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# The sweep values: nine K well inside the convergent regime (each run needs
# about ten outer iterations), then one far beyond the threshold, which diverges
# within a few iterations. The threshold midpoint is therefore the same for
# every seed and the divergent value exercises the failure path.
SWEEP_VALUES = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 40.0)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # diriter subcommand; every workload expects exit code 0
    ini: str
    compared: tuple[str, ...]  # outputs that must hash identically across runs of one seed
    max_array_nodes: int  # nodes of the largest grid; one float64 field = 8 bytes per node
    params: dict = field(default_factory=dict)


def _ini(sections: dict) -> str:
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in body.items())
        lines.append("")
    return "\n".join(lines)


def _nodes(extent_x: float, extent_y: float, h: float) -> int:
    return (round(extent_x / h) + 1) * (round(extent_y / h) + 1)


def sweep_rect(seed: int, size: str) -> Workload:
    """Why: one 65 x 65 grid reused by ten K values and ~100 outer iterations.
    Hölder pair sampling dominates; Λ is re-estimated ten times with identical
    results and two LUs are built per value. This is where a pair-set cache or
    a Λ hoist pays off and where a Poisson change should barely move wall time.
    The last value diverges, so the failure path is timed too."""
    rng = random.Random(f"sweep_rect:{seed}")
    c0 = rng.uniform(0.98, 1.02)
    amp = rng.uniform(0.28, 0.32)
    h = 1 / 64 if size == "full" else 1 / 16
    values = SWEEP_VALUES
    ini = _ini({
        "domain": {"kind": "rectangle", "a": 1, "b": 1},
        "grid": {"h": repr(h)},
        "rhs": {"variant": "grad_lipschitz", "h": f"{c0!r} + {amp!r}*sin(pi*x)", "K": 0, "m": 2},
        "iteration": {"max_iters": 60, "h1_tol": 1e-10},
        "analysis": {"alpha": 0.5, "lambda": "estimate", "lambda_trials": 3,
                     "lambda_seed": rng.randrange(1_000_000)},
        "sweep": {"parameter": "K", "values": " ".join(repr(v) for v in values)},
    })
    return Workload(
        name="sweep_rect",
        command="sweep",
        ini=ini,
        compared=("report.json", "sweep.csv"),
        max_array_nodes=_nodes(1, 1, h),
        params={"values": values, "threshold": 0.5 * (values[-2] + values[-1])},
    )


def _curvature(rng: random.Random) -> float:
    # n * |H| * d / 2 = 0.4 with n = 2, d = 1: well inside the existence range
    # (< 1), so the arc exists and the iteration converges in ~13 passes.
    return rng.uniform(0.39, 0.41)


def strip_solve(seed: int, size: str) -> Workload:
    """Why: one big strip grid (d = 1, n_trunc = 4, h = 1/256, ~526k unknowns)
    with Λ given as a number. LU factorization, the repeat solves and writing
    solution.csv dominate, and the LU fill sets peak memory. This is where a
    fast Poisson solve or loop fusion shows and where a Λ hoist should not."""
    rng = random.Random(f"strip_solve:{seed}")
    H = _curvature(rng)
    h = 1 / 256 if size == "full" else 1 / 32
    n_trunc = 4
    ini = _ini({
        "domain": {"kind": "strip", "d": 1, "n_trunc": n_trunc},
        "grid": {"h": repr(h)},
        "rhs": {"variant": "mean_curvature", "H": repr(H), "n": 2},
        "iteration": {"max_iters": 60, "h1_tol": 1e-10},
        "analysis": {"alpha": 0.5, "lambda": repr(rng.uniform(1.9, 2.1))},
    })
    return Workload(
        name="strip_solve",
        command="solve",
        ini=ini,
        compared=("report.json", "trace.csv", "solution.csv"),
        max_array_nodes=_nodes(2 * n_trunc, 1, h),
        # sup |u - arc| over |x| <= 1 at H = 0.4: 1.4e-5 at h = 1/256, 2.7e-5 at h = 1/32
        params={"d": 1.0, "H": H, "halfwidth": 1.0, "arc_bound": 3e-5 if size == "full" else 1e-4},
    )


def exhaust_arc(seed: int, size: str) -> Workload:
    """Why: the layers of sweep_rect on six distinct small strip grids (n = 3..8,
    h = 1/32) with no reuse across them: each pays its own LUs and Λ estimate,
    so a per-grid cache that wins on sweep_rect shows its miss cost here. It
    also carries the arc_err check against the closed-form arc."""
    rng = random.Random(f"exhaust_arc:{seed}")
    H = _curvature(rng)
    h = 1 / 32 if size == "full" else 1 / 16
    n_start, n_max = (3, 8) if size == "full" else (3, 4)
    ini = _ini({
        "grid": {"h": repr(h)},
        "rhs": {"variant": "mean_curvature", "H": repr(H), "n": 2},
        "iteration": {"max_iters": 60, "h1_tol": 1e-10},
        "analysis": {"alpha": 0.5, "lambda": "estimate", "lambda_trials": 3,
                     "lambda_seed": rng.randrange(1_000_000)},
        "exhaustion": {"d": 1, "n_start": n_start, "n_max": n_max,
                       "compact_halfwidth": 1, "compact_tol": 1e-6 if size == "full" else 1e-3},
    })
    return Workload(
        name="exhaust_arc",
        command="exhaust",
        ini=ini,
        compared=("report.json", "tail.csv"),
        max_array_nodes=_nodes(2 * n_max, 1, h),
        params={"truncations": list(range(n_start, n_max + 1)),
                "arc_bound": 5e-5 if size == "full" else 2e-4},
    )


WORKLOADS = {"sweep_rect": sweep_rect, "strip_solve": strip_solve, "exhaust_arc": exhaust_arc}


def build(name: str, seed: int, size: str = "full") -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r} (expected one of {', '.join(WORKLOADS)})")
    if size not in ("full", "tiny"):
        raise ValueError(f"unknown size {size!r}")
    return WORKLOADS[name](seed, size)
