"""Outer fixed-point loop: repeated linear Dirichlet solves with diagnostics.

Each pass solves laplacian(u_{i+1}) = f(x, u_i, grad u_i) with the fixed
boundary data and records the quantities the convergence analysis controls:
sup norms, discrete C^{2,alpha} estimates, H1 seminorms of consecutive
differences and their ratios, and the nonlinear residual.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .calculus import (
    NormConfig,
    c2alpha_estimate,
    estimate_schauder_constant,
    gradient,
    laplacian_apply,
    norm_h1semi,
    norm_sup,
)
from .domain import BoundarySpec, Grid, GridField
from .errors import IterationDiverged, IterationMaxIters, NotConforming
from .nonlinearity import ContractionAnalysis, RhsSpec, analyze, data_norms, evaluate_rhs
from .poisson import LinearSolveConfig, PoissonSolver, lift_boundary

START_ZERO = "zero"
START_LIFT = "boundary-lift"

_STALL_WINDOW = 10  # consecutive expanding ratios that count as divergence


@dataclass(frozen=True)
class IterationConfig:
    max_iters: int = 200
    h1_tol: float = 1e-12
    blowup_sup: float = 1e6
    boundary: BoundarySpec = field(default_factory=BoundarySpec.homogeneous)
    start: str = START_ZERO
    norm_cfg: NormConfig = field(default_factory=NormConfig)
    lambda_value: float | None = None
    lambda_trials: int = 3
    lambda_seed: int = 0
    kappa_kind: str = "min"
    linear: LinearSolveConfig = field(default_factory=LinearSolveConfig)

    def __post_init__(self):
        if self.h1_tol <= 0:
            raise ValueError("h1_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.start not in (START_ZERO, START_LIFT):
            raise ValueError(f"unknown start mode {self.start!r}")
        if self.kappa_kind not in ("min", "volumetric", "slab"):
            raise ValueError(f"unknown kappa_kind {self.kappa_kind!r}")


@dataclass(frozen=True)
class IterationRow:
    i: int
    sup_u: float
    c2alpha_est: float
    h1_diff: float
    rho_i: float | None
    residual_sup: float


@dataclass(frozen=True)
class IterationReport:
    rows: tuple[IterationRow, ...]
    outcome: str  # converged | diverged | max_iters
    C_empirical: float
    theory: ContractionAnalysis
    norms: dict

    @property
    def uniqueness_radius(self) -> float | None:
        return self.theory.C


def residual_field(u: GridField, spec: RhsSpec, f: GridField | None = None) -> GridField:
    """laplacian(u) - f(x, u, grad u) at interior nodes, 0 on the boundary.

    ``f`` is the already evaluated right-hand side at ``u``, if the caller has it.
    """
    lap = laplacian_apply(u)
    if f is None:
        f = evaluate_rhs(spec, u, gradient(u))
    out = np.zeros(u.grid.shape)
    out[1:-1, 1:-1] = lap.values[1:-1, 1:-1] - f.values[1:-1, 1:-1]
    return u.grid.field(out)


def with_lambda(grid: Grid, cfg: IterationConfig) -> IterationConfig:
    """``cfg`` with ``lambda_value`` set, estimating Λ on ``grid`` when it is absent."""
    if cfg.lambda_value is not None:
        return cfg
    lam = estimate_schauder_constant(grid, cfg.norm_cfg, cfg.lambda_trials, cfg.lambda_seed)
    return dataclasses.replace(cfg, lambda_value=lam)


def _start_field(grid: Grid, spec: RhsSpec, cfg: IterationConfig, solver: PoissonSolver) -> GridField:
    if cfg.start == START_ZERO:
        return grid.zeros()
    h_rhs = spec.h if hasattr(spec, "h") else grid.zeros()
    return lift_boundary(grid, cfg.boundary, h_rhs, solver.cfg)


def dirichlet_iterate(
    grid: Grid,
    spec: RhsSpec,
    cfg: IterationConfig,
    u0: GridField | None = None,
) -> tuple[GridField, IterationReport]:
    """Run the iteration; returns the converged iterate and its report.

    Raises IterationDiverged / IterationMaxIters with the partial report and
    last iterate attached. ``u0`` overrides the configured start (it must
    already carry the boundary values).
    """
    solver = PoissonSolver(grid, cfg.linear)

    norms = data_norms(spec, cfg.norm_cfg)
    cfg = with_lambda(grid, cfg)
    theory = analyze(spec, grid.domain, norms, cfg.lambda_value, cfg.kappa_kind)

    if u0 is not None:
        if not u0.is_conforming(cfg.boundary, tol=1e-12 * (1.0 + norm_sup(u0))):
            raise NotConforming("u0 must carry the configured boundary values")
        u_prev = u0
    else:
        u_prev = _start_field(grid, spec, cfg, solver)

    rows: list[IterationRow] = []
    prev_h1 = None
    expanding = 0

    def report(outcome: str) -> IterationReport:
        c_emp = max((r.c2alpha_est for r in rows), default=0.0)
        return IterationReport(
            rows=tuple(rows), outcome=outcome, C_empirical=c_emp, theory=theory, norms=norms
        )

    # f at the newest iterate feeds both its residual and the next solve; one
    # name is rebound, so only one right-hand-side field is kept.
    f = evaluate_rhs(spec, u_prev, gradient(u_prev))
    for i in range(1, cfg.max_iters + 1):
        u_next = solver.solve(f, cfg.boundary)
        f = evaluate_rhs(spec, u_next, gradient(u_next))

        diff = grid.field(u_next.values - u_prev.values)
        h1_diff = norm_h1semi(diff)
        rho = h1_diff / prev_h1 if (prev_h1 is not None and prev_h1 > 0) else None
        res_sup = float(np.max(np.abs(residual_field(u_next, spec, f=f).values)))
        rows.append(
            IterationRow(
                i=i,
                sup_u=norm_sup(u_next),
                c2alpha_est=c2alpha_estimate(u_next, cfg.norm_cfg),
                h1_diff=h1_diff,
                rho_i=rho,
                residual_sup=res_sup,
            )
        )

        if h1_diff <= cfg.h1_tol:
            return u_next, report("converged")

        # written so that a NaN sup norm counts as a blow-up
        if not rows[-1].sup_u <= cfg.blowup_sup:
            raise IterationDiverged(
                f"sup blow-up at iteration {i}: {rows[-1].sup_u:.3e}",
                report=report("diverged"),
                last_iterate=u_next,
            )
        expanding = expanding + 1 if (rho is not None and rho > 1.0) else 0
        if expanding >= _STALL_WINDOW and h1_diff > cfg.h1_tol * 1e3:
            raise IterationDiverged(
                f"difference ratios above 1 for {_STALL_WINDOW} consecutive iterations",
                report=report("diverged"),
                last_iterate=u_next,
            )

        u_prev = u_next
        prev_h1 = h1_diff

    raise IterationMaxIters(
        f"no convergence within {cfg.max_iters} iterations",
        report=report("max_iters"),
        last_iterate=u_prev,
    )


def uniform_bound_check(report: IterationReport, C_theory: float) -> dict:
    """Did every iterate's C^{2,alpha} estimate stay below the theoretical bound?"""
    if not report.rows:
        raise ValueError("report has no rows")
    worst = max(r.c2alpha_est for r in report.rows)
    return {"holds": worst <= C_theory * 1.1, "margin": C_theory - worst}
