"""Outer fixed-point loop: repeated linear Dirichlet solves with diagnostics.

Each pass solves laplacian(u_{i+1}) = f(x, u_i, grad u_i) with the fixed
boundary data and records the quantities the convergence analysis controls:
sup norms, H1 seminorms of consecutive differences and their ratios, and the
nonlinear residual; an observer, such as ``c2alpha_observer``, takes more.
The a priori analysis that certifies the loop (data norms, Λ, the fixed
point t* and the factor rho) is separate: ``contraction_theory``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .calculus import (
    NormConfig,
    c2alpha_estimate,
    gradient,  # noqa: F401 -- unused here; perfbench/spans.py traces it under this name
    laplacian_apply,
    norm_h1semi,
    norm_sup,
)
from .domain import GridField
from .errors import DiriterError, IterationFailure
from .nonlinearity import (
    ContractionAnalysis,
    RhsSpec,
    analyze,
    check_data,
    data_norms,
    evaluate_rhs,
)
from .poisson import PoissonSolver, estimate_schauder_constant

START_ZERO = "zero"
START_LIFT = "boundary-lift"

_STALL_WINDOW = 10  # consecutive expanding ratios that count as divergence


@dataclass(frozen=True)
class IterationConfig:
    """Settings of one ``dirichlet_iterate`` run.

    ``phi`` gives every iterate's boundary values (zero when None); they
    must be finite.
    """

    max_iters: int = 200
    h1_tol: float = 1e-12
    blowup_sup: float = 1e6
    phi: GridField | None = None
    start: str = START_ZERO

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not 0.0 < self.h1_tol < math.inf:
            raise ValueError(f"h1_tol = {self.h1_tol} must be positive and finite")
        if not self.blowup_sup > 0.0:
            raise ValueError(f"blowup_sup = {self.blowup_sup} must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.start not in (START_ZERO, START_LIFT):
            raise ValueError(f"unknown start mode {self.start!r}")
        if self.phi is not None and not math.isfinite(norm_sup(self.phi)):
            raise ValueError("phi holds NaN or inf")


@dataclass(frozen=True)
class AnalysisConfig:
    """Settings of ``contraction_theory``: the Hölder norms' exponent and Λ,
    ``lambda_value`` or, when that is None, ``estimate_schauder_constant`` on
    the grid. ``norm_cfg`` also serves ``c2alpha_observer``.
    """

    norm_cfg: NormConfig = field(default_factory=NormConfig)
    lambda_value: float | None = None

    def __post_init__(self):
        if self.lambda_value is not None and not 0.0 < self.lambda_value < math.inf:  # NaN fails
            raise ValueError(f"lambda = {self.lambda_value} must be positive and finite")


@dataclass(frozen=True)
class IterationRow:
    """One iterate's diagnostics."""

    i: int
    sup_u: float
    h1_diff: float
    rho_i: float | None
    residual_sup: float


@dataclass(frozen=True)
class IterationReport:
    """A run's rows and outcome."""

    rows: tuple[IterationRow, ...]
    outcome: str  # converged | diverged | max_iters

    @property
    def max_rho(self) -> float | None:
        """The largest H1 difference ratio ``rho_i``, None where no row has one."""
        return max((r.rho_i for r in self.rows if r.rho_i is not None), default=None)


def c2alpha_observer(cfg: NormConfig) -> tuple[list[float], Callable[[GridField], None]]:
    """An observer for ``dirichlet_iterate`` and the list it fills: the
    ``c2alpha_estimate`` of every iterate, in order. Its largest entry is the
    paper's empirical uniform bound, to compare with ``contraction_theory``'s t*."""
    estimates: list[float] = []
    return estimates, lambda u: estimates.append(c2alpha_estimate(u, cfg))


def residual_field(u: GridField, spec: RhsSpec) -> GridField:
    """laplacian(u) - f(x, u, grad u) at interior nodes, 0 on the boundary."""
    lap = laplacian_apply(u).values
    f = evaluate_rhs(spec, u)
    out = np.zeros(u.grid.shape)
    np.subtract(lap[1:-1, 1:-1], f.values[1:-1, 1:-1], out=out[1:-1, 1:-1])
    return u.grid._own(out)


def contraction_theory(spec: RhsSpec, analysis: AnalysisConfig) -> tuple[ContractionAnalysis, dict]:
    """The a priori analysis of ``dirichlet_iterate`` on the data's grid, which reads none of it.

    ``analyze``'s t* and rho for Λ = ``analysis.lambda_value``, or for Λ
    estimated on the data's grid when that is None, and the Hölder data norms
    they rest on. Raises as ``check_data`` does, and DiriterError when Λ is
    estimated on fewer than 5 nodes per axis.
    """
    grid, norms = check_data(spec), data_norms(spec, analysis.norm_cfg)
    lam = analysis.lambda_value
    if lam is None:
        lam = estimate_schauder_constant(grid, analysis.norm_cfg)
    return analyze(spec, grid.domain, norms, lam), norms


def _start_field(spec: RhsSpec, cfg: IterationConfig, solver: PoissonSolver) -> GridField:
    if cfg.start == START_ZERO:
        return solver.grid.zeros()
    # the lift solves on the loop's own solver: laplacian(u0) = h, u0 = phi
    h_rhs = spec.fields().get("h") or solver.grid.zeros()
    return solver.solve(h_rhs, cfg.phi)


def dirichlet_iterate(
    spec: RhsSpec,
    cfg: IterationConfig,
    u0: GridField | None = None,
    observe: Callable[[GridField], None] | None = None,
) -> tuple[GridField, IterationReport]:
    """Run the iteration on the data's grid; returns the converged iterate and its report.

    Raises before any solve as ``check_data`` does, and ValueError for a
    ``u0`` on another grid; IterationFailure with the partial report, whose
    ``outcome`` is ``diverged`` or ``max_iters``, and the last iterate
    attached. ``u0`` overrides the configured start (it must already carry
    the boundary values). ``observe(u)``, if given, runs on every iterate
    once its row is appended, before the stop rules, so a failed run's last
    iterate is observed too; rows and iterates are the same with or without
    it. No C^{2,alpha} estimate (``c2alpha_observer``), data norm, Λ or
    fixed point is computed here (``contraction_theory``).

    Grid fields alive at once, besides the data and the solver's array: the
    previous iterate, the right-hand side and the new iterate while a solve
    runs; then the two iterates and the field of weighted squares of the H1
    norm of their difference; then the new iterate, its right-hand side and
    what ``observe`` allocates (one work field for the C^{2,alpha}
    estimate). That is 3 fields, 5 with the solver's array and one data
    field. Derivatives and the difference of the iterates are formed a row
    slab at a time, never whole.
    """
    solver = PoissonSolver(check_data(spec))

    if u0 is not None:
        if u0.grid != solver.grid:
            raise ValueError("u0 lives on a different grid")
        if not u0.is_conforming(cfg.phi):
            raise DiriterError("u0 must carry the configured boundary values")
        u_prev = u0
    else:
        u_prev = _start_field(spec, cfg, solver)

    rows: list[IterationRow] = []
    prev_h1 = None
    expanding = 0

    # f at the newest iterate feeds both its residual and the next solve. Each
    # field goes as soon as nothing reads it, so each new one reuses the
    # heap block of one just freed: glibc hands a free heap top above about
    # two fields back to the OS, and the pages come back as faults. The
    # solver keeps laplacian(u_next) from its check, which the residual reads.
    f = evaluate_rhs(spec, u_prev)
    for i in range(1, cfg.max_iters + 1):
        u_next = solver.solve(f, cfg.phi)
        del f
        h1_diff = norm_h1semi(u_next, u_prev)
        del u_prev
        f = evaluate_rhs(spec, u_next)

        rho = h1_diff / prev_h1 if (prev_h1 is not None and prev_h1 > 0) else None
        res_sup = solver.residual_sup(u_next, f)
        rows.append(IterationRow(i, norm_sup(u_next), h1_diff, rho, res_sup))
        if observe is not None:
            observe(u_next)

        if h1_diff <= cfg.h1_tol:
            return u_next, IterationReport(tuple(rows), "converged")

        # written so that a NaN sup norm counts as a blow-up; a non-finite
        # residual means f(u_next) is not finite, which the next solve cannot take
        if not (rows[-1].sup_u <= cfg.blowup_sup and np.isfinite(res_sup)):
            raise IterationFailure(
                f"blow-up at iteration {i}: sup|u| {rows[-1].sup_u:.3e}, residual {res_sup:.3e}",
                IterationReport(tuple(rows), "diverged"),
                u_next,
            )
        expanding = expanding + 1 if (rho is not None and rho > 1.0) else 0
        if expanding >= _STALL_WINDOW and h1_diff > cfg.h1_tol * 1e3:
            raise IterationFailure(
                f"difference ratios above 1 for {_STALL_WINDOW} consecutive iterations",
                IterationReport(tuple(rows), "diverged"),
                u_next,
            )

        u_prev = u_next
        prev_h1 = h1_diff

    raise IterationFailure(
        f"no convergence within {cfg.max_iters} iterations",
        IterationReport(tuple(rows), "max_iters"),
        u_prev,
    )
