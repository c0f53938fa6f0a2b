"""Iterated Dirichlet solves for nonlinear elliptic boundary-value problems.

Solves laplacian(u) = f(x, u, grad u) on rectangles and truncated strips by
repeated linear Poisson solves, and measures every quantity the contraction
argument behind the method controls: fixed points of the growth majorant,
per-step H1 contraction ratios, Poincaré constants, discrete Hölder norms
and strip-exhaustion tails.
"""

from .calculus import (
    NormConfig,
    c2alpha_estimate,
    divergence,
    estimate_schauder_constant,
    flux_divergence,
    gradient,
    h1_inner,
    holder_norm,
    holder_seminorm,
    laplacian_apply,
    norm_h1semi,
    norm_l2,
    norm_sup,
    verify_poincare,
)
from .domain import BoundarySpec, Domain, Grid, GridField, VectorField, build_grid, domain_constants
from .errors import (
    BracketNotFound,
    ConfigError,
    DiriterError,
    GridTooCoarse,
    InvalidArc,
    IterationDiverged,
    IterationMaxIters,
    MissingNorm,
    NoConvergence,
    NotConforming,
    SpacingTooCoarse,
)
from .iteration import (
    IterationConfig,
    IterationReport,
    dirichlet_iterate,
    residual_field,
    uniform_bound_check,
)
from .mce import ArcSolution, arc_solution, mc_divergence_residual
from .nonlinearity import (
    ContractionAnalysis,
    GammaG,
    GradLipschitz,
    MeanCurvature,
    admissible_K_threshold,
    analyze,
    contraction_bound,
    data_norms,
    evaluate_rhs,
    k_zero,
    psi,
    smallest_fixed_point,
)
from .poisson import LinearSolveConfig, PoissonSolver, lift_boundary, solve_dirichlet
from .slab import ExhaustionConfig, ExhaustionResult, exhaustion_solve, schauder_uniformity_probe

__version__ = "0.1.0"

__all__ = [
    "ArcSolution",
    "BoundarySpec",
    "BracketNotFound",
    "ConfigError",
    "ContractionAnalysis",
    "DiriterError",
    "Domain",
    "ExhaustionConfig",
    "ExhaustionResult",
    "GammaG",
    "GradLipschitz",
    "Grid",
    "GridField",
    "GridTooCoarse",
    "InvalidArc",
    "IterationConfig",
    "IterationDiverged",
    "IterationMaxIters",
    "IterationReport",
    "LinearSolveConfig",
    "MeanCurvature",
    "MissingNorm",
    "NoConvergence",
    "NormConfig",
    "NotConforming",
    "PoissonSolver",
    "SpacingTooCoarse",
    "VectorField",
    "admissible_K_threshold",
    "analyze",
    "arc_solution",
    "build_grid",
    "c2alpha_estimate",
    "contraction_bound",
    "data_norms",
    "dirichlet_iterate",
    "divergence",
    "domain_constants",
    "estimate_schauder_constant",
    "evaluate_rhs",
    "exhaustion_solve",
    "flux_divergence",
    "gradient",
    "h1_inner",
    "holder_norm",
    "holder_seminorm",
    "k_zero",
    "laplacian_apply",
    "lift_boundary",
    "mc_divergence_residual",
    "norm_h1semi",
    "norm_l2",
    "norm_sup",
    "psi",
    "residual_field",
    "schauder_uniformity_probe",
    "smallest_fixed_point",
    "solve_dirichlet",
    "uniform_bound_check",
    "verify_poincare",
]
