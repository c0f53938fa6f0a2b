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
    estimate_schauder_constant,
    gradient,
    holder_norm,
    holder_seminorm,
    laplacian_apply,
    norm_h1semi,
    norm_l2,
    norm_sup,
    verify_poincare,
)
from .domain import Domain, Grid, GridField, build_grid, domain_constants
from .errors import (
    ConfigError,
    DiriterError,
    FixedPointInconsistent,
    GridTooCoarse,
    IterationDiverged,
    IterationMaxIters,
    MissingNorm,
    NoConvergence,
    NonFiniteData,
    NotConforming,
    SpacingTooCoarse,
)
from .iteration import (
    IterationConfig,
    IterationReport,
    c2alpha_observer,
    contraction_theory,
    dirichlet_iterate,
    residual_field,
)
from .mce import ArcSolution
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
from .poisson import PoissonSolver
from .slab import ExhaustionConfig, ExhaustionResult, exhaustion_solve

__version__ = "0.1.0"

__all__ = [
    "ArcSolution",
    "ConfigError",
    "ContractionAnalysis",
    "DiriterError",
    "Domain",
    "ExhaustionConfig",
    "ExhaustionResult",
    "FixedPointInconsistent",
    "GammaG",
    "GradLipschitz",
    "Grid",
    "GridField",
    "GridTooCoarse",
    "IterationConfig",
    "IterationDiverged",
    "IterationMaxIters",
    "IterationReport",
    "MeanCurvature",
    "MissingNorm",
    "NoConvergence",
    "NonFiniteData",
    "NormConfig",
    "NotConforming",
    "PoissonSolver",
    "SpacingTooCoarse",
    "admissible_K_threshold",
    "analyze",
    "build_grid",
    "c2alpha_estimate",
    "c2alpha_observer",
    "contraction_bound",
    "contraction_theory",
    "data_norms",
    "dirichlet_iterate",
    "domain_constants",
    "estimate_schauder_constant",
    "evaluate_rhs",
    "exhaustion_solve",
    "gradient",
    "holder_norm",
    "holder_seminorm",
    "k_zero",
    "laplacian_apply",
    "norm_h1semi",
    "norm_l2",
    "norm_sup",
    "psi",
    "residual_field",
    "smallest_fixed_point",
    "verify_poincare",
]
