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
    gradient,
    holder_norm,
    holder_seminorm,
    laplacian_apply,
    norm_h1semi,
    norm_l2,
    norm_sup,
    verify_poincare,
)
from .domain import Domain, Grid, GridField, build_grid
from .errors import DiriterError, IterationFailure
from .iteration import (
    AnalysisConfig,
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
    data_norms,
    evaluate_rhs,
    k_zero,
    smallest_fixed_point,
)
from .poisson import PoissonSolver, estimate_schauder_constant
from .slab import ExhaustionConfig, ExhaustionResult, exhaustion_solve

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "ArcSolution",
    "ContractionAnalysis",
    "DiriterError",
    "Domain",
    "ExhaustionConfig",
    "ExhaustionResult",
    "GammaG",
    "GradLipschitz",
    "Grid",
    "GridField",
    "IterationConfig",
    "IterationFailure",
    "IterationReport",
    "MeanCurvature",
    "NormConfig",
    "PoissonSolver",
    "admissible_K_threshold",
    "analyze",
    "build_grid",
    "c2alpha_estimate",
    "c2alpha_observer",
    "contraction_theory",
    "data_norms",
    "dirichlet_iterate",
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
    "residual_field",
    "smallest_fixed_point",
    "verify_poincare",
]
