"""Right-hand-side families f(x, u, grad u) and their contraction analysis.

Three families are supported:

* ``GradLipschitz``   f = h(x) + K * |grad u|^m;
* ``GammaG``          f = gamma(x) * g(u) * |grad u|^m + h(x),
                      g(s) = sign(s) * |s|^(k+1) / (k+1), so that g'(s) = |s|^k;
* ``MeanCurvature``   f = n * sqrt(1 + |grad u|^2) * H(x) + G_u / (1 + |grad u|^2),
                      the expanded graph mean-curvature equation.

Each family carries a growth majorant psi(t) for the data norm of f; the
smallest fixed point of Lambda * psi bounds the iterates and doubles as the
uniqueness-ball radius, and the contraction factor rho predicts the decay of
successive iterate differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import NormConfig, dot_gradient, holder_norm, norm_sup
from .domain import Domain, GridField, VectorField, domain_constants
from .errors import FixedPointInconsistent, MissingNorm, NonFiniteData


@dataclass(frozen=True)
class GradLipschitz:
    """f = h(x) + K * |grad u|^m."""

    h: GridField
    K: float
    m: float = 2.0

    def __post_init__(self):
        if not 0.0 <= self.K < math.inf:  # NaN fails
            raise ValueError(f"K = {self.K} must be >= 0 and finite")
        if not 2.0 <= self.m < math.inf:  # NaN fails
            raise ValueError(f"m = {self.m} must be >= 2 and finite")


@dataclass(frozen=True)
class GammaG:
    """f = gamma(x) * g(u) * |grad u|^m + h(x), g(s) = sign(s) |s|^(k+1) / (k+1)."""

    gamma: GridField
    h: GridField
    m: float = 2.0
    k: float = 1.0

    def __post_init__(self):
        if not 2.0 <= self.m < math.inf:  # NaN fails
            raise ValueError(f"m = {self.m} must be >= 2 and finite")
        if not 0.0 < self.k < math.inf:  # NaN fails
            raise ValueError(f"k = {self.k} must be > 0 and finite")


@dataclass(frozen=True)
class MeanCurvature:
    """Expanded mean-curvature right-hand side for prescribed curvature H."""

    H: GridField
    n: int = 2

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")


RhsSpec = GradLipschitz | GammaG | MeanCurvature


def curvature_coupling(grad_u: VectorField, w: np.ndarray | None = None) -> np.ndarray:
    """G_u = 2 * du^mu du^nu d_{mu nu} u, assembled as <grad u, grad |grad u|^2>.

    Differencing |grad u|^2 once instead of forming the three second
    derivatives keeps the term symmetric and exactly cubic under scaling.
    The expanded graph equation uses G_u / (2 * (1 + |grad u|^2)): expanding
    div(grad u / sqrt(1 + |grad u|^2)) by the quotient rule produces the half
    factor, and only with it does the iterate satisfy the divergence form.
    ``w`` holds |grad u|^2 at the nodes, when the caller already has it.
    """
    if w is None:
        w = grad_u.vx**2 + grad_u.vy**2
    return dot_gradient(grad_u, w)


def evaluate_rhs(spec: RhsSpec, u: GridField, grad_u: VectorField) -> GridField:
    """Nodal samples of f(x, u(x), grad u(x)) for the given family."""
    grid = u.grid
    if isinstance(spec, GradLipschitz):
        s = grad_u.magnitude() ** spec.m
        return grid._own(spec.h.values + spec.K * s)
    if isinstance(spec, GammaG):
        s = grad_u.magnitude() ** spec.m
        g = np.sign(u.values) * np.abs(u.values) ** (spec.k + 1) / (spec.k + 1)
        return grid._own(spec.gamma.values * g * s + spec.h.values)
    if isinstance(spec, MeanCurvature):
        # n * sqrt(1 + w) * H + G_u / (2 * (1 + w)) with w = |grad u|^2, each
        # product and quotient in the order of that expression, done in place
        w = grad_u.vx**2 + grad_u.vy**2
        g_term = curvature_coupling(grad_u, w)
        w += 1.0
        out = np.sqrt(w)
        out *= spec.n
        out *= spec.H.values
        w *= 2.0
        g_term /= w
        out += g_term
        return grid._own(out)
    raise TypeError(f"unknown rhs spec {type(spec).__name__}")


def data_fields(spec: RhsSpec) -> dict[str, GridField]:
    """The data fields of ``spec``, keyed by attribute name."""
    if isinstance(spec, GradLipschitz):
        return {"h": spec.h}
    if isinstance(spec, GammaG):
        return {"h": spec.h, "gamma": spec.gamma}
    if isinstance(spec, MeanCurvature):
        return {"H": spec.H}
    raise TypeError(f"unknown rhs spec {type(spec).__name__}")


def check_finite_data(spec: RhsSpec) -> None:
    """Raise NonFiniteData when a data field holds NaN or inf: its norm would be
    NaN, every bound derived from it meaningless, and every iterate non-finite."""
    for name, data in data_fields(spec).items():
        if not np.all(np.isfinite(data.values)):
            raise NonFiniteData(f"data field {name!r} holds NaN or inf")


def data_norms(spec: RhsSpec, cfg: NormConfig) -> dict:
    """Hölder norms ``{name}_alpha`` of the data fields the majorant psi needs;
    raises NonFiniteData as ``check_finite_data`` does."""
    check_finite_data(spec)
    return {f"{name}_alpha": holder_norm(data, cfg) for name, data in data_fields(spec).items()}


def _require(norms: dict, key: str) -> float:
    if key not in norms or norms[key] is None:
        raise MissingNorm(f"norm {key!r} is required for this nonlinearity")
    return float(norms[key])


def _times_power(c: float, t: float, p: float) -> float:
    """c * t**p for c, t >= 0: 0 when c or t is 0, inf when the power overflows.

    Python float powers raise OverflowError where numpy would give inf, and
    a majorant that outgrows the floats is infinite for the fixed-point
    search. Every power of t here is positive, so t = 0 gives 0 even when c
    is infinite (where c * 0**p would be NaN).
    """
    if c == 0.0 or t == 0.0:
        return 0.0
    try:
        return c * t**p
    except OverflowError:
        return math.inf


def _gamma_g_coefficient(spec: GammaG, domain: Domain, norms: dict) -> float:
    """|gamma|_alpha * delta^(k - 1); inf where it outgrows the floats."""
    return _times_power(_require(norms, "gamma_alpha"), domain.slab_diameter(), spec.k - 1.0)


def psi(spec: RhsSpec, domain: Domain, norms: dict, t: float) -> float:
    """Growth majorant: |f( . , u, grad u)|_alpha <= psi(|u|_{2,alpha}); inf
    where it outgrows the floats."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if isinstance(spec, GradLipschitz):
        return _require(norms, "h_alpha") + _times_power(spec.K, t, spec.m)
    if isinstance(spec, GammaG):
        coef = _gamma_g_coefficient(spec, domain, norms)
        return _require(norms, "h_alpha") + _times_power(coef, t, spec.m + spec.k)
    if isinstance(spec, MeanCurvature):
        ha = _require(norms, "H_alpha")
        return (1.0 + t * t) * (ha + _times_power(2.0 * spec.n**2, t, 3) * (1.0 + t * t))
    raise TypeError(f"unknown rhs spec {type(spec).__name__}")


def _psi_prime(spec: RhsSpec, domain: Domain, norms: dict, t: float) -> float:
    if isinstance(spec, GradLipschitz):
        return _times_power(spec.K * spec.m, t, spec.m - 1.0)
    if isinstance(spec, GammaG):
        p = spec.m + spec.k
        return _times_power(_gamma_g_coefficient(spec, domain, norms) * p, t, p - 1.0)
    if isinstance(spec, MeanCurvature):
        ha = _require(norms, "H_alpha")
        n2 = 2.0 * spec.n**2
        quartic = _times_power(4.0, t, 4)
        return 2.0 * t * ha + n2 * (1.0 + t * t) * (3.0 * t * t * (1.0 + t * t) + quartic)
    raise TypeError(f"unknown rhs spec {type(spec).__name__}")


def smallest_fixed_point(spec: RhsSpec, domain: Domain, norms: dict, lam: float) -> float | None:
    """Smallest t with lam * psi(t) = t to adjacent doubles, or None when
    there is none.

    gap(t) = lam * psi(t) - t is convex with gap(0) >= 0, so Newton steps
    from t = 0 stay left of its smallest root; each advances at least one
    double. A point with gap > 0 and gap' >= 0 proves that there is no root.
    The first point with gap <= 0 closes a bracket, which bisection narrows
    until the returned t has gap(t) <= 0 < gap at the double below it.
    """
    if not 0.0 < lam < math.inf:  # NaN fails
        raise ValueError(f"lam = {lam} must be positive and finite")

    def gap(t):
        return lam * psi(spec, domain, norms, t) - t

    lo = hi = 0.0
    while (g := gap(hi)) > 0.0:
        slope = lam * _psi_prime(spec, domain, norms, hi) - 1.0
        if not slope < 0.0:
            return None  # convexity: gap >= g > 0 everywhere
        lo, hi = hi, max(math.nextafter(hi, math.inf), hi - g / slope)

    # gap(lo) > 0 >= gap(hi), or lo = hi = 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def contraction_bound(spec: RhsSpec, C: float, kappa: float) -> float:
    """Theoretical factor bounding |grad v_{i+1}| / |grad v_i|.

    For MeanCurvature only the curvature term's contribution is available in
    closed form; the remainder is unspecified, so the value is a partial
    bound (see ``is_partial_bound``).
    """
    if C < 0:
        raise ValueError("C must be >= 0")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if isinstance(spec, GradLipschitz):
        return spec.m * C ** (spec.m - 1.0) * spec.K * kappa
    if isinstance(spec, GammaG):
        b = gamma_g_combination(spec, kappa)
        return norm_sup(spec.gamma) * b * C ** (spec.m + spec.k) * kappa
    if isinstance(spec, MeanCurvature):
        return math.sqrt(2.0) * kappa * C * norm_sup(spec.H)
    raise TypeError(f"unknown rhs spec {type(spec).__name__}")


def gamma_g_combination(spec: GammaG, kappa: float) -> float:
    """B = max(kappa^2, kappa * m / (k + 1)); with kappa = delta / sqrt(2)
    this is exactly max(delta^2 / 2, m * delta / ((k + 1) * sqrt(2)))."""
    return max(kappa * kappa, kappa * spec.m / (spec.k + 1.0))


def is_partial_bound(spec: RhsSpec) -> bool:
    return isinstance(spec, MeanCurvature)


def admissible_K_threshold(spec: GradLipschitz, domain: Domain, C: float, K0: float) -> float:
    """Largest admissible Lipschitz constant under the volumetric Poincaré constant."""
    if C <= 0:
        raise ValueError("C must be positive")
    kappa = domain_constants(domain)["kappa_volumetric"]
    return min((1.0 / (spec.m * C ** (spec.m - 1.0))) / kappa, K0)


def k_zero(spec: GradLipschitz, norms: dict, lam: float) -> float:
    """Largest K keeping the smallest fixed point at most 2 * lam * |h|_alpha.

    With a = lam * |h|_alpha, lam * (|h|_alpha + K t^m) = t has a root
    t <= 2a exactly when K <= phi(t) = (t - a) / (lam t^m) for some such t.
    phi peaks where t = m (t - a), at t = m a / (m - 1), which is <= 2a for
    m >= 2; its value there is
    K0 = |h|_alpha / ((m - 1) (m lam |h|_alpha / (m - 1))^m).
    With |h|_alpha = 0 every K keeps t* = 0, so K0 is infinite.
    """
    h_alpha = _require(norms, "h_alpha")
    if h_alpha == 0.0:
        return math.inf
    m = spec.m
    return h_alpha / ((m - 1.0) * (m * lam * h_alpha / (m - 1.0)) ** m)


@dataclass(frozen=True)
class ContractionAnalysis:
    """Closed-form convergence snapshot for one nonlinearity on one domain."""

    Lambda: float
    kappa: float
    kappa_kind: str
    C: float | None
    rho: float | None
    K_threshold: float | None = None
    B: float | None = None
    partial: bool = False


def select_kappa(domain: Domain) -> float:
    """The smaller of the volumetric and slab Poincaré constants."""
    consts = domain_constants(domain)
    return min(consts["kappa_volumetric"], consts["kappa_slab"])


def analyze(spec: RhsSpec, domain: Domain, norms: dict, lam: float) -> ContractionAnalysis:
    """Bundle fixed point, contraction factor and admissibility thresholds.

    kappa is ``select_kappa(domain)``; ``K_threshold`` is
    ``admissible_K_threshold``'s, under the volumetric constant.
    """
    kappa = select_kappa(domain)
    c_star = smallest_fixed_point(spec, domain, norms, lam)
    rho = None
    k_threshold = None
    b_const = None
    if c_star is not None:
        fp_gap = abs(lam * psi(spec, domain, norms, c_star) - c_star)
        if not fp_gap <= 1e-10 * max(1.0, abs(c_star)):  # a NaN gap fails
            raise FixedPointInconsistent(
                f"fixed point failed its self-consistency check: gap {fp_gap:g}"
            )
        rho = contraction_bound(spec, c_star, kappa)
        if isinstance(spec, GradLipschitz) and c_star > 0:
            k0 = k_zero(spec, norms, lam)
            k_threshold = admissible_K_threshold(spec, domain, c_star, k0)
        if isinstance(spec, GammaG):
            b_const = gamma_g_combination(spec, kappa)
    return ContractionAnalysis(
        Lambda=lam,
        kappa=kappa,
        kappa_kind="min",
        C=c_star,
        rho=rho,
        K_threshold=k_threshold,
        B=b_const,
        partial=is_partial_bound(spec),
    )
