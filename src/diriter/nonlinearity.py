"""Right-hand-side families f(x, u, grad u) and their contraction analysis.

Three families are supported:

* ``GradLipschitz``   f = h(x) + F(|grad u|^m), F Lipschitz with constant K;
* ``GammaG``          f = gamma(x) * g(u) * |grad u|^m + h(x), g' bounded by s^k;
* ``MeanCurvature``   f = n * sqrt(1 + |grad u|^2) * H(x) + G_u / (1 + |grad u|^2),
                      the expanded graph mean-curvature equation.

Each family carries a growth majorant psi(t) for the data norm of f; the
smallest fixed point of Lambda * psi bounds the iterates and doubles as the
uniqueness-ball radius, and the contraction factor rho predicts the decay of
successive iterate differences.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .calculus import NormConfig, gradient, holder_norm, norm_sup
from .domain import Domain, GridField, VectorField, domain_constants
from .errors import BracketNotFound, FixedPointInconsistent, MissingNorm, NonFiniteData

_LIP_SAMPLES = np.linspace(0.0, 4.0, 41)
_REL_TOL = 1e-9


@dataclass(frozen=True)
class GradLipschitz:
    """f = h(x) + F(s) with s = |grad u|^m; default F(s) = K*s."""

    h: GridField
    K: float
    m: float = 2.0
    F: object = None  # vectorized callable s -> F(s)

    def __post_init__(self):
        if self.K < 0:
            raise ValueError("K must be >= 0")
        if self.m < 2:
            raise ValueError("m must be >= 2")
        if self.F is None:
            K = self.K
            object.__setattr__(self, "F", lambda s: K * s)
        else:
            vals = np.asarray(self.F(_LIP_SAMPLES), dtype=float)
            gaps = np.abs(np.diff(vals))
            steps = np.diff(_LIP_SAMPLES)
            if np.any(gaps > self.K * steps * (1 + _REL_TOL) + 1e-12):
                raise ValueError("supplied F is not K-Lipschitz on the sampled range")


def _default_g(k: float):
    def g(s):
        s = np.asarray(s, dtype=float)
        return np.sign(s) * np.abs(s) ** (k + 1) / (k + 1)

    def gprime(s):
        return np.abs(np.asarray(s, dtype=float)) ** k

    return g, gprime


@dataclass(frozen=True)
class GammaG:
    """f = gamma(x) * g(u) * |grad u|^m + h(x) with g' dominated by s^k."""

    gamma: GridField
    h: GridField
    m: float = 2.0
    k: float = 1.0
    g: object = None
    gprime: object = None
    validation_range: tuple[float, float] = (0.0, 2.0)

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("m must be >= 2")
        if self.k <= 0:
            raise ValueError("k must be > 0")
        if (self.g is None) != (self.gprime is None):
            raise ValueError("supply g and gprime together")
        if self.g is None:
            g, gp = _default_g(self.k)
            object.__setattr__(self, "g", g)
            object.__setattr__(self, "gprime", gp)
        lo, hi = self.validation_range
        s = np.linspace(lo, hi, 41)
        gv = np.asarray(self.g(s), dtype=float)
        if np.any(np.diff(gv) < -1e-12):
            raise ValueError("g must be nondecreasing on the sampled range")
        gp = np.asarray(self.gprime(s), dtype=float)
        if np.any(gp < -1e-12) or np.any(gp > s**self.k * (1 + _REL_TOL) + 1e-12):
            raise ValueError("g' must satisfy 0 <= g'(s) <= s^k on the sampled range")


@dataclass(frozen=True)
class MeanCurvature:
    """Expanded mean-curvature right-hand side for prescribed curvature H."""

    H: GridField
    n: int = 2

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")


RhsSpec = GradLipschitz | GammaG | MeanCurvature


def curvature_coupling(u: GridField, grad_u: VectorField) -> np.ndarray:
    """G_u = 2 * du^mu du^nu d_{mu nu} u, assembled as <grad u, grad |grad u|^2>.

    Differencing |grad u|^2 once instead of forming the three second
    derivatives keeps the term symmetric and exactly cubic under scaling.
    The expanded graph equation uses G_u / (2 * (1 + |grad u|^2)): expanding
    div(grad u / sqrt(1 + |grad u|^2)) by the quotient rule produces the half
    factor, and only with it does the iterate satisfy the divergence form.
    """
    grad_w = gradient(u.grid.field(grad_u.vx**2 + grad_u.vy**2))
    return grad_u.vx * grad_w.vx + grad_u.vy * grad_w.vy


def evaluate_rhs(spec: RhsSpec, u: GridField, grad_u: VectorField) -> GridField:
    """Nodal samples of f(x, u(x), grad u(x)) for the given family."""
    grid = u.grid
    if isinstance(spec, GradLipschitz):
        s = grad_u.magnitude() ** spec.m
        return grid.field(spec.h.values + np.asarray(spec.F(s), dtype=float))
    if isinstance(spec, GammaG):
        s = grad_u.magnitude() ** spec.m
        return grid.field(spec.gamma.values * np.asarray(spec.g(u.values), dtype=float) * s + spec.h.values)
    if isinstance(spec, MeanCurvature):
        w = grad_u.vx**2 + grad_u.vy**2
        g_term = curvature_coupling(u, grad_u)
        return grid.field(spec.n * np.sqrt(1.0 + w) * spec.H.values + g_term / (2.0 * (1.0 + w)))
    raise TypeError(f"unknown rhs spec {type(spec).__name__}")


def data_norms(spec: RhsSpec, cfg: NormConfig) -> dict:
    """Hölder norms of the data fields the majorant psi needs.

    Raises NonFiniteData when a data field holds NaN or inf: its norm would be
    NaN, and every bound derived from it meaningless.
    """
    if isinstance(spec, GradLipschitz):
        fields = {"h_alpha": spec.h}
    elif isinstance(spec, GammaG):
        fields = {"h_alpha": spec.h, "gamma_alpha": spec.gamma}
    elif isinstance(spec, MeanCurvature):
        fields = {"H_alpha": spec.H}
    else:
        raise TypeError(f"unknown rhs spec {type(spec).__name__}")
    for key, data in fields.items():
        if not np.all(np.isfinite(data.values)):
            raise NonFiniteData(f"data field {key.removesuffix('_alpha')!r} holds NaN or inf")
    return {key: holder_norm(data, cfg) for key, data in fields.items()}


def _require(norms: dict, key: str) -> float:
    if key not in norms or norms[key] is None:
        raise MissingNorm(f"norm {key!r} is required for this nonlinearity")
    return float(norms[key])


def psi(spec: RhsSpec, domain: Domain, norms: dict, t: float) -> float:
    """Growth majorant: |f( . , u, grad u)|_alpha <= psi(|u|_{2,alpha})."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if isinstance(spec, GradLipschitz):
        return _require(norms, "h_alpha") + spec.K * t**spec.m
    if isinstance(spec, GammaG):
        delta = domain.slab_diameter()
        return _require(norms, "h_alpha") + _require(norms, "gamma_alpha") * delta ** (
            spec.k - 1.0
        ) * t ** (spec.m + spec.k)
    if isinstance(spec, MeanCurvature):
        ha = _require(norms, "H_alpha")
        return (1.0 + t * t) * (ha + 2.0 * spec.n**2 * t**3 * (1.0 + t * t))
    raise TypeError(f"unknown rhs spec {type(spec).__name__}")


def _psi_prime(spec: RhsSpec, domain: Domain, norms: dict, t: float) -> float:
    if isinstance(spec, GradLipschitz):
        return spec.K * spec.m * t ** (spec.m - 1.0)
    if isinstance(spec, GammaG):
        p = spec.m + spec.k
        delta = domain.slab_diameter()
        return _require(norms, "gamma_alpha") * delta ** (spec.k - 1.0) * p * t ** (p - 1.0)
    if isinstance(spec, MeanCurvature):
        ha = _require(norms, "H_alpha")
        n2 = 2.0 * spec.n**2
        return 2.0 * t * ha + n2 * (1.0 + t * t) * (3.0 * t * t * (1.0 + t * t) + 4.0 * t**4)
    raise TypeError(f"unknown rhs spec {type(spec).__name__}")


def default_t_max(spec: RhsSpec, norms: dict, lam: float) -> float:
    total = sum(norms.get(k, 0.0) or 0.0 for k in ("h_alpha", "gamma_alpha", "H_alpha"))
    return 10.0 * lam * (total + 1.0)


def smallest_fixed_point(
    spec: RhsSpec, domain: Domain, norms: dict, lam: float, t_max: float | None = None
) -> float | None:
    """Smallest t with lam * psi(t) = t, or None when provably no fixed point.

    gap(t) = lam * psi(t) - t is convex with gap(0) >= 0, so the search
    minimizes the gap first: a positive minimum proves there is no fixed
    point anywhere; otherwise the smallest root sits left of the minimizer
    and bisection finds it. Raises BracketNotFound when the gap is still
    decreasing at t_max (a fixed point may exist beyond the search window).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if t_max is None:
        t_max = default_t_max(spec, norms, lam)

    def gap(t):
        return lam * psi(spec, domain, norms, t) - t

    def gap_prime(t):
        return lam * _psi_prime(spec, domain, norms, t) - 1.0

    if gap(0.0) <= 0.0:
        return 0.0

    if gap_prime(t_max) <= 0.0:
        # gap still decreasing at the window edge
        if gap(t_max) > 0.0:
            raise BracketNotFound(
                f"gap positive but still decreasing at t_max = {t_max:g}; enlarge the window"
            )
        hi = t_max
    else:
        # locate the minimizer: gap' is increasing, negative at 0
        a, b = 0.0, t_max
        for _ in range(200):
            mid = 0.5 * (a + b)
            if gap_prime(mid) <= 0.0:
                a = mid
            else:
                b = mid
            if b - a <= 1e-16 * max(1.0, b):
                break
        if gap(a) > 0.0 and gap(b) > 0.0:
            return None  # convexity: gap >= min > 0 everywhere
        hi = b if gap(b) <= 0.0 else a

    # smallest root lies in [0, hi]; gap is decreasing left of its minimizer
    a, b = 0.0, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if gap(mid) > 0.0:
            a = mid
        else:
            b = mid
        if b - a <= 1e-16 * max(1.0, b):
            break
    return b


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


def admissible_K_threshold(
    spec: GradLipschitz, domain: Domain, C: float, K0: float, kappa_kind: str = "volumetric"
) -> float:
    """Largest admissible Lipschitz constant for the chosen Poincaré convention."""
    if C <= 0:
        raise ValueError("C must be positive")
    consts = domain_constants(domain)
    if kappa_kind == "volumetric":
        candidate = (1.0 / (spec.m * C ** (spec.m - 1.0))) / consts["kappa_volumetric"]
    elif kappa_kind == "slab":
        candidate = math.sqrt(2.0) / (spec.m * C ** (spec.m - 1.0) * consts["slab_diameter"])
    else:
        raise ValueError("kappa_kind must be 'volumetric' or 'slab'")
    return min(candidate, K0)


def k_zero(
    spec: GradLipschitz,
    domain: Domain,
    norms: dict,
    lam: float,
    k_hi: float | None = None,
) -> float:
    """Largest K keeping the smallest fixed point below 2 * lam * |h|_alpha.

    Found by bisection on K; no fixed point counts as exceeding the target.
    """
    h_alpha = _require(norms, "h_alpha")
    target = 2.0 * lam * h_alpha

    def ok(k_val: float) -> bool:
        trial = dataclasses.replace(spec, K=k_val, F=None)
        try:
            t_star = smallest_fixed_point(trial, domain, norms, lam)
        except BracketNotFound:
            return False
        return t_star is not None and t_star <= target

    if k_hi is None:
        k_hi = 10.0 / (lam * lam * max(h_alpha, 1e-30))
    if ok(k_hi):
        return k_hi
    lo, hi = 0.0, k_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
    return lo


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


def select_kappa(domain: Domain, kappa_kind: str) -> float:
    consts = domain_constants(domain)
    if kappa_kind == "volumetric":
        return consts["kappa_volumetric"]
    if kappa_kind == "slab":
        return consts["kappa_slab"]
    if kappa_kind == "min":
        return min(consts["kappa_volumetric"], consts["kappa_slab"])
    raise ValueError("kappa_kind must be 'volumetric', 'slab' or 'min'")


def analyze(
    spec: RhsSpec,
    domain: Domain,
    norms: dict,
    lam: float,
    kappa_kind: str = "min",
) -> ContractionAnalysis:
    """Bundle fixed point, contraction factor and admissibility thresholds."""
    kappa = select_kappa(domain, kappa_kind)
    try:
        c_star = smallest_fixed_point(spec, domain, norms, lam)
    except BracketNotFound:
        c_star = None
    rho = None
    k_threshold = None
    b_const = None
    if c_star is not None:
        fp_gap = abs(lam * psi(spec, domain, norms, c_star) - c_star)
        if fp_gap > 1e-10 * max(1.0, abs(c_star)):
            raise FixedPointInconsistent(
                f"fixed point failed its self-consistency check: gap {fp_gap:g}"
            )
        rho = contraction_bound(spec, c_star, kappa)
        if isinstance(spec, GradLipschitz) and c_star > 0:
            k0 = k_zero(spec, domain, norms, lam)
            kind = "slab" if kappa_kind == "slab" else "volumetric"
            k_threshold = admissible_K_threshold(spec, domain, c_star, k0, kind)
        if isinstance(spec, GammaG):
            b_const = gamma_g_combination(spec, kappa)
    return ContractionAnalysis(
        Lambda=lam,
        kappa=kappa,
        kappa_kind=kappa_kind,
        C=c_star,
        rho=rho,
        K_threshold=k_threshold,
        B=b_const,
        partial=is_partial_bound(spec),
    )
