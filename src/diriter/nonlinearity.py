"""Right-hand-side families f(x, u, grad u) and their contraction analysis.

Three families are supported:

* ``GradLipschitz``   f = h(x) + K * |grad u|^m;
* ``GammaG``          f = gamma(x) * g(u) * |grad u|^m + h(x),
                      g(s) = sign(s) * |s|^(k+1) / (k+1), so that g'(s) = |s|^k;
* ``MeanCurvature``   f = n * sqrt(1 + |grad u|^2) * H(x) + G_u / (2 * (1 + |grad u|^2)),
                      G_u = <grad u, grad |grad u|^2>: the expanded graph
                      mean-curvature equation.

Each family carries its own formulas: its data ``fields``, f on a row slab
(``rhs_slab``), the growth majorant psi(t) for the data norm of f and its
slope, the factor rho bounding |grad v_{i+1}| / |grad v_i| and the analysis
extras. The smallest fixed point of Lambda * psi bounds the iterates and
doubles as the uniqueness-ball radius, and rho predicts the decay of
successive iterate differences.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .calculus import NormConfig, dot_gradient, gradient_slabs, holder_norm, norm_sup, sup_abs
from .domain import Domain, GridField
from .errors import DiriterError


@dataclass(frozen=True)
class GradLipschitz:
    """f = h(x) + K * |grad u|^m."""

    h: GridField
    K: float
    m: float = 2.0
    partial = False  # rho bounds the whole contraction

    def __post_init__(self):
        if not 0.0 <= self.K < math.inf:  # NaN fails
            raise ValueError(f"K = {self.K} must be >= 0 and finite")
        if not 2.0 <= self.m < math.inf:  # NaN fails
            raise ValueError(f"m = {self.m} must be >= 2 and finite")

    def fields(self) -> dict[str, GridField]:
        return {"h": self.h}

    def rhs_slab(self, o, u, rows, keep, vx, vy):
        np.hypot(o, vy[keep], out=o)
        o **= self.m  # |grad u|^m
        o *= self.K
        o += self.h.values[rows]

    def psi(self, domain: Domain, norms: dict, t: float) -> float:
        return _require(norms, "h_alpha") + _times_powers(self.K, (t, self.m))

    def psi_prime(self, domain: Domain, norms: dict, t: float) -> float:
        return _times_powers(self.K * self.m, (t, self.m - 1.0))

    def rho(self, C: float, kappa: float) -> float:
        return _times_powers(self.m, (C, self.m - 1.0)) * self.K * kappa

    def K_threshold(self, domain: Domain, norms: dict, lam: float, C: float) -> float | None:
        """``admissible_K_threshold`` with ``k_zero``'s cap; None at C = 0."""
        return admissible_K_threshold(self, domain, C, k_zero(self, norms, lam)) if C > 0 else None

    def B(self, kappa: float) -> None:
        return None


@dataclass(frozen=True)
class GammaG:
    """f = gamma(x) * g(u) * |grad u|^m + h(x), g(s) = sign(s) |s|^(k+1) / (k+1)."""

    gamma: GridField
    h: GridField
    m: float = 2.0
    k: float = 1.0
    partial = False  # rho bounds the whole contraction

    def __post_init__(self):
        if not 2.0 <= self.m < math.inf:  # NaN fails
            raise ValueError(f"m = {self.m} must be >= 2 and finite")
        if not 0.0 < self.k < math.inf:  # NaN fails
            raise ValueError(f"k = {self.k} must be > 0 and finite")

    def fields(self) -> dict[str, GridField]:
        return {"h": self.h, "gamma": self.gamma}

    def rhs_slab(self, o, u, rows, keep, vx, vy):
        np.hypot(o, vy[keep], out=o)
        o **= self.m  # |grad u|^m
        v = u.values[rows]
        g = np.sign(v) * np.abs(v) ** (self.k + 1) / (self.k + 1)
        g *= self.gamma.values[rows]
        o *= g
        o += self.h.values[rows]

    def psi(self, domain: Domain, norms: dict, t: float) -> float:
        # |gamma|_alpha * delta^(k - 1) * t^(m + k)
        return _require(norms, "h_alpha") + _times_powers(
            _require(norms, "gamma_alpha"), (domain.slab_diameter(), self.k - 1.0),
            (t, self.m + self.k))

    def psi_prime(self, domain: Domain, norms: dict, t: float) -> float:
        p = self.m + self.k
        return p * _times_powers(
            _require(norms, "gamma_alpha"), (domain.slab_diameter(), self.k - 1.0), (t, p - 1.0))

    def rho(self, C: float, kappa: float) -> float:
        return _times_powers(norm_sup(self.gamma) * self.B(kappa), (C, self.m + self.k)) * kappa

    def K_threshold(self, domain: Domain, norms: dict, lam: float, C: float) -> None:
        return None

    def B(self, kappa: float) -> float:
        """B = max(kappa^2, kappa * m / (k + 1)); with kappa = delta / sqrt(2)
        this is exactly max(delta^2 / 2, m * delta / ((k + 1) * sqrt(2)))."""
        return max(kappa * kappa, kappa * self.m / (self.k + 1.0))


@dataclass(frozen=True)
class MeanCurvature:
    """Expanded mean-curvature right-hand side for prescribed curvature H."""

    H: GridField
    n: int = 2
    partial = True  # rho bounds the curvature term's part; the rest has no closed form

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")

    def fields(self) -> dict[str, GridField]:
        return {"H": self.H}

    def rhs_slab(self, o, u, rows, keep, vx, vy):
        """n * sqrt(1 + w) * H + G_u / (2 * (1 + w)), w = |grad u|^2, in place and
        in that order. G_u = 2 u_i u_j u_ij is <grad u, grad w>: differencing w
        once, over the slab's whole window, keeps it symmetric and exactly cubic
        under scaling. Expanding div(grad u / sqrt(1 + w)) by the quotient rule
        gives the half; only with it does the iterate satisfy the divergence form."""
        w = np.square(vx)
        work = np.square(vy)
        w += work
        g_term = dot_gradient(vx, vy, w, u.grid.h, work)[keep]
        w = w[keep]
        w += 1.0
        np.sqrt(w, out=o)
        o *= self.n
        o *= self.H.values[rows]
        w *= 2.0
        g_term /= w
        o += g_term
        return w, work, g_term

    def psi(self, domain: Domain, norms: dict, t: float) -> float:
        ha = _require(norms, "H_alpha")
        return (1.0 + t * t) * (ha + _times_powers(2.0 * self.n**2, (t, 3)) * (1.0 + t * t))

    def psi_prime(self, domain: Domain, norms: dict, t: float) -> float:
        ha = _require(norms, "H_alpha")
        n2 = 2.0 * self.n**2
        quartic = _times_powers(4.0, (t, 4))
        return 2.0 * t * ha + n2 * (1.0 + t * t) * (3.0 * t * t * (1.0 + t * t) + quartic)

    def rho(self, C: float, kappa: float) -> float:
        return math.sqrt(2.0) * kappa * C * norm_sup(self.H)

    def K_threshold(self, domain: Domain, norms: dict, lam: float, C: float) -> None:
        return None

    def B(self, kappa: float) -> None:
        return None


RhsSpec = GradLipschitz | GammaG | MeanCurvature


def evaluate_rhs(spec: RhsSpec, u: GridField) -> GridField:
    """Nodal samples of f(x, u(x), grad u(x)) for the given family.

    grad u is formed a row slab at a time (``calculus.gradient_slabs``), never
    for the whole grid. ``spec.rhs_slab(o, u, rows, keep, vx, vy)`` writes f
    on grid rows ``rows`` over ``o``, given the gradient on the slab's window,
    exact on its rows ``keep``. What it returns (MeanCurvature's temporaries)
    lives until the next slab is formed, as loop locals would: freed sooner, it
    moves later arrays in the heap (3 MB more peak RSS on the 2049 x 257 strip).
    """
    grid = u.grid
    out = None
    for rows, keep, vx, vy in gradient_slabs(u.values, grid.h):
        o = vx[keep]  # the slab's f goes over its ux
        held = spec.rhs_slab(o, u, rows, keep, vx, vy)  # noqa: F841 -- held until the next slab
        if o.shape == grid.shape:  # one slab, whose window is the grid
            out = vx
        else:
            if out is None:
                out = np.empty(grid.shape)
            out[rows] = o
    return grid._own(out)


def check_finite_data(spec: RhsSpec) -> None:
    """Raise DiriterError when a data field holds NaN or inf: its norm would be
    NaN, every bound derived from it meaningless, and every iterate non-finite."""
    for name, data in spec.fields().items():
        if not math.isfinite(sup_abs(data.values)):  # NaN and inf reach the sup
            raise DiriterError(f"data field {name!r} holds NaN or inf")


def data_norms(spec: RhsSpec, cfg: NormConfig) -> dict:
    """Hölder norms ``{name}_alpha`` of the data fields the majorant psi needs;
    raises DiriterError as ``check_finite_data`` does."""
    check_finite_data(spec)
    return {f"{name}_alpha": holder_norm(data, cfg) for name, data in spec.fields().items()}


def _require(norms: dict, key: str) -> float:
    if key not in norms or norms[key] is None:
        raise DiriterError(f"norm {key!r} is required for this nonlinearity")
    return float(norms[key])


_TINY = sys.float_info.min  # the smallest normal double


def _times_powers(c: float, *powers: tuple[float, float]) -> float:
    """c * t1**p1 * t2**p2 * ..., multiplied left to right, for c and every
    base t >= 0 (a zero base has p > 0): 0 when c or a base is 0.

    When a power or the product leaves the normal floats (overflows, or
    underflows to a subnormal or 0), the product comes from logarithms
    instead: a huge factor times a tiny one is then their true product,
    not inf * 0 = NaN, and a product that outgrows the floats is inf, where
    Python float powers raise OverflowError. A majorant that outgrows the
    floats is infinite for the fixed-point search.
    """
    if c == 0.0 or any(t == 0.0 for t, _ in powers):
        return 0.0
    out = c
    for t, p in powers:
        try:
            out *= t**p
        except OverflowError:
            break
    else:
        if _TINY <= out < math.inf:
            return out
    try:
        return math.exp(math.log(c) + sum(p * math.log(t) for t, p in powers))
    except OverflowError:
        return math.inf


def smallest_fixed_point(spec: RhsSpec, domain: Domain, norms: dict, lam: float) -> float | None:
    """Smallest t with lam * psi(t) = t to adjacent doubles, or None when
    there is none.

    gap(t) = lam * psi(t) - t is convex with gap(0) >= 0, so Newton steps
    from t = 0 stay left of its smallest root; each advances at least one
    double. A point with gap > 0 and gap' >= 0 proves that there is no root,
    and so does a step past the largest double (as when lam * psi(0) is
    inf): the root lies beyond it. The first point with gap <= 0 closes a
    bracket, which bisection narrows until the returned t has
    gap(t) <= 0 < gap at the double below it.
    """
    if not 0.0 < lam < math.inf:  # NaN fails
        raise ValueError(f"lam = {lam} must be positive and finite")

    def gap(t):
        return lam * spec.psi(domain, norms, t) - t

    lo = hi = 0.0
    while (g := gap(hi)) > 0.0:
        slope = lam * spec.psi_prime(domain, norms, hi) - 1.0
        if not slope < 0.0:
            return None  # convexity: gap >= g > 0 everywhere
        lo, hi = hi, max(math.nextafter(hi, math.inf), hi - g / slope)
        if hi == math.inf:
            return None

    # gap(lo) > 0 >= gap(hi), or lo = hi = 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def admissible_K_threshold(spec: GradLipschitz, domain: Domain, C: float, K0: float) -> float:
    """Largest admissible Lipschitz constant under the volumetric Poincaré
    constant, capped at the largest double: a smaller bound is still a bound,
    where inf would overstate it."""
    if C <= 0:
        raise ValueError("C must be positive")
    kappa = domain.kappa_volumetric
    slope = _times_powers(spec.m, (C, spec.m - 1.0))  # 0 where it underflows
    return min((1.0 / slope) / kappa if slope else math.inf, K0, sys.float_info.max)


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
    denom = _times_powers(m - 1.0, (m * lam * h_alpha / (m - 1.0), m))  # 0 where it underflows
    return h_alpha / denom if denom else math.inf


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


def analyze(spec: RhsSpec, domain: Domain, norms: dict, lam: float) -> ContractionAnalysis:
    """Bundle fixed point, contraction factor and admissibility thresholds.

    kappa is the smaller of the domain's two Poincaré constants;
    ``K_threshold`` is ``admissible_K_threshold``'s, under the volumetric one.
    """
    kappa = min(domain.kappa_volumetric, domain.kappa_slab)
    c_star = smallest_fixed_point(spec, domain, norms, lam)
    if c_star is None:
        return ContractionAnalysis(Lambda=lam, kappa=kappa, kappa_kind="min", C=None, rho=None,
                                   partial=spec.partial)
    fp_gap = abs(lam * spec.psi(domain, norms, c_star) - c_star)
    if not fp_gap <= 1e-10 * max(1.0, abs(c_star)):  # a NaN gap fails
        raise DiriterError(f"fixed point failed its self-consistency check: gap {fp_gap:g}")
    return ContractionAnalysis(
        Lambda=lam, kappa=kappa, kappa_kind="min", C=c_star, rho=spec.rho(c_star, kappa),
        K_threshold=spec.K_threshold(domain, norms, lam, c_star), B=spec.B(kappa),
        partial=spec.partial)
