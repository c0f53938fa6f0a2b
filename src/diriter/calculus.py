"""Discrete differential operators, norms and inequality checks.

Gradients are second-order (central inside, one-sided at the boundary);
integrals use the trapezoidal nodal rule, whose weights make the discrete
integration-by-parts identity with the 5-point Laplacian exact (see
``h1_inner``). Hölder-type quantities are maxima over the node pairs of a
fixed set of displacements, each taken on a sub-lattice of bounded size, so
they are lower bounds on the maxima over all node pairs and on their
continuum counterparts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # used by the Λ estimate; loaded with the package, not mid-command

from .domain import Domain, Grid, GridField, VectorField, domain_constants
from .errors import GridTooCoarse, NotConforming

@dataclass(frozen=True)
class NormConfig:
    """Hölder exponent of the C^alpha and C^{2,alpha} estimates."""

    alpha: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


def _d_axis(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order first derivative along one axis."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def _d2_axis(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order second derivative along one axis (needs >= 4 nodes)."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    h2 = h * h
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    return np.moveaxis(out, 0, axis)


def gradient(u: GridField) -> VectorField:
    """Nodal gradient: central differences inside, one-sided at the boundary."""
    g = u.grid
    return g.vector_field(_d_axis(u.values, g.h, 0), _d_axis(u.values, g.h, 1))


def laplacian_apply(u: GridField) -> GridField:
    """5-point Laplacian at interior nodes; boundary entries are 0."""
    g = u.grid
    v = u.values
    out = np.zeros(g.shape)
    out[1:-1, 1:-1] = (
        v[2:, 1:-1] + v[:-2, 1:-1] + v[1:-1, 2:] + v[1:-1, :-2] - 4.0 * v[1:-1, 1:-1]
    ) / (g.h * g.h)
    return g.field(out)


def divergence(v: VectorField) -> GridField:
    """Flux-form divergence of a nodal vector field at interior nodes.

    Face fluxes are two-point averages of the adjacent nodal samples, so the
    interior stencil telescopes to central differences; boundary entries 0.
    """
    g = v.grid
    h = g.h
    out = np.zeros(g.shape)
    out[1:-1, 1:-1] = (v.vx[2:, 1:-1] - v.vx[:-2, 1:-1] + v.vy[1:-1, 2:] - v.vy[1:-1, :-2]) / (
        2.0 * h
    )
    return g.field(out)


def flux_divergence(u: GridField, face_scale=None) -> GridField:
    """Divergence of (scale * grad u) with the gradient formed on cell faces.

    The normal component on a face is the compact two-point difference, the
    transverse one a four-point average; with ``face_scale`` identically 1
    the result equals ``laplacian_apply`` at interior nodes to the last bit.
    ``face_scale`` receives the squared face-gradient magnitude.
    """
    g = u.grid
    v = u.values
    h = g.h

    # x-faces (i+1/2, j), interior rows j only
    gx_n = (v[1:, 1:-1] - v[:-1, 1:-1]) / h
    gx_t = (v[1:, 2:] + v[:-1, 2:] - v[1:, :-2] - v[:-1, :-2]) / (4.0 * h)
    fx = gx_n if face_scale is None else gx_n * face_scale(gx_n * gx_n + gx_t * gx_t)

    # y-faces (i, j+1/2), interior columns i only
    gy_n = (v[1:-1, 1:] - v[1:-1, :-1]) / h
    gy_t = (v[2:, 1:] + v[2:, :-1] - v[:-2, 1:] - v[:-2, :-1]) / (4.0 * h)
    fy = gy_n if face_scale is None else gy_n * face_scale(gy_t * gy_t + gy_n * gy_n)

    out = np.zeros(g.shape)
    out[1:-1, 1:-1] = (fx[1:, :] - fx[:-1, :]) / h + (fy[:, 1:] - fy[:, :-1]) / h
    return g.field(out)


def integrate(u: GridField) -> float:
    return float(np.sum(u.grid.quad_weights() * u.values))


def norm_l2(u: GridField) -> float:
    return math.sqrt(float(np.sum(u.grid.quad_weights() * u.values**2)))


def norm_sup(u: GridField) -> float:
    return float(np.max(np.abs(u.values)))


def norm_l2_vector(v: VectorField) -> float:
    w = v.grid.quad_weights()
    return math.sqrt(float(np.sum(w * (v.vx**2 + v.vy**2))))


def norm_h1semi(u: GridField) -> float:
    """L2 norm of the nodal gradient (the H1_0 seminorm used throughout)."""
    return norm_l2_vector(gradient(u))


def h1_inner(u: GridField, v: GridField) -> float:
    """Face-difference Dirichlet form; the 5-point stencil's natural inner product.

    For v vanishing on the boundary, h^2 * sum_interior v * (-laplacian u)
    equals this exactly (discrete integration by parts).
    """
    g = u.grid
    h = g.h
    dxu = np.diff(u.values, axis=0) / h
    dxv = np.diff(v.values, axis=0) / h
    dyu = np.diff(u.values, axis=1) / h
    dyv = np.diff(v.values, axis=1) / h
    sx = np.sum(dxu[:, 1:-1] * dxv[:, 1:-1])
    sy = np.sum(dyu[1:-1, :] * dyv[1:-1, :])
    return float((sx + sy) * h * h)


# ---------------------------------------------------------------------------
# Hölder estimators
# ---------------------------------------------------------------------------

# Hölder maxima run over node displacements 2**k * e, k >= 0: every e with
# |e|_inf <= 2 at k = 0 and 1 < |e|_inf <= 2 above, one of each pair +-e, plus
# the full-extent axis and diagonal displacements, which make linear fields
# along an axis or a diagonal exact. Each displacement is evaluated on a
# sub-lattice of at most _MAX_PAIRS node pairs, so a field costs O(log n) slices.
_BASE_STEPS = tuple((i, j) for i in range(3) for j in range(-2, 3) if i > 0 or j > 0)
_RING_STEPS = tuple(e for e in _BASE_STEPS if max(abs(e[0]), abs(e[1])) == 2)
_MAX_PAIRS = 1 << 12


def _displacements(nx: int, ny: int) -> list[tuple[int, int]]:
    """The displacement set of an nx-by-ny node grid (first entry >= 0)."""
    out = {(nx - 1, 0), (0, ny - 1), (nx - 1, ny - 1), (nx - 1, 1 - ny)}
    steps, scale = _BASE_STEPS, 1
    while True:
        fit = [(scale * i, scale * j) for i, j in steps if scale * i < nx and scale * abs(j) < ny]
        if not fit:
            return sorted(out)
        out.update(fit)
        steps, scale = _RING_STEPS, 2 * scale


def _stride(mx: int, my: int) -> int:
    """Smallest stride s with ceil(mx / s) * ceil(my / s) <= _MAX_PAIRS."""
    s = max(1, math.isqrt(mx * my // _MAX_PAIRS))
    while -(-mx // s) * -(-my // s) > _MAX_PAIRS:
        s += 1
    return s


def _pair_slices(n: int, d: int, s: int) -> tuple[slice, slice]:
    """Along one axis of n nodes: the nodes i + d and i of the pairs, stride s."""
    return (slice(d, n, s), slice(0, n - d, s)) if d >= 0 else (slice(0, n + d, s), slice(-d, n, s))


def _holder_max(values: np.ndarray, h: float, alpha: float) -> float:
    """max |v(a) - v(b)| / |a - b|**alpha over the node pairs of the displacement set.

    Each displacement's largest difference is divided once by its distance;
    rounding is monotone, so that is the maximum of the pairwise quotients.
    """
    nx, ny = values.shape
    disps = _displacements(nx, ny)
    diffs = np.empty(len(disps))
    for k, (di, dj) in enumerate(disps):
        s = _stride(nx - di, ny - abs(dj))
        xa, xb = _pair_slices(nx, di, s)
        ya, yb = _pair_slices(ny, dj, s)
        diffs[k] = np.max(np.abs(values[xa, ya] - values[xb, yb]))
    dist = h * np.hypot(*np.array(disps, dtype=float).T)
    return float(np.max(diffs / dist**alpha))


def holder_seminorm(u: GridField, cfg: NormConfig) -> float:
    """Hölder seminorm [u]_alpha, maximised over the node pairs of a displacement
    set (see ``_holder_max``): a lower bound on the maximum over all node pairs."""
    return _holder_max(u.values, u.grid.h, cfg.alpha)


def holder_norm(u: GridField, cfg: NormConfig) -> float:
    return norm_sup(u) + holder_seminorm(u, cfg)


def c2alpha_estimate(u: GridField, cfg: NormConfig, grad: VectorField | None = None) -> float:
    """Discrete C^{2,alpha} surrogate: sup norms of u and its difference
    derivatives up to order two, plus the Hölder seminorms of the second ones.

    ``grad`` is ``gradient(u)`` when the caller already holds it.
    """
    g = u.grid
    if min(g.shape) < 5:
        raise GridTooCoarse("c2alpha_estimate needs at least 5 nodes per axis")
    h = g.h
    if grad is None:
        grad = gradient(u)
    ux, uy = grad.vx, grad.vy
    uxx = _d2_axis(u.values, h, 0)
    uyy = _d2_axis(u.values, h, 1)
    uxy = _d_axis(ux, h, 1)
    total = float(np.max(np.abs(u.values)))
    total += float(np.max(np.abs(ux))) + float(np.max(np.abs(uy)))
    for d2 in (uxx, uxy, uyy):
        total += float(np.max(np.abs(d2)))
        total += _holder_max(d2, h, cfg.alpha)
    return total


# ---------------------------------------------------------------------------
# Poincaré verification
# ---------------------------------------------------------------------------


def verify_poincare(u: GridField, domain: Domain) -> dict:
    """Check ||u||_2 against both Poincaré right-hand sides with O(h) slack."""
    scale = 1.0 + norm_sup(u)
    if np.max(np.abs(u.boundary_values())) > 1e-12 * scale:
        raise NotConforming("verify_poincare needs zero boundary values")
    consts = domain_constants(domain)
    lhs = norm_l2(u)
    gn = norm_h1semi(u)
    slack = 2.0 * u.grid.h * gn
    rhs_vol = consts["kappa_volumetric"] * gn
    rhs_slab = consts["kappa_slab"] * gn
    return {
        "lhs": lhs,
        "rhs_vol": rhs_vol,
        "rhs_slab": rhs_slab,
        "holds_vol": lhs <= rhs_vol + slack,
        "holds_slab": lhs <= rhs_slab + slack,
    }


def poincare_suite(grid: Grid, count: int = 20, seed: int = 0) -> list[tuple[str, GridField]]:
    """Built-in H1_0-conforming test fields: Laplacian eigenfunctions, tensor
    products and random trigonometric bump superpositions."""
    X, Y = grid.meshgrid()
    lx = max(grid.extent_x, np.finfo(float).tiny)
    ly = max(grid.extent_y, np.finfo(float).tiny)
    sx = (X - grid.x[0]) / lx
    sy = (Y - grid.y[0]) / ly
    fields: list[tuple[str, GridField]] = []
    for p, q in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3)]:
        fields.append(
            (f"eigen_{p}_{q}", grid.field(np.sin(p * np.pi * sx) * np.sin(q * np.pi * sy)))
        )
    fields.append(("tensor_parabola", grid.field(sx * (1 - sx) * sy * (1 - sy))))
    fields.append(("tensor_mixed", grid.field(sx * (1 - sx) * np.sin(np.pi * sy))))
    rng = np.random.default_rng(seed)
    k = 0
    while len(fields) < count:
        coeffs = rng.uniform(-1.0, 1.0, size=(3, 3))
        bump = np.zeros(grid.shape)
        for p in range(1, 4):
            for q in range(1, 4):
                bump += coeffs[p - 1, q - 1] * np.sin(p * np.pi * sx) * np.sin(q * np.pi * sy)
        fields.append((f"bump_{k}", grid.field(bump)))
        k += 1
    return fields[:count]


# ---------------------------------------------------------------------------
# Empirical Schauder constant
# ---------------------------------------------------------------------------


def random_trig_polynomial(grid: Grid, rng: np.random.Generator, max_freq: int = 2) -> GridField:
    """Random bounded-degree trigonometric polynomial on the grid."""
    X, Y = grid.meshgrid()
    sx = (X - grid.x[0]) / max(grid.extent_x, np.finfo(float).tiny)
    sy = (Y - grid.y[0]) / max(grid.extent_y, np.finfo(float).tiny)
    basis = [np.ones_like(sx)]
    basis_y = [np.ones_like(sy)]
    for k in range(1, max_freq + 1):
        basis += [np.sin(k * np.pi * sx), np.cos(k * np.pi * sx)]
        basis_y += [np.sin(k * np.pi * sy), np.cos(k * np.pi * sy)]
    coeffs = rng.uniform(-1.0, 1.0, size=(len(basis), len(basis_y)))
    vals = np.zeros(grid.shape)
    for i, bx in enumerate(basis):
        for j, by in enumerate(basis_y):
            vals += coeffs[i, j] * bx * by
    return grid.field(vals)


def schauder_ratio(grid: Grid, f: GridField, cfg: NormConfig, solver=None) -> float:
    """c2alpha_estimate(u) / holder_norm(f) for the homogeneous solve of f."""
    from .poisson import PoissonSolver

    solver = solver or PoissonSolver(grid)
    u = solver.solve(f)
    denom = holder_norm(f, cfg)
    if denom == 0.0:
        return 0.0
    return c2alpha_estimate(u, cfg) / denom


def estimate_schauder_constant(grid: Grid, cfg: NormConfig, trials: int, seed: int) -> float:
    """Empirical bound-constant estimate: max solve-to-data norm ratio over
    seeded random trigonometric right-hand sides."""
    from .poisson import PoissonSolver

    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    solver = PoissonSolver(grid)
    best = 0.0
    for _ in range(trials):
        f = random_trig_polynomial(grid, rng)
        best = max(best, schauder_ratio(grid, f, cfg, solver=solver))
    return best
