"""Discrete differential operators, norms and inequality checks.

Gradients are second-order (central inside, one-sided at the boundary);
integrals use the trapezoidal nodal rule, whose weights make the discrete
integration-by-parts identity with the 5-point Laplacian exact (see
``h1_inner``). Hölder-type quantities are estimated over node pairs and are
lower bounds on their continuum counterparts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Domain, Grid, GridField, VectorField, domain_constants
from .errors import GridTooCoarse, NotConforming

# exhaustive pair enumeration beyond this many nodes is replaced by sampling
_EXHAUSTIVE_NODE_LIMIT = 33 * 33
_DEFAULT_PAIR_BUDGET = 200_000


@dataclass(frozen=True)
class NormConfig:
    """Hölder exponent and pair-sampling budget (0 = exhaustive on small grids)."""

    alpha: float = 0.5
    pair_budget: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.pair_budget < 0:
            raise ValueError("pair_budget must be >= 0")


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

_PLASTIC = 1.3247179572447460260  # real root of t^3 = t + 1


def _sample_pairs(grid: Grid, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic stratified pair sample: all axis-adjacent pairs plus a
    low-discrepancy spread of long-range pairs, truncated to the budget."""
    nx, ny = grid.shape
    n = nx * ny
    idx = np.arange(n).reshape(nx, ny)
    adj = [
        np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1),
        np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1),
    ]
    adjacent = np.concatenate(adj, axis=0)
    m = max(budget - adjacent.shape[0], budget // 2)
    t = np.arange(1, m + 1, dtype=float)
    a = np.floor(((t / _PLASTIC) % 1.0) * n).astype(np.int64)
    b = np.floor(((t / _PLASTIC**2) % 1.0) * n).astype(np.int64)
    keep = a != b
    pairs = np.concatenate([adjacent, np.stack([a[keep], b[keep]], axis=1)], axis=0)
    if pairs.shape[0] > budget:
        pairs = pairs[:budget]
    return pairs[:, 0], pairs[:, 1]


_PairGeometry = tuple[np.ndarray, np.ndarray, np.ndarray]

# The last geometry built, as (key, geometry). A command works on one grid at a
# time, so one entry serves every Hölder maximum of that grid.
_geometry_memo: tuple[tuple, _PairGeometry] | None = None


def _read_only_copy(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr)
    out.flags.writeable = False
    return out


def _pair_geometry(grid: Grid, alpha: float, pair_budget: int) -> _PairGeometry:
    """Node pairs (a, b) of the Hölder maxima and |x_a - x_b|**alpha: every pair
    on small grids when pair_budget is 0, else the deterministic sample.

    The result is memoized for the last (grid, alpha, pair_budget) seen and is
    read-only. The key holds the node coordinates themselves, not (h, shape):
    the distances come from absolute coordinates, so the origin moves round-off.
    """
    global _geometry_memo
    key = (grid.x.tobytes(), grid.y.tobytes(), alpha, pair_budget)
    if _geometry_memo is not None and _geometry_memo[0] == key:
        return _geometry_memo[1]
    _geometry_memo = None  # free the old arrays before the new ones are built
    n = grid.nx * grid.ny
    if pair_budget == 0 and n <= _EXHAUSTIVE_NODE_LIMIT:
        a, b = np.triu_indices(n, k=1)
    else:
        a, b = _sample_pairs(grid, pair_budget if pair_budget > 0 else _DEFAULT_PAIR_BUDGET)
    X, Y = grid.meshgrid()
    px, py = X.ravel(), Y.ravel()
    dist_alpha = np.hypot(px[a] - px[b], py[a] - py[b]) ** alpha
    # owned copies: the sampled a, b are views into a much larger pair array
    geometry = (_read_only_copy(a), _read_only_copy(b), _read_only_copy(dist_alpha))
    _geometry_memo = (key, geometry)
    return geometry


def _pair_ratio_max(values: np.ndarray, geometry: _PairGeometry) -> float:
    a, b, dist_alpha = geometry
    flat = values.ravel()
    return float(np.max(np.abs(flat[a] - flat[b]) / dist_alpha)) if a.size else 0.0


def holder_seminorm(u: GridField, cfg: NormConfig) -> float:
    """max over node pairs of |u(x) - u(y)| / |x - y|^alpha (a lower bound)."""
    return _pair_ratio_max(u.values, _pair_geometry(u.grid, cfg.alpha, cfg.pair_budget))


def holder_norm(u: GridField, cfg: NormConfig) -> float:
    return norm_sup(u) + holder_seminorm(u, cfg)


def c2alpha_estimate(u: GridField, cfg: NormConfig) -> float:
    """Discrete C^{2,alpha} surrogate: sup norms of u and its difference
    derivatives up to order two, plus the Hölder seminorms of the second ones."""
    g = u.grid
    if min(g.shape) < 5:
        raise GridTooCoarse("c2alpha_estimate needs at least 5 nodes per axis")
    h = g.h
    ux = _d_axis(u.values, h, 0)
    uy = _d_axis(u.values, h, 1)
    uxx = _d2_axis(u.values, h, 0)
    uyy = _d2_axis(u.values, h, 1)
    uxy = _d_axis(ux, h, 1)
    total = float(np.max(np.abs(u.values)))
    total += float(np.max(np.abs(ux))) + float(np.max(np.abs(uy)))
    geometry = _pair_geometry(g, cfg.alpha, cfg.pair_budget)
    for d2 in (uxx, uxy, uyy):
        total += float(np.max(np.abs(d2)))
        total += _pair_ratio_max(d2, geometry)
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
