"""Discrete differential operators, norms and inequality checks.

Gradients are second-order (central inside, one-sided at the boundary);
integrals use the trapezoidal nodal rule, whose weights make the discrete
integration-by-parts identity with the 5-point Laplacian exact (see
``h1_inner``). Hölder-type quantities are maxima over the node pairs of a
fixed set of displacements, each taken on a sub-lattice of bounded size, so
they are lower bounds on the maxima over all node pairs and on their
continuum counterparts. Sup norms are ``max(max v, -min v)`` (``sup_abs``):
two reads of the array and no ``|v|`` temporary, equal to ``max |v|`` to the
bit, NaN and signed zeros included.

Operators return fields that own fresh read-only arrays (``Grid._own``), so
no result is copied on its way out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Domain, Grid, GridField, VectorField, domain_constants
from .errors import GridTooCoarse, NotConforming

@dataclass(frozen=True)
class NormConfig:
    """Hölder exponent of the C^alpha and C^{2,alpha} estimates."""

    alpha: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


# The difference operators below run their interior stencil on the flattened
# (C-order) node array: a neighbour along axis 0 sits ny entries away, one
# along axis 1 a single entry away, so each term is one contiguous pass
# instead of one pass per grid row. Along axis 1 the flat range also covers
# the boundary columns, where the stencil wraps into the next row; those
# entries are overwritten by the one-sided formulas.


def _d_axis(values: np.ndarray, h: float, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Second-order first derivative along one axis, written into ``out``
    (C-contiguous; a fresh array by default), which is returned."""
    if out is None:
        out = np.empty(values.shape)
    k = values.shape[1] if axis == 0 else 1  # flat offset of one node step
    v = values.reshape(-1)
    inner = out.reshape(-1)[k:-k]
    np.subtract(v[2 * k :], v[: -2 * k], out=inner)
    inner /= 2.0 * h
    v = np.moveaxis(values, axis, 0)
    o = np.moveaxis(out, axis, 0)
    o[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    o[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return out


def _d2_axis(values: np.ndarray, h: float, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Second-order second derivative along one axis (needs >= 4 nodes), written
    into ``out`` (C-contiguous; a fresh array by default), which is returned."""
    if out is None:
        out = np.empty(values.shape)
    h2 = h * h
    k = values.shape[1] if axis == 0 else 1  # flat offset of one node step
    v = values.reshape(-1)
    inner = out.reshape(-1)[k:-k]
    np.multiply(v[k:-k], 2.0, out=inner)
    np.subtract(v[2 * k :], inner, out=inner)
    inner += v[: -2 * k]
    inner /= h2
    v = np.moveaxis(values, axis, 0)
    o = np.moveaxis(out, axis, 0)
    o[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
    o[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    return out


def gradient(u: GridField) -> VectorField:
    """Nodal gradient: central differences inside, one-sided at the boundary."""
    g = u.grid
    return g._own_vector(_d_axis(u.values, g.h, 0), _d_axis(u.values, g.h, 1))


def dot_gradient(v: VectorField, w: np.ndarray) -> np.ndarray:
    """``v . gradient(w)`` at every node, as a fresh array (``w`` holds node values)."""
    h = v.grid.h
    out = _d_axis(w, h, 0)
    out *= v.vx
    wy = _d_axis(w, h, 1)
    wy *= v.vy
    out += wy
    return out


def laplacian_apply(u: GridField, out: np.ndarray | None = None) -> GridField:
    """5-point Laplacian at interior nodes; boundary entries are 0.

    With ``out``, a writable C-contiguous float64 array of the grid's shape,
    the values are written there and the result is a read-only view of
    ``out``: it changes when the caller next writes ``out``.
    """
    g = u.grid
    ny = g.ny
    if out is None:
        lap = np.empty(g.shape)
    elif out.shape == g.shape and out.dtype == np.float64 and out.flags.c_contiguous:
        lap = out
    else:
        raise ValueError("out must be a C-contiguous float64 array of the grid's shape")
    # flat range from the first interior node to the last (see _d_axis);
    # the boundary columns inside it are zeroed below
    v = u.values.reshape(-1)
    a, b = ny + 1, v.size - ny - 1
    inner = lap.reshape(-1)[a:b]
    np.add(v[a + ny : b + ny], v[a - ny : b - ny], out=inner)
    inner += v[a + 1 : b + 1]
    inner += v[a - 1 : b - 1]
    inner -= 4.0 * v[a:b]
    inner /= g.h * g.h
    lap[0] = lap[-1] = 0.0
    lap[:, 0] = lap[:, -1] = 0.0
    if out is None:
        return g._own(lap)
    view = lap.view()
    view.flags.writeable = False
    return GridField(g, view)


def flux_divergence(u: GridField, face_scale) -> GridField:
    """Divergence of (scale * grad u) with the gradient formed on cell faces.

    The normal component on a face is the compact two-point difference, the
    transverse one a four-point average; with ``face_scale`` identically 1
    the result is ``laplacian_apply`` at interior nodes up to rounding (the
    sums are grouped differently, so the last bits can differ).
    ``face_scale`` receives the squared face-gradient magnitude.
    """
    g = u.grid
    v = u.values
    h = g.h

    # x-faces (i+1/2, j), interior rows j only
    gx_n = (v[1:, 1:-1] - v[:-1, 1:-1]) / h
    gx_t = (v[1:, 2:] + v[:-1, 2:] - v[1:, :-2] - v[:-1, :-2]) / (4.0 * h)
    fx = gx_n * face_scale(gx_n * gx_n + gx_t * gx_t)

    # y-faces (i, j+1/2), interior columns i only
    gy_n = (v[1:-1, 1:] - v[1:-1, :-1]) / h
    gy_t = (v[2:, 1:] + v[2:, :-1] - v[:-2, 1:] - v[:-2, :-1]) / (4.0 * h)
    fy = gy_n * face_scale(gy_t * gy_t + gy_n * gy_n)

    out = np.zeros(g.shape)
    out[1:-1, 1:-1] = (fx[1:, :] - fx[:-1, :]) / h + (fy[:, 1:] - fy[:, :-1]) / h
    return g.field(out)


def norm_l2(u: GridField) -> float:
    return math.sqrt(float(np.sum(u.grid.quad_weights() * u.values**2)))


def sup_abs(values: np.ndarray) -> float:
    """``max |values|`` without forming ``|values|``: bitwise equal to
    ``np.max(np.abs(values))``; NaN anywhere gives NaN, and -0.0 counts as 0.0."""
    return abs(float(max(values.max(), -values.min())))


def norm_sup(u: GridField) -> float:
    return sup_abs(u.values)


def norm_h1semi(u: GridField) -> float:
    """L2 norm of the nodal gradient (the H1_0 seminorm used throughout):
    sqrt(sum(w * (ux**2 + uy**2))) with the trapezoidal weights w, the squares
    formed in place in the derivative arrays."""
    h = u.grid.h
    s = _d_axis(u.values, h, 0)
    s *= s
    sy = _d_axis(u.values, h, 1)
    sy *= sy
    s += sy
    del sy  # freed before the weights are allocated
    s *= u.grid.quad_weights()
    return math.sqrt(float(np.sum(s)))


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
        diffs[k] = sup_abs(values[xa, ya] - values[xb, yb])
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
    total = sup_abs(u.values)
    total += sup_abs(ux) + sup_abs(uy)
    work = np.empty(g.shape)  # holds uxx, uxy and uyy in turn
    for diff, src, axis in ((_d2_axis, u.values, 0), (_d_axis, ux, 1), (_d2_axis, u.values, 1)):
        d2 = diff(src, h, axis, work)
        total += sup_abs(d2)
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
    if count < 1:
        raise ValueError(f"the Poincaré suite needs at least one field, not {count}")
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


_TRIG_DEGREE = 2  # highest frequency of the Λ estimate's right-hand sides


def random_trig_polynomial(grid: Grid, rng: np.random.Generator) -> GridField:
    """Random trigonometric polynomial of degree ``_TRIG_DEGREE`` on the grid."""
    X, Y = grid.meshgrid()
    sx = (X - grid.x[0]) / max(grid.extent_x, np.finfo(float).tiny)
    sy = (Y - grid.y[0]) / max(grid.extent_y, np.finfo(float).tiny)
    basis = [np.ones_like(sx)]
    basis_y = [np.ones_like(sy)]
    for k in range(1, _TRIG_DEGREE + 1):
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
    # numpy.random loads on this first use (as in poincare_suite), so commands
    # that estimate no Λ do not pay its import
    rng = np.random.default_rng(seed)
    solver = PoissonSolver(grid)
    best = 0.0
    for _ in range(trials):
        f = random_trig_polynomial(grid, rng)
        best = max(best, schauder_ratio(grid, f, cfg, solver=solver))
    return best
