"""Reference operators the tests check the library against.

No command computes these. Each is an independent discretization (the
flux-form divergence and the face-difference Dirichlet form), the
whole-grid form of a term the library builds a row slab at a time (the
mean-curvature coupling), a closed-form solution (Cole-Hopf), the
solve-to-data norm ratio of any right-hand side, of which the Λ estimate
is the case ``f = 1``, the right-hand sides of the seeded Λ estimate
that ``f = 1`` replaced (the random trigonometric polynomials), or the
closed-form fields the ``poincare`` command sampled before the grid's
maximizer replaced them.
"""

import numpy as np

from diriter import Grid, GridField, NormConfig, PoissonSolver, c2alpha_estimate, holder_norm
from diriter.calculus import dot_gradient


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


def mc_divergence_residual(u: GridField, H: GridField, n: int = 2) -> GridField:
    """div(grad u / sqrt(1 + |grad u|^2)) - n * H on interior nodes.

    Fluxes are built on cell faces (normal component by compact differences,
    transverse by averaging), so the operator degenerates to the 5-point
    Laplacian when the gradient is small.
    """
    div = flux_divergence(u, face_scale=lambda w2: 1.0 / np.sqrt(1.0 + w2))
    out = np.zeros(u.grid.shape)
    out[1:-1, 1:-1] = div.values[1:-1, 1:-1] - n * H.values[1:-1, 1:-1]
    return u.grid.field(out)


def curvature_coupling(grad_u: tuple[np.ndarray, np.ndarray], h: float) -> np.ndarray:
    """G_u = 2 * du^mu du^nu d_{mu nu} u, assembled as <grad u, grad |grad u|^2>
    from the components ``(ux, uy)`` of grad u on a grid of spacing h.

    Differencing |grad u|^2 once instead of forming the three second
    derivatives keeps the term symmetric and exactly cubic under scaling.
    The expanded graph equation uses G_u / (2 * (1 + |grad u|^2)): expanding
    div(grad u / sqrt(1 + |grad u|^2)) by the quotient rule produces the half
    factor, and only with it does the iterate satisfy the divergence form.
    """
    vx, vy = grad_u
    w = vx**2 + vy**2
    return dot_gradient(vx, vy.copy(), w, h, np.empty_like(w))


def cole_hopf_square(K: float, c: float, x: np.ndarray, y: np.ndarray,
                     modes: int = 801) -> np.ndarray:
    """The solution of laplacian(u) = c + K |grad u|^2 on the unit square with
    u = 0 on the boundary, at the nodes (x[i], y[j]) of two coordinate vectors.

    w = exp(-K u) turns the equation into laplacian(w) + K c w = 0 with w = 1
    on the boundary (Cole-Hopf), so u = -ln(1 + v) / K, where v is the double
    sine series of laplacian(v) + K c v = -K c over the odd modes j, k up to
    ``modes``, with coefficients K b_jk / (pi^2 (j^2 + k^2) - K c) and
    b_jk = 16 c / (pi^2 j k) those of c. It exists while K c < 2 pi^2.
    """
    j = np.arange(1, modes + 1, 2, dtype=float)
    coeffs = (16.0 * K * c / np.pi**2) / (
        np.outer(j, j) * (np.pi**2 * (j[:, None] ** 2 + j[None, :] ** 2) - K * c))
    sx = np.sin(np.pi * x[:, None] * j)  # (len(x), modes)
    sy = np.sin(np.pi * y[:, None] * j)  # (len(y), modes)
    return -np.log1p(sx @ coeffs @ sy.T) / K


def cole_hopf_slab_profile(K: float, c: float, d: float, y: np.ndarray) -> np.ndarray:
    """The x-independent solution of laplacian(u) = c + K |grad u|^2 on the slab
    R x (-d/2, d/2) with u = 0 on its walls: u(y) = -ln(cos(s y) / cos(s d/2)) / K
    with s = sqrt(K c), which exists while K c < pi^2 / d^2. Truncations
    [-n, n] x (-d/2, d/2) approach it at the rate mu = sqrt(pi^2 / d^2 - K c)
    per unit of n, the lowest cross-section mode of the linear problem in w."""
    s = np.sqrt(K * c)
    return -np.log(np.cos(s * y) / np.cos(0.5 * s * d)) / K


def unit_coordinates(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The open mesh mapped onto [0, 1] x [0, 1]: an (nx, 1) column and a (1, ny) row."""
    X, Y = grid.meshgrid()
    return (X - grid.x[0]) / (grid.x[-1] - grid.x[0]), (Y - grid.y[0]) / (grid.y[-1] - grid.y[0])


def poincare_suite(grid: Grid) -> list[tuple[str, GridField]]:
    """Eleven conforming closed-form fields: the nine Laplacian
    eigenfunctions eigen_p_q = sin(p pi x) sin(q pi y) with p, q <= 3 and two
    tensor products, in the coordinates mapped onto the unit square. In the
    continuum eigen_1_1 has the largest ratio ||u||_2 / |u|_{H^1} of any H1_0
    field; on the grid the maximizer's ratio is larger."""
    sx, sy = unit_coordinates(grid)

    def eigen(p, q):
        return f"eigen_{p}_{q}", grid.field(np.sin(p * np.pi * sx) * np.sin(q * np.pi * sy))

    return [
        *(eigen(p, q) for p, q in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3)]),
        ("tensor_parabola", grid.field(sx * (1 - sx) * sy * (1 - sy))),
        ("tensor_mixed", grid.field(sx * (1 - sx) * np.sin(np.pi * sy))),
        *(eigen(p, q) for p, q in [(2, 3), (3, 2), (3, 3)]),
    ]


def random_trig_polynomial(grid: Grid, rng: np.random.Generator) -> GridField:
    """A random trigonometric polynomial of degree 2 on the grid: products of
    ``1, sin(k pi s), cos(k pi s)`` for k = 1, 2 in the coordinates scaled
    to [0, 1], with coefficients uniform in [-1, 1]."""
    sx, sy = unit_coordinates(grid)
    basis = [np.ones_like(sx)]
    basis_y = [np.ones_like(sy)]
    for k in (1, 2):
        basis += [np.sin(k * np.pi * sx), np.cos(k * np.pi * sx)]
        basis_y += [np.sin(k * np.pi * sy), np.cos(k * np.pi * sy)]
    coeffs = rng.uniform(-1.0, 1.0, size=(len(basis), len(basis_y)))
    vals = np.zeros(grid.shape)
    for i, bx in enumerate(basis):
        for j, by in enumerate(basis_y):
            vals += coeffs[i, j] * bx * by
    return grid.field(vals)


def schauder_ratio(f: GridField, cfg: NormConfig) -> float:
    """c2alpha_estimate(u) / holder_norm(f) for the homogeneous solve of f."""
    u = PoissonSolver(f.grid).solve(f)
    denom = holder_norm(f, cfg)
    if denom == 0.0:
        return 0.0
    return c2alpha_estimate(u, cfg) / denom
