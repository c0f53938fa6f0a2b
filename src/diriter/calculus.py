"""Discrete differential operators, norms and inequality checks.

Gradients are second-order (central inside, one-sided at the boundary);
integrals use the trapezoidal nodal rule. Hölder-type quantities are maxima
over the node pairs of a fixed set of displacements, each taken on a
sub-lattice of bounded size, so they are lower bounds on the maxima over all
node pairs and on their continuum counterparts. Sup norms are
``max(max v, -min v)`` (``sup_abs``): two reads of the array and no ``|v|``
temporary, equal to ``max |v|`` to the bit, NaN and signed zeros included.

Operators return fields that own fresh read-only arrays (``Grid._own``), so
no result is copied on its way out. The operators applied to every iterate
form their derivatives a row slab at a time (``gradient_slabs``), so no
derivative of a whole grid is held at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Domain, Grid, GridField, sup_abs
from .errors import DiriterError

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
    v, o = (values, out) if axis == 0 else (values.T, out.T)  # axis first
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
    v, o = (values, out) if axis == 0 else (values.T, out.T)  # axis first
    o[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
    o[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    return out


# Per-iterate operators run over row slabs of about _SLAB_DOUBLES nodes
# (256 KiB, so that a slab and its temporaries stay in cache). A slab reads
# _HALO more rows on each side. The rows next to a cut get one-sided
# differences there, which are wrong for the whole grid; a difference of a
# difference (|grad u|^2 differenced once more) carries that two rows in,
# and at the grid's ends it reads four rows, so a slab of one row needs three
# more. The rows outside the slab are dropped, and every kept node gets the
# operations it gets on the whole grid: results are bitwise those of one
# slab. A grid of at most _SLAB_DOUBLES nodes is one slab.
#
# The operators work in place over the derivative arrays and keep few other
# temporaries. glibc hands a free heap top of more than about two fields
# back to the OS, so a call that frees many fields at once pays page faults
# on the next: with a fresh array per step, a solve loop on a 513 x 33 grid
# faulted 2900 times, against 830 in place.
_SLAB_DOUBLES = 1 << 15
_HALO = 3


def _row_slabs(shape: tuple[int, int]):
    """(rows, window, keep) per slab: the slab's rows of the grid, the rows it
    reads (the halo included), and the slab's rows within those."""
    nx, ny = shape
    step = max(1, _SLAB_DOUBLES // ny)
    for a in range(0, nx, step):
        b = min(a + step, nx)
        lo, hi = max(a - _HALO, 0), min(b + _HALO, nx)
        yield slice(a, b), slice(lo, hi), slice(a - lo, b - lo)


def gradient_slabs(values: np.ndarray, h: float, minus: np.ndarray | None = None):
    """(rows, keep, vx, vy) per slab: the gradient's components on the slab's
    window of rows (``_row_slabs``), exact on rows ``keep``. With ``minus``,
    the gradient of ``values - minus``, the difference formed on the window
    only."""
    for rows, window, keep in _row_slabs(values.shape):
        v = values[window] if minus is None else np.subtract(values[window], minus[window])
        yield rows, keep, _d_axis(v, h, 0), _d_axis(v, h, 1)


def gradient(u: GridField) -> tuple[np.ndarray, np.ndarray]:
    """Nodal gradient (ux, uy), two fresh read-only arrays: central
    differences inside, one-sided at the boundary."""
    ux, uy = _d_axis(u.values, u.grid.h, 0), _d_axis(u.values, u.grid.h, 1)
    ux.flags.writeable = uy.flags.writeable = False
    return ux, uy


def dot_gradient(vx: np.ndarray, vy: np.ndarray, w: np.ndarray, h: float,
                 work: np.ndarray) -> np.ndarray:
    """``(vx, vy) . gradient(w)`` at every node of C-contiguous node arrays of
    one shape, written over ``vy``, which is returned; ``work`` is
    overwritten too."""
    _d_axis(w, h, 1, work)
    work *= vy
    out = _d_axis(w, h, 0, vy)
    out *= vx
    out += work
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
    # flat range from the first interior node to the last (see _d_axis), in
    # chunks of a slab; the boundary columns inside it are zeroed below
    v = u.values.reshape(-1)
    flat = lap.reshape(-1)
    h2 = g.h * g.h
    a, b = ny + 1, v.size - ny - 1
    four_v = np.empty(min(_SLAB_DOUBLES, b - a))
    for s in range(a, b, _SLAB_DOUBLES):
        e = min(s + _SLAB_DOUBLES, b)
        inner = flat[s:e]
        np.add(v[s + ny : e + ny], v[s - ny : e - ny], out=inner)
        inner += v[s + 1 : e + 1]
        inner += v[s - 1 : e - 1]
        inner -= np.multiply(v[s:e], 4.0, out=four_v[: e - s])
        inner /= h2
    lap[0] = lap[-1] = 0.0
    lap[:, 0] = lap[:, -1] = 0.0
    if out is None:
        return g._own(lap)
    view = lap.view()
    view.flags.writeable = False
    return GridField(g, view)


def norm_l2(u: GridField) -> float:
    return math.sqrt(float(np.sum(np.outer(*u.grid.axis_weights()) * u.values**2)))


def norm_sup(u: GridField) -> float:
    return sup_abs(u.values)


def norm_h1semi(u: GridField, v: GridField | None = None) -> float:
    """L2 norm of the nodal gradient (the H1_0 seminorm used throughout) of
    u, or of u - v when ``v`` is given: sqrt(sum(w * (ux**2 + uy**2))) with
    the trapezoidal weights w.

    The difference and the weighted squares are formed a row slab at a time,
    the squares over the derivative arrays, and gathered into one field,
    which a single ``np.sum`` reads, so the pairwise summation order is that
    of the whole field.
    """
    grid = u.grid
    if v is not None and v.grid != grid:
        raise ValueError("v lives on a different grid")
    wx, wy = grid.axis_weights()
    s = None
    for rows, keep, vx, vy in gradient_slabs(u.values, grid.h, None if v is None else v.values):
        sx, sy = vx[keep], vy[keep]
        sx *= sx
        sy *= sy
        sx += sy
        sx *= np.multiply(wx[rows, None], wy, out=sy)
        if sx.shape == grid.shape:  # one slab, whose window is the grid
            s = sx
        else:
            if s is None:
                s = np.empty(grid.shape)
            s[rows] = sx
    return math.sqrt(float(np.sum(s)))


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


def c2alpha_estimate(u: GridField, cfg: NormConfig) -> float:
    """Discrete C^{2,alpha} surrogate: sup norms of u and its difference
    derivatives up to order two, plus the Hölder seminorms of the second ones.

    The first derivatives are formed a row slab at a time, each slab giving
    its sup norms and its rows of uxy; one field holds uxy, uxx and uyy in turn.
    """
    g = u.grid
    if min(g.shape) < 5:
        raise DiriterError("c2alpha_estimate needs at least 5 nodes per axis")
    h = g.h
    work = np.empty(g.shape)

    def terms(d2):  # sup norm and Hölder seminorm of a second derivative
        return sup_abs(d2), _holder_max(d2, h, cfg.alpha)

    sup_x, sup_y = [], []
    for rows, keep, vx, vy in gradient_slabs(u.values, h):
        ux = vx[keep]
        sup_x.append(sup_abs(ux))
        sup_y.append(sup_abs(vy[keep]))
        _d_axis(ux, h, 1, work[rows])
    uxy = terms(work)
    uxx = terms(_d2_axis(u.values, h, 0, work))
    uyy = terms(_d2_axis(u.values, h, 1, work))

    total = sup_abs(u.values)
    total += float(np.max(sup_x)) + float(np.max(sup_y))
    for sup_d2, holder_d2 in (uxx, uxy, uyy):
        total += sup_d2
        total += holder_d2
    return total


# ---------------------------------------------------------------------------
# Poincaré verification
# ---------------------------------------------------------------------------


def verify_poincare(u: GridField, domain: Domain) -> dict:
    """Check ||u||_2 against both Poincaré right-hand sides with O(h) slack.

    A norm that leaves the floats (inf or NaN, or 0 where the other is not)
    is a DiriterError: the check would read it as a failed inequality."""
    if not u.is_conforming():
        raise DiriterError("verify_poincare needs zero boundary values")
    lhs = norm_l2(u)
    gn = norm_h1semi(u)
    if not (math.isfinite(lhs) and math.isfinite(gn)) or (lhs == 0.0) != (gn == 0.0):
        raise DiriterError(
            f"verify_poincare: the norms leave the floats (||u||_2 = {lhs:g}, |u|_H1 = {gn:g})")
    slack = 2.0 * u.grid.h * gn
    rhs_vol = domain.kappa_volumetric * gn
    rhs_slab = domain.kappa_slab * gn
    return {
        "lhs": lhs,
        "rhs_vol": rhs_vol,
        "rhs_slab": rhs_slab,
        "holds_vol": lhs <= rhs_vol + slack,
        "holds_slab": lhs <= rhs_slab + slack,
    }


def poincare_maximizer(grid: Grid) -> GridField:
    """The conforming field with the largest ratio ||u||_2 / |u|_{H^1} on the
    grid, scaled to |u|_{H^1} = 1: one ``verify_poincare`` of it covers every
    field that vanishes on the boundary.

    Both quadratic forms separate over the axes (|u|^2_{H^1} is
    D'WD (x) W + W (x) D'WD and ||u||^2_2 is W (x) W on the interior nodes,
    with D the differences of ``_d_axis`` and W the trapezoidal weights), so
    the maximizer is the outer product of each axis' lowest eigenvector of
    D'WD. At unit spacing that vector depends on the node count alone, and
    no h can overflow it. ``eigh`` costs O(n^3) per axis of n nodes.
    """
    vectors, lowest = [], 0.0
    for n in grid.shape:
        d = _d_axis(np.eye(n)[:, 1:-1], 1.0, 0)  # the derivative of each interior unit field
        w = np.pad(np.ones(n - 2), 1, constant_values=0.5)
        lam, vec = np.linalg.eigh(d.T @ (w[:, None] * d))
        v = vec[:, 0]
        vectors.append(np.pad(v if v[np.argmax(np.abs(v))] > 0.0 else -v, 1))
        lowest += lam[0]
    u = np.outer(*vectors)
    u /= math.sqrt(lowest)
    return grid._own(u)
