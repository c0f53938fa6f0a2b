"""Linear Dirichlet solves for the 5-point Laplacian.

Every grid is a uniform box, so the type-I discrete sine transform
diagonalises the interior 5-point Laplacian (the classical fast Poisson
solver of Buzbee, Golub and Nielson, 1970): each solve is one forward
transform, one division by the eigenvalue table and one inverse transform.
The transform runs on numpy's real FFT. Solves are deterministic: identical
inputs give bitwise-identical outputs.
"""

from __future__ import annotations

import weakref

import numpy as np
import numpy.fft

from .calculus import NormConfig, c2alpha_estimate, laplacian_apply, sup_abs
from .domain import Grid, GridField
from .errors import DiriterError


def _dst_eigenvalues(m: int, h: float) -> np.ndarray:
    """Eigenvalues of the 1-D -d2/dx2 stencil on m interior nodes, DST-I order."""
    k = np.arange(1, m + 1)
    return (2.0 - 2.0 * np.cos(np.pi * k / (m + 1))) / (h * h)


_EPS = float(np.finfo(np.float64).eps)

# lanes of one transform pass go through the FFT in blocks of about this many
# doubles of odd extension (512 KiB), so that the block stays in cache
_BLOCK_DOUBLES = 1 << 16


class PoissonSolver:
    """Dirichlet solver bound to one grid: the 1-D eigenvalues of each axis and
    the work buffers of the transform. Solves on one solver must not run
    concurrently.

    Of grid size it holds one array. During a solve it holds the transform
    coefficients, and each pass of the transform runs in place on it. After
    the solve it holds the Laplacian of the result, which the solve's check
    reads and ``residual_sup`` reads until the next solve. The eigenvalue
    table, the outer sum of the two axes' eigenvalues, is never held whole:
    a solve forms it a block of rows at a time where it divides. While a
    solve runs, the grid fields alive are this array, the caller's
    right-hand side and the result.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        m0, m1 = grid.nx - 2, grid.ny - 2
        self._eig_x = _dst_eigenvalues(m0, grid.h)
        self._eig_y = _dst_eigenvalues(m1, grid.h)
        # the inverse DST-I scale 1/(2(m + 1)) per axis, rounded as pocketfft
        # rounds it (through long double), applied once on the first inverse pass
        self._inv_scale = float(1 / np.longdouble(4 * (m0 + 1) * (m1 + 1)))
        # one grid-sized array, viewed as the contiguous interior-shaped
        # coefficients during a solve and as the grid-shaped Laplacian of the
        # result after it, and one block of odd extensions with its
        # spectrum; reused because fresh pages cost more than the passes
        # that fill them
        work = np.empty(grid.nx * grid.ny)
        self._coef = work[: m0 * m1].reshape(m0, m1)
        self._lap = work.reshape(grid.shape)
        self._solved = None  # weak reference to the latest solve's result
        longest = max(m0, m1)
        block = min(max(_BLOCK_DOUBLES, 2 * (longest + 1)), 2 * m0 * m1 + 2 * longest)
        self._ext = np.empty(block)
        self._spec = np.empty(block // 2 + longest, dtype=complex)

    def _dst1(self, x: np.ndarray, axis: int, out: np.ndarray, scale: float | None = None) -> None:
        """Unnormalised type-I DST of a 2-D array along one axis, written to
        ``out``, which may be ``x`` itself.

        DST-I of a length-m lane is the imaginary part of the real FFT of its
        odd extension [0, -x, 0, x reversed] (length 2(m + 1)), entries 1..m.
        This is how pocketfft computes it, so the bits match
        scipy.fft.dst(type=1). Lanes go through the extension buffer in
        blocks (column blocks along axis 0, row blocks along axis 1), each
        read whole before its transform is written back. ``scale``
        multiplies the transform, as the normalisation factor does inside
        the FFT.
        """
        m = x.shape[axis]
        lanes = x.shape[1 - axis]
        n = 2 * (m + 1)
        step = self._ext.size // n  # >= 1: the buffer holds at least one lane
        for j in range(0, lanes, step):
            k = min(step, lanes - j)
            src, dest = (x[:, j : j + k].T, out[:, j : j + k].T) if axis == 0 else (
                x[j : j + k], out[j : j + k])
            ext = self._ext[: k * n].reshape(k, n)
            ext[:, 0] = ext[:, m + 1] = 0.0
            np.negative(src, out=ext[:, 1 : m + 1])
            np.negative(ext[:, m:0:-1], out=ext[:, m + 2 :])
            spec = self._spec[: k * (m + 2)].reshape(k, m + 2)
            dst = numpy.fft.rfft(ext, out=spec).imag[:, 1 : m + 1]
            if scale is None:
                dest[...] = dst
            else:
                np.multiply(dst, scale, out=dest)

    def solve(self, f: GridField, phi: GridField | None = None) -> GridField:
        """u with laplacian(u) = f inside and u = phi (zero if None) on the boundary.

        The solve is checked by applying the 5-point Laplacian to u and
        requiring max |laplacian(u) - f| over the interior to be at most
        1e-10 * (1 + sup|f|) + 32 * eps * sup|u| / h^2 (NaN fails); otherwise
        DiriterError is raised. When sup|u| is not finite, its message says
        so and gives sup|f| and, when phi is given, sup|phi| on the boundary.
        The second term covers the rounding of an exact solve, which the
        stencil amplifies by 1/h^2: measured against a reference DST, it is
        7.5 to 17.3 times eps * sup|u| / h^2 for h = 1/64 ... 1/2048.
        """
        grid = self.grid
        if f.grid.shape != grid.shape:
            raise ValueError("right-hand side lives on a different grid")
        if phi is not None and phi.grid.shape != grid.shape:
            raise ValueError("boundary field lives on a different grid")
        f_in = f.values[1:-1, 1:-1]
        self._solved = None

        # rhs = -f + (boundary neighbours of each interior node) / h^2, written
        # as contrib - f, which is the same sum to the bit; it goes into the
        # coefficient array, on which the transform runs
        rhs = self._coef
        if phi is None:
            np.subtract(0.0, f_in, out=rhs)
            out = np.empty(grid.shape)
            out[0] = out[-1] = 0.0
            out[:, 0] = out[:, -1] = 0.0
        else:
            out = np.zeros(grid.shape)  # phi's edges go on; the interior is overwritten below
            out[0], out[-1] = phi.values[0], phi.values[-1]
            out[:, 0], out[:, -1] = phi.values[:, 0], phi.values[:, -1]
            np.add(out[:-2, 1:-1], out[2:, 1:-1], out=rhs)
            rhs += out[1:-1, :-2]
            rhs += out[1:-1, 2:]
            rhs /= grid.h * grid.h
            rhs -= f_in

        # forward then inverse DST-I, axis 0 then axis 1 each
        self._dst1(rhs, 0, rhs)
        self._dst1(rhs, 1, rhs)
        # divide by the eigenvalue table eig_x[i] + eig_y[j], formed a block of
        # rows at a time in the extension buffer, which is free between passes
        # (it holds at least one odd extension of 2 (m1 + 1) doubles)
        m0, m1 = rhs.shape
        rows = self._ext.size // m1
        for i in range(0, m0, rows):
            block = rhs[i : i + rows]
            eig = self._ext[: block.size].reshape(block.shape)
            np.add(self._eig_x[i : i + rows, None], self._eig_y, out=eig)
            block /= eig
        self._dst1(rhs, 0, rhs, self._inv_scale)
        self._dst1(rhs, 1, out[1:-1, 1:-1])
        u = grid._own(out)

        sup_f, sup_u = sup_abs(f.values), sup_abs(out)
        tol = 1e-10 * (1.0 + sup_f) + 32.0 * _EPS * sup_u / (grid.h * grid.h)
        laplacian_apply(u, out=self._lap)
        self._solved = weakref.ref(u)
        res = self.residual_sup(u, f)
        if not res <= tol:  # a NaN residual fails too
            msg = f"direct solve residual {res:.3e} exceeds tolerance {tol:.3e}"
            if not np.isfinite(sup_u):  # an inf f or phi, or a transform that overflowed
                msg += f": the solution is not finite (sup|f| {sup_f:.3e}"
                msg += ")" if phi is None else f", sup|phi| {sup_abs(phi.boundary_values()):.3e})"
            raise DiriterError(msg)
        return u

    def residual_sup(self, u: GridField, f: GridField) -> float:
        """max |laplacian(u) - f| over the interior nodes, for ``u`` the result of
        this solver's latest solve (ValueError otherwise).

        The solve leaves laplacian(u) in the solver's array for its own
        check, so this applies no stencil; the difference is formed a block
        of rows at a time in the extension buffer.
        """
        if self._solved is None or self._solved() is not u:
            raise ValueError("u is not the result of this solver's latest solve")
        if f.grid.shape != self.grid.shape:
            raise ValueError("right-hand side lives on a different grid")
        lap, f_in = self._lap[1:-1, 1:-1], f.values[1:-1, 1:-1]
        m0, m1 = lap.shape
        rows = self._ext.size // m1  # >= 2: the buffer holds an odd extension
        sups = []
        for i in range(0, m0, rows):
            diff = self._ext[: min(rows, m0 - i) * m1].reshape(-1, m1)
            sups.append(sup_abs(np.subtract(lap[i : i + rows], f_in[i : i + rows], out=diff)))
        return float(np.max(sups))  # np.max, unlike max(), keeps a NaN


def estimate_schauder_constant(grid: Grid, cfg: NormConfig) -> float:
    """Empirical bound-constant estimate: the C^{2,alpha} estimate of the
    solve of f = 1, whose Hölder norm is 1, so it is the solve-to-data norm
    ratio of that right-hand side. Any right-hand side's ratio is a lower
    bound on the constant, and f = 1's is at least 2.4 times that of random
    trigonometric ones on the rectangles and strips tested."""
    return c2alpha_estimate(PoissonSolver(grid).solve(grid.constant(1.0)), cfg)
