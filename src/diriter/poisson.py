"""Linear Dirichlet solves for the 5-point Laplacian.

Every grid is a uniform box, so the type-I discrete sine transform
diagonalises the interior 5-point Laplacian (the classical fast Poisson
solver of Buzbee, Golub and Nielson, 1970): each solve is one forward
transform, one division by the eigenvalue table and one inverse transform.
The transform runs on numpy's real FFT. Solves are deterministic: identical
inputs give bitwise-identical outputs.
"""

from __future__ import annotations

import numpy as np
import numpy.fft

from .calculus import laplacian_apply, sup_abs
from .domain import BoundarySpec, Grid, GridField
from .errors import NoConvergence


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

    Of grid size it holds only two interior-sized coefficient arrays. The
    eigenvalue table, the outer sum of the two axes' eigenvalues, is never
    held whole: a solve forms it a block of rows at a time where it divides.
    While a solve runs, the grid fields alive are these two, the caller's
    right-hand side and ``lap_out``, and the result.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        m0, m1 = grid.nx - 2, grid.ny - 2
        self._eig_x = _dst_eigenvalues(m0, grid.h)
        self._eig_y = _dst_eigenvalues(m1, grid.h)
        # the inverse DST-I scale 1/(2(m + 1)) per axis, rounded as pocketfft
        # rounds it (through long double), applied once on the first inverse pass
        self._inv_scale = float(1 / np.longdouble(4 * (m0 + 1) * (m1 + 1)))
        # transposed and straight coefficient arrays, and one block of odd
        # extensions with its spectrum; reused because fresh pages cost more
        # than the passes that fill them
        self._coef_t = np.empty((m1, m0))
        self._coef = np.empty((m0, m1))
        longest = max(m0, m1)
        block = min(max(_BLOCK_DOUBLES, 2 * (longest + 1)), 2 * m0 * m1 + 2 * longest)
        self._ext = np.empty(block)
        self._spec = np.empty(block // 2 + longest, dtype=complex)

    def _dst1_t(self, x: np.ndarray, out: np.ndarray, scale: float | None = None) -> None:
        """Unnormalised type-I DST of a 2-D array along axis 0, written transposed.

        DST-I of a length-m lane is the imaginary part of the real FFT of its
        odd extension [0, -x, 0, x reversed] (length 2(m + 1)), entries 1..m.
        This is how pocketfft computes it, so the bits match
        scipy.fft.dst(type=1). The extensions are written transposed, which
        puts each lane on the contiguous axis, and ``out`` (lanes x m) is
        ready for a pass along the other axis. ``scale`` multiplies the
        transform, as the normalisation factor does inside the FFT.
        """
        m, lanes = x.shape
        n = 2 * (m + 1)
        step = self._ext.size // n  # >= 1: the buffer holds at least one lane
        for j in range(0, lanes, step):
            k = min(step, lanes - j)
            ext = self._ext[: k * n].reshape(k, n)
            ext[:, 0] = ext[:, m + 1] = 0.0
            np.negative(x[:, j : j + k].T, out=ext[:, 1 : m + 1])
            np.negative(ext[:, m:0:-1], out=ext[:, m + 2 :])
            spec = self._spec[: k * (m + 2)].reshape(k, m + 2)
            dst = numpy.fft.rfft(ext, out=spec).imag[:, 1 : m + 1]
            if scale is None:
                out[j : j + k] = dst
            else:
                np.multiply(dst, scale, out=out[j : j + k])

    def solve(
        self, f: GridField, bc: BoundarySpec | None = None, lap_out: np.ndarray | None = None
    ) -> GridField:
        """u with laplacian(u) = f inside and u = bc on the boundary.

        The solve is checked by applying the 5-point Laplacian to u and
        requiring max |laplacian(u) - f| over the interior to be at most
        1e-10 * (1 + sup|f|) + 32 * eps * sup|u| / h^2 (NaN fails); otherwise
        NoConvergence is raised. The second term covers the rounding of an
        exact solve, which the stencil amplifies by 1/h^2: measured against
        a reference DST, it is 7.5 to 17.3 times eps * sup|u| / h^2 for
        h = 1/64 ... 1/2048.
        ``lap_out``, a writable C-contiguous float64 array of the grid's
        shape, receives that Laplacian (``laplacian_apply(u)``, boundary
        entries 0), so a caller that needs it too does not apply the stencil
        again; the check is the same with or without it.
        """
        grid = self.grid
        if f.grid.shape != grid.shape:
            raise ValueError("right-hand side lives on a different grid")
        f_in = f.values[1:-1, 1:-1]

        # rhs = -f + (boundary neighbours of each interior node) / h^2, written
        # as contrib - f, which is the same sum to the bit; it goes into the
        # coefficient buffer, which the first transform pass reads
        rhs = self._coef
        if bc is None or bc.phi is None:
            np.subtract(0.0, f_in, out=rhs)
            out = np.empty(grid.shape)
            out[0] = out[-1] = 0.0
            out[:, 0] = out[:, -1] = 0.0
        else:
            out = bc.values_on(grid)  # fresh; its interior is overwritten below
            np.add(out[:-2, 1:-1], out[2:, 1:-1], out=rhs)
            rhs += out[1:-1, :-2]
            rhs += out[1:-1, 2:]
            rhs /= grid.h * grid.h
            rhs -= f_in

        # forward then inverse DST-I, axis 0 then axis 1 each (two transposed
        # passes per transform restore the orientation)
        self._dst1_t(rhs, self._coef_t)
        self._dst1_t(self._coef_t, self._coef)
        # divide by the eigenvalue table eig_x[i] + eig_y[j], formed a block of
        # rows at a time in the extension buffer, which is free between passes
        # (it holds at least one odd extension of 2 (m1 + 1) doubles)
        m0, m1 = self._coef.shape
        rows = self._ext.size // m1
        for i in range(0, m0, rows):
            block = self._coef[i : i + rows]
            eig = self._ext[: block.size].reshape(block.shape)
            np.add(self._eig_x[i : i + rows, None], self._eig_y, out=eig)
            block /= eig
        self._dst1_t(self._coef, self._coef_t, self._inv_scale)
        self._dst1_t(self._coef_t, out[1:-1, 1:-1])
        u = grid._own(out)

        tol = 1e-10 * (1.0 + sup_abs(f.values)) + 32.0 * _EPS * sup_abs(out) / (grid.h * grid.h)
        lap = laplacian_apply(u, out=lap_out).values
        res = sup_abs(np.subtract(lap[1:-1, 1:-1], f_in, out=self._coef))
        if not res <= tol:  # a NaN residual fails too
            raise NoConvergence(f"direct solve residual {res:.3e} exceeds tolerance {tol:.3e}")
        return u
