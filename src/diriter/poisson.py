"""Linear Dirichlet solves for the 5-point Laplacian.

Every grid is a uniform box, so the type-I discrete sine transform
diagonalises the interior 5-point Laplacian (the classical fast Poisson
solver): each solve is one forward transform, one division by the
eigenvalue table and one inverse transform. Solves are deterministic:
identical inputs give bitwise-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dstn, idstn

from .calculus import laplacian_apply
from .domain import BoundarySpec, Grid, GridField
from .errors import NoConvergence


@dataclass(frozen=True)
class LinearSolveConfig:
    """residual_tol = None means the default 1e-10 * (1 + sup|f|)."""

    residual_tol: float | None = None

    def __post_init__(self):
        if self.residual_tol is not None and self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")


def _dst_eigenvalues(m: int, h: float) -> np.ndarray:
    """Eigenvalues of the 1-D -d2/dx2 stencil on m interior nodes, DST-I order."""
    k = np.arange(1, m + 1)
    return (2.0 - 2.0 * np.cos(np.pi * k / (m + 1))) / (h * h)


class PoissonSolver:
    """Dirichlet solver bound to one grid; holds only the eigenvalue table."""

    def __init__(self, grid: Grid, cfg: LinearSolveConfig | None = None):
        self.grid = grid
        self.cfg = cfg or LinearSolveConfig()
        self._eig = (
            _dst_eigenvalues(grid.nx - 2, grid.h)[:, None]
            + _dst_eigenvalues(grid.ny - 2, grid.h)[None, :]
        )

    def solve(self, f: GridField, bc: BoundarySpec | None = None) -> GridField:
        """u with laplacian(u) = f inside and u = bc on the boundary."""
        grid = self.grid
        if f.grid.shape != grid.shape:
            raise ValueError("right-hand side lives on a different grid")
        bc = bc or BoundarySpec.homogeneous()
        bvals = bc.values_on(grid)
        h2 = grid.h * grid.h

        # boundary neighbours of each interior node enter the right-hand side
        contrib = (
            bvals[:-2, 1:-1] + bvals[2:, 1:-1] + bvals[1:-1, :-2] + bvals[1:-1, 2:]
        ) / h2
        rhs = -f.values[1:-1, 1:-1] + contrib

        out = bvals.copy()
        out[1:-1, 1:-1] = idstn(dstn(rhs, type=1) / self._eig, type=1)
        u = grid.field(out)

        tol = self.cfg.residual_tol
        if tol is None:
            tol = 1e-10 * (1.0 + float(np.max(np.abs(f.values))))
        res = float(np.max(np.abs(laplacian_apply(u).values[1:-1, 1:-1] - f.values[1:-1, 1:-1])))
        if res > tol:
            raise NoConvergence(
                f"direct solve residual {res:.3e} exceeds tolerance {tol:.3e}", residual=res
            )
        return u


def solve_dirichlet(
    grid: Grid, f: GridField, bc: BoundarySpec | None = None, cfg: LinearSolveConfig | None = None
) -> GridField:
    """One-shot Dirichlet solve: laplacian(u) = f inside, u = bc on the boundary."""
    return PoissonSolver(grid, cfg).solve(f, bc)


def lift_boundary(
    grid: Grid, bc: BoundarySpec, h_rhs: GridField, cfg: LinearSolveConfig | None = None
) -> GridField:
    """Starting iterate for nonhomogeneous problems: laplacian(u0) = h, u0 = phi."""
    return solve_dirichlet(grid, h_rhs, bc, cfg)
