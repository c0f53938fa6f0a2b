"""Continuous domains and their uniform grids.

A domain is an axis-parallel box, given by its origin (lower-left corner) and
its extents. A rectangle a x b lives on [0, a] x [0, b]; a strip truncation of
width d and half-length n lives on [-n, n] x (-d/2, d/2), so the bounded
direction is centred on y = 0. Grids are uniform with the same spacing on both
axes, and every type here is immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# the four edges of a grid array, in the order of GridField.boundary_values
_EDGES = (np.s_[0], np.s_[-1], np.s_[1:-1, 0], np.s_[1:-1, -1])


@dataclass(frozen=True)
class Domain:
    """The box [x0, x0 + ex] x [y0, y0 + ey], with origin (x0, y0) and extents (ex, ey)."""

    origin: tuple[float, float]
    extents: tuple[float, float]

    def __post_init__(self):
        if not all(0.0 < e < math.inf for e in self.extents):  # NaN fails
            raise ValueError(f"extents {self.extents} must be positive and finite")

    @classmethod
    def rectangle(cls, a: float, b: float) -> "Domain":
        return cls((0.0, 0.0), (float(a), float(b)))

    @classmethod
    def strip_truncation(cls, d: float, n_trunc: float) -> "Domain":
        n, d = float(n_trunc), float(d)
        return cls((-n, -d / 2.0), (2.0 * n, d))

    def slab_diameter(self) -> float:
        """Smallest gap between two parallel lines enclosing the domain."""
        return min(self.extents)

    @property
    def kappa_volumetric(self) -> float:
        """Poincaré constant (|domain| / omega_2)^(1/2), omega_2 = pi the area of the unit disc."""
        ex, ey = self.extents
        return (ex * ey / math.pi) ** 0.5

    @property
    def kappa_slab(self) -> float:
        """Poincaré constant delta / sqrt(2), delta the slab diameter."""
        return self.slab_diameter() / math.sqrt(2.0)


def sup_abs(values: np.ndarray) -> float:
    """``max |values|`` without forming ``|values|``: bitwise equal to
    ``np.max(np.abs(values))``; NaN anywhere gives NaN, and -0.0 counts as 0.0."""
    return abs(float(max(values.max(), -values.min())))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid over a Domain; its boundary nodes are the four edges.

    Node counts are rounded so the realized extents are integer multiples of
    the spacing; realized extents (not the requested ones) feed every norm.
    Equality and hash read the domain and spacing, which fix the rest.
    """

    domain: Domain
    h: float
    nx: int = field(compare=False)
    ny: int = field(compare=False)
    x: np.ndarray = field(repr=False, compare=False)
    y: np.ndarray = field(repr=False, compare=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """The open mesh, x as an (nx, 1) column and y as a (1, ny) row: an
        expression in the two broadcasts to the grid, and only its result is full."""
        return np.meshgrid(self.x, self.y, indexing="ij", sparse=True)

    def axis_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """The 1-D trapezoidal weights of each axis: h inside, h/2 at the ends."""
        wx = np.full(self.nx, self.h)
        wx[0] = wx[-1] = self.h / 2.0
        wy = np.full(self.ny, self.h)
        wy[0] = wy[-1] = self.h / 2.0
        return wx, wy

    def field(self, values) -> "GridField":
        values = np.asarray(values, dtype=float)
        if values.shape != self.shape:
            raise ValueError(f"values shape {values.shape} does not match grid {self.shape}")
        return GridField(self, _readonly(values.copy()))

    def _own(self, values: np.ndarray) -> "GridField":
        """Wrap ``values`` without a copy, marking the array itself read-only.

        Only for an array just computed by the caller: float64, C-contiguous,
        of the grid's shape, and neither a view of another array nor held by
        anything else, so that no later write can reach the field.
        """
        if (values.shape != self.shape or values.dtype != np.float64
                or not values.flags.c_contiguous or values.base is not None):
            raise ValueError("an owned field must be a fresh C-contiguous float64 array "
                             "of the grid's shape")
        values.flags.writeable = False
        return GridField(self, values)

    def field_from(self, fn) -> "GridField":
        """Sample fn(x, y) at the nodes: fn gets the open mesh, its result is broadcast."""
        X, Y = self.meshgrid()
        return self.field(np.broadcast_to(np.asarray(fn(X, Y), dtype=float), self.shape))

    def constant(self, c: float) -> "GridField":
        return self._own(np.full(self.shape, float(c)))

    def zeros(self) -> "GridField":
        return self.constant(0.0)


def build_grid(domain: Domain, h: float) -> Grid:
    """Uniform grid with spacing h; node counts rounded to fit the extents.

    ValueError unless h is positive, at most half the smallest extent (so
    every axis has at least 3 nodes) and coarse enough for finite node counts.
    """
    if not 0.0 < h < math.inf:  # NaN fails
        raise ValueError(f"spacing h = {h} must be positive and finite")
    ex, ey = domain.extents
    if h > min(ex, ey) / 2.0:
        raise ValueError(f"h = {h} exceeds half the smallest extent {min(ex, ey)}")
    if not math.isfinite(max(ex, ey) / h):
        raise ValueError(f"spacing h = {h} is too fine for the extents {domain.extents}")
    nx = int(round(ex / h)) + 1  # at least 3, since ex / h >= 2
    ny = int(round(ey / h)) + 1
    ox, oy = domain.origin
    x = ox + h * np.arange(nx)
    y = oy + h * np.arange(ny)
    return Grid(domain=domain, h=float(h), nx=nx, ny=ny, x=_readonly(x), y=_readonly(y))


@dataclass(frozen=True)
class GridField:
    """One scalar value per grid node."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def boundary_values(self) -> np.ndarray:
        """The 2 (nx + ny) - 4 edge nodes, edge by edge: the rows x = x[0] and
        x = x[-1], then the columns y = y[0] and y = y[-1] without the corners."""
        return np.concatenate([self.values[edge] for edge in _EDGES])

    def is_conforming(self, phi: GridField | None = None) -> bool:
        """True when the boundary entries equal phi's (zero by default) up to
        rounding: to within 1e-12 (1 + sup|u|), a NaN failing; ValueError off phi's grid."""
        if phi is not None and phi.grid != self.grid:
            raise ValueError("phi lives on a different grid")
        target = 0.0 if phi is None else phi.boundary_values()
        tol = 1e-12 * (1.0 + sup_abs(self.values))
        return bool(np.max(np.abs(self.boundary_values() - target)) <= tol)
