"""Strip exhaustion: solve on growing truncations, compare on a fixed compact.

All truncations share the spacing and node alignment of the largest one, so
solutions restrict to the compact window nodewise, without interpolation.
Data fields are given on the largest truncation and sliced down.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import sup_abs
from .domain import Domain, Grid, GridField, build_grid
from .errors import IterationFailure
from .iteration import IterationConfig, IterationReport, dirichlet_iterate
from .nonlinearity import RhsSpec, data_fields


@dataclass(frozen=True)
class ExhaustionConfig:
    d: float
    n_start: int
    n_max: int
    compact_halfwidth: float
    iteration: IterationConfig = field(default_factory=IterationConfig)

    def __post_init__(self):
        if not 0.0 <= self.compact_halfwidth < math.inf:  # NaN fails
            raise ValueError(
                f"compact_halfwidth = {self.compact_halfwidth} must be >= 0 and finite"
            )
        if self.n_start < self.compact_halfwidth + 1:
            raise ValueError("n_start must be at least compact_halfwidth + 1")
        if self.n_max < self.n_start:
            raise ValueError("n_max must be >= n_start")

    def check_spacing(self, h: float) -> None:
        """Raise ValueError unless the spacing h puts the ends -n of every
        truncation on nodes of the largest one: restricting data to a
        truncation needs (n_max - n) / h to be an integer."""
        if not 0.0 < h < math.inf:  # NaN fails
            raise ValueError(f"spacing h = {h} must be positive and finite")
        for gap in range(1, self.n_max - self.n_start + 1):
            steps = gap / h
            if abs(steps - round(steps)) > 1e-6:
                raise ValueError(f"h = {h} does not divide {gap}, the gap between "
                                 f"truncations n = {self.n_max - gap} and n_max = {self.n_max}")


@dataclass(frozen=True)
class ExhaustionResult:
    u_final: GridField
    tail: tuple[float, ...]
    reports: tuple[IterationReport, ...]
    truncations: tuple[int, ...]


def _column_window(grid: Grid, halfwidth: float) -> slice:
    """Columns of the grid with |x| <= halfwidth (x centred on 0)."""
    i0 = int(round((-halfwidth - grid.x[0]) / grid.h))
    i1 = int(round((halfwidth - grid.x[0]) / grid.h))
    return slice(max(i0, 0), min(i1, grid.nx - 1) + 1)


def restrict_field(f: GridField, target: Grid) -> GridField:
    """Nodewise restriction onto an aligned sub-grid (same h, same y nodes)."""
    src = f.grid
    if abs(src.h - target.h) > 1e-12:
        raise ValueError("grids must share their spacing")
    off = (target.x[0] - src.x[0]) / src.h
    k = int(round(off))
    if abs(off - k) > 1e-6 or k < 0 or k + target.nx > src.nx:
        raise ValueError("target grid does not align with the source grid")
    return target.field(f.values[k : k + target.nx, :])


def _spec_on(spec: RhsSpec, grid: Grid) -> RhsSpec:
    """Rebind the spec's data fields to a smaller aligned grid."""
    restricted = {name: restrict_field(data, grid) for name, data in data_fields(spec).items()}
    return dataclasses.replace(spec, **restricted)


def _iteration_on(cfg: IterationConfig, grid: Grid) -> IterationConfig:
    """Rebind a prescribed boundary field to a smaller aligned grid."""
    if cfg.phi is None:
        return cfg
    return dataclasses.replace(cfg, phi=restrict_field(cfg.phi, grid))


def exhaustion_solve(spec: RhsSpec, cfg: ExhaustionConfig, h: float) -> ExhaustionResult:
    """Iterate on each truncation [-n, n] x (-d/2, d/2), n = n_start..n_max.

    ``spec``, and a boundary field ``cfg.iteration.phi``, carry
    data on the largest truncation. tail[j] is the sup over the compact
    window of the difference between consecutive solutions. Raises
    ValueError, before any solve, where ``cfg.check_spacing(h)`` does.
    """
    cfg.check_spacing(h)
    ns = list(range(cfg.n_start, cfg.n_max + 1))
    reports: list[IterationReport] = []
    tail: list[float] = []
    window = None
    for n in ns:
        grid = build_grid(Domain.strip_truncation(cfg.d, n), h)
        spec_n = _spec_on(spec, grid)
        try:
            u, rep = dirichlet_iterate(grid, spec_n, _iteration_on(cfg.iteration, grid))
        except IterationFailure as exc:
            exc.args = (f"truncation n = {n}: {exc.args[0]}",) + exc.args[1:]
            raise
        reports.append(rep)
        previous, window = window, compact_values(u, cfg.compact_halfwidth)
        if previous is not None:
            tail.append(sup_abs(previous - window))
    return ExhaustionResult(
        u_final=u, tail=tuple(tail), reports=tuple(reports), truncations=tuple(ns)
    )


def compact_values(result_field: GridField, halfwidth: float) -> np.ndarray:
    """Values of a strip solution on the compact window |x| <= halfwidth."""
    return result_field.values[_column_window(result_field.grid, halfwidth), :]
