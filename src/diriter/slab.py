"""Strip exhaustion: solve on growing truncations, compare on a fixed compact.

All truncations share the spacing and node alignment of the largest one, so
solutions restrict to the compact window nodewise, without interpolation.
Data fields are given on the largest truncation's grid and sliced down.
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
from .nonlinearity import RhsSpec, check_data


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
            if not math.isfinite(steps):
                raise ValueError(f"spacing h = {h} is too fine for the gap {gap} between truncations")
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


def exhaustion_solve(spec: RhsSpec, cfg: ExhaustionConfig) -> ExhaustionResult:
    """Iterate on each truncation [-n, n] x (-d/2, d/2), n = n_start..n_max.

    The data fields of ``spec``, and a boundary field ``cfg.iteration.phi``,
    live on one grid of the largest truncation; truncation n solves on its
    centred columns. tail[j] is the sup over the compact window of the
    difference between consecutive solutions. Raises ValueError, before any
    solve, for fields on any other grid and where ``cfg.check_spacing`` does.
    """
    phi = cfg.iteration.phi
    big = check_data(spec)
    if big.domain != Domain.strip_truncation(cfg.d, cfg.n_max) or (phi and phi.grid != big):
        raise ValueError(f"data and phi must live on one grid of the truncation n = {cfg.n_max}")
    cfg.check_spacing(big.h)
    ns = list(range(cfg.n_start, cfg.n_max + 1))
    reports: list[IterationReport] = []
    tail: list[float] = []
    window = None
    for n in ns:
        grid = build_grid(Domain.strip_truncation(cfg.d, n), big.h)
        cols = slice((big.nx - grid.nx) // 2, (big.nx + grid.nx) // 2)
        spec_n = dataclasses.replace(spec, **{name: grid.field(f.values[cols])
                                              for name, f in spec.fields().items()})
        it_n = cfg.iteration if phi is None else dataclasses.replace(
            cfg.iteration, phi=grid.field(phi.values[cols]))
        try:
            u, rep = dirichlet_iterate(spec_n, it_n)
        except IterationFailure as exc:
            message = f"truncation n = {n}: {exc}"
            raise IterationFailure(message, exc.report, exc.last_iterate) from exc
        reports.append(rep)
        previous, window = window, compact_values(u, cfg.compact_halfwidth)
        if previous is not None:
            tail.append(sup_abs(previous - window))
    return ExhaustionResult(u_final=u, tail=tuple(tail), reports=tuple(reports),
                            truncations=tuple(ns))


def compact_values(result_field: GridField, halfwidth: float) -> np.ndarray:
    """Values of a strip solution on the compact window |x| <= halfwidth."""
    return result_field.values[_column_window(result_field.grid, halfwidth), :]
