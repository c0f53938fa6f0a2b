"""Strip exhaustion: solve on growing truncations, compare on a fixed compact.

The data's grid names the strip: its domain is the largest truncation
[-n_max, n_max] x (-d/2, d/2) and its spacing is every truncation's. The
truncations share that grid's node alignment, so data fields are sliced down
to each one and solutions restrict to the compact window nodewise, without
interpolation.
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
    n_start: int
    compact_halfwidth: float
    iteration: IterationConfig = field(default_factory=IterationConfig)

    def __post_init__(self):
        if not 0.0 <= self.compact_halfwidth < math.inf:  # NaN fails
            raise ValueError(
                f"compact_halfwidth = {self.compact_halfwidth} must be >= 0 and finite"
            )
        if self.n_start < self.compact_halfwidth + 1:
            raise ValueError("n_start must be at least compact_halfwidth + 1")


@dataclass(frozen=True)
class ExhaustionResult:
    u_final: GridField
    tail: tuple[float, ...]
    reports: tuple[IterationReport, ...]
    truncations: tuple[int, ...]


def _column_window(grid: Grid, halfwidth: float) -> slice:
    """Columns from the node nearest -halfwidth to the node nearest halfwidth
    (x centred on 0), clipped to the grid: at h = 0.25 and halfwidth 0.4,
    the columns |x| <= 0.5."""
    i0 = int(round((-halfwidth - grid.x[0]) / grid.h))
    i1 = int(round((halfwidth - grid.x[0]) / grid.h))
    return slice(max(i0, 0), min(i1, grid.nx - 1) + 1)


def exhaustion_solve(spec: RhsSpec, cfg: ExhaustionConfig) -> ExhaustionResult:
    """Iterate on each truncation [-n, n] x (-d/2, d/2), n = n_start..n_max.

    The data fields of ``spec``, and a boundary field ``cfg.iteration.phi``,
    live on one grid: its domain is the largest truncation (a whole n_max),
    its spacing h every truncation's, and truncation n solves on its centred
    columns. tail[j] is the sup over the compact window of the difference
    between consecutive solutions. Raises ValueError, before any solve, for
    fields on any other grid, n_max < n_start, and an h that does not divide
    every gap n_max - n or is too coarse for the truncation n_start.
    """
    phi = cfg.iteration.phi
    big = check_data(spec)
    # the whole n >= 1 nearest half the grid's length: the grid must be that truncation
    n_max, d = max(1, round(big.domain.extents[0] / 2.0)), big.domain.extents[1]
    if big.domain != Domain.strip_truncation(d, n_max) or (phi and phi.grid != big):
        raise ValueError("data and phi must live on one grid of a truncation "
                         "[-n, n] x (-d/2, d/2) with a whole n")
    if n_max < cfg.n_start:
        raise ValueError("n_max must be >= n_start")
    for gap in range(1, n_max - cfg.n_start + 1):
        steps = gap / big.h  # finite: gap < 2 n_max, the grid's length
        if abs(steps - round(steps)) > 1e-6:
            raise ValueError(f"h = {big.h} does not divide {gap}, the gap between "
                             f"truncations n = {n_max - gap} and n_max = {n_max}")
    ladder = {n: build_grid(Domain.strip_truncation(d, n), big.h)
              for n in range(cfg.n_start, n_max + 1)}
    reports: list[IterationReport] = []
    tail: list[float] = []
    window = None
    for n, grid in ladder.items():
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
                            truncations=tuple(ladder))


def compact_values(result_field: GridField, halfwidth: float) -> np.ndarray:
    """Values of a strip solution on the compact window, the columns of
    ``_column_window``."""
    return result_field.values[_column_window(result_field.grid, halfwidth), :]
