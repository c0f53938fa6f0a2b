"""Row slabs change no bit: each per-iterate operator run on slabs of one to
three rows (and the Poisson transform on blocks of as many lanes) against the
same operator run on the whole grid as one slab."""

import numpy as np
import pytest

from diriter import (
    BoundarySpec,
    Domain,
    GammaG,
    GradLipschitz,
    MeanCurvature,
    NormConfig,
    PoissonSolver,
    build_grid,
    c2alpha_estimate,
    evaluate_rhs,
    norm_h1semi,
)
from diriter import calculus, poisson

from conftest import random_smooth


def _results(grid, seed):
    """Every slab-wise result on one set of fields: arrays, then scalars."""
    rng = np.random.default_rng(seed)
    u, v, data = (random_smooth(grid, rng) for _ in range(3))
    specs = (
        GradLipschitz(h=data, K=0.3),
        GammaG(gamma=data, h=v, m=2.5, k=0.7),
        MeanCurvature(H=data, n=2),
    )
    arrays = [evaluate_rhs(spec, u).values for spec in specs]
    scalars = [c2alpha_estimate(u, NormConfig(alpha=0.4)), norm_h1semi(u), norm_h1semi(u, v)]
    solver = PoissonSolver(grid)
    for bc in (None, BoundarySpec.prescribed(v)):
        w = solver.solve(grid.field(arrays[2]), bc)
        arrays.append(w.values)
        scalars += [solver.residual_sup(w, grid.field(a)) for a in arrays[:3]]
    return arrays, scalars


@pytest.mark.parametrize("extent", [(1.0, 1.0), (1.0, 0.5)], ids=["65x65", "65x33"])
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_slabs_of_a_few_rows_give_the_bits_of_one_slab(extent, rows, monkeypatch):
    grid = build_grid(Domain.rectangle(*extent), 1 / 64)
    assert grid.nx * grid.ny <= calculus._SLAB_DOUBLES  # one slab by default
    whole_arrays, whole_scalars = _results(grid, 7)

    monkeypatch.setattr(calculus, "_SLAB_DOUBLES", rows * grid.ny)
    # the transform's block then holds `rows` odd extensions of the longer axis
    monkeypatch.setattr(poisson, "_BLOCK_DOUBLES", rows * 2 * (max(grid.shape) - 1))
    assert len(list(calculus._row_slabs(grid.shape))) == -(-grid.nx // rows)
    arrays, scalars = _results(grid, 7)

    assert [s.hex() for s in scalars] == [s.hex() for s in whole_scalars]
    for a, b in zip(arrays, whole_arrays, strict=True):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
