import tracemalloc

import numpy as np
import pytest

from diriter import Domain, build_grid

from reference import unit_coordinates


@pytest.fixture
def unit_square():
    return Domain.rectangle(1.0, 1.0)


@pytest.fixture
def unit_grid_16(unit_square):
    return build_grid(unit_square, 1.0 / 16)


@pytest.fixture
def unit_grid_32(unit_square):
    return build_grid(unit_square, 1.0 / 32)


@pytest.fixture
def same_shape_pair():
    """The rectangle [0, 4] x [0, 1] and the strip [-2, 2] x (-1/2, 1/2) at
    h = 1/4: two grids of 17 x 5 nodes on different domains."""
    return (build_grid(Domain.rectangle(4.0, 1.0), 0.25),
            build_grid(Domain.strip_truncation(1.0, 2.0), 0.25))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_conforming(grid, rng, modes=3):
    """Random smooth field with exactly zero boundary values."""
    sx, sy = unit_coordinates(grid)
    vals = np.zeros(grid.shape)
    coeffs = rng.uniform(-1.0, 1.0, size=(modes, modes))
    for p in range(1, modes + 1):
        for q in range(1, modes + 1):
            vals += coeffs[p - 1, q - 1] * np.sin(p * np.pi * sx) * np.sin(q * np.pi * sy)
    return grid.field(vals)


def random_smooth(grid, rng, modes=3):
    """Random smooth field, nonzero on the boundary."""
    sx, sy = unit_coordinates(grid)
    vals = np.zeros(grid.shape)
    for _ in range(modes):
        ax, ay, ph1, ph2 = rng.uniform(-1, 1, 4)
        vals += ax * np.cos(np.pi * (sx + ph1)) * np.cos(2 * np.pi * (sy + ph2)) + ay * np.sin(
            2 * np.pi * sx + ph1
        )
    return grid.field(vals)


def traced_peak_fields(grid, fn):
    """Peak of the memory ``fn()`` allocates while it runs, in grid fields of
    ``8 nx ny`` bytes (tracemalloc traces numpy's array buffers)."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * grid.nx * grid.ny)
