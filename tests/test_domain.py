import dataclasses
import math

import numpy as np
import pytest

from diriter import Domain, build_grid
from diriter.expressions import compile_expression

from conftest import traced_peak_fields


def test_unit_square_grid_counts():
    grid = build_grid(Domain.rectangle(1, 1), 0.5)
    assert grid.shape == (3, 3)
    assert grid.zeros().boundary_values().size == 8
    assert grid.zeros().values[1:-1, 1:-1].size == 1


def test_quarter_spacing_interior_count():
    grid = build_grid(Domain.rectangle(1, 1), 0.25)
    assert grid.shape == (5, 5)
    assert grid.zeros().values[1:-1, 1:-1].size == 9


def test_strip_truncation_node_counts():
    grid = build_grid(Domain.strip_truncation(d=1.0, n_trunc=2.0), 0.25)
    # node count per axis = extent / h + 1, checked against the realized extents
    assert grid.shape == (17, 5)
    assert math.isclose(grid.x[-1] - grid.x[0], 4.0)
    assert math.isclose(grid.y[-1] - grid.y[0], 1.0)


def test_meshgrid_is_the_open_mesh(unit_grid_16):
    for grid in (unit_grid_16, build_grid(Domain.strip_truncation(1.0, 2.0), 0.25)):
        X, Y = grid.meshgrid()
        assert X.shape == (grid.nx, 1) and Y.shape == (1, grid.ny)
        assert np.array_equal(X[:, 0], grid.x) and np.array_equal(Y[0], grid.y)


def test_boundary_values_are_the_edge_nodes(unit_grid_16):
    for grid in (unit_grid_16, build_grid(Domain.strip_truncation(1.0, 2.0), 0.25)):
        # each node's value is its flat index, so the values name the nodes
        index = grid.field(np.arange(grid.nx * grid.ny).reshape(grid.shape))
        X, Y = np.broadcast_arrays(*grid.meshgrid())
        on_edge = (
            np.isclose(X, grid.x[0])
            | np.isclose(X, grid.x[-1])
            | np.isclose(Y, grid.y[0])
            | np.isclose(Y, grid.y[-1])
        )
        edge = index.boundary_values()
        assert edge.size == on_edge.sum() == 2 * (grid.nx + grid.ny) - 4
        assert np.array_equal(np.sort(edge), index.values[on_edge])
        # the documented order: rows x[0] and x[-1], then columns y[0] and y[-1]
        i, j = np.divmod(edge.astype(int), grid.ny)
        ny, m = grid.ny, grid.nx - 2
        assert np.all(i[:ny] == 0) and np.all(i[ny : 2 * ny] == grid.nx - 1)
        assert np.all(j[2 * ny : 2 * ny + m] == 0) and np.all(j[2 * ny + m :] == ny - 1)


@pytest.mark.parametrize("text", ["0.4", "1 + 0.3 * sin(pi * x)"])
def test_field_from_holds_only_its_result(text):
    # a constant or an expression in x alone is evaluated on the open mesh,
    # so the sampled field is the only full array
    grid = build_grid(Domain.strip_truncation(1.0, 2), 1 / 256)
    fn = compile_expression(text)
    assert traced_peak_fields(grid, lambda: grid.field_from(fn)) <= 1.1


def test_too_coarse_raises():
    with pytest.raises(ValueError, match="exceeds half"):
        build_grid(Domain.rectangle(1, 1), 0.6)
    with pytest.raises(ValueError, match="exceeds half"):
        build_grid(Domain.rectangle(1.0, 0.05), 0.025)  # only 3 nodes across is ok...
        build_grid(Domain.rectangle(1.0, 0.02), 0.02)  # ...but 2 is not


@pytest.mark.parametrize("extents", [(1.0, 1.0), (1.0, 0.05), (7.1, 0.3), (1e-300, 3e-300)])
def test_half_the_smallest_extent_is_the_coarsest_spacing(extents):
    # at h = min(extents) / 2 the short axis has 3 nodes and the next double
    # up is rejected, so no grid has fewer than 3 nodes on an axis
    dom = Domain(origin=(0.0, 0.0), extents=extents)
    h = min(extents) / 2
    assert min(build_grid(dom, h).shape) == 3
    with pytest.raises(ValueError, match="exceeds half"):
        build_grid(dom, math.nextafter(h, math.inf))


def test_unit_square_constants(unit_square):
    assert math.prod(unit_square.extents) == 1.0
    assert unit_square.slab_diameter() == 1.0
    assert math.isclose(unit_square.kappa_volumetric, (1.0 / math.pi) ** 0.5, rel_tol=1e-12)
    assert math.isclose(unit_square.kappa_volumetric, 0.564190, abs_tol=1e-6)
    assert math.isclose(unit_square.kappa_slab, 1.0 / math.sqrt(2.0), rel_tol=1e-12)
    assert math.isclose(unit_square.kappa_slab, 0.707107, abs_tol=1e-6)


def test_flat_rectangle_constants():
    dom = Domain.rectangle(2.0, 0.5)
    assert dom.slab_diameter() == 0.5
    assert math.isclose(dom.kappa_slab, 0.353553, abs_tol=1e-6)


def test_strip_diameter_independent_of_truncation():
    for n_trunc in [1.0, 2.0, 5.0, 17.0, 133.0]:
        dom = Domain.strip_truncation(d=1.0, n_trunc=n_trunc)
        assert dom.slab_diameter() == 1.0
        assert math.isclose(dom.kappa_slab, 1.0 / math.sqrt(2.0), rel_tol=1e-12)


def test_strip_shorter_than_wide_has_its_length_as_slab_diameter():
    # the smallest gap between parallel lines enclosing [-0.25, 0.25] x (-0.5, 0.5)
    assert Domain.strip_truncation(1.0, 0.25).slab_diameter() == 0.5


def test_a_domain_is_an_origin_and_extents():
    assert [f.name for f in dataclasses.fields(Domain)] == ["origin", "extents"]
    rect = Domain.rectangle(2, 0.5)
    assert (rect.origin, rect.extents) == ((0.0, 0.0), (2.0, 0.5))
    strip = Domain.strip_truncation(d=1.0, n_trunc=3.0)
    assert (strip.origin, strip.extents) == ((-3.0, -0.5), (6.0, 1.0))


def test_kappas_positive_finite():
    # kappa_slab <= kappa_volumetric is false in general; assert positivity only
    for dom in [
        Domain.rectangle(1, 1),
        Domain.rectangle(10, 0.1),
        Domain.strip_truncation(2.0, 3.0),
    ]:
        assert 0 < dom.kappa_volumetric < math.inf
        assert 0 < dom.kappa_slab < math.inf


def test_invalid_domains():
    with pytest.raises(ValueError):
        Domain.rectangle(-1.0, 1.0)
    with pytest.raises(ValueError):
        Domain.strip_truncation(0.0, 1.0)
    with pytest.raises(ValueError):
        Domain.strip_truncation(1.0, 1e308)  # finite n_trunc, but its extent 2 n_trunc is not


def test_field_shape_guard(unit_grid_16):
    with pytest.raises(ValueError):
        unit_grid_16.field(np.zeros((2, 2)))


def test_fields_are_immutable(unit_grid_16):
    f = unit_grid_16.constant(1.0)
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0


def test_constant_allocates_one_field_and_owns_it(unit_grid_32):
    # the np.full is the field's array: it is not copied into a second one
    assert traced_peak_fields(unit_grid_32, lambda: unit_grid_32.constant(1.0)) < 1.5
    f, g = unit_grid_32.constant(1.0), unit_grid_32.zeros()
    assert not (f.values.flags.writeable or np.shares_memory(f.values, g.values))
    assert np.array_equal(f.values, np.ones(unit_grid_32.shape)) and not g.values.any()


def test_a_grid_is_its_domain_and_spacing(same_shape_pair):
    rect, strip = same_shape_pair
    twice = build_grid(Domain.rectangle(4.0, 1.0), 0.25)
    assert twice is not rect and twice == rect and hash(twice) == hash(rect)
    assert len({rect, twice, strip}) == 2
    finer = build_grid(Domain.rectangle(2.0, 0.5), 0.125)  # 17 x 5 nodes too
    for other in (strip, finer):
        assert other.shape == rect.shape and other != rect
    assert build_grid(Domain.rectangle(4.0, 1.0), 0.125) != rect


@pytest.mark.parametrize("other", ["same_shape", "other_shape"])
def test_is_conforming_rejects_phi_from_another_grid(same_shape_pair, other):
    # a phi of another shape once failed to broadcast; one of the same shape
    # was compared node by node
    rect, strip = same_shape_pair
    taller = build_grid(Domain.rectangle(4.0, 2.0), 0.25)
    phi = (strip if other == "same_shape" else taller).zeros()
    with pytest.raises(ValueError, match="phi lives on a different grid"):
        rect.zeros().is_conforming(phi)
