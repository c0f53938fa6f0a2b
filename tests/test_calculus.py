import math

import numpy as np
import pytest
import scipy.linalg

from diriter import (
    DiriterError,
    Domain,
    NormConfig,
    build_grid,
    c2alpha_estimate,
    estimate_schauder_constant,
    gradient,
    holder_norm,
    holder_seminorm,
    laplacian_apply,
    norm_h1semi,
    norm_l2,
    norm_sup,
    verify_poincare,
)
from diriter import calculus
from diriter.calculus import poincare_maximizer

from conftest import random_conforming, random_smooth, traced_peak_fields
from reference import (
    flux_divergence,
    h1_inner,
    poincare_suite,
    random_trig_polynomial,
    schauder_ratio,
)

CFG = NormConfig(alpha=0.5)


def sinsin(grid):
    return grid.field_from(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))


# --- gradient -------------------------------------------------------------


def test_gradient_exact_on_linear(unit_grid_16):
    u = unit_grid_16.field_from(lambda x, y: x)
    ux, uy = gradient(u)
    assert np.allclose(ux, 1.0, atol=1e-13)
    assert np.allclose(uy, 0.0, atol=1e-13)


def test_gradient_of_constant(unit_grid_16):
    ux, uy = gradient(unit_grid_16.constant(3.7))
    assert np.max(np.abs(ux)) <= 1e-12
    assert np.max(np.abs(uy)) <= 1e-12


def test_gradient_second_order(unit_square):
    errs = []
    for h in (1.0 / 16, 1.0 / 32):
        grid = build_grid(unit_square, h)
        ux, uy = gradient(sinsin(grid))
        X, Y = grid.meshgrid()
        ex = np.pi * np.cos(np.pi * X) * np.sin(np.pi * Y)
        ey = np.pi * np.sin(np.pi * X) * np.cos(np.pi * Y)
        errs.append(max(np.max(np.abs(ux - ex)), np.max(np.abs(uy - ey))))
    ratio = errs[0] / errs[1]
    assert 3.2 <= ratio <= 4.8  # ~4 +/- 20%


# --- laplacian ------------------------------------------------------------


def test_laplacian_exact_on_quadratic(unit_grid_16):
    u = unit_grid_16.field_from(lambda x, y: x**2 + y**2)
    lap = laplacian_apply(u)
    inner = lap.values[1:-1, 1:-1]
    assert np.allclose(inner, 4.0, atol=1e-11)
    assert np.max(np.abs(lap.values[0, :])) == 0.0  # boundary convention


def test_laplacian_zero_on_linear(unit_grid_16):
    u = unit_grid_16.field_from(lambda x, y: 2 * x - 3 * y + 1)
    assert np.max(np.abs(laplacian_apply(u).values)) < 1e-11


def test_laplacian_second_order(unit_square):
    errs = []
    for h in (1.0 / 16, 1.0 / 32):
        grid = build_grid(unit_square, h)
        u = sinsin(grid)
        lap = laplacian_apply(u)
        expected = -2 * np.pi**2 * u.values[1:-1, 1:-1]
        errs.append(np.max(np.abs(lap.values[1:-1, 1:-1] - expected)))
    assert 3.2 <= errs[0] / errs[1] <= 4.8


# --- divergence -----------------------------------------------------------


def _unit_scale(w2):
    return np.ones_like(w2)


def _curvature_scale(w2):
    return 1.0 / np.sqrt(1.0 + w2)


def test_divergence_of_constant_field(unit_grid_16):
    # u = x has the face gradient (1, 0) on every face, so any scale of it
    # is a constant flux, whose divergence is zero
    u = unit_grid_16.field_from(lambda x, y: x)
    for scale in (_unit_scale, _curvature_scale):
        assert np.max(np.abs(flux_divergence(u, scale).values)) == 0.0


def test_divergence_exact_on_linear(unit_grid_16):
    # grad((x^2 + y^2) / 2) = (x, y), whose divergence is 2
    u = unit_grid_16.field_from(lambda x, y: (x * x + y * y) / 2.0)
    div = flux_divergence(u, _unit_scale)
    assert np.allclose(div.values[1:-1, 1:-1], 2.0, atol=1e-12)


def test_flux_divergence_is_five_point_laplacian(unit_grid_16, rng):
    # the flux-form composition of gradient and divergence collapses to the
    # compact stencil, nodewise to machine precision
    for _ in range(100):
        u = unit_grid_16.field(rng.standard_normal(unit_grid_16.shape))
        a = flux_divergence(u, _unit_scale).values[1:-1, 1:-1]
        b = laplacian_apply(u).values[1:-1, 1:-1]
        scale = np.max(np.abs(b)) + 1.0
        assert np.max(np.abs(a - b)) <= 1e-12 * scale


# --- norms ----------------------------------------------------------------


def test_norms_of_zero(unit_grid_16):
    z = unit_grid_16.zeros()
    assert norm_l2(z) == 0.0
    assert norm_h1semi(z) == 0.0
    assert norm_sup(z) == 0.0


def test_l2_of_one_matches_measure(unit_square):
    for h in (0.25, 0.125, 1.0 / 32):
        grid = build_grid(unit_square, h)
        assert math.isclose(norm_l2(grid.constant(1.0)), 1.0, rel_tol=1e-12)


def test_norms_against_analytic_integrals(unit_square):
    # independent quadrature oracle on a fine 1-D grid: int sin^2(pi s) ds = 1/2
    s = np.linspace(0.0, 1.0, 4097)
    one_d = np.trapezoid(np.sin(np.pi * s) ** 2, s)
    assert math.isclose(one_d, 0.5, abs_tol=1e-8)
    # ||u||_2 -> sqrt(1/4), |u|_{H1} -> pi/sqrt(2)
    grid = build_grid(unit_square, 1.0 / 64)
    u = sinsin(grid)
    assert math.isclose(norm_l2(u), math.sqrt(one_d * one_d), rel_tol=2e-3)
    assert math.isclose(norm_h1semi(u), math.pi / math.sqrt(2.0), rel_tol=2e-3)


def test_norm_homogeneity_and_triangle(unit_grid_16, rng):
    for _ in range(25):
        u = random_smooth(unit_grid_16, rng)
        v = random_smooth(unit_grid_16, rng)
        c = rng.uniform(-3, 3)
        w = unit_grid_16.field(u.values + v.values)
        cu = unit_grid_16.field(c * u.values)
        for norm in (norm_l2, norm_sup, norm_h1semi):
            assert math.isclose(norm(cu), abs(c) * norm(u), rel_tol=1e-10, abs_tol=1e-12)
            assert norm(w) <= norm(u) + norm(v) + 1e-10


def test_h1_inner_matches_integration_by_parts(unit_grid_16, rng):
    h2 = unit_grid_16.h**2
    for _ in range(50):
        u = random_smooth(unit_grid_16, rng)
        v = random_conforming(unit_grid_16, rng)
        lhs = -np.sum(v.values[1:-1, 1:-1] * laplacian_apply(u).values[1:-1, 1:-1]) * h2
        rhs = h1_inner(u, v)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


# --- Hölder estimators ----------------------------------------------------


def test_holder_constant_is_zero(unit_grid_16):
    assert holder_seminorm(unit_grid_16.constant(5.0), CFG) == 0.0


def test_holder_linear_slice():
    # u(x, y) = x, alpha = 1/2: the sup of |dx| / dist^(1/2) over grid pairs is 1,
    # attained at the full-width axis pair (brute force over all pairs)
    grid = build_grid(Domain.rectangle(1, 1), 0.125)
    u = grid.field_from(lambda x, y: x)
    val = holder_seminorm(u, CFG)
    assert math.isclose(val, 1.0, rel_tol=1e-12)


def test_holder_linear_on_long_extent():
    # the full-extent pair (0, y)-(3, y) gives 3 / sqrt(3) on any extent
    grid = build_grid(Domain.rectangle(3, 1), 0.125)
    u = grid.field_from(lambda x, y: x)
    assert math.isclose(holder_seminorm(u, CFG), math.sqrt(3.0), rel_tol=1e-12)


def test_holder_homogeneous(unit_grid_16, rng):
    u = random_smooth(unit_grid_16, rng)
    u2 = unit_grid_16.field(2.0 * u.values)
    assert math.isclose(
        holder_seminorm(u2, CFG), 2.0 * holder_seminorm(u, CFG), rel_tol=1e-12
    )


def _all_pairs_holder(grid, values, alpha):
    """max |v(p) - v(q)| / |p - q|**alpha over every pair of nodes: the reference."""
    X, Y = np.broadcast_arrays(*grid.meshgrid())
    x, y, v = X.ravel(), Y.ravel(), values.ravel()
    best = 0.0
    for k in range(v.size - 1):
        dist = np.hypot(x[k + 1 :] - x[k], y[k + 1 :] - y[k])
        best = max(best, float(np.max(np.abs(v[k + 1 :] - v[k]) / dist**alpha)))
    return best


def test_holder_sampled_close_to_exhaustive(rng):
    # the displacement set is a subset of all pairs: never above the all-pairs
    # maximum, and close to it on smooth fields
    for extent, h in (((1, 1), 1 / 8), ((1, 1), 1 / 16), ((1, 1), 1 / 32), ((3, 1), 1 / 8)):
        grid = build_grid(Domain.rectangle(*extent), h)
        for _ in range(3):
            u = random_smooth(grid, rng)
            ref = _all_pairs_holder(grid, u.values, 0.5)
            assert 0.9 * ref <= holder_seminorm(u, CFG) <= ref * (1 + 1e-12)
            uxx = calculus._d2_axis(u.values, h, 0)
            uxy = calculus._d_axis(gradient(u)[0], h, 1)
            noise = rng.standard_normal(grid.shape)
            for v in (uxx, uxy, noise):
                ref = _all_pairs_holder(grid, v, 0.5)
                assert holder_seminorm(grid.field(v), CFG) <= ref * (1 + 1e-12)


def test_holder_on_strip_sees_pairs_across_the_strip():
    # on the long strip grid a field that varies only in y must be measured
    # along y; the reference is every pair of one column
    grid = build_grid(Domain.strip_truncation(1, 4), 1 / 256)
    assert grid.shape == (2049, 257)
    u = grid.field_from(lambda x, y: np.sin(np.pi * (y + 0.5)))
    y, v = grid.y, u.values[0]
    ref = max(
        float(np.max(np.abs(v[k + 1 :] - v[k]) / (y[k + 1 :] - y[k]) ** 0.5))
        for k in range(v.size - 1)
    )
    assert 0.9 * ref <= holder_seminorm(u, CFG) <= ref * (1 + 1e-12)


def test_c2alpha_zero_and_linear(unit_grid_16):
    assert c2alpha_estimate(unit_grid_16.zeros(), CFG) == 0.0
    u = unit_grid_16.field_from(lambda x, y: x)
    # second differences vanish: estimate = sup|u| + sup|du/dx| = 1 + 1
    assert math.isclose(c2alpha_estimate(u, CFG), norm_sup(u) + 1.0, abs_tol=1e-10)


def test_c2alpha_scaling(unit_grid_16, rng):
    u = random_smooth(unit_grid_16, rng)
    cu = unit_grid_16.field(-2.5 * u.values)
    assert math.isclose(c2alpha_estimate(cu, CFG), 2.5 * c2alpha_estimate(u, CFG), rel_tol=1e-12)


def test_c2alpha_needs_five_nodes():
    grid = build_grid(Domain.rectangle(1, 1), 0.25)  # 5x5 is fine
    c2alpha_estimate(grid.zeros(), CFG)
    small = build_grid(Domain.rectangle(1, 1), 1.0 / 3)
    with pytest.raises(DiriterError, match="at least 5 nodes per axis"):
        c2alpha_estimate(small.zeros(), CFG)


def test_c2alpha_stabilizes_under_refinement(unit_square):
    vals = []
    for h in (1.0 / 32, 1.0 / 64):
        grid = build_grid(unit_square, h)
        vals.append(c2alpha_estimate(sinsin(grid), CFG))
    assert abs(vals[0] - vals[1]) <= 0.1 * vals[1]


# --- Poincaré -------------------------------------------------------------


def test_poincare_zero_field(unit_grid_16, unit_square):
    res = verify_poincare(unit_grid_16.zeros(), unit_square)
    assert res["lhs"] == 0.0 and res["holds_vol"] and res["holds_slab"]


def test_poincare_eigenfunction_ratio(unit_square):
    grid = build_grid(unit_square, 1.0 / 64)
    u = sinsin(grid)
    res = verify_poincare(u, unit_square)
    ratio = res["lhs"] / norm_h1semi(u)
    assert math.isclose(ratio, 1.0 / (math.pi * math.sqrt(2.0)), abs_tol=1e-3)
    assert res["holds_vol"] and res["holds_slab"]


def test_poincare_rejects_nonconforming(unit_grid_16, unit_square):
    with pytest.raises(DiriterError, match="verify_poincare needs zero boundary values"):
        verify_poincare(unit_grid_16.constant(1.0), unit_square)


def test_poincare_strip_cutoff_ratio():
    # u = sin(pi (y + 1/2)) * half-sine cutoff in x; the 1-D quadrature oracle
    # gives ratio^2 = (1/2) / (pi^2 (1/(8 n^2) + 1/2)) -> (d/pi)^2 as n grows
    d = 1.0
    for n_trunc, h in ((2.0, 1.0 / 16), (6.0, 1.0 / 16)):
        dom = Domain.strip_truncation(d, n_trunc)
        grid = build_grid(dom, h)
        u = grid.field_from(
            lambda x, y: np.sin(np.pi * (y + d / 2) / d)
            * np.sin(np.pi * (x + n_trunc) / (2 * n_trunc))
        )
        res = verify_poincare(u, dom)
        ratio = res["lhs"] / norm_h1semi(u)
        oracle = math.sqrt(0.5 / (math.pi**2 * (1.0 / (8 * n_trunc**2) + 0.5)))
        assert ratio <= 1.0 / math.sqrt(2.0)
        assert math.isclose(ratio, oracle, rel_tol=2e-2)
        assert res["holds_slab"]
    # oracle approaches d / pi from below as the truncation grows
    assert math.isclose(
        math.sqrt(0.5 / (math.pi**2 * (1.0 / (8 * 50.0**2) + 0.5))), d / math.pi, rel_tol=2e-4
    )


def test_poincare_suite_all_hold(unit_square):
    # the maximizer's ratio is at least that of every field the command
    # sampled before, so its one row decides the verdict for them all
    for h in (1.0 / 8, 1.0 / 16, 1.0 / 32):
        grid = build_grid(unit_square, h)
        u = poincare_maximizer(grid)
        res = verify_poincare(u, unit_square)
        assert res["holds_vol"] and res["holds_slab"]
        best = norm_l2(u) / norm_h1semi(u)
        fields = poincare_suite(grid)
        assert len(fields) == 11
        for name, v in fields:
            assert norm_l2(v) / norm_h1semi(v) <= best, (h, name)


def _dense_poincare_ratio(grid):
    """The largest ||u||_2 / |u|_{H^1} over the conforming fields of a grid:
    the smallest mode of the dense generalized eigenproblem of norm_h1semi's
    quadratic form, whose columns are the weighted gradients of the interior
    unit fields, against the trapezoidal mass."""
    w = np.outer(*grid.axis_weights())
    interior = [(i, j) for i in range(1, grid.nx - 1) for j in range(1, grid.ny - 1)]
    columns = []
    for i, j in interior:
        e = np.zeros(grid.shape)
        e[i, j] = 1.0
        ux, uy = gradient(grid.field(e))
        columns.append(np.concatenate([(np.sqrt(w) * ux).ravel(), (np.sqrt(w) * uy).ravel()]))
    g = np.array(columns).T
    form = g.T @ g
    u = random_conforming(grid, np.random.default_rng(7))
    c = u.values[1:-1, 1:-1].ravel()
    assert math.isclose(c @ form @ c, norm_h1semi(u) ** 2, rel_tol=1e-12)
    mass = np.diag([w[i, j] for i, j in interior])
    lowest = scipy.linalg.eigh(form, mass, eigvals_only=True, subset_by_index=[0, 0])[0]
    return 1.0 / math.sqrt(lowest)


@pytest.mark.parametrize("domain, ratio", [
    (Domain.rectangle(1.0, 1.0), 0.244824491851284),
    (Domain.rectangle(2.0, 1.0), 0.306817368891836),
    (Domain.strip_truncation(1.0, 2.0), 0.334522777794611),
], ids=["unit_square", "rectangle_2x1", "strip"])
def test_poincare_maximizer_is_the_dense_eigenproblem_mode(domain, ratio):
    grid = build_grid(domain, 1.0 / 8)
    u = poincare_maximizer(grid)
    got = norm_l2(u) / norm_h1semi(u)
    assert math.isclose(got, _dense_poincare_ratio(grid), rel_tol=1e-12)
    assert math.isclose(got, ratio, rel_tol=1e-12)
    assert math.isclose(norm_h1semi(u), 1.0, rel_tol=1e-12)
    assert u.is_conforming() and np.max(u.values) == np.max(np.abs(u.values))


def test_poincare_maximizer_tends_to_the_continuum_constant(unit_square):
    # 1 / (pi sqrt(1/a^2 + 1/b^2)), approached from above
    target = 1.0 / (math.pi * math.sqrt(2.0))
    gaps = []
    for h in (1.0 / 8, 1.0 / 16, 1.0 / 32):
        u = poincare_maximizer(build_grid(unit_square, h))
        gaps.append(norm_l2(u) / norm_h1semi(u) - target)
    assert gaps[2] > 0.0
    assert gaps[0] >= 2.0 * gaps[1] and gaps[1] >= 2.0 * gaps[2]


def test_poincare_maximizer_norms_stay_finite_at_large_extents():
    # the eigenvectors are formed at unit spacing: |u|_H1 = 1 and ||u||_2 is
    # h times the unit-spacing ratio, whatever h is
    dom = Domain.rectangle(1e150, 1e150)
    u = poincare_maximizer(build_grid(dom, 5e149))
    res = verify_poincare(u, dom)
    assert math.isclose(norm_h1semi(u), 1.0, rel_tol=1e-12)
    assert math.isclose(res["lhs"], 5e149 / math.sqrt(8.0), rel_tol=1e-12)
    assert res["holds_vol"] and res["holds_slab"]


# --- empirical bound constant ----------------------------------------------


def test_schauder_ratio_forced_rhs(unit_square):
    # for f = sin(pi x) sin(pi y) the solve is u = -f / (2 pi^2); the ratio of
    # the discrete estimators on the closed-form u must match the solver path
    grid = build_grid(unit_square, 1.0 / 32)
    f = sinsin(grid)
    got = schauder_ratio(f, CFG)
    u_exact = grid.field(-f.values / (2 * np.pi**2))
    expected = c2alpha_estimate(u_exact, CFG) / holder_norm(f, CFG)
    assert math.isclose(got, expected, rel_tol=5e-2)


def test_schauder_estimate_deterministic(unit_grid_16):
    a = estimate_schauder_constant(unit_grid_16, CFG)
    b = estimate_schauder_constant(unit_grid_16, CFG)
    assert a == b


@pytest.mark.parametrize("domain, h, alpha", [
    pytest.param(Domain.rectangle(1.0, 1.0), 1 / 16, 0.5, id="unit_square-0.0625"),
    pytest.param(Domain.rectangle(1.0, 1.0), 1 / 32, 0.5, id="unit_square-0.03125"),
    pytest.param(Domain.strip_truncation(1.0, 2), 1 / 16, 0.5, id="strip-0.0625"),
    pytest.param(Domain.strip_truncation(1.0, 2), 1 / 32, 0.5, id="strip-0.03125"),
    pytest.param(Domain.rectangle(4.0, 1.0), 1 / 8, 0.5, id="rect_4x1-0.125"),
    pytest.param(Domain.rectangle(4.0, 1.0), 1 / 8, 0.3, id="rect_4x1-0.125-alpha_0.3"),
    pytest.param(Domain.rectangle(4.0, 1.0), 1 / 8, 0.9, id="rect_4x1-0.125-alpha_0.9"),
    pytest.param(Domain.rectangle(1.0, 0.25), 1 / 32, 0.5, id="rect_1x0.25-0.03125"),
    pytest.param(Domain.strip_truncation(0.5, 2), 1 / 32, 0.5, id="strip_d_0.5-0.03125"),
])
def test_constant_rhs_beats_every_random_trial(domain, h, alpha):
    # the estimate from f = 1 dominates the one it replaced, the largest
    # ratio of three seeded random trigonometric right-hand sides: over 27
    # grids and exponents and 30 seeds, f = 1's ratio was 2.49x to 10.3x
    grid = build_grid(domain, h)
    cfg = NormConfig(alpha=alpha)
    constant = estimate_schauder_constant(grid, cfg)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        trials = max(schauder_ratio(random_trig_polynomial(grid, rng), cfg) for _ in range(3))
        assert constant >= 2.4 * trials, seed


def test_schauder_estimate_holds_at_most_six_grid_fields():
    # the constant right-hand side, its solution and the Hölder slices: about
    # 3.6 fields (the solver goes once its solve returns)
    grid = build_grid(Domain.strip_truncation(1.0, 2), 1 / 256)
    assert grid.shape == (1025, 257)
    peak = traced_peak_fields(grid, lambda: estimate_schauder_constant(grid, NormConfig(0.5)))
    assert peak <= 6


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def test_sup_abs_is_bitwise_max_abs(rng):
    base = rng.standard_normal((37, 23)) * 10.0 ** rng.integers(-300, 300, size=(37, 23))
    cases = [base, base[::3, 1::2], base.T, -np.abs(base), np.full((4, 5), -0.0),
             np.array([[0.0, -0.0], [-0.0, -0.0]])]
    for value in (np.nan, np.inf, -np.inf):
        for pos in [(0, 0), (36, 22), (17, 5)]:
            a = base.copy()
            a[pos] = value
            cases += [a, a[::2, ::3]]
    both = base.copy()
    both[3, 4], both[9, 1] = np.inf, -np.inf
    cases.append(both)
    for a in cases:
        assert _bits(calculus.sup_abs(a)) == _bits(np.max(np.abs(a)))
