import math

import numpy as np
from scipy.integrate import solve_bvp

from diriter import (
    Domain,
    GradLipschitz,
    ArcSolution,
    IterationConfig,
    MeanCurvature,
    build_grid,
    dirichlet_iterate,
    residual_field,
)

from reference import mc_divergence_residual



def bvp_oracle(d, H, n_nodes=400):
    """Independent two-point BVP solve of (u'/sqrt(1+u'^2))' = 2H, u(+-d/2)=0."""

    def odes(y, z):
        # z = (u, u'); curvature equation expanded: u'' = 2H (1 + u'^2)^(3/2)
        return np.vstack([z[1], 2.0 * H * (1.0 + z[1] ** 2) ** 1.5])

    def bc(za, zb):
        return np.array([za[0], zb[0]])

    y = np.linspace(-d / 2, d / 2, n_nodes)
    z0 = np.zeros((2, n_nodes))
    sol = solve_bvp(odes, bc, y, z0, tol=1e-10, max_nodes=20000)
    assert sol.success
    return sol


def arc_field(grid, arc):
    return grid.field(np.tile(arc(grid.y)[None, :], (grid.nx, 1)))


# --- arc profile ---------------------------------------------------------------


def test_arc_zero_curvature():
    arc = ArcSolution(1.0, 0.0)
    y = np.linspace(-0.5, 0.5, 11)
    assert np.max(np.abs(arc(y))) == 0.0


def test_arc_against_bvp_oracle():
    arc = ArcSolution(1.0, 0.2)
    sol = bvp_oracle(1.0, 0.2)
    y = np.linspace(-0.5, 0.5, 101)
    assert np.max(np.abs(arc(y) - sol.sol(y)[0])) <= 1e-8
    assert math.isclose(arc(0.0), -0.0505103, abs_tol=1e-6)
    assert math.isclose(float(arc(0.0)), (math.sqrt(0.96) - 1.0) / 0.4, rel_tol=1e-14)


def test_arc_validity_boundary():
    # the arc spans the strip only while |H| * d < 1 (n = 2)
    assert not ArcSolution(1.0, 1.0).valid
    assert not ArcSolution(1.0, -1.2).valid
    assert ArcSolution(1.0, 0.99).valid


def test_arc_honours_the_dimension_factor():
    # div(...) = n H: the arc of curvature 3 * 0.2 is the n = 2 arc of H = 0.3
    arc = ArcSolution(d=1.0, H=0.2, n=3)
    y = np.linspace(-0.5, 0.5, 101)
    assert np.max(np.abs(arc(y) - bvp_oracle(1.0, 0.3).sol(y)[0])) <= 1e-8
    assert ArcSolution(d=1.0, H=0.6, n=3).valid and not ArcSolution(d=1.0, H=0.7, n=3).valid
    two = ArcSolution(1.0, 0.2)  # n = 2 by default
    assert np.array_equal(ArcSolution(d=1.0, H=0.2, n=2)(y), two(y))


def test_arc_symmetry_and_sign():
    arc = ArcSolution(1.0, 0.2)
    y = np.linspace(-0.5, 0.5, 201)
    vals = arc(y)
    assert np.allclose(vals, vals[::-1], atol=1e-15)  # even in y
    assert np.argmin(vals) == 100  # single extremum at y = 0
    flipped = ArcSolution(1.0, -0.2)
    assert np.allclose(flipped(y), -vals, atol=1e-15)
    assert vals[100] < 0  # positive H pulls the graph down


def test_arc_boundary_values():
    for H in (0.1, 0.45, -0.3):
        arc = ArcSolution(1.0, H)
        assert abs(arc(0.5)) <= 1e-15 and abs(arc(-0.5)) <= 1e-15


# --- divergence-form residual ----------------------------------------------------


def test_residual_zero_for_flat(unit_grid_16):
    res = mc_divergence_residual(unit_grid_16.zeros(), unit_grid_16.zeros(), 2)
    assert np.max(np.abs(res.values)) == 0.0


def test_residual_zero_for_linear(unit_grid_16):
    u = unit_grid_16.field_from(lambda x, y: 0.3 * x - 0.7 * y)
    res = mc_divergence_residual(u, unit_grid_16.zeros(), 2)
    assert np.max(np.abs(res.values)) <= 1e-13


def test_residual_second_order_on_arc():
    arc = ArcSolution(1.0, 0.2)
    errs = []
    for h in (1.0 / 16, 1.0 / 32):
        grid = build_grid(Domain.strip_truncation(1.0, 2.0), h)
        u = arc_field(grid, arc)
        res = mc_divergence_residual(u, grid.constant(0.2), 2)
        errs.append(np.max(np.abs(res.values)))
    assert errs[1] <= 5 * (1.0 / 32) ** 2
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_divergence_vs_expanded_consistency():
    # both discretizations applied to the same smooth field stay within 10x
    arc = ArcSolution(1.0, 0.2)
    grid = build_grid(Domain.strip_truncation(1.0, 2.0), 1.0 / 32)
    u = arc_field(grid, arc)
    spec = MeanCurvature(H=grid.constant(0.2), n=2)
    r_div = np.max(np.abs(mc_divergence_residual(u, spec.H, 2).values))
    r_exp = np.max(np.abs(residual_field(u, spec).values))
    assert r_div <= 10.0 * r_exp


def test_iterated_solution_matches_arc_middle_third():
    d, H = 1.0, 0.2
    arc = ArcSolution(d, H)
    errors = []
    for n_trunc in (3.0, 4.0, 5.0):
        grid = build_grid(Domain.strip_truncation(d, n_trunc), 1.0 / 32)
        spec = MeanCurvature(H=grid.constant(H), n=2)
        cfg = IterationConfig(h1_tol=1e-12, max_iters=60)
        u, rep = dirichlet_iterate(spec, cfg)
        assert rep.outcome == "converged"
        cols = np.abs(grid.x) <= n_trunc / 3.0 + 1e-12
        err = np.max(np.abs(u.values[cols, :] - arc(grid.y)[None, :]))
        errors.append(err)
        assert err <= 5 * grid.h**2 + 2e-4
    # the truncation tail shrinks as the strip grows
    assert errors[-1] <= errors[0]


def test_converged_iterate_divergence_residual():
    grid = build_grid(Domain.strip_truncation(1.0, 3.0), 1.0 / 32)
    spec = MeanCurvature(H=grid.constant(0.2), n=2)
    cfg = IterationConfig(h1_tol=1e-12, max_iters=60)
    u, _ = dirichlet_iterate(spec, cfg)
    res = np.max(np.abs(mc_divergence_residual(u, spec.H, 2).values))
    assert res <= 5 * grid.h**2


def test_grad_lipschitz_unaffected_by_mce_fix(unit_grid_16):
    # guard: the coupling term only enters the mean-curvature family
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.0, m=2.0)
    res = residual_field(unit_grid_16.zeros(), spec)
    assert np.max(np.abs(res.values[1:-1, 1:-1] + 1.0)) <= 1e-12
