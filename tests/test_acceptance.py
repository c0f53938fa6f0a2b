"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one pass line per
criterion as it completes. Everything here finishes in a few minutes on a
laptop-class machine.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_bvp

from diriter import (
    AnalysisConfig,
    ArcSolution,
    Domain,
    GammaG,
    GradLipschitz,
    IterationConfig,
    MeanCurvature,
    NormConfig,
    PoissonSolver,
    build_grid,
    c2alpha_observer,
    contraction_theory,
    dirichlet_iterate,
    norm_h1semi,
    norm_l2,
    smallest_fixed_point,
    verify_poincare,
)
from diriter.calculus import poincare_maximizer
from diriter.cli import run_sweep
from diriter.errors import IterationFailure

from property_suites import ALL_SUITES
from reference import mc_divergence_residual, poincare_suite

UNIT = Domain.rectangle(1.0, 1.0)


def report_pass(n, message):
    print(f"[PASS] criterion {n}: {message}")


def manufactured_error(h):
    grid = build_grid(UNIT, h)
    f = grid.field_from(lambda x, y: -2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y))
    exact = grid.field_from(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    u = PoissonSolver(grid).solve(f)
    return float(np.max(np.abs(u.values - exact.values)))


def test_criterion_1_poisson_convergence_order():
    t0 = time.perf_counter()
    e32 = manufactured_error(1.0 / 32)
    e64 = manufactured_error(1.0 / 64)
    elapsed = time.perf_counter() - t0
    ratio = e32 / e64
    assert 3.4 <= ratio <= 4.6
    assert elapsed < 10.0
    report_pass(1, f"sup-error ratio {ratio:.3f} in [3.4, 4.6], {elapsed:.2f}s")


def test_criterion_2_slab_poincare_suite():
    # the grid's maximizer has the largest ratio of any conforming field, so
    # its slab bound holds for all of them; the closed-form fields sit below it
    checked = 0
    for dom, h in ((UNIT, 1.0 / 32), (Domain.strip_truncation(1.0, 2.0), 1.0 / 32)):
        grid = build_grid(dom, h)
        u = poincare_maximizer(grid)
        lhs = verify_poincare(u, dom)["lhs"]
        gn = norm_h1semi(u)
        assert lhs <= dom.kappa_slab * gn + 2 * grid.h * gn
        for name, v in poincare_suite(grid):
            assert norm_l2(v) / norm_h1semi(v) <= lhs / gn, name
            checked += 1
    assert checked == 22
    grid = build_grid(UNIT, 1.0 / 64)
    u = grid.field_from(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    ratio = verify_poincare(u, UNIT)["lhs"] / norm_h1semi(u)
    target = 1.0 / (math.pi * math.sqrt(2.0))
    assert abs(ratio - target) <= 1e-3
    report_pass(2, f"the grid maximizer obeys the slab bound on 2 grids and bounds {checked} "
                f"fields; eigen-ratio {ratio:.6f} ~ {target:.6f}")


def test_criterion_3_fixed_point_closed_form():
    lams = [0.4, 0.7, 1.0, 1.6, 2.5, 4.0]
    ks = [0.01, 0.03, 0.08, 0.15, 0.3, 0.6]
    h_alphas = [0.2, 0.5, 0.9, 1.5, 2.4, 4.0]
    grid = build_grid(UNIT, 0.25)
    hits = 0
    no_fixed_point = 0
    for lam in lams:
        for K in ks:
            for ha in h_alphas:
                disc = 4.0 * lam * lam * K * ha
                spec = GradLipschitz(h=grid.constant(1.0), K=K, m=2.0)
                if disc < 0.98:
                    t_b = smallest_fixed_point(spec, UNIT, {"h_alpha": ha}, lam)
                    t_c = (1.0 - math.sqrt(1.0 - disc)) / (2.0 * lam * K)
                    assert t_b is not None
                    assert abs(t_b - t_c) <= 1e-10
                    hits += 1
                elif disc > 1.02:
                    assert smallest_fixed_point(spec, UNIT, {"h_alpha": ha}, lam) is None
                    no_fixed_point += 1
    assert hits >= 100
    assert no_fixed_point >= 20
    report_pass(3, f"{hits} lattice points match closed form to 1e-10; "
                   f"{no_fixed_point} supercritical points return no fixed point")


def criterion_4_run():
    grid = build_grid(UNIT, 1.0 / 64)
    spec = GradLipschitz(h=grid.constant(1.0), K=0.05, m=2.0)
    cfg = IterationConfig(h1_tol=1e-12, max_iters=80)
    estimates, observe = c2alpha_observer(NormConfig())
    u, rep = dirichlet_iterate(spec, cfg, observe=observe)
    return grid, spec, cfg, u, rep, estimates


def test_criterion_4_contraction_realized():
    grid, spec, _, _, rep, estimates = criterion_4_run()
    assert rep.outcome == "converged"
    kappa = min(UNIT.kappa_volumetric, UNIT.kappa_slab)
    bound = 2.0 * max(estimates) * spec.K * (kappa + 2 * grid.h) + 0.05
    rhos = [r.rho_i for r in rep.rows if r.rho_i is not None]
    assert rhos and max(rhos) <= bound
    assert rep.rows[-1].residual_sup <= 1e-8
    report_pass(4, f"max rho {max(rhos):.2e} <= {bound:.3f}, "
                   f"residual {rep.rows[-1].residual_sup:.2e} <= 1e-8")


def test_criterion_5_gamma_g_run_and_threshold():
    grid = build_grid(UNIT, 1.0 / 32)
    spec = GammaG(gamma=grid.constant(0.1), h=grid.constant(1.0), m=2.0, k=1.0)
    cfg = IterationConfig(h1_tol=1e-12, max_iters=60)
    _, rep = dirichlet_iterate(spec, cfg)
    assert rep.outcome == "converged"
    rhos = [r.rho_i for r in rep.rows if r.rho_i is not None]
    assert max(rhos) < 1.0
    # repeated doubling of gamma eventually flips the outcome
    values = [0.1 * 4.0**k for k in range(10)]
    sweep = run_sweep(spec, cfg, "gamma_sup", values)
    outcomes = [row[1] for row in sweep["rows"]]
    assert outcomes[0] == "converged"
    assert any(o in ("diverged", "max_iters") for o in outcomes)
    assert sweep["threshold"] is not None
    report_pass(5, f"gamma = 0.1 converges (max rho {max(rhos):.2e}); "
                   f"sweep threshold at gamma ~ {sweep['threshold']:.1f}")


def test_criterion_6_mce_arc_benchmark():
    d, H = 1.0, 0.2
    # re-derive the reference center value with an independent BVP solve
    def odes(y, z):
        return np.vstack([z[1], 2.0 * H * (1.0 + z[1] ** 2) ** 1.5])

    def bc(za, zb):
        return np.array([za[0], zb[0]])

    mesh = np.linspace(-d / 2, d / 2, 401)
    bvp = solve_bvp(odes, bc, mesh, np.zeros((2, 401)), tol=1e-10)
    assert bvp.success
    arc = ArcSolution(d, H)
    assert abs(bvp.sol(0.0)[0] - arc(0.0)) <= 1e-8
    assert abs(arc(0.0) - (-0.0505103)) <= 1e-6

    grid = build_grid(Domain.strip_truncation(d, 4.0), 1.0 / 64)
    spec = MeanCurvature(H=grid.constant(H), n=2)
    cfg = IterationConfig(h1_tol=1e-12, max_iters=80)
    u, rep = dirichlet_iterate(spec, cfg)
    assert rep.outcome == "converged"
    cols = np.abs(grid.x) <= 4.0 / 3.0 + 1e-12
    err = np.max(np.abs(u.values[cols, :] - arc(grid.y)[None, :]))
    assert err <= 5 * grid.h**2 + 1e-4
    res = np.max(np.abs(mc_divergence_residual(u, spec.H, 2).values))
    assert res <= 5 * grid.h**2
    report_pass(6, f"middle-third error {err:.2e} <= {5 * grid.h**2 + 1e-4:.2e}, "
                   f"divergence residual {res:.2e} <= {5 * grid.h**2:.2e}")


def _mce_threshold(domain):
    grid = build_grid(domain, 1.0 / 32)
    spec = MeanCurvature(H=grid.constant(1.0), n=2)
    cfg = IterationConfig(h1_tol=1e-12, max_iters=60)
    values = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]
    sweep = run_sweep(spec, cfg, "H_amplitude", values)
    return sweep["threshold"], [row[1] for row in sweep["rows"]]


def test_criterion_7_mce_threshold_domain_ordering():
    eps_unit, out_unit = _mce_threshold(UNIT)
    eps_big, out_big = _mce_threshold(Domain.rectangle(2.0, 2.0))
    assert eps_unit is not None and eps_big is not None
    assert out_unit[0] == "converged" and out_big[0] == "converged"
    assert eps_big <= eps_unit
    report_pass(7, f"empirical thresholds: unit square {eps_unit:.3f} >= 2x2 square {eps_big:.3f}")


def test_criterion_8_exhaustion_tails():
    from diriter import ExhaustionConfig, exhaustion_solve

    d, h = 1.0, 1.0 / 16
    cfg = ExhaustionConfig(
        n_start=3, compact_halfwidth=2.0,
        iteration=IterationConfig(h1_tol=1e-12, max_iters=40),
    )
    big = build_grid(Domain.strip_truncation(d, 8), h)
    spec = GradLipschitz(h=big.constant(1.0), K=0.0, m=2.0)
    result = exhaustion_solve(spec, cfg)
    tail = result.tail
    assert all(t > 0 for t in tail)
    assert all(b <= a for a, b in zip(tail[1:], tail[2:]))
    assert tail[-1] <= 1e-6
    grid = result.u_final.grid
    mid = result.u_final.values[grid.nx // 2, :]
    profile = (grid.y**2 - 0.25) / 2.0
    prof_err = np.max(np.abs(mid - profile))
    assert prof_err <= 4 * h**2
    report_pass(8, f"tails {tail[0]:.2e} .. {tail[-1]:.2e} decreasing, final <= 1e-6; "
                   f"profile error {prof_err:.2e} <= {4 * h**2:.2e}")


@pytest.mark.parametrize("name", sorted(ALL_SUITES))
def test_criterion_9_property_suites(name):
    failures = ALL_SUITES[name](cases=200)
    assert failures == 0
    report_pass(9, f"{name}: 200 randomized cases, zero failures")


def test_criterion_10_uniqueness_ball_rerun():
    grid, spec, cfg, u_ref, _, _ = criterion_4_run()
    t_star = contraction_theory(spec, AnalysisConfig(lambda_value=2.0))[0].C
    assert t_star is not None and t_star > 0
    bump = grid.field_from(
        lambda x, y: 0.1 * t_star * np.sin(np.pi * x) * np.sin(np.pi * y)
    )
    u_alt, rep_alt = dirichlet_iterate(spec, cfg, u0=bump)
    assert rep_alt.outcome == "converged"
    gap = float(np.max(np.abs(u_alt.values - u_ref.values)))
    assert gap <= 1e-6
    report_pass(10, f"perturbed start (radius {0.1 * t_star:.3f}) reconverged, sup gap {gap:.2e}")
