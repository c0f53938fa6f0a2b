import math

import numpy as np
import pytest

from diriter import (
    BoundarySpec,
    GammaG,
    GradLipschitz,
    IterationConfig,
    IterationDiverged,
    IterationMaxIters,
    MeanCurvature,
    NormConfig,
    NotConforming,
    build_grid,
    c2alpha_estimate,
    dirichlet_iterate,
    domain_constants,
    gradient,
    norm_h1semi,
    residual_field,
    solve_dirichlet,
    uniform_bound_check,
)
from diriter.calculus import random_trig_polynomial
from diriter.errors import IterationFailure

FAST = NormConfig(alpha=0.5, pair_budget=20_000)


def base_cfg(**kw):
    defaults = dict(h1_tol=1e-12, max_iters=80, lambda_value=2.0, norm_cfg=FAST)
    defaults.update(kw)
    return IterationConfig(**defaults)


def test_pure_poisson_converges_immediately(unit_grid_32):
    spec = GradLipschitz(h=unit_grid_32.constant(1.0), K=0.0, m=2.0)
    u, rep = dirichlet_iterate(unit_grid_32, spec, base_cfg())
    assert rep.outcome == "converged"
    assert len(rep.rows) == 2
    assert rep.rows[-1].h1_diff == 0.0
    v = solve_dirichlet(unit_grid_32, spec.h)
    assert np.array_equal(u.values, v.values)


def test_iterates_keep_boundary_values(unit_grid_16):
    phi = unit_grid_16.field_from(lambda x, y: 0.2 * x + 0.1 * y)
    bc = BoundarySpec.prescribed(phi)
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.02, m=2.0)
    cfg = base_cfg(boundary=bc, start="boundary-lift")
    u, rep = dirichlet_iterate(unit_grid_16, spec, cfg)
    assert rep.outcome == "converged"
    mask = unit_grid_16.boundary_mask()
    assert np.array_equal(u.values[mask], phi.values[mask])


def test_contraction_chain(unit_grid_32, unit_square):
    K = 0.05
    spec = GradLipschitz(h=unit_grid_32.constant(1.0), K=K, m=2.0)
    u, rep = dirichlet_iterate(unit_grid_32, spec, base_cfg())
    assert rep.outcome == "converged"
    consts = domain_constants(unit_square)
    kap = min(consts["kappa_volumetric"], consts["kappa_slab"]) + 2 * unit_grid_32.h
    bound = 2.0 * rep.C_empirical * K * kap + 0.05
    rhos = [r.rho_i for r in rep.rows if r.rho_i is not None]
    assert rhos and max(rhos) <= bound


def test_geometric_series_stop(unit_grid_32):
    spec = GradLipschitz(h=unit_grid_32.constant(1.0), K=0.05, m=2.0)
    u, rep = dirichlet_iterate(unit_grid_32, spec, base_cfg(h1_tol=1e-10))
    rhos = [r.rho_i for r in rep.rows if r.rho_i is not None]
    rho_hat = max(rhos)
    assert rho_hat < 1.0
    # run further from the converged iterate: remaining distance obeys the tail bound
    spec2 = spec
    u_refined, _ = dirichlet_iterate(
        unit_grid_32, spec2, base_cfg(h1_tol=1e-14), u0=u
    )
    gap = norm_h1semi(unit_grid_32.field(u_refined.values - u.values))
    last = rep.rows[-1].h1_diff
    assert gap <= last * rho_hat / (1.0 - rho_hat) + 1e-13


def test_linearity_at_k_zero(unit_grid_16):
    h = unit_grid_16.field_from(lambda x, y: 1.0 + 0.3 * np.sin(np.pi * x))
    doubled = unit_grid_16.field(2.0 * h.values)
    u1, _ = dirichlet_iterate(unit_grid_16, GradLipschitz(h=h, K=0.0), base_cfg())
    u2, _ = dirichlet_iterate(unit_grid_16, GradLipschitz(h=doubled, K=0.0), base_cfg())
    assert np.allclose(u2.values, 2.0 * u1.values, rtol=0, atol=1e-13)


def test_report_is_deterministic(unit_grid_16):
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.03, m=2.0)
    _, r1 = dirichlet_iterate(unit_grid_16, spec, base_cfg())
    _, r2 = dirichlet_iterate(unit_grid_16, spec, base_cfg())
    assert r1.rows == r2.rows
    assert r1.C_empirical == r2.C_empirical


def test_mce_blowup_diverges(unit_grid_32):
    spec = MeanCurvature(H=unit_grid_32.constant(2.0), n=2)
    with pytest.raises((IterationDiverged, IterationMaxIters)) as exc_info:
        dirichlet_iterate(unit_grid_32, spec, base_cfg(max_iters=60))
    rep = exc_info.value.report
    assert rep.outcome in ("diverged", "max_iters")
    tail = [r.h1_diff for r in rep.rows[-5:]]
    assert all(b >= a for a, b in zip(tail, tail[1:]))
    assert exc_info.value.last_iterate is not None


def test_nan_iterate_diverges(unit_grid_16):
    # finite data; g is NaN off [0, 2] and the first iterate is negative inside,
    # so f and every later iterate are NaN
    def g(s):
        s = np.asarray(s, dtype=float)
        return np.where((s >= 0.0) & (s <= 2.0), 0.5 * s * s, np.nan)

    def gprime(s):
        s = np.asarray(s, dtype=float)
        return np.where((s >= 0.0) & (s <= 2.0), s, np.nan)

    spec = GammaG(gamma=unit_grid_16.constant(1.0), h=unit_grid_16.constant(1.0), g=g, gprime=gprime)
    with pytest.raises(IterationDiverged) as exc_info:
        dirichlet_iterate(unit_grid_16, spec, base_cfg(max_iters=20))
    rows = exc_info.value.report.rows
    assert exc_info.value.report.outcome == "diverged"
    assert len(rows) == 2 and math.isfinite(rows[0].sup_u) and math.isnan(rows[1].sup_u)


def test_rejects_unknown_kappa_kind():
    with pytest.raises(ValueError, match="kappa_kind"):
        IterationConfig(kappa_kind="bogus")


def test_rejects_nonconforming_start(unit_grid_16):
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.0, m=2.0)
    with pytest.raises(NotConforming):
        dirichlet_iterate(unit_grid_16, spec, base_cfg(), u0=unit_grid_16.constant(1.0))


def test_perturbed_start_same_limit(unit_grid_16):
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.05, m=2.0)
    cfg = base_cfg()
    u_ref, rep = dirichlet_iterate(unit_grid_16, spec, cfg)
    t_star = rep.theory.C
    assert t_star is not None
    bump = unit_grid_16.field_from(
        lambda x, y: 0.1 * t_star * np.sin(np.pi * x) * np.sin(np.pi * y)
    )
    u_alt, _ = dirichlet_iterate(unit_grid_16, spec, cfg, u0=bump)
    assert np.max(np.abs(u_alt.values - u_ref.values)) <= 1e-6


# --- residual_field -----------------------------------------------------------


def test_residual_zero_cases(unit_grid_16):
    spec = GradLipschitz(h=unit_grid_16.zeros(), K=0.4, m=2.0)
    res = residual_field(unit_grid_16.zeros(), spec)
    assert np.max(np.abs(res.values)) == 0.0


def test_residual_of_converged_iterate(unit_grid_32):
    spec = GradLipschitz(h=unit_grid_32.constant(1.0), K=0.05, m=2.0)
    cfg = base_cfg()
    u, rep = dirichlet_iterate(unit_grid_32, spec, cfg)
    f_sup = 1.0 + 0.05 * np.max(gradient(u).magnitude() ** 2)
    assert rep.rows[-1].residual_sup <= 10 * cfg.h1_tol * (1.0 + f_sup)


def test_reported_residual_matches_unfused_residual(unit_grid_16):
    spec = GradLipschitz(h=unit_grid_16.field_from(lambda x, y: 1.0 + 0.3 * np.sin(np.pi * x)), K=0.2)
    u, rep = dirichlet_iterate(unit_grid_16, spec, base_cfg())
    assert rep.outcome == "converged" and len(rep.rows) > 3
    # the loop reuses the f of the next solve; recomputed from u alone it is the same bits
    assert rep.rows[-1].residual_sup == float(np.max(np.abs(residual_field(u, spec).values)))


def test_residual_truncation_order(unit_square):
    # exact manufactured solution under K = 0: residual is the stencil error
    errs = []
    for h in (1.0 / 16, 1.0 / 32):
        grid = build_grid(unit_square, h)
        f = grid.field_from(lambda x, y: -2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y))
        u = grid.field_from(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        res = residual_field(u, GradLipschitz(h=f, K=0.0, m=2.0))
        errs.append(np.max(np.abs(res.values)))
    assert 3.2 <= errs[0] / errs[1] <= 4.8


# --- uniform_bound_check --------------------------------------------------------


def test_uniform_bound_empty_rhs(unit_grid_16):
    spec = GradLipschitz(h=unit_grid_16.zeros(), K=0.0, m=2.0)
    _, rep = dirichlet_iterate(unit_grid_16, spec, base_cfg())
    out = uniform_bound_check(rep, C_theory=1.0)
    assert out["holds"] and out["margin"] == 1.0
    assert rep.C_empirical == 0.0


def test_uniform_bound_k_zero_vs_estimator(unit_grid_16):
    # take h from the estimator's own seeded family: the empirical constant
    # then dominates the single-solve ratio by construction
    rng = np.random.default_rng(5)
    h = random_trig_polynomial(unit_grid_16, rng)
    spec = GradLipschitz(h=h, K=0.0, m=2.0)
    cfg = base_cfg(lambda_value=None, lambda_trials=3, lambda_seed=5)
    u, rep = dirichlet_iterate(unit_grid_16, spec, cfg)
    c_theory = rep.theory.C  # = Lambda_emp * h_alpha for K = 0
    assert c_theory is not None
    assert math.isclose(c_theory, rep.theory.Lambda * rep.norms["h_alpha"], rel_tol=1e-9)
    out = uniform_bound_check(rep, c_theory)
    assert out["holds"]
    assert math.isclose(
        rep.C_empirical, c2alpha_estimate(u, cfg.norm_cfg), rel_tol=1e-12
    )


def test_uniform_bound_fails_on_blowup(unit_grid_32):
    spec = MeanCurvature(H=unit_grid_32.constant(2.0), n=2)
    try:
        dirichlet_iterate(unit_grid_32, spec, base_cfg(max_iters=40))
        raise AssertionError("expected blow-up")
    except IterationFailure as exc:
        out = uniform_bound_check(exc.report, C_theory=5.0)
        assert not out["holds"]


def test_rows_well_formed(unit_grid_16):
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.05, m=2.0)
    _, rep = dirichlet_iterate(unit_grid_16, spec, base_cfg())
    assert [r.i for r in rep.rows] == list(range(1, len(rep.rows) + 1))
    assert rep.rows[0].rho_i is None
    assert all(r.rho_i is not None for r in rep.rows[1:])
