import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from diriter import (
    AnalysisConfig,
    DiriterError,
    Domain,
    GammaG,
    GradLipschitz,
    IterationConfig,
    IterationFailure,
    MeanCurvature,
    PoissonSolver,
    build_grid,
    c2alpha_estimate,
    c2alpha_observer,
    contraction_theory,
    dirichlet_iterate,
    evaluate_rhs,
    gradient,
    laplacian_apply,
    norm_h1semi,
    residual_field,
)
from diriter import iteration, poisson
from diriter.calculus import _holder_max



ANALYSIS = AnalysisConfig(lambda_value=2.0)


def base_cfg(**kw):
    defaults = dict(h1_tol=1e-12, max_iters=80)
    defaults.update(kw)
    return IterationConfig(**defaults)


def test_pure_poisson_converges_immediately(unit_grid_32):
    spec = GradLipschitz(h=unit_grid_32.constant(1.0), K=0.0, m=2.0)
    u, rep = dirichlet_iterate(unit_grid_32, spec, base_cfg())
    assert rep.outcome == "converged"
    assert len(rep.rows) == 2
    assert rep.rows[-1].h1_diff == 0.0
    v = PoissonSolver(unit_grid_32).solve(spec.h)
    assert np.array_equal(u.values, v.values)


def test_iterates_keep_boundary_values(unit_grid_16):
    phi = unit_grid_16.field_from(lambda x, y: 0.2 * x + 0.1 * y)
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.02, m=2.0)
    cfg = base_cfg(phi=phi, start="boundary-lift")
    u, rep = dirichlet_iterate(unit_grid_16, spec, cfg)
    assert rep.outcome == "converged"
    assert np.array_equal(u.boundary_values(), phi.boundary_values())


def test_contraction_chain(unit_grid_32, unit_square):
    K = 0.05
    spec = GradLipschitz(h=unit_grid_32.constant(1.0), K=K, m=2.0)
    cfg = base_cfg()
    estimates, observe = c2alpha_observer(ANALYSIS.norm_cfg)
    u, rep = dirichlet_iterate(unit_grid_32, spec, cfg, observe=observe)
    assert rep.outcome == "converged"
    kap = min(unit_square.kappa_volumetric, unit_square.kappa_slab) + 2 * unit_grid_32.h
    bound = 2.0 * max(estimates) * K * kap + 0.05
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
    cfg = base_cfg()
    e1, o1 = c2alpha_observer(ANALYSIS.norm_cfg)
    e2, o2 = c2alpha_observer(ANALYSIS.norm_cfg)
    _, r1 = dirichlet_iterate(unit_grid_16, spec, cfg, observe=o1)
    _, r2 = dirichlet_iterate(unit_grid_16, spec, cfg, observe=o2)
    assert r1.rows == r2.rows
    assert e1 == e2


def test_mce_blowup_diverges(unit_grid_32):
    spec = MeanCurvature(H=unit_grid_32.constant(2.0), n=2)
    with pytest.raises(IterationFailure) as exc_info:
        dirichlet_iterate(unit_grid_32, spec, base_cfg(max_iters=60))
    rep = exc_info.value.report
    assert rep.outcome in ("diverged", "max_iters")
    tail = [r.h1_diff for r in rep.rows[-5:]]
    assert all(b >= a for a, b in zip(tail, tail[1:]))
    assert exc_info.value.last_iterate is not None


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_nan_iterate_diverges(unit_grid_16):
    # finite data; the first iterate has |grad u| > 1 somewhere, so |grad u|^400
    # overflows to inf, K * inf = 0 * inf is NaN, f at the first iterate is NaN
    # and the loop stops before solving with it
    spec = GradLipschitz(h=unit_grid_16.constant(100.0), K=0.0, m=400.0)
    with pytest.raises(IterationFailure) as exc_info:
        dirichlet_iterate(unit_grid_16, spec, base_cfg(max_iters=20))
    rows = exc_info.value.report.rows
    assert exc_info.value.report.outcome == "diverged"
    assert len(rows) == 1 and math.isfinite(rows[0].sup_u) and math.isnan(rows[0].residual_sup)


def test_rejects_nonconforming_start(unit_grid_16):
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.0, m=2.0)
    with pytest.raises(DiriterError, match="u0 must carry the configured boundary values"):
        dirichlet_iterate(unit_grid_16, spec, base_cfg(), u0=unit_grid_16.constant(1.0))


def test_perturbed_start_same_limit(unit_grid_16):
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.05, m=2.0)
    cfg = base_cfg()
    u_ref, _ = dirichlet_iterate(unit_grid_16, spec, cfg)
    t_star = contraction_theory(unit_grid_16, spec, ANALYSIS)[0].C
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
    f_sup = 1.0 + 0.05 * np.max(np.hypot(*gradient(u)) ** 2)
    assert rep.rows[-1].residual_sup <= 10 * cfg.h1_tol * (1.0 + f_sup)


def test_reported_residual_matches_unfused_residual(unit_grid_16):
    spec = GradLipschitz(h=unit_grid_16.field_from(lambda x, y: 1.0 + 0.3 * np.sin(np.pi * x)), K=0.2)
    cfg = base_cfg()
    estimates, observe = c2alpha_observer(ANALYSIS.norm_cfg)
    u, rep = dirichlet_iterate(unit_grid_16, spec, cfg, observe=observe)
    assert rep.outcome == "converged" and len(rep.rows) > 3
    # the loop reuses the f of the next solve; recomputed from u alone it is the same bits
    assert rep.rows[-1].residual_sup == float(np.max(np.abs(residual_field(u, spec).values)))
    # likewise the C^{2,alpha} estimate the observer took of the last iterate
    assert estimates[-1] == c2alpha_estimate(u, ANALYSIS.norm_cfg)


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


# --- the uniform C^{2,alpha} bound: the largest estimate against the theory's C --


def test_uniform_bound_empty_rhs(unit_grid_16):
    spec = GradLipschitz(h=unit_grid_16.zeros(), K=0.0, m=2.0)
    cfg = base_cfg()
    estimates, observe = c2alpha_observer(ANALYSIS.norm_cfg)
    _, rep = dirichlet_iterate(unit_grid_16, spec, cfg, observe=observe)
    assert len(estimates) == len(rep.rows)
    assert all(e == 0.0 for e in estimates)
    assert max(estimates) == 0.0


def test_uniform_bound_k_zero_vs_estimator(unit_grid_16):
    # take h = 1, the estimator's own right-hand side: for K = 0 the bound
    # Λ * h_alpha is then attained by the solve of h
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.0, m=2.0)
    cfg, analysis = base_cfg(), AnalysisConfig()
    estimates, observe = c2alpha_observer(analysis.norm_cfg)
    u, rep = dirichlet_iterate(unit_grid_16, spec, cfg, observe=observe)
    theory, norms = contraction_theory(unit_grid_16, spec, analysis)
    c_theory = theory.C  # = Lambda_emp * h_alpha for K = 0
    assert c_theory is not None
    assert math.isclose(c_theory, theory.Lambda * norms["h_alpha"], rel_tol=1e-9)
    assert max(estimates) <= c_theory * 1.1
    assert math.isclose(max(estimates), c_theory, rel_tol=1e-12)  # attained
    assert math.isclose(
        max(estimates), c2alpha_estimate(u, analysis.norm_cfg), rel_tol=1e-12
    )


def test_uniform_bound_fails_on_blowup(unit_grid_32):
    spec = MeanCurvature(H=unit_grid_32.constant(2.0), n=2)
    cfg = base_cfg(max_iters=40)
    estimates, observe = c2alpha_observer(ANALYSIS.norm_cfg)
    try:
        dirichlet_iterate(unit_grid_32, spec, cfg, observe=observe)
        raise AssertionError("expected blow-up")
    except IterationFailure as exc:
        assert len(estimates) == len(exc.report.rows)
        assert not max(estimates) <= 5.0 * 1.1


def test_rows_well_formed(unit_grid_16):
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.05, m=2.0)
    _, rep = dirichlet_iterate(unit_grid_16, spec, base_cfg())
    assert [r.i for r in rep.rows] == list(range(1, len(rep.rows) + 1))
    assert rep.rows[0].rho_i is None
    assert all(r.rho_i is not None for r in rep.rows[1:])


# --- bitwise guard for the loop ------------------------------------------------
#
# _reference_iterate is the loop as it was written before the operators wrote
# into their outputs in place: every operator below builds its result from
# whole-array expressions, copies it into a field with grid.field, and sup
# norms are np.max(np.abs(...)); the guard Laplacian of the solve and the one
# of the residual are separate. The Poisson transform itself is checked
# against scipy in test_poisson.


def _ref_d(values, h, axis):
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def _ref_d2(values, h, axis):
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    h2 = h * h
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    return np.moveaxis(out, 0, axis)


def _ref_gradient(u):
    h = u.grid.h
    return _ref_d(u.values, h, 0), _ref_d(u.values, h, 1)


def _ref_laplacian(u):
    g, v = u.grid, u.values
    out = np.zeros(g.shape)
    out[1:-1, 1:-1] = (
        v[2:, 1:-1] + v[:-2, 1:-1] + v[1:-1, 2:] + v[1:-1, :-2] - 4.0 * v[1:-1, 1:-1]
    ) / (g.h * g.h)
    return g.field(out)


def _ref_rhs(spec, u, grad):
    grid = u.grid
    if isinstance(spec, GradLipschitz):
        s = np.hypot(*grad) ** spec.m
        return grid.field(spec.h.values + spec.K * s)
    if isinstance(spec, GammaG):
        s = np.hypot(*grad) ** spec.m
        g = np.sign(u.values) * np.abs(u.values) ** (spec.k + 1) / (spec.k + 1)
        return grid.field(spec.gamma.values * g * s + spec.h.values)
    ux, uy = grad
    w = ux**2 + uy**2
    wx, wy = _ref_gradient(grid.field(ux**2 + uy**2))
    g_term = ux * wx + uy * wy
    return grid.field(spec.n * np.sqrt(1.0 + w) * spec.H.values + g_term / (2.0 * (1.0 + w)))


def _ref_h1semi(u):
    ux, uy = _ref_gradient(u)
    wx, wy = u.grid.axis_weights()
    return math.sqrt(float(np.sum(np.outer(wx, wy) * (ux**2 + uy**2))))


def _ref_c2alpha(u, cfg, grad):
    h = u.grid.h
    ux, uy = grad
    uxx, uyy, uxy = _ref_d2(u.values, h, 0), _ref_d2(u.values, h, 1), _ref_d(ux, h, 1)
    total = float(np.max(np.abs(u.values)))
    total += float(np.max(np.abs(ux))) + float(np.max(np.abs(uy)))
    for d2 in (uxx, uxy, uyy):
        total += float(np.max(np.abs(d2)))
        total += _holder_max(d2, h, cfg.alpha)
    return total


def _reference_iterate(grid, spec, cfg):
    """(rows, outcome, last iterate) of the loop, written without fusion."""
    solver = PoissonSolver(grid)
    u_prev = grid.zeros()
    rows, prev_h1, expanding = [], None, 0
    f = _ref_rhs(spec, u_prev, _ref_gradient(u_prev))
    for i in range(1, cfg.max_iters + 1):
        u_next = solver.solve(f, cfg.phi)
        grad = _ref_gradient(u_next)
        f = _ref_rhs(spec, u_next, grad)
        h1_diff = _ref_h1semi(grid.field(u_next.values - u_prev.values))
        rho = h1_diff / prev_h1 if (prev_h1 is not None and prev_h1 > 0) else None
        lap = _ref_laplacian(u_next)
        res = np.zeros(grid.shape)
        res[1:-1, 1:-1] = lap.values[1:-1, 1:-1] - f.values[1:-1, 1:-1]
        res_sup = float(np.max(np.abs(grid.field(res).values)))
        sup_u = float(np.max(np.abs(u_next.values)))
        c2alpha = _ref_c2alpha(u_next, ANALYSIS.norm_cfg, grad)
        rows.append((i, sup_u, c2alpha, h1_diff, rho, res_sup))
        if h1_diff <= cfg.h1_tol:
            return rows, "converged", u_next
        if not (sup_u <= cfg.blowup_sup and np.isfinite(res_sup)):
            return rows, "diverged", u_next
        expanding = expanding + 1 if (rho is not None and rho > 1.0) else 0
        if expanding >= 10 and h1_diff > cfg.h1_tol * 1e3:
            return rows, "diverged", u_next
        u_prev, prev_h1 = u_next, h1_diff
    return rows, "max_iters", u_prev


def _hex_rows(rows):
    return [tuple(v if isinstance(v, int) or v is None else float.hex(v) for v in row) for row in rows]


def _strip_mean_curvature():
    grid = build_grid(Domain.strip_truncation(1.0, 2.0), 1.0 / 32)
    return grid, MeanCurvature(H=grid.constant(0.4), n=2), base_cfg(h1_tol=1e-10)


def _rectangle_gamma_g_prescribed():
    grid = build_grid(Domain.rectangle(1.0, 0.75), 1.0 / 16)
    phi = grid.field_from(lambda x, y: 0.1 * np.cos(2 * x) + 0.05 * y)
    spec = GammaG(
        gamma=grid.field_from(lambda x, y: 0.2 + 0.1 * x * y),
        h=grid.field_from(lambda x, y: 1.0 + 0.2 * np.sin(np.pi * x)),
    )
    return grid, spec, base_cfg(phi=phi, h1_tol=1e-11)


def _divergent_grad_lipschitz():
    grid = build_grid(Domain.rectangle(1.0, 1.0), 1.0 / 16)
    return grid, GradLipschitz(h=grid.constant(1.0), K=40.0, m=2.0), base_cfg()


@pytest.mark.parametrize(
    "case",
    [_strip_mean_curvature, _rectangle_gamma_g_prescribed, _divergent_grad_lipschitz],
    ids=["strip_mean_curvature", "rectangle_gamma_g_prescribed", "divergent_grad_lipschitz"],
)
def test_loop_is_bitwise_equal_to_unfused_reference(case):
    grid, spec, cfg = case()
    ref_rows, ref_outcome, ref_u = _reference_iterate(grid, spec, cfg)
    estimates, observe = c2alpha_observer(ANALYSIS.norm_cfg)
    try:
        u, rep = dirichlet_iterate(grid, spec, cfg, observe=observe)
    except IterationFailure as exc:
        u, rep = exc.last_iterate, exc.report
    assert rep.outcome == ref_outcome
    assert len(ref_rows) > 3
    rows = [
        (r.i, r.sup_u, c, r.h1_diff, r.rho_i, r.residual_sup)
        for r, c in zip(rep.rows, estimates, strict=True)
    ]
    assert _hex_rows(rows) == _hex_rows(ref_rows)
    assert np.array_equal(u.values.view(np.int64), ref_u.values.view(np.int64))


# --- fields own read-only arrays; one stencil per iterate ------------------------


def _assert_owned(a):
    assert not a.flags.writeable and a.flags.c_contiguous


def test_returned_fields_are_read_only_and_contiguous():
    grid, spec, _ = _strip_mean_curvature()
    u = PoissonSolver(grid).solve(grid.constant(1.0))
    _assert_owned(u.values)
    ux, uy = gradient(u)
    _assert_owned(ux)
    _assert_owned(uy)
    _assert_owned(laplacian_apply(u).values)
    _assert_owned(laplacian_apply(u, out=np.empty(grid.shape)).values)
    for rhs_spec in (spec, GradLipschitz(h=grid.constant(1.0), K=0.1),
                     GammaG(gamma=grid.constant(0.2), h=grid.constant(1.0))):
        _assert_owned(evaluate_rhs(rhs_spec, u).values)
        _assert_owned(residual_field(u, rhs_spec).values)
    phi = grid.field_from(lambda x, y: x + y)
    _assert_owned(PoissonSolver(grid).solve(grid.constant(1.0), phi).values)


def test_solve_hands_its_guard_laplacian_on():
    grid, spec, _ = _strip_mean_curvature()
    f = grid.field_from(lambda x, y: np.cos(x) + y)
    solver = PoissonSolver(grid)
    u = solver.solve(f)
    lap = laplacian_apply(u).values[1:-1, 1:-1]
    for rhs in (f, evaluate_rhs(spec, u)):
        expected = float(np.max(np.abs(lap - rhs.values[1:-1, 1:-1])))
        assert solver.residual_sup(u, rhs).hex() == expected.hex()
    assert np.array_equal(u.values, PoissonSolver(grid).solve(f).values)
    # the Laplacian held is that of the latest solve's result, and of no other field
    with pytest.raises(ValueError):
        solver.residual_sup(grid.field(u.values), f)


def test_one_laplacian_per_iterate(monkeypatch):
    calls = []
    for module in (iteration, poisson):
        original = module.laplacian_apply

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "laplacian_apply", counted)
    grid, spec, cfg = _strip_mean_curvature()
    _, rep = dirichlet_iterate(grid, spec, cfg)
    assert rep.outcome == "converged" and len(rep.rows) > 3
    assert len(calls) == len(rep.rows)


# --- the observer sees every iterate and changes nothing; one solver per run ----


@pytest.mark.parametrize(
    "case",
    [_strip_mean_curvature, _rectangle_gamma_g_prescribed, _divergent_grad_lipschitz],
    ids=["strip_mean_curvature", "rectangle_gamma_g_prescribed", "divergent_grad_lipschitz"],
)
def test_skipping_the_estimate_changes_no_other_value(case, monkeypatch):
    grid, spec, cfg = case()
    calls = []
    estimate = iteration.c2alpha_estimate
    monkeypatch.setattr(iteration, "c2alpha_estimate", lambda *a: calls.append(1) or estimate(*a))
    runs = []
    for attach in (True, False):
        estimates, c2alpha = c2alpha_observer(ANALYSIS.norm_cfg)
        seen = []

        def observe(u, _seen=seen, _c2alpha=c2alpha):
            _seen.append(u)
            _c2alpha(u)

        try:
            u, rep = dirichlet_iterate(grid, spec, cfg, observe=observe if attach else None)
        except IterationFailure as exc:
            u, rep = exc.last_iterate, exc.report
        runs.append((u, rep, seen, estimates))
    (u_on, on, seen_on, est_on), (u_off, off, seen_off, est_off) = runs
    # one estimate per observed iterate, none without the observer
    assert len(calls) == len(seen_on) == len(est_on) == len(on.rows)
    assert seen_off == [] and est_off == []
    # the last row's iterate is observed, the failing run's included
    assert seen_on[-1] is u_on
    assert off.outcome == on.outcome
    assert _hex_rows(map(dataclasses.astuple, off.rows)) == _hex_rows(
        map(dataclasses.astuple, on.rows)
    )
    assert np.array_equal(u_off.values.view(np.int64), u_on.values.view(np.int64))


def test_boundary_lift_reuses_the_loops_solver(unit_grid_16, monkeypatch):
    phi = unit_grid_16.field_from(lambda x, y: 0.2 * x + 0.1 * np.cos(3.0 * y))
    spec = GradLipschitz(h=unit_grid_16.field_from(lambda x, y: 1.0 + x * y), K=0.02, m=2.0)
    cfg = base_cfg(phi=phi, start="boundary-lift")
    built = []
    init = poisson.PoissonSolver.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(poisson.PoissonSolver, "__init__", counted)
    _, rep = dirichlet_iterate(unit_grid_16, spec, cfg)
    assert rep.outcome == "converged"
    assert len(built) == 1
    monkeypatch.undo()

    solver = PoissonSolver(unit_grid_16)
    start = iteration._start_field(unit_grid_16, spec, cfg, solver)
    lifted = PoissonSolver(unit_grid_16).solve(spec.h, phi)
    assert np.array_equal(start.values.view(np.int64), lifted.values.view(np.int64))


def test_strip_run_holds_at_most_seven_grid_fields():
    # at the peak the data H, the solver's array and transform block, both
    # iterates and the right-hand side (while a solve runs) or the field of
    # the H1 norm (while it is taken), and slab temporaries are alive: about
    # 6.2 fields
    grid = build_grid(Domain.strip_truncation(1.0, 2), 1 / 256)
    cfg = base_cfg(h1_tol=1e-10)
    tracemalloc.start()
    try:
        spec = MeanCurvature(H=grid.constant(0.4), n=2)
        # solve's path: the C^{2,alpha} estimate of every iterate
        estimates, observe = c2alpha_observer(ANALYSIS.norm_cfg)
        _, rep = dirichlet_iterate(grid, spec, cfg, observe=observe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.shape == (1025, 257)
    assert rep.outcome == "converged" and len(rep.rows) == len(estimates) == 12
    assert peak <= 7 * 8 * grid.nx * grid.ny


@pytest.mark.parametrize("shape", ["wider", "taller"])
def test_data_on_another_grid_is_rejected_before_any_solve(unit_grid_16, monkeypatch, shape):
    # a 33x17 field once ran on its first 17 rows; a 17x33 one failed to broadcast
    a, b = (2.0, 1.0) if shape == "wider" else (1.0, 2.0)
    other = build_grid(Domain.rectangle(a, b), 1 / 16)
    spec = GradLipschitz(h=other.constant(1.0), K=0.05)

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(poisson.PoissonSolver, "solve", no_solve)
    with pytest.raises(ValueError, match="data field 'h' lives on a different grid"):
        dirichlet_iterate(unit_grid_16, spec, base_cfg())
