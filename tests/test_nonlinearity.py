import dataclasses
import math
import sys

import numpy as np
import pytest

from diriter import (
    DiriterError,
    Domain,
    GammaG,
    GradLipschitz,
    MeanCurvature,
    NormConfig,
    admissible_K_threshold,
    analyze,
    build_grid,
    data_norms,
    evaluate_rhs,
    gradient,
    k_zero,
    smallest_fixed_point,
)
from diriter import nonlinearity

from conftest import random_smooth, traced_peak_fields
from reference import curvature_coupling

DOM = Domain.rectangle(1.0, 1.0)


def fixed_point_closed_form(lam, K, h_alpha):
    disc = 1.0 - 4.0 * lam * lam * K * h_alpha
    if disc < 0:
        return None
    return (1.0 - math.sqrt(disc)) / (2.0 * lam * K)


# --- construction-time validation ------------------------------------------


def test_grad_lipschitz_validation(unit_grid_16):
    GradLipschitz(h=unit_grid_16.zeros(), K=0.1, m=2.0)
    with pytest.raises(ValueError):
        GradLipschitz(h=unit_grid_16.zeros(), K=-1.0, m=2.0)
    with pytest.raises(ValueError):
        GradLipschitz(h=unit_grid_16.zeros(), K=0.1, m=1.5)


def test_gamma_g_validation(unit_grid_16):
    z = unit_grid_16.zeros()
    GammaG(gamma=z, h=z, m=2.0, k=1.0)
    with pytest.raises(ValueError):
        GammaG(gamma=z, h=z, m=2.0, k=0.0)


# --- evaluate_rhs -----------------------------------------------------------


def test_rhs_grad_lipschitz_at_zero(unit_grid_16):
    h = unit_grid_16.field_from(lambda x, y: 1.0 + x * y)
    spec = GradLipschitz(h=h, K=0.3, m=2.0)
    u = unit_grid_16.zeros()
    f = evaluate_rhs(spec, u)
    assert np.array_equal(f.values, h.values)


def test_rhs_mean_curvature_flat(unit_grid_16):
    spec = MeanCurvature(H=unit_grid_16.constant(0.7), n=2)
    u = unit_grid_16.zeros()
    f = evaluate_rhs(spec, u)
    assert np.allclose(f.values, 2 * 0.7, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "a, b, h", [(1.0, 1.0, 1 / 16), (1.0, 0.5, 1 / 64), (8.0, 1.0, 1 / 64)],
    ids=["17x17", "65x33", "513x65_two_slabs"],
)
def test_rhs_mean_curvature_is_the_curvature_coupling_formula(n, a, b, h):
    # curvature_coupling is the whole-grid reference of the slabbed branch
    grid = build_grid(Domain.rectangle(a, b), h)
    u = random_smooth(grid, np.random.default_rng(11))
    H = grid.field_from(lambda x, y: 0.3 + 0.1 * np.sin(x) * y)
    grad = gradient(u)
    ux, uy = grad
    w = ux**2 + uy**2
    expected = n * np.sqrt(1.0 + w) * H.values + curvature_coupling(grad, grid.h) / (2.0 * (1.0 + w))
    f = evaluate_rhs(MeanCurvature(H=H, n=n), u)
    assert np.array_equal(f.values.view(np.int64), expected.view(np.int64))


def test_rhs_gamma_g_nodewise():
    # gamma = 1, k = 1 (g(s) = s |s| / 2), m = 2, u = x(1-x) >= 0: the symbolic
    # expansion gives f = (x(1-x))^2 / 2 (1-2x)^2 + h, reproduced to rounding
    # because the gradient stencils are exact on quadratics
    grid = Domain.rectangle(1.0, 1.0)
    grid = __import__("diriter").build_grid(grid, 1.0 / 16)
    h = grid.field_from(lambda x, y: 0.5 + 0.0 * x)
    spec = GammaG(
        gamma=grid.constant(1.0),
        h=h,
        m=2.0,
        k=1.0,
    )
    u = grid.field_from(lambda x, y: x * (1 - x))
    f = evaluate_rhs(spec, u)
    X, _ = grid.meshgrid()
    expected = (X * (1 - X)) ** 2 / 2 * (1 - 2 * X) ** 2 + h.values
    assert np.max(np.abs(f.values - expected)) <= 1e-12


# --- psi ---------------------------------------------------------------------


def test_psi_constant_when_k_zero(unit_grid_16):
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.0, m=2.0)
    for t in (0.0, 1.0, 10.0):
        assert spec.psi(DOM, {"h_alpha": 1.0}, t) == 1.0


def test_psi_grad_lipschitz_value(unit_grid_16):
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.1, m=2.0)
    assert math.isclose(spec.psi(DOM, {"h_alpha": 1.0}, 3.0), 1.9, rel_tol=1e-12)


def test_psi_mean_curvature_value(unit_grid_16):
    spec = MeanCurvature(H=unit_grid_16.constant(0.01), n=2)
    # direct polynomial evaluation: (1+t^2) (H_a + 2 n^2 t^3 (1+t^2))
    t = 0.1
    expected = (1 + t * t) * (0.01 + 8 * t**3 * (1 + t * t))
    got = spec.psi(DOM, {"H_alpha": 0.01}, t)
    assert math.isclose(got, expected, rel_tol=1e-14)
    assert math.isclose(got, 0.0182608, abs_tol=1e-7)


def test_psi_strictly_increasing(unit_grid_16):
    specs = [
        GradLipschitz(h=unit_grid_16.constant(1.0), K=0.2, m=2.5),
        GammaG(gamma=unit_grid_16.constant(0.5), h=unit_grid_16.constant(1.0), m=2.0, k=1.5),
        MeanCurvature(H=unit_grid_16.constant(0.3), n=2),
    ]
    norms = {"h_alpha": 1.0, "gamma_alpha": 0.5, "H_alpha": 0.3}
    ts = np.linspace(0.0, 4.0, 200)
    for spec in specs:
        vals = [spec.psi(DOM, norms, t) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_psi_missing_norm(unit_grid_16):
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.1, m=2.0)
    with pytest.raises(DiriterError, match="norm 'h_alpha' is required"):
        spec.psi(DOM, {}, 1.0)


# two parameter sets per family, each with the data norms its psi reads
_SLOPE_CASES = {
    "GradLipschitz-m2": (lambda z: GradLipschitz(h=z, K=0.3, m=2.0), {"h_alpha": 1.0}),
    "GradLipschitz-m3.7": (lambda z: GradLipschitz(h=z, K=1e-3, m=3.7), {"h_alpha": 0.05}),
    "GammaG-m2-k1": (lambda z: GammaG(gamma=z, h=z, m=2.0, k=1.0),
                     {"h_alpha": 1.0, "gamma_alpha": 0.5}),
    "GammaG-m3-k0.4": (lambda z: GammaG(gamma=z, h=z, m=3.0, k=0.4),
                       {"h_alpha": 0.2, "gamma_alpha": 2.0}),
    "MeanCurvature-n2": (lambda z: MeanCurvature(H=z, n=2), {"H_alpha": 0.3}),
    "MeanCurvature-n3": (lambda z: MeanCurvature(H=z, n=3), {"H_alpha": 1e-3}),
}


@pytest.mark.parametrize("case", list(_SLOPE_CASES))
def test_psi_prime_is_the_derivative_of_psi(unit_grid_16, case):
    # Newton's "no fixed point" verdict in smallest_fixed_point rests on the
    # sign of lam * psi_prime - 1, so psi_prime must be the slope of psi
    make, norms = _SLOPE_CASES[case]
    spec = make(unit_grid_16.zeros())
    dom = Domain.rectangle(2.0, 0.5)  # slab diameter 0.5: delta^(k - 1) is not 1
    for t in (1e-3, 1e-2, 0.1, 0.5, 1.0, 3.0, 10.0, 100.0):
        step = 1e-6 * t
        central = (spec.psi(dom, norms, t + step) - spec.psi(dom, norms, t - step)) / (2 * step)
        assert abs(central - spec.psi_prime(dom, norms, t)) <= 1e-6 * spec.psi(dom, norms, t) / t, t


# --- smallest fixed point ----------------------------------------------------


def test_fixed_point_k_zero_exact(unit_grid_16):
    # with m = 400, t^m overflows a float for t > 5.9; K = 0 keeps the term at 0
    for m in (2.0, 400.0):
        spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.0, m=m)
        for lam, h_alpha in [(1.0, 1.0), (2.0, 0.3), (0.5, 4.0), (2.0, 100.0)]:
            t = smallest_fixed_point(spec, DOM, {"h_alpha": h_alpha}, lam)
            assert math.isclose(t, lam * h_alpha, rel_tol=1e-13)


def test_fixed_point_matches_closed_form(unit_grid_16):
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.1, m=2.0)
    t = smallest_fixed_point(spec, DOM, {"h_alpha": 1.0}, 1.0)
    assert abs(t - 1.1270166537925831) <= 1e-10
    assert abs(t - fixed_point_closed_form(1.0, 0.1, 1.0)) <= 1e-10


def test_fixed_point_none_when_discriminant_negative(unit_grid_16):
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=1.0, m=2.0)
    assert smallest_fixed_point(spec, DOM, {"h_alpha": 1.0}, 1.0) is None


def test_fixed_point_residual_and_minimality(unit_grid_16):
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.08, m=3.0)
    lam = 1.5
    norms = {"h_alpha": 0.7}
    t = smallest_fixed_point(spec, DOM, norms, lam)
    assert abs(lam * spec.psi(DOM, norms, t) - t) <= 1e-10 * max(1.0, t)
    for frac in np.linspace(0.05, 0.95, 19):
        tt = frac * t
        assert lam * spec.psi(DOM, norms, tt) > tt


def test_fixed_point_small_k_order(unit_grid_16):
    # t* / (lam h_alpha) -> 1 as K -> 0
    lam, h_alpha = 2.0, 1.5
    K = 1e-4 / (lam * lam * h_alpha)
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=K, m=2.0)
    t = smallest_fixed_point(spec, DOM, {"h_alpha": h_alpha}, lam)
    assert abs(t / (lam * h_alpha) - 1.0) <= 0.05


def test_fixed_point_gamma_g_and_mce(unit_grid_16):
    gg = GammaG(gamma=unit_grid_16.constant(0.2), h=unit_grid_16.constant(1.0), m=2.0, k=1.0)
    t = smallest_fixed_point(gg, DOM, {"h_alpha": 1.0, "gamma_alpha": 0.2}, 0.5)
    assert t is not None and abs(0.5 * gg.psi(DOM, {"h_alpha": 1.0, "gamma_alpha": 0.2}, t) - t) <= 1e-10
    mce = MeanCurvature(H=unit_grid_16.constant(0.05), n=2)
    t2 = smallest_fixed_point(mce, DOM, {"H_alpha": 0.05}, 1.0)
    assert t2 is not None and t2 < 0.2


def _random_case(family, grid, rng):
    """One spec of ``family`` with random constants, its data norms and a lam."""
    lam = 10 ** rng.uniform(-1, 1)
    z = grid.zeros()
    if family is GradLipschitz:
        m = 2.0 if rng.random() < 0.5 else rng.uniform(2.0, 6.0)
        spec = GradLipschitz(h=z, K=10 ** rng.uniform(-4, 1), m=m)
        norms = {"h_alpha": 10 ** rng.uniform(-6, 1)}
    elif family is GammaG:
        spec = GammaG(gamma=z, h=z, m=rng.uniform(2.0, 4.0), k=rng.uniform(0.2, 3.0))
        norms = {"h_alpha": 10 ** rng.uniform(-6, 1), "gamma_alpha": 10 ** rng.uniform(-3, 1)}
    else:
        spec = MeanCurvature(H=z, n=int(rng.integers(2, 4)))
        norms = {"H_alpha": 10 ** rng.uniform(-6, 0)}
    return spec, norms, lam


@pytest.mark.parametrize(
    "family, seed",
    [(GradLipschitz, 11), (GammaG, 12), (MeanCurvature, 13)],
    ids=["GradLipschitz", "GammaG", "MeanCurvature"],
)
def test_fixed_point_is_the_first_double_where_the_gap_closes(unit_grid_16, family, seed, monkeypatch):
    rng = np.random.default_rng(seed)
    real_psi = family.psi
    calls = 0

    def counting_psi(*args):
        nonlocal calls
        calls += 1
        return real_psi(*args)

    monkeypatch.setattr(family, "psi", counting_psi)
    found = missing = 0
    for _ in range(400):
        spec, norms, lam = _random_case(family, unit_grid_16, rng)

        def gap(t):
            return lam * real_psi(spec, DOM, norms, t) - t

        calls = 0
        t = smallest_fixed_point(spec, DOM, norms, lam)
        # Newton steps and one bisection, no walk one double at a time
        assert calls <= 100
        if family is GradLipschitz and spec.m == 2.0:
            # lam (h_a + K t^2) = t has a real root iff the discriminant is >= 0
            assert (t is None) == (4 * lam * lam * spec.K * norms["h_alpha"] > 1)
        if t is None:
            missing += 1
            assert all(gap(s) > 0 for s in np.geomspace(1e-9, 1e3, 400))
        else:
            found += 1
            assert gap(t) <= 0 < gap(math.nextafter(t, 0))
    assert found >= 20 and missing >= 20


def test_psi_of_gamma_g_with_an_overflowing_coefficient(unit_grid_16):
    # |gamma|_alpha * delta^(k - 1) = 0.1 * 4^599 overflows a float; at t = 0
    # the term is still 0, not inf * 0, at t = 1/2 it is 0.1 * 2^1198 * 2^-602,
    # inside the floats, and at t = 2 it is 0.1 * 2^1800, which is not
    spec = GammaG(gamma=unit_grid_16.constant(0.1), h=unit_grid_16.constant(1.0), m=2.0, k=600.0)
    dom = Domain.rectangle(4.0, 4.0)
    norms = {"h_alpha": 1.0, "gamma_alpha": 0.1}
    assert spec.psi(dom, norms, 0.0) == 1.0
    assert math.isclose(spec.psi(dom, norms, 0.5), 0.1 * 2.0**596, rel_tol=1e-12)
    assert spec.psi(dom, norms, 2.0) == math.inf
    an = analyze(spec, dom, norms, lam=2.0)
    assert an.C is None and an.rho is None and an.B is None


def test_analyze_gamma_g_where_an_overflowed_coefficient_meets_an_underflowed_power(unit_grid_16):
    # 0.1 * 4^599 overflows and t^602 underflows near t* = lam * h_alpha = 2e-200;
    # their product, about 1e-120000, leaves psi(t) = h_alpha there
    spec = GammaG(gamma=unit_grid_16.constant(0.1), h=unit_grid_16.constant(1.0), m=2.0, k=600.0)
    norms = {"h_alpha": 1e-200, "gamma_alpha": 0.1}
    an = analyze(spec, Domain.rectangle(4.0, 4.0), norms, lam=2.0)
    assert math.isclose(an.C, 2.0 * norms["h_alpha"], rel_tol=1e-2)
    assert an.rho == 0.0  # sup|gamma| * B * t*^602 * kappa underflows


def test_powers_leaving_the_floats_raise_nothing(unit_grid_16):
    # C^(m + k) = 1.5^2002 overflows a Python float, which raises OverflowError
    spec = GammaG(gamma=unit_grid_16.constant(0.5), h=unit_grid_16.constant(1.0), m=2.0, k=2000.0)
    dom = Domain.rectangle(0.5, 0.5)
    an = analyze(spec, dom, {"h_alpha": 1.0, "gamma_alpha": 0.5}, lam=1.5)
    assert an.C == 1.5 and an.rho == math.inf
    assert spec.rho(1.5, 0.5) == math.inf
    # m C^(m - 1) and the denominator of K0 underflow to 0 for t* = 2e-200:
    # the threshold is capped at the largest double, a true bound where inf is not
    lip = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.5, m=3.0)
    an = analyze(lip, DOM, {"h_alpha": 1e-200}, lam=2.0)
    assert an.C == 2e-200 and an.K_threshold == sys.float_info.max
    assert k_zero(lip, {"h_alpha": 1e-200}, 2.0) == math.inf


# --- contraction bound / thresholds ------------------------------------------


def test_contraction_bound_grad_lipschitz(unit_grid_16):
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.1, m=2.0)
    assert math.isclose(spec.rho(1.0, 0.5), 0.1, rel_tol=1e-14)
    spec0 = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.0, m=2.0)
    assert spec0.rho(3.0, 0.5) == 0.0


def test_contraction_bound_gamma_g(unit_grid_16):
    spec = GammaG(gamma=unit_grid_16.constant(0.2), h=unit_grid_16.constant(1.0), m=2.0, k=1.0)
    # B = max(kappa^2, kappa m/(k+1)) = max(0.25, 0.5) = 0.5
    assert math.isclose(spec.B(0.5), 0.5, rel_tol=1e-14)
    rho = spec.rho(0.5, 0.5)
    assert math.isclose(rho, 0.2 * 0.5 * 0.125 * 0.5, rel_tol=1e-12)
    # slab form of B written in kappa = delta / sqrt(2) coincides
    delta = 0.9
    kap = delta / math.sqrt(2.0)
    assert math.isclose(
        spec.B(kap),
        max(delta**2 / 2.0, spec.m * delta / ((spec.k + 1) * math.sqrt(2.0))),
        rel_tol=1e-12,
    )


def test_contraction_bound_mce_partial(unit_grid_16):
    spec = MeanCurvature(H=unit_grid_16.constant(0.3), n=2)
    rho = spec.rho(0.4, 0.5)
    assert math.isclose(rho, math.sqrt(2.0) * 0.5 * 0.4 * 0.3, rel_tol=1e-12)
    assert spec.partial
    assert not GradLipschitz(h=unit_grid_16.zeros(), K=0.0).partial


def test_admissible_threshold_volumetric(unit_grid_16):
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.1, m=2.0)
    got = admissible_K_threshold(spec, DOM, C=1.0, K0=10.0)
    assert math.isclose(got, 0.5 * math.sqrt(math.pi), rel_tol=1e-12)
    assert math.isclose(got, 0.886227, abs_tol=1e-6)


def test_admissible_threshold_k0_dominates(unit_grid_16):
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.1, m=2.0)
    assert admissible_K_threshold(spec, DOM, C=1.0, K0=0.01) == 0.01


def test_k_zero_matches_closed_form(unit_grid_16):
    # for m = 2 the fixed point reaches 2 lam h_alpha exactly when the
    # discriminant vanishes: K0 = 1 / (4 lam^2 h_alpha)
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.1, m=2.0)
    for lam, h_alpha in [(1.0, 1.0), (2.0, 0.5)]:
        got = k_zero(spec, {"h_alpha": h_alpha}, lam)
        assert math.isclose(got, 1.0 / (4 * lam * lam * h_alpha), rel_tol=1e-9)


@pytest.mark.parametrize("m", [2.0, 2.5, 3.0, 4.0])
@pytest.mark.parametrize(
    "lam, h_alpha",
    # K0 exceeds 10 / (lam^2 h_alpha), the cap of an earlier bisection window,
    # at (0.5, 1e-3) and (5.314, 2e-4) for m >= 3 and at (6.6, 1e-2) for m = 4
    [(1.0, 1.0), (2.0, 10.0), (0.5, 1e-3), (6.6, 1e-2), (5.314, 2e-4)],
)
def test_k_zero_is_the_largest_k_with_a_fixed_point_below_target(unit_grid_16, m, lam, h_alpha):
    norms = {"h_alpha": h_alpha}
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.1, m=m)
    k0 = k_zero(spec, norms, lam)
    target = 2.0 * lam * h_alpha
    below = GradLipschitz(h=spec.h, K=k0 * (1 - 1e-9), m=m)
    assert smallest_fixed_point(below, DOM, norms, lam) <= target
    above = GradLipschitz(h=spec.h, K=k0 * 1.001, m=m)
    t_star = smallest_fixed_point(above, DOM, norms, lam)
    assert t_star is None or t_star > target


def test_k_zero_infinite_for_zero_data(unit_grid_16):
    spec = GradLipschitz(h=unit_grid_16.zeros(), K=0.1, m=3.0)
    assert k_zero(spec, {"h_alpha": 0.0}, 2.0) == math.inf


# --- every field reaches both f and the theory --------------------------------


def _doubled(data):
    return data.grid.field(2.0 * data.values)


def _plus_half(value):
    return value + 0.5


# one perturbation per field of each family
_PERTURBATIONS = {
    GradLipschitz: {"h": _doubled, "K": _plus_half, "m": _plus_half},
    GammaG: {"gamma": _doubled, "h": _doubled, "m": _plus_half, "k": _plus_half},
    MeanCurvature: {"H": _doubled, "n": _plus_half},
}


def _base_spec(family, grid):
    data = grid.field_from(lambda x, y: 0.5 + x * y)
    if family is GradLipschitz:
        return GradLipschitz(h=data, K=0.3, m=2.0)
    if family is GammaG:
        return GammaG(gamma=grid.field_from(lambda x, y: 1.0 + x), h=data, m=2.0, k=1.0)
    return MeanCurvature(H=data, n=2)


@pytest.mark.parametrize("family", list(_PERTURBATIONS), ids=lambda c: c.__name__)
def test_every_field_reaches_rhs_and_theory(unit_grid_16, family):
    table = _PERTURBATIONS[family]
    assert set(table) == {f.name for f in dataclasses.fields(family)}
    grid = unit_grid_16
    u = grid.field_from(lambda x, y: 0.8 * np.sin(np.pi * x) * np.sin(np.pi * y) + 0.3 * x)
    cfg = NormConfig(alpha=0.5)
    kappa = min(DOM.kappa_volumetric, DOM.kappa_slab)

    def outputs(spec):
        f = evaluate_rhs(spec, u).values
        return f, spec.psi(DOM, data_norms(spec, cfg), 0.5), spec.rho(0.5, kappa)

    base = _base_spec(family, grid)
    f0, psi0, rho0 = outputs(base)
    for name, perturb in table.items():
        f1, psi1, rho1 = outputs(dataclasses.replace(base, **{name: perturb(getattr(base, name))}))
        assert not np.array_equal(f1, f0), name
        assert psi1 != psi0 or rho1 != rho0, name


# --- pointwise bounds ---------------------------------------------------------


def test_mean_value_gradient_bound(unit_grid_16, rng):
    m = 2.0
    for _ in range(50):
        u = random_smooth(unit_grid_16, rng)
        v = random_smooth(unit_grid_16, rng)
        gu = np.hypot(*gradient(u))
        gv = np.hypot(*gradient(v))
        C = max(gu.max(), gv.max())
        lhs = np.abs(gu**m - gv**m)
        rhs = m * C ** (m - 1) * np.abs(gu - gv)
        assert np.all(lhs <= rhs * (1 + 1e-12) + 1e-12)


def test_sqrt_half_lipschitz(rng):
    s = rng.uniform(0.0, 50.0, size=1000)
    t = rng.uniform(0.0, 50.0, size=1000)
    assert np.all(np.abs(np.sqrt(1 + s) - np.sqrt(1 + t)) <= 0.5 * np.abs(s - t) + 1e-15)


def test_curvature_coupling_cubic(unit_grid_16, rng):
    u = random_smooth(unit_grid_16, rng)
    g = curvature_coupling(gradient(u), unit_grid_16.h)
    for c in (2.0, -3.0, 0.5):
        cu = unit_grid_16.field(c * u.values)
        gc = curvature_coupling(gradient(cu), unit_grid_16.h)
        assert np.allclose(gc, c**3 * g, rtol=1e-10, atol=1e-12)


# --- analysis bundle ----------------------------------------------------------


def test_analyze_grad_lipschitz(unit_grid_16):
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.05, m=2.0)
    norms = data_norms(spec, NormConfig(alpha=0.5))
    assert math.isclose(norms["h_alpha"], 1.0, rel_tol=1e-12)  # constant: sup 1, seminorm 0
    an = analyze(spec, DOM, norms, lam=2.0)
    assert an.C is not None and an.rho is not None
    assert an.rho == spec.rho(an.C, an.kappa)
    assert an.K_threshold is not None and not an.partial
    assert math.isclose(an.kappa, (1 / math.pi) ** 0.5, rel_tol=1e-12)


def test_analyze_finds_no_fixed_point_where_the_majorant_overflows(unit_grid_32):
    # t^400 overflows a Python float, which raises where numpy gives inf
    spec = GradLipschitz(h=unit_grid_32.constant(100.0), K=0.004, m=400.0)
    norms = data_norms(spec, NormConfig(alpha=0.5))
    assert spec.psi(DOM, norms, 10.0) == math.inf
    an = analyze(spec, DOM, norms, lam=2.0)
    assert an.C is None and an.rho is None and an.K_threshold is None


def test_analyze_finds_no_fixed_point_where_lam_psi_of_zero_overflows(unit_grid_16):
    # lam * psi(0) = 1e8 * 1.7e308 is inf: the first Newton step leaves the
    # doubles, where the gap would be NaN
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.05, m=2.0)
    norms = {"h_alpha": 1.7e308}
    assert smallest_fixed_point(spec, DOM, norms, 1e8) is None
    an = analyze(spec, DOM, norms, lam=1e8)
    assert an.C is None and an.rho is None and an.K_threshold is None


def test_analyze_mce_partial_flag(unit_grid_16):
    spec = MeanCurvature(H=unit_grid_16.constant(0.05), n=2)
    norms = data_norms(spec, NormConfig(alpha=0.5))
    an = analyze(spec, DOM, norms, lam=1.0)
    assert an.partial


def test_analyze_inconsistent_fixed_point_is_package_error(unit_grid_16, monkeypatch):
    # a majorant with a jump: bisection lands on the jump at t = 0.5, where
    # lam * psi(t) - t is -0.5, not 0
    monkeypatch.setattr(GradLipschitz, "psi", lambda spec, domain, norms, t: 1.0 if t < 0.5 else 0.0)
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.0, m=2.0)
    with pytest.raises(DiriterError, match="self-consistency check: gap 0.5"):
        analyze(spec, DOM, {"h_alpha": 1.0}, lam=1.0)


@pytest.mark.parametrize("lam", [np.nan, np.inf, 0.0, -1.0])
def test_analyze_rejects_lambda_that_is_not_positive_and_finite(unit_grid_16, lam):
    # a NaN Λ used to pass every comparison and certify C = 0, rho = 0
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.05, m=2.0)
    norms = data_norms(spec, NormConfig(alpha=0.5))
    with pytest.raises(ValueError, match="positive and finite"):
        analyze(spec, DOM, norms, lam=lam)


def test_nan_fixed_point_gap_fails_the_consistency_check(unit_grid_16, monkeypatch):
    monkeypatch.setattr(GradLipschitz, "psi", lambda spec, domain, norms, t: math.nan if t else 1.0)
    spec = GradLipschitz(h=unit_grid_16.constant(1.0), K=0.0, m=2.0)
    with pytest.raises(DiriterError, match="self-consistency check: gap nan"):
        analyze(spec, DOM, {"h_alpha": 1.0}, lam=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_data_norms_reject_non_finite_fields(unit_grid_16, bad):
    cfg = NormConfig(alpha=0.5)
    values = np.ones(unit_grid_16.shape)
    values[3, 4] = bad
    broken = unit_grid_16.field(values)
    one = unit_grid_16.constant(1.0)
    for spec in (
        GradLipschitz(h=broken, K=0.1),
        GammaG(gamma=broken, h=one),
        GammaG(gamma=one, h=broken),
        MeanCurvature(H=broken),
    ):
        with pytest.raises(DiriterError, match="holds NaN or inf"):
            data_norms(spec, cfg)


def test_finite_data_check_allocates_no_grid():
    # on the 1025 x 129 strip a boolean isfinite grid alone is 0.125 fields
    grid = build_grid(Domain.strip_truncation(1.0, 4.0), 1.0 / 128)
    spec = GammaG(gamma=grid.constant(1.0), h=grid.constant(0.5))
    assert traced_peak_fields(grid, lambda: nonlinearity.check_data(spec)) <= 0.01


def test_short_strip_kappa_is_its_slab_constant():
    # [-0.25, 0.25] x (-0.5, 0.5): the slab diameter is the length 0.5, not the width 1
    dom = Domain.strip_truncation(1.0, 0.25)
    grid = build_grid(dom, 1.0 / 16)
    spec = GradLipschitz(h=grid.constant(1.0), K=0.05, m=2.0)
    theory = analyze(spec, dom, {"h_alpha": 1.0}, lam=2.0)
    assert theory.kappa == 0.5 / math.sqrt(2.0)
    assert theory.rho == spec.rho(theory.C, 0.5 / math.sqrt(2.0))


def test_evaluate_rhs_rejects_an_iterate_off_the_datas_grid(same_shape_pair):
    # the strip's zeros once read the rectangle's h = x: 0, 0.25, 0.5, ...
    rect, strip = same_shape_pair
    spec = GradLipschitz(h=rect.field_from(lambda x, y: x + 0 * y), K=1.0)
    assert np.array_equal(evaluate_rhs(spec, rect.zeros()).values[:, 0], rect.x)
    with pytest.raises(ValueError, match="u lives on a different grid"):
        evaluate_rhs(spec, strip.zeros())
