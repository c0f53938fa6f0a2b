"""Randomized inequality suites reused by the unit tests and the acceptance run.

Each suite runs ``cases`` independent seeded trials and returns the number of
failures; the discrete inequalities they check are exact up to floating-point
reassociation, so any failure is a real defect.
"""

import dataclasses
import math

import numpy as np

from diriter import (
    AnalysisConfig,
    DiriterError,
    Domain,
    IterationConfig,
    IterationFailure,
    NormConfig,
    build_grid,
    c2alpha_observer,
    contraction_theory,
    dirichlet_iterate,
    gradient,
    holder_norm,
    laplacian_apply,
    norm_sup,
)
from diriter.cli import report_payload
from diriter.nonlinearity import GammaG, GradLipschitz, MeanCurvature

from reference import curvature_coupling, h1_inner, unit_coordinates

CFG = NormConfig(alpha=0.5)  # one displacement set per grid, shared by every field


def _grid(rng):
    if rng.random() < 0.5:
        a, b = rng.uniform(0.5, 2.0, 2)
        dom = Domain.rectangle(a, b)
    else:
        dom = Domain.strip_truncation(rng.uniform(0.5, 1.5), rng.uniform(1.0, 2.0))
    ex, ey = dom.extents
    h = min(ex, ey) / rng.integers(8, 13)
    return build_grid(dom, h)


def _smooth(grid, rng, modes=3):
    sx, sy = unit_coordinates(grid)
    vals = np.zeros(grid.shape)
    for _ in range(modes):
        a, px, py = rng.uniform(-1, 1, 3)
        kx, ky = rng.integers(1, 4, 2)
        vals += a * np.cos(kx * np.pi * sx + px) * np.cos(ky * np.pi * sy + py)
    return grid.field(vals)


def _conforming(grid, rng, modes=3):
    sx, sy = unit_coordinates(grid)
    vals = np.zeros(grid.shape)
    coeffs = rng.uniform(-1, 1, (modes, modes))
    for p in range(1, modes + 1):
        for q in range(1, modes + 1):
            vals += coeffs[p - 1, q - 1] * np.sin(p * np.pi * sx) * np.sin(q * np.pi * sy)
    return grid.field(vals)


def suite_integration_by_parts(cases: int, seed: int = 0) -> int:
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(cases):
        grid = _grid(rng)
        u = _smooth(grid, rng)
        v = _conforming(grid, rng)
        h2 = grid.h**2
        lhs = -np.sum(v.values[1:-1, 1:-1] * laplacian_apply(u).values[1:-1, 1:-1]) * h2
        rhs = h1_inner(u, v)
        if abs(lhs - rhs) > 1e-11 * (1.0 + abs(lhs)):
            failures += 1
    return failures


def suite_mean_value_bound(cases: int, seed: int = 1) -> int:
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(cases):
        grid = _grid(rng)
        m = rng.uniform(2.0, 4.0)
        gu = np.hypot(*gradient(_smooth(grid, rng)))
        gv = np.hypot(*gradient(_smooth(grid, rng)))
        c = max(gu.max(), gv.max())
        lhs = np.abs(gu**m - gv**m)
        rhs = m * c ** (m - 1.0) * np.abs(gu - gv)
        if np.any(lhs > rhs * (1 + 1e-11) + 1e-12):
            failures += 1
    return failures


def suite_holder_product(cases: int, seed: int = 2) -> int:
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(cases):
        grid = _grid(rng)
        f = _smooth(grid, rng)
        g = _smooth(grid, rng)
        fg = grid.field(f.values * g.values)
        if holder_norm(fg, CFG) > holder_norm(f, CFG) * holder_norm(g, CFG) * (1 + 1e-11) + 1e-12:
            failures += 1
    return failures


def suite_holder_quotient(cases: int, seed: int = 3) -> int:
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(cases):
        grid = _grid(rng)
        sign = -1.0 if rng.random() < 0.5 else 1.0
        f = grid.field(sign * (1.0 + _smooth(grid, rng).values ** 2))  # |f| >= 1
        g = _smooth(grid, rng)
        q = grid.field(g.values / f.values)
        if holder_norm(q, CFG) > holder_norm(g, CFG) * holder_norm(f, CFG) * (1 + 1e-11) + 1e-12:
            failures += 1
    return failures


def suite_sup_gradient_bound(cases: int, seed: int = 4) -> int:
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(cases):
        grid = _grid(rng)
        u = _conforming(grid, rng)
        delta = grid.domain.slab_diameter()
        grad_sup = norm_sup(grid.field(np.hypot(*gradient(u))))
        if norm_sup(u) > (delta + 2 * grid.h) * grad_sup + 1e-12:
            failures += 1
    return failures


def suite_coupling_cubic(cases: int, seed: int = 5) -> int:
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(cases):
        grid = _grid(rng)
        u = _smooth(grid, rng)
        c = rng.uniform(-3.0, 3.0)
        base = curvature_coupling(gradient(u), grid.h)
        cu = grid.field(c * u.values)
        scaled = curvature_coupling(gradient(cu), grid.h)
        tol = 1e-9 * (1.0 + np.max(np.abs(base)) * abs(c) ** 3)
        if np.max(np.abs(scaled - c**3 * base)) > tol:
            failures += 1
    return failures


def suite_sqrt_half_lipschitz(cases: int, seed: int = 6) -> int:
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(cases):
        s, t = rng.uniform(0.0, 100.0, 2)
        if abs(np.sqrt(1 + s) - np.sqrt(1 + t)) > 0.5 * abs(s - t) + 1e-14:
            failures += 1
    return failures


# the data fields of each family, as data_norms checks them
_DATA_FIELDS = {GradLipschitz: ("h",), GammaG: ("gamma", "h"), MeanCurvature: ("H",)}


def _random_spec(grid, rng):
    """One of the three RHS families with smooth data fields of random size."""
    amp = 10.0 ** rng.uniform(-2.0, 1.0)
    family = rng.integers(3)
    if family == 0:
        return GradLipschitz(h=grid.field(amp * _smooth(grid, rng).values), K=rng.uniform(0.0, 3.0))
    if family == 1:
        return GammaG(gamma=_smooth(grid, rng), h=grid.field(amp * _smooth(grid, rng).values))
    return MeanCurvature(H=grid.field(amp * _smooth(grid, rng).values))


def _all_finite(payload) -> bool:
    if isinstance(payload, dict):
        return all(_all_finite(v) for v in payload.values())
    return not isinstance(payload, float) or math.isfinite(payload)


def suite_no_false_certificate(cases: int, seed: int = 7) -> int:
    """Finite data yields a report.json payload (the run's report plus its
    contraction theory) without NaN or inf, whatever the outcome; a NaN or
    infinite entry in any data field raises the loop's ``holds NaN or inf`` error."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(cases):
        grid = _grid(rng)
        cfg = IterationConfig(max_iters=12, h1_tol=1e-10)
        analysis = AnalysisConfig(norm_cfg=CFG, lambda_value=rng.uniform(0.5, 3.0))
        spec = _random_spec(grid, rng)
        try:
            theory, norms = contraction_theory(grid, spec, analysis)
            estimates, observe = c2alpha_observer(analysis.norm_cfg)
            try:
                _, report = dirichlet_iterate(grid, spec, cfg, observe=observe)
            except IterationFailure as exc:
                report = exc.report
        except DiriterError:
            report = None
        if report is not None and not _all_finite(
            report_payload(report, estimates, theory, norms)
        ):
            failures += 1

        name = str(rng.choice(_DATA_FIELDS[type(spec)]))
        values = getattr(spec, name).values.copy()
        values[rng.integers(grid.nx), rng.integers(grid.ny)] = rng.choice([np.nan, np.inf, -np.inf])
        bad = dataclasses.replace(spec, **{name: grid.field(values)})
        try:
            dirichlet_iterate(grid, bad, cfg)
        except DiriterError as exc:
            if str(exc) == f"data field {name!r} holds NaN or inf":
                continue
        failures += 1
    return failures


ALL_SUITES = {
    "integration_by_parts": suite_integration_by_parts,
    "mean_value_bound": suite_mean_value_bound,
    "holder_product": suite_holder_product,
    "holder_quotient": suite_holder_quotient,
    "sup_gradient_bound": suite_sup_gradient_bound,
    "coupling_cubic": suite_coupling_cubic,
    "sqrt_half_lipschitz": suite_sqrt_half_lipschitz,
    "no_false_certificate": suite_no_false_certificate,
}
