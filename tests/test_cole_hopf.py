"""The gradient family against its Cole-Hopf closed forms.

For laplacian(u) = c + K |grad u|^2 (``GradLipschitz`` with m = 2 and
constant data c), w = exp(-K u) solves a linear problem, which gives an exact
solution on the unit square and on the slab (``tests/reference.py``).
"""

import math

import numpy as np

from diriter import Domain, GradLipschitz, IterationConfig, build_grid, dirichlet_iterate
from diriter.slab import compact_values

from reference import cole_hopf_slab_profile, cole_hopf_square

K, C = 5.0, 1.0  # K c = 5, below both existence bounds (2 pi^2 and pi^2 / d^2 for d = 1)
CFG = IterationConfig(h1_tol=1e-12, max_iters=200)


def _solve(domain, h):
    grid = build_grid(domain, h)
    u, report = dirichlet_iterate(GradLipschitz(h=grid.constant(C), K=K, m=2.0), CFG)
    assert report.outcome == "converged"
    return u


def test_unit_square_error_falls_at_second_order():
    # sup |u - series| is 3.66e-4, 9.18e-5, 2.30e-5 and 5.74e-6
    errors = []
    for h in (1 / 16, 1 / 32, 1 / 64, 1 / 128):
        u = _solve(Domain.rectangle(1.0, 1.0), h)
        exact = cole_hopf_square(K, C, u.grid.x, u.grid.y)
        errors.append(float(np.max(np.abs(u.values - exact))))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(3.8 <= r <= 4.2 for r in ratios), ratios


def test_strip_truncations_approach_the_slab_profile_at_the_decay_rate():
    # on |x| <= 1 the error is 1.33e-2 at n_trunc = 2 and 1.54e-3 at 3: a
    # ratio of 0.116, against exp(-mu) = 0.110 for the lowest mode of w
    d, h = 1.0, 1 / 32
    errors = []
    for n_trunc in (2, 3):
        u = _solve(Domain.strip_truncation(d, n_trunc), h)
        profile = cole_hopf_slab_profile(K, C, d, u.grid.y)[None, :]
        errors.append(float(np.max(np.abs(compact_values(u, 1.0) - profile))))
    mu = math.sqrt(math.pi**2 / d**2 - K * C)
    assert abs(errors[1] / errors[0] / math.exp(-mu) - 1.0) <= 0.1, errors
