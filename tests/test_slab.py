import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from diriter import (
    ArcSolution,
    Domain,
    ExhaustionConfig,
    GradLipschitz,
    IterationConfig,
    MeanCurvature,
    NormConfig,
    build_grid,
    cli,
    estimate_schauder_constant,
)
from diriter.slab import compact_values, exhaustion_solve, restrict_field

H_GRID = 1.0 / 16


def y_only_spec(d, n_max, h):
    grid = build_grid(Domain.strip_truncation(d, n_max), h)
    return GradLipschitz(h=grid.constant(1.0), K=0.0, m=2.0)


def iteration_cfg():
    return IterationConfig(h1_tol=1e-12, max_iters=60)


def test_restrict_field_slices_nodewise():
    big = build_grid(Domain.strip_truncation(1.0, 4.0), 0.25)
    small = build_grid(Domain.strip_truncation(1.0, 2.0), 0.25)
    X, Y = big.meshgrid()
    f = big.field(X + 10 * Y)
    g = restrict_field(f, small)
    Xs, Ys = small.meshgrid()
    assert np.array_equal(g.values, Xs + 10 * Ys)


def test_restrict_field_rejects_mismatched_spacing():
    big = build_grid(Domain.strip_truncation(1.0, 4.0), 0.25)
    small = build_grid(Domain.strip_truncation(1.0, 2.0), 0.125)
    with pytest.raises(ValueError):
        restrict_field(big.constant(1.0), small)


def test_exhaustion_y_only_profile_and_tails():
    d = 1.0
    cfg = ExhaustionConfig(
        d=d, n_start=3, n_max=8, compact_halfwidth=2.0,
        iteration=iteration_cfg(),
    )
    spec = y_only_spec(d, cfg.n_max, H_GRID)
    result = exhaustion_solve(spec, cfg, H_GRID)
    tail = result.tail
    assert len(tail) == 5
    assert all(t > 0 for t in tail)
    assert all(b <= a for a, b in zip(tail[1:], tail[2:]))  # decreasing after the first step
    assert tail[-1] <= 1e-6
    # mid-compact profile is the 1-D parabola (y^2 - d^2/4) / 2
    grid = result.u_final.grid
    mid = result.u_final.values[grid.nx // 2, :]
    profile = (grid.y**2 - d * d / 4.0) / 2.0
    assert np.max(np.abs(mid - profile)) <= 4 * H_GRID**2


def test_exhaustion_zero_data_zero_tail():
    cfg = ExhaustionConfig(
        d=1.0, n_start=3, n_max=5, compact_halfwidth=2.0, iteration=iteration_cfg()
    )
    grid = build_grid(Domain.strip_truncation(1.0, cfg.n_max), H_GRID)
    spec = GradLipschitz(h=grid.zeros(), K=0.0, m=2.0)
    result = exhaustion_solve(spec, cfg, H_GRID)
    assert np.max(np.abs(result.u_final.values)) == 0.0
    assert all(t == 0.0 for t in result.tail)


def test_exhaustion_single_truncation_empty_tail():
    cfg = ExhaustionConfig(
        d=1.0, n_start=3, n_max=3, compact_halfwidth=2.0, iteration=iteration_cfg()
    )
    spec = y_only_spec(1.0, 3, H_GRID)
    result = exhaustion_solve(spec, cfg, H_GRID)
    assert result.tail == ()
    assert result.truncations == (3,)


def test_exhaustion_mce_converges_to_arc():
    d, H = 1.0, 0.2
    h = 1.0 / 32
    cfg = ExhaustionConfig(
        d=d, n_start=3, n_max=5, compact_halfwidth=2.0, iteration=iteration_cfg()
    )
    grid = build_grid(Domain.strip_truncation(d, cfg.n_max), h)
    spec = MeanCurvature(H=grid.constant(H), n=2)
    result = exhaustion_solve(spec, cfg, h)
    arc = ArcSolution(d, H)
    vals = compact_values(result.u_final, cfg.compact_halfwidth)
    ref = arc(result.u_final.grid.y)[None, :]
    assert np.max(np.abs(vals - ref)) <= 5 * h**2  # n_max = N + 3


def test_exhaustion_with_x_varying_curvature_converges_on_every_truncation():
    d, h = 1.0, 1.0 / 16
    grid = build_grid(Domain.strip_truncation(d, 5), h)
    spec = MeanCurvature(H=grid.field_from(lambda x, y: 0.3 + 0.05 * np.cos(x)), n=2)
    result = exhaustion_solve(spec, ExhaustionConfig(
        d=d, n_start=3, n_max=5, compact_halfwidth=2.0, iteration=iteration_cfg()
    ), h)
    assert result.truncations == (3, 4, 5)
    assert all(r.outcome == "converged" for r in result.reports)
    # the tail decays like exp(-mu n) with mu near 3 per unit of n
    assert len(result.tail) == 2 and 0 < result.tail[1] < 0.1 * result.tail[0]


def test_compact_restriction_commutes_with_scaling():
    grid = build_grid(Domain.strip_truncation(1.0, 4.0), 0.25)
    rngv = np.random.default_rng(0).standard_normal(grid.shape)
    u = grid.field(rngv)
    cu = grid.field(3.0 * rngv)
    assert np.array_equal(compact_values(cu, 2.0), 3.0 * compact_values(u, 2.0))


def test_exhaustion_config_validation():
    with pytest.raises(ValueError):
        ExhaustionConfig(d=1.0, n_start=2, n_max=5, compact_halfwidth=2.0)
    with pytest.raises(ValueError):
        ExhaustionConfig(d=1.0, n_start=4, n_max=3, compact_halfwidth=2.0)


def test_exhaustion_rejects_a_spacing_off_the_largest_grid():
    # with h = 0.3, x = -3 is no node of the n = 4 grid, which starts at -4
    cfg = ExhaustionConfig(d=1.0, n_start=3, n_max=4, compact_halfwidth=1.0, iteration=iteration_cfg())
    with pytest.raises(ValueError, match="does not divide 1"):
        exhaustion_solve(y_only_spec(1.0, 4, 0.3), cfg, 0.3)
    for h in (0.0, -0.25, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            cfg.check_spacing(h)
    cfg.check_spacing(0.25)
    # 1 / 5e-324 is inf, whose round() would raise OverflowError
    with pytest.raises(ValueError, match="too fine"):
        cfg.check_spacing(5e-324)
    # a single truncation has no gap to divide
    dataclasses.replace(cfg, n_start=4).check_spacing(0.3)


# --- the schauder command's probe: Λ estimates across truncations --------------


def _probe(tmp_path, n_list, name="out"):
    """Run ``schauder`` over the truncations of the unit-width strip; its exit
    code, the (n, Λ estimate) rows and the report."""
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(
        f"[grid]\nh = {H_GRID!r}\n\n[analysis]\nalpha = 0.5\n\n"
        f"[schauder]\nd = 1\nn_list = {n_list}\n"
    )
    out = tmp_path / name
    code = cli.main(["schauder", "--config", str(cfg), "--out", str(out)])
    if code != 0:
        return code, None, None
    with open(out / "schauder.csv", newline="") as fh:
        rows = [(int(n), float(est)) for n, est in list(csv.reader(fh))[1:]]
    return code, rows, json.loads((out / "report.json").read_text())


def test_probe_singleton_matches_direct(tmp_path):
    code, rows, report = _probe(tmp_path, "2")
    grid = build_grid(Domain.strip_truncation(1.0, 2), H_GRID)
    direct = estimate_schauder_constant(grid, NormConfig(alpha=0.5))
    assert code == 0
    assert rows == [(2, direct)]
    assert report["max"] == direct


def test_probe_deterministic_and_finite(tmp_path):
    _, a, report = _probe(tmp_path, "2 4", name="a")
    _, b, _ = _probe(tmp_path, "2 4", name="b")
    assert a == b
    assert (tmp_path / "a" / "schauder.csv").read_bytes() == (
        tmp_path / "b" / "schauder.csv"
    ).read_bytes()
    assert np.isfinite(report["max"])
    assert report["max"] == max(est for _, est in a)
    assert report["ratio_max_min"] >= 1.0


def test_probe_rejects_empty(tmp_path, capsys):
    code, _, _ = _probe(tmp_path, "")
    assert code == 1
    assert capsys.readouterr().err == "error: [schauder] n_list must be nonempty\n"
    assert not (tmp_path / "out" / "schauder.csv").exists()
