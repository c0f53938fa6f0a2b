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
from diriter import slab
from diriter.iteration import IterationReport
from diriter.slab import compact_values, exhaustion_solve

H_GRID = 1.0 / 16


def y_only_spec(d, n_max, h):
    grid = build_grid(Domain.strip_truncation(d, n_max), h)
    return GradLipschitz(h=grid.constant(1.0), K=0.0, m=2.0)


def iteration_cfg():
    return IterationConfig(h1_tol=1e-12, max_iters=60)


def _record_solves(monkeypatch):
    """Replace the truncations' solves with one that records its arguments and
    returns zero: the list of (data grid, spec, iteration config) it fills."""
    seen = []

    def solve(spec, cfg):
        grid = spec.h.grid
        seen.append((grid, spec, cfg))
        return grid.zeros(), IterationReport((), "converged")

    monkeypatch.setattr(slab, "dirichlet_iterate", solve)
    return seen


def test_each_truncation_holds_the_largest_grids_values_at_its_nodes(monkeypatch):
    # X + 10 Y and X - 10 Y are exact at h = 0.25, so equal values mean equal nodes
    big = build_grid(Domain.strip_truncation(1.0, 4), 0.25)
    phi = big.field_from(lambda x, y: x - 10 * y)
    spec = GradLipschitz(h=big.field_from(lambda x, y: x + 10 * y), K=0.0, m=2.0)
    seen = _record_solves(monkeypatch)
    exhaustion_solve(spec, ExhaustionConfig(n_start=2, compact_halfwidth=1.0,
                                            iteration=IterationConfig(phi=phi)))
    assert [grid.x[-1] for grid, _, _ in seen] == [2.0, 3.0, 4.0]
    for grid, spec_n, cfg_n in seen:
        X, Y = grid.meshgrid()
        assert cfg_n.phi.grid is grid
        assert np.array_equal(spec_n.h.values, X + 10 * Y)
        assert np.array_equal(cfg_n.phi.values, X - 10 * Y)


def test_the_datas_grid_names_the_largest_truncation(monkeypatch):
    big = build_grid(Domain.strip_truncation(1.0, 5), 0.25)
    seen = _record_solves(monkeypatch)
    result = exhaustion_solve(GradLipschitz(h=big.constant(1.0), K=0.0, m=2.0),
                              ExhaustionConfig(n_start=3, compact_halfwidth=1.0))
    assert result.truncations == (3, 4, 5)
    assert [grid for grid, _, _ in seen] == [
        build_grid(Domain.strip_truncation(1.0, n), 0.25) for n in (3, 4, 5)]


@pytest.mark.parametrize("data_domain, phi_domain, phi_h", [
    (Domain.rectangle(8.0, 1.0), None, None),  # the same shape as the strip's grid
    (Domain.rectangle(0.5, 1.0), None, None),  # shorter than any truncation
    (Domain.strip_truncation(1.0, 4.5), None, None),
    (Domain.strip_truncation(1.0, 4), Domain.strip_truncation(1.0, 4), 0.125),
    (Domain.strip_truncation(1.0, 4), Domain.rectangle(8.0, 1.0), 0.25),
], ids=["rectangle_of_the_same_shape", "rectangle_shorter_than_any_truncation",
        "strip_of_a_half_length", "phi_on_another_grid", "phi_on_a_rectangle_of_the_same_shape"])
def test_fields_off_the_largest_grid_are_rejected_before_any_solve(monkeypatch, data_domain,
                                                                   phi_domain, phi_h):
    data_grid = build_grid(data_domain, 0.25)
    phi = None if phi_h is None else build_grid(phi_domain, phi_h).zeros()
    seen = _record_solves(monkeypatch)
    cfg = ExhaustionConfig(n_start=1, compact_halfwidth=0.0, iteration=IterationConfig(phi=phi))
    with pytest.raises(ValueError, match="one grid of a truncation .* with a whole n"):
        exhaustion_solve(GradLipschitz(h=data_grid.constant(1.0), K=0.0, m=2.0), cfg)
    assert seen == []


def test_n_start_beyond_the_datas_truncation_is_rejected_before_any_solve(monkeypatch):
    seen = _record_solves(monkeypatch)
    with pytest.raises(ValueError, match="n_max must be >= n_start"):
        exhaustion_solve(y_only_spec(1.0, 4, 0.25),
                         ExhaustionConfig(n_start=5, compact_halfwidth=1.0))
    assert seen == []


def test_exhaustion_y_only_profile_and_tails():
    d = 1.0
    cfg = ExhaustionConfig(n_start=3, compact_halfwidth=2.0, iteration=iteration_cfg())
    spec = y_only_spec(d, 8, H_GRID)
    result = exhaustion_solve(spec, cfg)
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
    cfg = ExhaustionConfig(n_start=3, compact_halfwidth=2.0, iteration=iteration_cfg())
    grid = build_grid(Domain.strip_truncation(1.0, 5), H_GRID)
    spec = GradLipschitz(h=grid.zeros(), K=0.0, m=2.0)
    result = exhaustion_solve(spec, cfg)
    assert np.max(np.abs(result.u_final.values)) == 0.0
    assert all(t == 0.0 for t in result.tail)


def test_exhaustion_single_truncation_empty_tail():
    cfg = ExhaustionConfig(n_start=3, compact_halfwidth=2.0, iteration=iteration_cfg())
    spec = y_only_spec(1.0, 3, H_GRID)
    result = exhaustion_solve(spec, cfg)
    assert result.tail == ()
    assert result.truncations == (3,)


def test_exhaustion_mce_converges_to_arc():
    d, H = 1.0, 0.2
    h = 1.0 / 32
    cfg = ExhaustionConfig(n_start=3, compact_halfwidth=2.0, iteration=iteration_cfg())
    grid = build_grid(Domain.strip_truncation(d, 5), h)
    spec = MeanCurvature(H=grid.constant(H), n=2)
    result = exhaustion_solve(spec, cfg)
    arc = ArcSolution(d, H)
    vals = compact_values(result.u_final, cfg.compact_halfwidth)
    ref = arc(result.u_final.grid.y)[None, :]
    assert np.max(np.abs(vals - ref)) <= 5 * h**2  # n_max = N + 3


def test_exhaustion_with_x_varying_curvature_converges_on_every_truncation():
    d, h = 1.0, 1.0 / 16
    grid = build_grid(Domain.strip_truncation(d, 5), h)
    spec = MeanCurvature(H=grid.field_from(lambda x, y: 0.3 + 0.05 * np.cos(x)), n=2)
    result = exhaustion_solve(spec, ExhaustionConfig(
        n_start=3, compact_halfwidth=2.0, iteration=iteration_cfg()))
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
    with pytest.raises(ValueError, match="n_start must be at least compact_halfwidth"):
        ExhaustionConfig(n_start=2, compact_halfwidth=2.0)
    for halfwidth in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="must be >= 0 and finite"):
            ExhaustionConfig(n_start=2, compact_halfwidth=halfwidth)


def test_exhaustion_rejects_a_spacing_off_the_largest_grid(monkeypatch):
    # with h = 0.3, x = -3 is no node of the n = 4 grid, which starts at -4
    seen = _record_solves(monkeypatch)
    cfg = ExhaustionConfig(n_start=3, compact_halfwidth=1.0)
    with pytest.raises(ValueError, match="h = 0.3 does not divide 1, the gap between "
                                         "truncations n = 3 and n_max = 4"):
        exhaustion_solve(y_only_spec(1.0, 4, 0.3), cfg)
    # h = 1 + 1e-7 divides the gap 1 within the tolerance, but the truncation
    # n = 1 is 2 long; the largest one, n = 2, takes the h
    with pytest.raises(ValueError, match="exceeds half the smallest extent 2.0"):
        exhaustion_solve(y_only_spec(4.0, 2, 1.0000001),
                         ExhaustionConfig(n_start=1, compact_halfwidth=0.0))
    assert seen == []
    # a single truncation has no gap to divide
    result = exhaustion_solve(y_only_spec(1.0, 4, 0.3), dataclasses.replace(cfg, n_start=4))
    assert result.truncations == (4,)


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
