import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from diriter import Domain, build_grid, iteration, nonlinearity
from diriter.cli import main, write_csv, write_solution

BASE = """
[domain]
kind = rectangle
a = 1
b = 1

[grid]
h = 0.0625

[rhs]
variant = grad_lipschitz
h = 1
K = 0
m = 2

[iteration]
max_iters = 60
h1_tol = 1e-12

[analysis]
alpha = 0.5
pair_budget = 20000
lambda = 2.0
"""


def write_cfg(tmp_path: Path, text: str, name="exp.ini") -> str:
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_solve_poisson_exit_and_files(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "trace.csv")
    assert rows[0] == ["iter", "sup_u", "c2alpha_est", "h1_diff", "rho_i", "residual_sup"]
    assert len(rows) == 3  # header + 2 data rows for the constant map
    report = json.loads((out / "report.json").read_text())
    assert report["outcome"] == "converged"
    assert report["theory"]["rho"] == 0.0
    sol = read_csv(out / "solution.csv")
    assert sol[0] == ["x", "y", "u"]
    assert len(sol) == 1 + 17 * 17


def test_solve_below_threshold_theorem_a(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("K = 0", "K = 0.05"))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["theory"]["rho"] is not None and report["theory"]["rho"] < 1.0
    assert report["uniqueness_radius"] == report["theory"]["C"]


def test_solve_mce_blowup_exit_2(tmp_path):
    text = BASE.replace(
        "variant = grad_lipschitz\nh = 1\nK = 0\nm = 2",
        "variant = mean_curvature\nH = 2.0\nn = 2",
    )
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    code = main(["solve", "--config", cfg, "--out", str(out)])
    assert code in (2, 3)
    report = json.loads((out / "report.json").read_text())
    assert report["outcome"] in ("diverged", "max_iters")


def test_report_roundtrip_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("K = 0", "K = 0.05"))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("report.json", "trace.csv", "solution.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    report = json.loads((out1 / "report.json").read_text())
    trace = read_csv(out1 / "trace.csv")
    last = trace[-1]
    assert math.isclose(float(last[3]), report["final"]["h1_diff"], rel_tol=0)
    assert math.isclose(float(last[5]), report["final"]["residual_sup"], rel_tol=0)


def _list_write_solution(path, u):
    """The solution writer as it was, one list of row lists: the reference."""
    X, Y = u.grid.meshgrid()
    rows = [
        [float(xv), float(yv), float(uv)]
        for xv, yv, uv in zip(X.ravel(), Y.ravel(), u.values.ravel())
    ]
    write_csv(path, ["x", "y", "u"], rows)


# floats whose .17g spelling is special: signed zero, the non-finite values,
# the smallest subnormal and the largest finite double
_SPECIAL_VALUES = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308]


def test_streamed_solution_bytes_match_list_writer(tmp_path):
    # a rectangle grid, and a strip grid with negative coordinates on both axes
    for domain in (Domain.rectangle(1.0, 0.75), Domain.strip_truncation(1.0, 2.0)):
        grid = build_grid(domain, 1.0 / 8)
        u = grid.field_from(lambda x, y: np.sin(3.0 * x) * np.exp(y) / 7.0 - 1e-300 * x)
        values = u.values.copy()
        values[1, : len(_SPECIAL_VALUES)] = _SPECIAL_VALUES
        values[-2, -len(_SPECIAL_VALUES) :] = _SPECIAL_VALUES[::-1]
        u = grid.field(values)
        write_solution(tmp_path / "streamed.csv", u)
        _list_write_solution(tmp_path / "listed.csv", u)
        streamed = (tmp_path / "streamed.csv").read_bytes()
        assert streamed == (tmp_path / "listed.csv").read_bytes()
        assert streamed.count(b"\r\n") == 1 + grid.nx * grid.ny
        for token in (b",-0\r\n", b",nan\r\n", b",inf\r\n", b",-inf\r\n"):
            assert token in streamed


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_non_finite_data_is_usage_error(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("h = 1\nK = 0", "h = 1/x\nK = 0"))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert not (out / "report.json").exists()


def test_inconsistent_fixed_point_is_usage_error(tmp_path, monkeypatch):
    monkeypatch.setattr(nonlinearity, "psi", lambda spec, domain, norms, t: 1.0 if t < 0.5 else 0.0)
    cfg = write_cfg(tmp_path, BASE)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


def test_missing_config_usage_error(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == 1


def test_bad_expression_reports_usage_error(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("h = 1\nK = 0", "h = sqrt(2)\nK = 0"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_sweep_k_rows_and_threshold(tmp_path):
    text = BASE + "\n[sweep]\nparameter = K\nvalues = 0.0, 0.02, 0.05\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")
    assert rows[0] == ["value", "outcome", "iters", "max_rho", "final_residual"]
    assert len(rows) == 4
    assert all(r[1] == "converged" for r in rows[1:])
    report = json.loads((out / "report.json").read_text())
    assert report["threshold"] is None  # no flip below the admissible bound


def test_sweep_estimates_lambda_once(tmp_path, monkeypatch):
    calls = []
    estimate = iteration.estimate_schauder_constant

    def counted(*args):
        calls.append(args)
        return estimate(*args)

    monkeypatch.setattr(iteration, "estimate_schauder_constant", counted)
    text = BASE.replace("lambda = 2.0", "lambda = estimate\nlambda_trials = 1")
    cfg = write_cfg(tmp_path, text + "\n[sweep]\nparameter = K\nvalues = 0.0, 0.02, 0.05\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert len(calls) == 1
    assert [r[1] for r in read_csv(out / "sweep.csv")[1:]] == ["converged"] * 3


def test_sweep_lambda_failure_is_one_error_row_per_value(tmp_path):
    # 4 x 4 nodes: too coarse for the C^{2,alpha} estimate inside the Λ estimate
    text = BASE.replace("h = 0.0625", "h = 0.3333333333333333").replace(
        "lambda = 2.0", "lambda = estimate"
    )
    cfg = write_cfg(tmp_path, text + "\n[sweep]\nparameter = K\nvalues = 0.0, 0.02, 0.05\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")[1:]
    assert [float(r[0]) for r in rows] == [0.0, 0.02, 0.05]
    assert all(r[1].startswith("error: ") and "5 nodes" in r[1] and r[2] == "0" for r in rows)


def test_sweep_empty_values_is_usage_error(tmp_path):
    text = BASE + "\n[sweep]\nparameter = K\nvalues =\n"
    cfg = write_cfg(tmp_path, text)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_sweep_h_amplitude_locates_threshold(tmp_path):
    text = (
        BASE.replace(
            "variant = grad_lipschitz\nh = 1\nK = 0\nm = 2",
            "variant = mean_curvature\nH = 1\nn = 2",
        ).replace("h = 0.0625", "h = 0.0625")
        + "\n[sweep]\nparameter = H_amplitude\nvalues = 0.5, 1.0, 2.0, 4.0\n"
    )
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")
    outcomes = [r[1] for r in rows[1:]]
    assert outcomes[0] == "converged" and outcomes[-1] != "converged"
    report = json.loads((out / "report.json").read_text())
    assert report["threshold"] is not None


def test_poincare_rejects_prescribed_boundary(tmp_path):
    text = BASE.replace(
        "[iteration]\nmax_iters = 60\nh1_tol = 1e-12",
        "[iteration]\nmax_iters = 60\nh1_tol = 1e-12\nphi = x + y",
    )
    cfg = write_cfg(tmp_path, text)
    assert main(["poincare", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_poincare_suite_exit_zero(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["poincare", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "poincare.csv")
    assert rows[0] == ["id", "lhs", "rhs_vol", "rhs_slab", "holds"]
    assert len(rows) == 21
    assert all(r[4] == "True" for r in rows[1:])
    zero_like = [r for r in rows[1:] if float(r[1]) == 0.0]
    assert not zero_like  # suite fields are all nontrivial


def test_exhaust_tails_below_tolerance(tmp_path):
    text = """
[domain]
kind = strip
d = 1
n_trunc = 8

[grid]
h = 0.0625

[rhs]
variant = grad_lipschitz
h = 1
K = 0
m = 2

[iteration]
max_iters = 40
h1_tol = 1e-12

[analysis]
alpha = 0.5
pair_budget = 20000
lambda = 2.0

[exhaustion]
d = 1
n_start = 3
n_max = 8
compact_halfwidth = 2
compact_tol = 1e-6
"""
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["exhaust", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "tail.csv")
    assert rows[0] == ["n", "sup_diff_on_compact", "iters", "outcome"]
    assert rows[1][1] == ""  # first truncation has no predecessor
    diffs = [float(r[1]) for r in rows[2:]]
    assert all(d > 0 for d in diffs)
    assert diffs[-1] <= 1e-6
    report = json.loads((out / "report.json").read_text())
    assert report["tail_below_tol"] is True


def test_exhaust_single_truncation(tmp_path):
    text = """
[domain]
kind = strip
d = 1
n_trunc = 3

[grid]
h = 0.0625

[rhs]
variant = grad_lipschitz
h = 1
K = 0

[analysis]
lambda = 2.0
pair_budget = 20000

[exhaustion]
d = 1
n_start = 3
n_max = 3
compact_halfwidth = 2
"""
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["exhaust", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "tail.csv")
    assert len(rows) == 2 and rows[1][1] == ""


def test_schauder_deterministic_per_seed(tmp_path):
    text = BASE + "\n[schauder]\ntrials = 2\nseed = 4\n"
    cfg = write_cfg(tmp_path, text)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["schauder", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["schauder", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "schauder.csv").read_bytes() == (out2 / "schauder.csv").read_bytes()
    est = float(read_csv(out1 / "schauder.csv")[1][1])
    assert est > 0


def test_schauder_strip_probe(tmp_path):
    text = BASE + "\n[schauder]\ntrials = 2\nseed = 4\nd = 1\nn_list = 2, 4\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["schauder", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "schauder.csv")
    assert len(rows) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["max"] >= max(float(r[1]) for r in rows[1:]) - 1e-15


def test_unknown_command_usage():
    assert main(["frobnicate", "--config", "x"]) == 1


def test_nonhomogeneous_boundary_solve(tmp_path):
    text = BASE.replace(
        "[iteration]\nmax_iters = 60\nh1_tol = 1e-12",
        "[iteration]\nmax_iters = 60\nh1_tol = 1e-12\nphi = x + y\nstart = boundary-lift",
    )
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
