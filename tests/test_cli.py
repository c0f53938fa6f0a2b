import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from diriter import (AnalysisConfig, Domain, IterationConfig, build_grid, cli, iteration,
                     nonlinearity)
from diriter.cli import (
    _FLOAT_SPEC,
    _load_config,
    build_iteration_config,
    main,
    run_sweep,
    write_csv,
    write_solution,
)
from diriter.expressions import compile_expression

from conftest import traced_peak_fields

GOLDEN = Path(__file__).resolve().parent / "golden"

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


def _solve_in_subprocess(tmp_path, text):
    """Run ``solve`` on ``text`` through ``python -m diriter.cli`` in its own
    process, as a user runs it. Returns the process and the parsed report.json."""
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    src = Path(cli.__file__).resolve().parent.parent
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "diriter.cli", "solve", "--config", cfg, "--out", str(out)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    return done, json.loads((out / "report.json").read_text())


def test_solve_with_an_overflowing_majorant_exits_2_without_a_traceback(tmp_path):
    # t^400 overflows in the fixed-point search, and the iterates overflow too
    text = BASE.replace("h = 0.0625", "h = 0.03125").replace(
        "h = 1\nK = 0\nm = 2", "h = 100\nK = 0.004\nm = 400"
    )
    done, report = _solve_in_subprocess(tmp_path, text)
    assert done.returncode == 2 and "Traceback" not in done.stderr
    assert report["outcome"] == "diverged" and report["fixed_point_t_star"] is None


def test_solve_with_an_overflowing_gamma_g_coefficient_exits_2_without_a_traceback(tmp_path):
    # |gamma|_alpha * delta^(k - 1) = 0.1 * 4^599 overflows before any power of t
    text = BASE.replace("a = 1\nb = 1", "a = 4\nb = 4").replace("h = 0.0625", "h = 0.25").replace(
        "variant = grad_lipschitz\nh = 1\nK = 0\nm = 2",
        "variant = gamma_g\ngamma = 0.1\nh = 1\nm = 2\nk = 600",
    )
    done, report = _solve_in_subprocess(tmp_path, text)
    assert done.returncode == 2 and "Traceback" not in done.stderr
    assert report["outcome"] == "diverged" and report["fixed_point_t_star"] is None


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
    X, Y = np.broadcast_arrays(*u.grid.meshgrid())
    rows = [
        [float(xv), float(yv), float(uv)]
        for xv, yv, uv in zip(X.ravel(), Y.ravel(), u.values.ravel())
    ]
    write_csv(path, ["x", "y", "u"], rows)


# floats whose .17g spelling is special: signed zero, the non-finite values,
# the smallest subnormal and the largest finite double
_SPECIAL_VALUES = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308]


def _special_field(domain):
    grid = build_grid(domain, 1.0 / 8)
    u = grid.field_from(lambda x, y: np.sin(3.0 * x) * np.exp(y) / 7.0 - 1e-300 * x)
    values = u.values.copy()
    values[1, : len(_SPECIAL_VALUES)] = _SPECIAL_VALUES
    values[-2, -len(_SPECIAL_VALUES) :] = _SPECIAL_VALUES[::-1]
    return grid.field(values)


def _repeated_lines_field():
    # x-lines mirrored about the middle, a non-adjacent repeat, and two pairs of
    # lines whose bytes differ only in the sign of one zero or in a NaN payload
    u = _special_field(Domain.strip_truncation(1.0, 2.0))
    values = u.values.copy()
    mid = u.grid.nx // 2
    values[6] = values[2]
    values[3, 4] = 0.0
    values[4] = values[3]
    values[4, 4] = -0.0
    values[5, 4] = np.nan
    values[7] = values[5]
    values[7, 4] = np.array(0x7FF8_0000_0000_0001).view(np.float64)
    values[mid + 1 :] = values[:mid][::-1]
    assert len({line.tobytes() for line in values}) < u.grid.nx // 2 + 1
    return u.grid.field(values)


def test_streamed_solution_bytes_match_list_writer(tmp_path):
    # a rectangle grid, a strip grid with negative coordinates on both axes, and
    # a strip field whose x-lines repeat
    for u in (
        _special_field(Domain.rectangle(1.0, 0.75)),
        _special_field(Domain.strip_truncation(1.0, 2.0)),
        _repeated_lines_field(),
    ):
        write_solution(tmp_path / "streamed.csv", u)
        _list_write_solution(tmp_path / "listed.csv", u)
        streamed = (tmp_path / "streamed.csv").read_bytes()
        assert streamed == (tmp_path / "listed.csv").read_bytes()
        assert streamed.count(b"\r\n") == 1 + u.grid.nx * u.grid.ny
        for token in (b",-0\r\n", b",nan\r\n", b",inf\r\n", b",-inf\r\n"):
            assert token in streamed


def test_percent_format_spells_floats_as_format():
    # write_solution formats values through a '%' template
    bits = np.random.default_rng(11).integers(
        np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=50_000, dtype=np.int64
    )
    for v in _SPECIAL_VALUES + bits.view(np.float64).tolist():
        assert ("%" + _FLOAT_SPEC) % v == format(v, _FLOAT_SPEC)


def test_non_finite_data_is_usage_error(tmp_path, capsys):
    text = BASE.replace("h = 1\nK = 0", "h = 1/x\nK = 0")
    cfg = write_cfg(tmp_path, text + "\n[sweep]\nparameter = K\nvalues = 0 0.5\n")
    for command in ("solve", "sweep"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: data field 'h' holds NaN or inf\n"
        assert list(out.iterdir()) == []


def test_overflowing_iterates_leave_stderr_empty(tmp_path, capsys):
    # |grad u|^1e300 overflows in the first right-hand side: the run diverges,
    # and numpy's overflow warning does not reach stderr (nor, under this
    # suite's warning filter, become an error)
    text = BASE.replace("h = 0.0625", "h = 0.125").replace(
        "h = 1\nK = 0\nm = 2", "h = 30\nK = 1\nm = 1e300"
    )
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    assert json.loads((out / "report.json").read_text())["outcome"] == "diverged"


@pytest.mark.parametrize("rhs, hint", [
    # f is finite and the transform overflows; f = n H is already inf
    ("variant = grad_lipschitz\nh = 1e307\nK = 0\nm = 2\n", "sup|f| 1.000e+307"),
    ("variant = mean_curvature\nH = 1e308\nn = 2\n", "sup|f| inf"),
    # f = 0, and the lift's right-hand side carries phi / h^2, which overflows
    ("variant = grad_lipschitz\nh = 0\nK = 0\nm = 2\n"
     "[iteration]\nphi = 1e308\nstart = boundary-lift\n", "sup|f| 0.000e+00, sup|phi| 1.000e+308"),
], ids=["transform-overflow", "infinite-rhs", "overflowing-phi"])
def test_overflowing_solve_names_the_non_finite_solution(tmp_path, capsys, rhs, hint):
    text = ("[domain]\na = 1\nb = 1\n[grid]\nh = 0.125\n[rhs]\n" + rhs
            + "[analysis]\nlambda = 2\n")
    cfg = write_cfg(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: direct solve residual nan exceeds tolerance nan: "
        f"the solution is not finite ({hint})\n")


def test_inconsistent_fixed_point_is_usage_error(tmp_path, monkeypatch):
    monkeypatch.setattr(nonlinearity.GradLipschitz, "psi",
                        lambda spec, domain, norms, t: 1.0 if t < 0.5 else 0.0)
    cfg = write_cfg(tmp_path, BASE)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


def test_missing_config_usage_error(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == 1


@pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["a-file", "under-a-file"])
def test_unusable_out_directory_is_one_error_line(tmp_path, capsys, out):
    cfg = write_cfg(tmp_path, BASE)
    (tmp_path / "afile").write_text("")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: cannot create output directory {tmp_path / out}: ")


@pytest.mark.parametrize(
    "text",
    ["[domain]\na = 1\n[broken\n", "a = 1\n", "[grid]\nh = 1\n[grid]\nh = 2\n"],
    ids=["parsing_error", "no_section_header", "duplicate_section"],
)
def test_malformed_config_is_one_error_line(tmp_path, capsys, text):
    # configparser's message for the first two spans several lines
    cfg = write_cfg(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config parse error: ")


@pytest.mark.parametrize("command, output", [("solve", "report.json"), ("sweep", "sweep.csv")])
def test_unwritable_output_is_one_error_line(tmp_path, capsys, command, output):
    config = GOLDEN / {"solve": "solve-t-star-gamma-g.ini", "sweep": "sweep-rect.ini"}[command]
    (tmp_path / output).mkdir()  # a directory where the command writes a file
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write output: ")
    assert str(tmp_path / output) in lines[0]


def test_bad_expression_reports_usage_error(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("h = 1\nK = 0", "h = sqrt(2)\nK = 0"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize(
    "command, old, new",
    [
        ("solve", "alpha = 0.5", "alpha = 2"),
        ("solve", "h = 0.0625", "h = -1"),
        ("solve", "K = 0\n", "K = -1\n"),
        ("solve", "max_iters = 60", "max_iters = 0"),
        ("schauder", "lambda = 2.0\n", "lambda = 2.0\n\n[schauder]\nd = 1\nn_list = 2 x\n"),
        ("schauder", "lambda = 2.0\n", "lambda = 2.0\n\n[schauder]\nd = -1\nn_list = 2 4\n"),
        ("schauder", "lambda = 2.0\n", "lambda = 2.0\n\n[schauder]\nd = 1\nn_list =\n"),
        ("solve", "lambda = 2.0\n", "lambda = nan\n"),
        ("solve", "lambda = 2.0\n", "lambda = -1\n"),
        ("solve", "lambda = 2.0\n", "lambda = 0\n"),
        ("solve", "h1_tol = 1e-12", "h1_tol = nan"),
        ("solve", "h1_tol = 1e-12", "h1_tol = 1e-12\nblowup_sup = -1"),
        ("solve", "h1_tol = 1e-12", "h1_tol = 1e-12\nblowup_sup = nan"),
        ("solve", "a = 1\n", "a = inf\n"),
        ("solve", "a = 1\n", "a = nan\n"),
        ("solve", "h = 0.0625", "h = nan"),
        ("solve", "K = 0\n", "K = nan\n"),
        ("sweep", "lambda = 2.0\n", "lambda = 2.0\n\n[sweep]\nparameter = K\nvalues = -1 0\n"),
        ("sweep", "lambda = 2.0\n", "lambda = 2.0\n\n[sweep]\nparameter = K\nvalues = 0 nan\n"),
        ("sweep", "variant = grad_lipschitz\nh = 1\nK = 0\nm = 2\n",
         "variant = mean_curvature\nH = 1\n\n[sweep]\nparameter = H_amplitude\nvalues = 0.1 inf\n"),
        ("exhaust", "lambda = 2.0\n", "lambda = 2.0\n\n[exhaustion]\nd = 1\nn_start = 3\n"
         "n_max = 3\ncompact_halfwidth = nan\n"),
        ("exhaust", "lambda = 2.0\n", "lambda = 2.0\n\n[exhaustion]\nd = 1\nn_start = 3\n"
         "n_max = 3\ncompact_halfwidth = -1\n"),
        ("solve", "m = 2\n", "m = nan\n"),
        ("solve", "m = 2\n", "m = inf\n"),
        ("solve", "variant = grad_lipschitz\nh = 1\nK = 0\nm = 2\n",
         "variant = gamma_g\ngamma = 1\nh = 1\nm = 2\nk = nan\n"),
        ("exhaust", "h = 0.0625\n", "h = 0.3\n\n[exhaustion]\nd = 1\nn_start = 3\nn_max = 4\n"
         "compact_halfwidth = 1\n"),
        *[("exhaust", "h = 0.0625\n", "h = 0.125\n\n[exhaustion]\nd = 1\nn_start = 3\nn_max = 4\n"
           f"compact_halfwidth = 1\ncompact_tol = {tol}\n") for tol in ("nan", "-1", "inf")],
        ("solve", "h = 0.0625", "h = 5e-324"),
        ("solve", "a = 1\nb = 1\n\n[grid]\n", "a = 1e308\nb = 1\n\n[grid]\n"),
        ("solve", "kind = rectangle\na = 1\nb = 1\n", "kind = strip\nd = 1\nn_trunc = 1e308\n"),
        ("solve", "h = 0.0625", "h = 0.6"),
        ("sweep", "lambda = 2.0\n", "lambda = 2.0\n\n[sweep]\nparameter = K\nvalues =\n"),
        ("sweep", "lambda = 2.0\n", "lambda = 2.0\n\n[sweep]\nparameter = K\nvalues = 0.1 0\n"),
        ("sweep", "lambda = 2.0\n", "lambda = 2.0\n\n[sweep]\nparameter = foo\nvalues = 1\n"),
        ("sweep", "variant = grad_lipschitz\nh = 1\nK = 0\nm = 2\n",
         "variant = mean_curvature\nH = 1\n\n[sweep]\nparameter = K\nvalues = 0.1\n"),
        ("sweep", "lambda = 2.0\n", "lambda = 2.0\n\n[sweep]\nparameter = H_amplitude\nvalues = 1\n"),
        ("sweep", "variant = grad_lipschitz\nh = 1\nK = 0\nm = 2\n",
         "variant = mean_curvature\nH = 0\n\n[sweep]\nparameter = H_amplitude\nvalues = 0.1\n"),
        ("poincare", "max_iters = 60", "max_iters = 60\nphi = 1 + x"),
        ("solve", "max_iters = 60", "max_iters = 60\nphi = 1/0"),
        ("solve", "lambda = 2.0", "lamda = 2.0"),
        ("solve", "h1_tol = 1e-12", "h1tol = 1e-12"),
        ("solve", "[analysis]\n", "[analysys]\n"),
        ("solve", "variant = grad_lipschitz\nh = 1\nK = 0\nm = 2\n",
         "variant = gamma_g\ngamma = 1\nh = 1\nK = 0.05\n"),
        ("solve", "K = 0\n", "K = 0\ngamma = 1\n"),
        ("solve", "lambda = 2.0\n", "lambda = 2.0\n\n[DEFAULT]\nh = 0.125\n"),
    ],
    ids=["alpha", "h", "K", "max_iters", "n_list", "schauder_d", "empty_n_list", "lambda_nan",
         "lambda_negative", "lambda_zero", "h1_tol_nan", "blowup_sup_negative", "blowup_sup_nan",
         "a_inf", "a_nan", "h_nan",
         "K_nan", "sweep_K_negative", "sweep_K_nan", "sweep_H_amplitude_inf",
         "compact_halfwidth_nan", "compact_halfwidth_negative", "m_nan", "m_inf", "gamma_g_k_nan",
         "exhaust_h_misaligned", "compact_tol_nan", "compact_tol_negative", "compact_tol_inf",
         "h_too_fine_for_extents", "a_too_long_for_h", "n_trunc_extent_overflows", "h_too_coarse",
         "sweep_no_values", "sweep_values_unsorted", "sweep_unknown_parameter",
         "sweep_K_needs_grad_lipschitz", "sweep_H_amplitude_needs_mean_curvature",
         "sweep_H_identically_zero", "poincare_prescribed_phi", "phi_inf", "unknown_key_lamda",
         "unknown_key_h1tol", "unknown_section", "upper_case_K_under_gamma_g",
         "gamma_under_grad_lipschitz", "default_section"],
)
def test_rejected_config_value_is_one_error_line(tmp_path, capsys, command, old, new):
    assert BASE.count(old) == 1
    cfg = write_cfg(tmp_path, BASE.replace(old, new))
    assert main([*command.split(), "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    lines = capsys.readouterr().err.splitlines()
    # the line names the section of the rejected value: the last one ``new``
    # opens, or else the one that holds ``old``
    section = (re.findall(r"^\[(\w+)\]", new, re.M)
               or re.findall(r"^\[(\w+)\]", BASE[: BASE.index(old)], re.M))[-1]
    assert len(lines) == 1 and lines[0].startswith(f"error: [{section}] ")
    assert list((tmp_path / "o").iterdir()) == []  # nothing is written


@pytest.mark.parametrize("value", ["1 % 2", "%(K)s"], ids=["modulo", "interpolation"])
def test_percent_in_a_value_is_its_text(tmp_path, capsys, value):
    # no interpolation: ``%(K)s`` reads no other key, and ``%`` is an expression error
    assert BASE.count("h = 1\n") == 1
    cfg = write_cfg(tmp_path, BASE.replace("h = 1\n", f"h = {value}\n"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"error: [rhs] h: unexpected character '%' (at position {value.index('%')})\n")
    assert list((tmp_path / "o").iterdir()) == []


@pytest.mark.parametrize("kind, keys, stray, expected", [
    ("rectangle", "a = 1\nb = 1\n", "d = 5\nn_trunc = 9\n",
     "'d' for kind rectangle (expected kind, a, b)"),
    ("strip", "d = 1\nn_trunc = 2\n", "b = 1\n", "'b' for kind strip (expected kind, d, n_trunc)"),
], ids=["rectangle", "strip"])
def test_domain_key_of_another_kind_is_one_error_line(tmp_path, capsys, kind, keys, stray,
                                                      expected):
    text = (GOLDEN / "solve-t-star-grad-lipschitz.ini").read_text()
    old = "kind = rectangle\na = 1\nb = 1\n"
    assert text.count(old) == 1
    cfg = write_cfg(tmp_path, text.replace(old, f"kind = {kind}\n{keys}{stray}"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: [domain] unknown key {expected}\n"
    assert list((tmp_path / "o").iterdir()) == []


def test_sweep_with_non_finite_phi_is_one_error_line(tmp_path, capsys):
    # rejected before any run, not written as an error row per value
    text = BASE.replace("max_iters = 60", "max_iters = 60\nphi = exp(1000)")
    cfg = write_cfg(tmp_path, text + "\n[sweep]\nparameter = K\nvalues = 0.0, 0.05\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: [iteration] phi holds NaN or inf"]
    assert list((tmp_path / "o").iterdir()) == []


def test_spacing_too_coarse_for_the_shortest_truncation_is_one_exhaustion_error_line(tmp_path,
                                                                                      capsys):
    # h = 1 + 1e-7 divides the gap 1 within the ladder's tolerance, but the
    # truncation n = 1 is 2 long; the largest one, n = 2, takes the h
    text = BASE + "\n[exhaustion]\nd = 4\nn_start = 1\nn_max = 2\ncompact_halfwidth = 0\n"
    cfg = write_cfg(tmp_path, text.replace("h = 0.0625", "h = 1.0000001"))
    assert main(["exhaust", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: [exhaustion] h = 1.0000001 exceeds half the smallest extent 2.0"]
    assert list((tmp_path / "o").iterdir()) == []


@pytest.mark.parametrize("sections", ["", "[iteration]\n[analysis]\n"], ids=["absent", "empty"])
def test_missing_or_empty_sections_give_the_default_config(tmp_path, sections):
    grid = build_grid(Domain.rectangle(1.0, 1.0), 0.0625)
    cfg = _load_config(write_cfg(tmp_path, sections))
    assert build_iteration_config(cfg, grid) == (IterationConfig(), AnalysisConfig())


def test_retired_keys_still_load_and_change_nothing(tmp_path):
    grid = build_grid(Domain.rectangle(1.0, 1.0), 0.0625)
    retired = BASE.replace("lambda = 2.0\n", "lambda = 2.0\nlambda_trials = 3\nlambda_seed = 5\n"
                           "suite_size = 12\n\n[schauder]\ntrials = 2\nseed = 4\n")
    configs = [_load_config(write_cfg(tmp_path, text, name)) for text, name in
               [(BASE, "base.ini"), (retired, "retired.ini")]]
    assert build_iteration_config(configs[1], grid) == build_iteration_config(configs[0], grid)


def _workloads() -> types.ModuleType:
    """perfbench/workloads.py, executed from source so that no bytecode is cached."""
    path = GOLDEN.parent.parent / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    sys.modules[module.__name__] = module  # where dataclasses looks the module up
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.mark.parametrize("seed", [1, 801])
@pytest.mark.parametrize("size", ["full", "tiny"])
@pytest.mark.parametrize("name", ["sweep_rect", "strip_solve", "exhaust_arc"])
def test_benchmark_configs_pass_the_key_check(tmp_path, name, size, seed):
    # a benchmark config that the CLI rejects would fail every run of its workload
    workload = _workloads().build(name, seed, size)
    cfg = _load_config(write_cfg(tmp_path, workload.ini))
    if workload.command == "exhaust":
        ex = cfg["exhaustion"]
        domain = Domain.strip_truncation(cli._get(ex, "d"), cli._get(ex, "n_max"))
    else:
        domain = cli.build_domain(cfg)
    grid = build_grid(domain, cli._get(cfg["grid"], "h"))
    cli.build_rhs(cfg, grid)
    build_iteration_config(cfg, grid)


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


def test_sweep_on_four_by_four_nodes_iterates_with_given_lambda(tmp_path, capsys):
    # too coarse for the C^{2,alpha} estimate, which sweep does not compute;
    # solve writes it, so solve still rejects the grid
    text = BASE.replace("h = 0.0625", "h = 0.3333333333333333")
    cfg = write_cfg(tmp_path, text + "\n[sweep]\nparameter = K\nvalues = 0.0, 0.02, 40\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")[1:]
    assert [r[1] for r in rows] == ["converged", "converged", "diverged"]
    assert all(int(r[2]) > 0 for r in rows)
    assert json.loads((out / "report.json").read_text())["threshold"] == 20.01
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "solve")]) == 1
    assert "c2alpha_estimate needs at least 5 nodes per axis" in capsys.readouterr().err


def test_sweep_on_four_by_four_nodes_iterates_with_estimated_lambda(tmp_path, capsys):
    # the Λ estimate needs the C^{2,alpha} estimate's 5 nodes per axis; sweep
    # reads no Λ, so only solve, which writes the theory, rejects the grid
    text = BASE.replace("h = 0.0625", "h = 0.3333333333333333").replace(
        "lambda = 2.0", "lambda = estimate"
    )
    cfg = write_cfg(tmp_path, text + "\n[sweep]\nparameter = K\nvalues = 0.0, 0.02, 40\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")[1:]
    assert [r[1] for r in rows] == ["converged", "converged", "diverged"]
    assert all(int(r[2]) > 0 for r in rows)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "solve")]) == 1
    assert "c2alpha_estimate needs at least 5 nodes per axis" in capsys.readouterr().err
    assert not (tmp_path / "solve" / "report.json").exists()


def test_sweep_holds_one_scaled_data_field_at_a_time():
    # each value's scaled copy of H is built for its run only, and no run's
    # final iterate lives on through the next
    grid = build_grid(Domain.strip_truncation(1.0, 2), 1 / 128)
    spec = nonlinearity.MeanCurvature(H=grid.field_from(compile_expression("0.3 + 0.05*cos(x)")), n=2)
    cfg = IterationConfig(max_iters=60, h1_tol=1e-10)
    peaks = {}
    for values in ([0.4], [0.04 * k for k in range(1, 11)]):
        peaks[len(values)] = traced_peak_fields(
            grid, lambda: run_sweep(spec, cfg, "H_amplitude", values)
        )
    assert peaks[10] <= peaks[1] + 0.5


def test_one_sweep_value_holds_one_scaled_field():
    # the scaled product is the field: no copy of it is taken
    grid = build_grid(Domain.strip_truncation(1.0, 2), 1 / 128)
    spec = nonlinearity.MeanCurvature(H=grid.field_from(compile_expression("0.3 + 0.05*cos(x)")), n=2)
    peak = traced_peak_fields(grid, lambda: cli._apply_sweep_value(spec, "H_amplitude", 0.4))
    assert peak <= 1.1


def test_sweep_checks_its_values_without_scaling_a_field(monkeypatch):
    # the traced peak between the check of the data and the first run's spec
    # is that of the check of the values; the run itself is cut off
    grid = build_grid(Domain.strip_truncation(1.0, 2), 1 / 128)
    spec = nonlinearity.MeanCurvature(H=grid.field_from(compile_expression("0.3 + 0.05*cos(x)")), n=2)
    cfg = IterationConfig(max_iters=60, h1_tol=1e-10)
    entry_peaks = []
    apply, check_data = cli._apply_sweep_value, cli.check_data

    def checked_data(spec):
        grid = check_data(spec)
        tracemalloc.reset_peak()
        return grid

    def traced_apply(*args):
        entry_peaks.append(tracemalloc.get_traced_memory()[1])
        return apply(*args)

    class FirstRun(Exception):
        pass

    def first_run(*args, **kwargs):
        raise FirstRun

    monkeypatch.setattr(cli, "check_data", checked_data)
    monkeypatch.setattr(cli, "_apply_sweep_value", traced_apply)
    monkeypatch.setattr(cli, "dirichlet_iterate", first_run)
    values = [0.04 * k for k in range(1, 11)]
    traced_peak_fields(grid, lambda: pytest.raises(FirstRun, run_sweep, spec, cfg, "H_amplitude",
                                                   values))
    assert entry_peaks[-1] / (8 * grid.nx * grid.ny) <= 0.1


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


def test_poincare_rejects_prescribed_boundary(tmp_path, capsys):
    # sin(pi x) sin(pi y) is 1.2e-16 at x = 1: zero to the tolerance the
    # check of the field itself uses, 1e-12 (1 + sup|u|)
    for phi, code in (("x + y", 1), ("sin(pi*x)*sin(pi*y)", 0)):
        text = BASE.replace(
            "[iteration]\nmax_iters = 60\nh1_tol = 1e-12",
            f"[iteration]\nmax_iters = 60\nh1_tol = 1e-12\nphi = {phi}",
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["poincare", "--config", cfg, "--out", str(tmp_path / f"o{code}")]) == code, phi
        assert capsys.readouterr().err.splitlines() == ([] if code == 0 else [
            "error: [iteration] phi: poincare needs zero boundary data, not a prescribed phi"])


@pytest.mark.parametrize("extent, h, norms", [
    ("1e-300", "2.5e-301", "||u||_2 = 0, |u|_H1 = nan"),  # the norms underflow
    ("4e155", "1e155", "||u||_2 = nan, |u|_H1 = nan"),  # the weights h^2 overflow
], ids=["tiny_square", "huge_square"])
def test_poincare_norms_leaving_the_floats_are_one_error_line(tmp_path, capsys, extent, h, norms):
    # not a row that reads holds = False: the inequality was never tested
    text = f"[domain]\nkind = rectangle\na = {extent}\nb = {extent}\n[grid]\nh = {h}\n"
    cfg = write_cfg(tmp_path, text)
    assert main(["poincare", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: verify_poincare: the norms leave the floats ({norms})"]
    assert list((tmp_path / "o").iterdir()) == []


def test_poincare_suite_exit_zero(tmp_path):
    # one row: the grid's maximizer, whose ratio bounds every conforming field's
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["poincare", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "poincare.csv")
    assert rows[0] == ["id", "lhs", "rhs_vol", "rhs_slab", "holds"]
    assert [r[0] for r in rows[1:]] == ["grid_max"]
    assert rows[1][4] == "True"
    assert math.isclose(float(rows[1][1]), 0.2340942259599582, rel_tol=1e-12)
    again = tmp_path / "again"
    assert main(["poincare", "--config", cfg, "--out", str(again)]) == 0
    assert (again / "poincare.csv").read_bytes() == (out / "poincare.csv").read_bytes()


EXHAUST = """
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
lambda = 2.0

[exhaustion]
d = 1
n_start = 3
n_max = 8
compact_halfwidth = 2
compact_tol = 1e-6
"""


def test_failed_exhaustion_is_one_line_and_writes_nothing(tmp_path, capsys):
    text = (GOLDEN / "exhaust-arc.ini").read_text()
    cfg = write_cfg(tmp_path, re.sub(r"^H = .*$", "H = 2.0", text, flags=re.M))
    out = tmp_path / "out"
    assert main(["exhaust", "--config", cfg, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("exhaustion failed: truncation n = 3: ")
    assert list(out.iterdir()) == []


def test_exhaustion_out_of_iterations_is_one_line_and_writes_nothing(tmp_path, capsys):
    text = (GOLDEN / "exhaust-arc.ini").read_text()
    cfg = write_cfg(tmp_path, re.sub(r"^max_iters = .*$", "max_iters = 2", text, flags=re.M))
    out = tmp_path / "out"
    assert main(["exhaust", "--config", cfg, "--out", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["exhaustion failed: truncation n = 3: no convergence within 2 iterations"]
    assert list(out.iterdir()) == []


def test_exhaust_tails_below_tolerance(tmp_path):
    cfg = write_cfg(tmp_path, EXHAUST)
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


@pytest.mark.parametrize("n", [2, 3])
def test_exhaust_compares_against_the_arc_of_curvature_n_h(tmp_path, n):
    # the code solves div(...) = n H; against the n = 2 arc, n = 3 read 0.026
    rhs = f"variant = mean_curvature\nH = 0.2\nn = {n}"
    text = (
        EXHAUST.replace("n_trunc = 8", "n_trunc = 4")
        .replace("variant = grad_lipschitz\nh = 1\nK = 0\nm = 2", rhs)
        .replace("n_max = 8", "n_max = 4")
        .replace("compact_halfwidth = 2", "compact_halfwidth = 1")
        .replace("h1_tol = 1e-12", "h1_tol = 1e-10")
    )
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["exhaust", "--config", cfg, "--out", str(out)]) == 0
    # 5e-5 bounds the n = 2 error in the benchmark's exhaust_arc check
    assert json.loads((out / "report.json").read_text())["compact_error_vs_arc"] < 5e-5


def test_exhaust_with_zero_phi_writes_the_tail_of_the_run_without_it(tmp_path):
    # phi lives on the largest truncation's grid and is restricted to each one
    text = (
        EXHAUST.replace("variant = grad_lipschitz\nh = 1\nK = 0\nm = 2", "variant = mean_curvature\nH = 0.3")
        .replace("n_max = 8", "n_max = 4")
        .replace("compact_halfwidth = 2", "compact_halfwidth = 1")
    )
    tails = []
    for name, extra in (("plain", ""), ("phi", "phi = 0\n")):
        cfg = write_cfg(tmp_path, text.replace("h1_tol = 1e-12\n", "h1_tol = 1e-12\n" + extra),
                        name=f"{name}.ini")
        out = tmp_path / name
        assert main(["exhaust", "--config", cfg, "--out", str(out)]) == 0
        tails.append((out / "tail.csv").read_bytes())
    assert tails[0] == tails[1]
    assert [r[0] for r in read_csv(tmp_path / "phi" / "tail.csv")[1:]] == ["3", "4"]


def test_exhaust_on_four_nodes_across_the_strip(tmp_path):
    # d = 3h: too coarse for the C^{2,alpha} estimate, which exhaust does not compute
    text = EXHAUST.replace("d = 1", "d = 0.1875").replace("K = 0", "K = 0.05")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["exhaust", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "tail.csv")[1:]
    assert [r[0] for r in rows] == [str(n) for n in range(3, 9)]
    assert all(r[3] == "converged" for r in rows)


def test_sweep_and_exhaust_compute_no_c2alpha_estimate(tmp_path, monkeypatch):
    # nor any of the theory (data norms, Λ, analyze), even with lambda = estimate
    names = ("c2alpha_estimate", "estimate_schauder_constant", "data_norms", "analyze")
    calls = dict.fromkeys(names, 0)
    for name in calls:

        def counted(*args, _name=name, _original=getattr(iteration, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(iteration, name, counted)
    text = BASE.replace("lambda = 2.0", "lambda = estimate")
    sweep = write_cfg(tmp_path, text + "\n[sweep]\nparameter = K\nvalues = 0.0, 0.05, 40\n")
    assert main(["sweep", "--config", sweep, "--out", str(tmp_path / "sweep")]) == 0
    exhaust = write_cfg(
        tmp_path,
        EXHAUST.replace("K = 0", "K = 0.05").replace("lambda = 2.0", "lambda = estimate"),
        name="exhaust.ini",
    )
    assert main(["exhaust", "--config", exhaust, "--out", str(tmp_path / "exhaust")]) == 0
    assert calls == dict.fromkeys(calls, 0)
    # solve still estimates every iterate, and writes a finite estimate per row;
    # it runs the theory once, before the loop
    assert main(["solve", "--config", sweep, "--out", str(tmp_path / "solve")]) == 0
    trace = read_csv(tmp_path / "solve" / "trace.csv")[1:]
    assert calls.pop("c2alpha_estimate") == len(trace) > 1
    assert all(math.isfinite(float(r[2])) for r in trace)
    assert calls == dict.fromkeys(calls, 1)


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
    # Λ's estimate draws nothing at random: the seed keys of older configs are
    # retired, so they still load and nothing reads them
    seeded = write_cfg(tmp_path, BASE + "\n[schauder]\ntrials = 2\nseed = 4\n",
                       name="seeded.ini")
    cfg = write_cfg(tmp_path, BASE)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["schauder", "--config", seeded, "--out", str(out1)]) == 0
    assert main(["schauder", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "schauder.csv").read_bytes() == (out2 / "schauder.csv").read_bytes()
    est = float(read_csv(out1 / "schauder.csv")[1][1])
    assert est > 0


def test_schauder_strip_probe(tmp_path):
    text = BASE + "\n[schauder]\nd = 1\nn_list = 2, 4\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["schauder", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "schauder.csv")
    assert len(rows) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["max"] >= max(float(r[1]) for r in rows[1:]) - 1e-15


def test_unknown_command_usage(capsys):
    assert main(["frobnicate", "--config", "x"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: argument command: invalid choice: ")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: diriter") and captured.err == ""


def test_seed_flag_is_one_error_line(tmp_path, capsys):
    # no command draws anything at random, so there is no seed to set
    cfg = write_cfg(tmp_path, BASE)
    assert main(["poincare", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "3"]) == 1
    assert capsys.readouterr().err == "error: unrecognized arguments: --seed 3\n"
    assert not (tmp_path / "o").exists()


def test_nonhomogeneous_boundary_solve(tmp_path):
    text = BASE.replace(
        "[iteration]\nmax_iters = 60\nh1_tol = 1e-12",
        "[iteration]\nmax_iters = 60\nh1_tol = 1e-12\nphi = x + y\nstart = boundary-lift",
    )
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
