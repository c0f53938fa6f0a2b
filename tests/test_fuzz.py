"""Seeded fuzzing of the CLI and of ``analyze``.

The CLI arm writes random INI configs for the five commands and the three
families: special values (nan, inf, -0, 1e308, 1e-300, words), prescribed
boundary data, the boundary-lift start, spacings that do not divide the gaps
between truncations, and malformed [sweep], [exhaustion] and [schauder]
values. Each runs through ``cli.main`` in-process and must end in a
documented exit with the documented stderr. The library arm calls
``analyze`` over extreme data norms, parameters and Λ, and checks the fixed
point it returns against the majorant.

Not asserted, because both are still open (ROADMAP items 1 and 4):
``C_empirical <= t*`` and ``max_rho <= theory.rho``.
"""

import json
import math
import random
import sys

import pytest

from diriter import DiriterError, Domain, GammaG, GradLipschitz, MeanCurvature, analyze, build_grid
from diriter.cli import main

COMMANDS = ("solve", "sweep", "poincare", "exhaust", "schauder")
SEEDS = range(6)  # 50 configs each

# every special value but 1e-300, which as a spacing would ask for 1e300 nodes
SPECIAL = ("nan", "inf", "-inf", "-0", "1e308", "abc", "")
EXPRESSIONS = ("0", "1", "0.3", "x*y", "1 + 0.3*sin(pi*x)", "cos(pi*y) - x^2", "|x - y|",
               "exp(-x*x)")
SPECIAL_EXPRESSIONS = ("1e308", "1e-300", "-0", "1/0", "exp(1000)", "x +", "sqrt(2)")

# Typical extents are at most 6 (a strip truncation with n_trunc = 3, an
# exhaustion with n_max = 3) and typical spacings at least 1/16, so a grid
# has at most 97 x 33 nodes; a special extent or spacing is rejected before
# any grid is allocated. Every grid stays far below 2^16 nodes.
SPACINGS = ("0.125", "0.0625", "0.1", "0.25", "0.3")

# the three families, each with the [sweep] parameter that applies to it
SWEPT = {"grad_lipschitz": "K", "gamma_g": "gamma_sup", "mean_curvature": "H_amplitude"}


def _pick(rng, typical, special=SPECIAL, p=0.03):
    """One of ``typical`` most of the time, else one of ``special``."""
    return rng.choice(special if rng.random() < p else typical)


def _config(rng: random.Random) -> tuple[str, list[str]]:
    """The INI text of a random config, and the command line that runs it
    without ``--config`` and ``--out``."""
    command = rng.choice(COMMANDS)
    sections = {}
    if rng.random() < 0.5:
        sections["domain"] = {"kind": "rectangle", "a": _pick(rng, ("0.5", "1", "1.5", "2")),
                              "b": _pick(rng, ("0.5", "1", "2"))}
    else:
        sections["domain"] = {"kind": rng.choice(("strip", "strip-truncation")),
                              "d": _pick(rng, ("0.5", "1", "2")),
                              "n_trunc": _pick(rng, ("1", "2", "3"), SPECIAL + ("1e-300",))}
    sections["grid"] = {"h": _pick(rng, SPACINGS)}

    variant = rng.choice(list(SWEPT))
    rhs = {"variant": variant}
    if variant == "grad_lipschitz":
        rhs.update(h=_pick(rng, EXPRESSIONS, SPECIAL_EXPRESSIONS, 0.15),
                   K=_pick(rng, ("0", "0.01", "0.05", "0.2", "1")), m=_pick(rng, ("2", "3")))
    elif variant == "gamma_g":
        rhs.update(gamma=_pick(rng, EXPRESSIONS, SPECIAL_EXPRESSIONS, 0.15),
                   h=_pick(rng, EXPRESSIONS), m=_pick(rng, ("2", "3")),
                   k=_pick(rng, ("0.5", "1", "2")))
    else:
        rhs.update(H=_pick(rng, ("0.1", "0.3", "0.5", "x*y", "1"), SPECIAL_EXPRESSIONS, 0.15),
                   n=_pick(rng, ("2", "3"), SPECIAL + ("2.5",)))
    sections["rhs"] = rhs

    iteration = {"max_iters": _pick(rng, ("5", "15", "30")),
                 "h1_tol": _pick(rng, ("1e-8", "1e-6"), SPECIAL + ("1e-300",)),
                 "start": _pick(rng, ("zero", "boundary-lift"), ("bogus", ""))}
    if rng.random() < 0.2:
        iteration["blowup_sup"] = _pick(rng, ("1e3", "1e6"), SPECIAL + ("1e-300",), 0.3)
    if rng.random() < 0.3:
        iteration["phi"] = _pick(rng, ("0", "0.1*x", "0.2*sin(pi*x)*y", "0.5"), SPECIAL_EXPRESSIONS)
    sections["iteration"] = iteration
    sections["analysis"] = {"alpha": _pick(rng, ("0.5", "0.3")),
                            "lambda": _pick(rng, ("2.0", "0.5", "estimate"), SPECIAL + ("1e-300",)),
                            "lambda_trials": _pick(rng, ("1", "2"), SPECIAL + ("0", "2.5"))}

    if command == "sweep" or rng.random() < 0.1:
        sections["sweep"] = {
            "parameter": _pick(rng, (SWEPT[variant],), (*SWEPT.values(), "foo", ""), 0.15),
            "values": _pick(rng, ("0 0.02 0.05", "0.1, 0.3", "0.01 1 5"),
                            ("", "0.1 0", "1 nan", "x", "0 inf", "1e308 1e308"), 0.3),
        }
    if command == "exhaust" or rng.random() < 0.1:
        n_start = rng.choice((1, 2))
        sections["exhaustion"] = {
            "d": _pick(rng, ("0.5", "1")),
            "n_start": _pick(rng, (str(n_start),), SPECIAL + ("1.5", "0")),
            "n_max": _pick(rng, (str(n_start), str(n_start + 1)), SPECIAL + ("1",)),
            "compact_halfwidth": _pick(rng, ("0", str(0.5 * (n_start - 1))), SPECIAL + ("1",)),
            "compact_tol": _pick(rng, ("1e-6", "0.1"), SPECIAL + ("1e-300",)),
        }
        # spacings that divide the gaps between truncations, and some that do not
        sections["grid"]["h"] = _pick(rng, ("0.125", "0.1", "0.25", "0.3"))
    if command == "schauder" and rng.random() < 0.7:
        sections["schauder"] = {"trials": _pick(rng, ("1", "2"), SPECIAL + ("0", "1.5")),
                                "seed": _pick(rng, ("0", "3"), SPECIAL + ("-1",))}
        if rng.random() < 0.6:
            sections["schauder"]["d"] = _pick(rng, ("0.5", "1"))
            sections["schauder"]["n_list"] = _pick(rng, ("1 2", "1, 3", "2"),
                                                   ("", "2 x", "0 1", "1e308", "-1"), 0.2)

    for name in list(sections):
        if rng.random() < 0.01:
            del sections[name]
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
                   for name, keys in sections.items())
    if rng.random() < 0.02:
        text += rng.choice(("[broken\n", "h = 1\n", "[grid]\nh = 1\n"))
    # the draws of the --seed flag that the CLI no longer has: they keep every
    # later config's text what it was while the flag existed
    if rng.random() < 0.15:
        rng.choice(("0", "7", "-2"))
    return text, [command]


def _no_non_finite(value) -> bool:
    """Whether a parsed report.json holds no ``"nan"``, ``"inf"`` or ``"-inf"``."""
    if isinstance(value, dict):
        return all(map(_no_non_finite, value.values()))
    if isinstance(value, list):
        return all(map(_no_non_finite, value))
    return value not in ("nan", "inf", "-inf")


def _check_run(tmp_path, capsys, text: str, argv: list[str]) -> None:
    config, out = tmp_path / "exp.ini", tmp_path / "out"
    config.write_text(text)
    code = main([*argv, "--config", str(config), "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: ")
    elif argv[0] == "exhaust" and code in (2, 3):
        assert len(lines) == 1 and lines[0].startswith("exhaustion failed: truncation n = ")
    else:
        assert lines == []
    if argv[0] == "solve" and code == 0:
        assert _no_non_finite(json.loads((out / "report.json").read_text()))


def _configs(seed: int) -> list[tuple[str, list[str]]]:
    rng = random.Random(seed)
    return [_config(rng) for _ in range(50)]


@pytest.mark.parametrize("seed", SEEDS)
def test_random_configs_end_in_a_documented_exit(tmp_path, capsys, seed):
    for i, (text, argv) in enumerate(_configs(seed)):
        run_dir = tmp_path / str(i)
        run_dir.mkdir()
        try:
            _check_run(run_dir, capsys, text, argv)
        except Exception as exc:
            raise AssertionError(f"{' '.join(argv)} on this config:\n{text}") from exc


def test_every_command_meets_every_family():
    drawn = {(argv[0], variant) for seed in SEEDS for text, argv in _configs(seed)
             for variant in SWEPT if f"variant = {variant}\n" in text}
    assert drawn == {(command, variant) for command in COMMANDS for variant in SWEPT}


def test_unallocatable_grid_is_one_error_line(tmp_path, capsys):
    # 1e12 x 1e12 nodes: numpy refuses the first array up front, at TiB scale
    text = "[domain]\na = 1\nb = 1\n[grid]\nh = 1e-12\n[rhs]\nvariant = grad_lipschitz\n"
    _check_run(tmp_path, capsys, text, ["solve"])


def test_converged_report_of_tiny_data_is_finite(tmp_path, capsys):
    # K_threshold is k_zero's, about 1e600 here, and is written as the largest
    # double. The fuzzer meets the same threshold with lambda = 1e-300 or
    # m = 1e308, where a power underflows to 0.
    text = ("[domain]\nkind = strip\nd = 1\nn_trunc = 1\n[grid]\nh = 0.125\n"
            "[rhs]\nvariant = grad_lipschitz\nh = 1e-300\nK = 0.01\nm = 3\n"
            "[analysis]\nlambda = 0.5\n")
    _check_run(tmp_path, capsys, text, ["solve"])
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["theory"]["K_threshold"] == sys.float_info.max


# --- library arm ------------------------------------------------------------

EXTREME = (0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0, 3.0, 1e8, 1e300, 1.7e308)
POSITIVE = EXTREME[1:]


def _spec(rng: random.Random, grid):
    data = grid.constant(rng.choice(EXTREME))
    family = rng.choice((GradLipschitz, GammaG, MeanCurvature))
    if family is GradLipschitz:
        return GradLipschitz(h=data, K=rng.choice(EXTREME), m=rng.choice((2.0, 2.5, 50.0, 1e3)))
    if family is GammaG:
        return GammaG(gamma=data, h=grid.constant(rng.choice(EXTREME)),
                      m=rng.choice((2.0, 3.0, 1e3)), k=rng.choice((1e-300, 0.5, 1.0, 7.0, 1e3)))
    return MeanCurvature(H=data, n=rng.choice((2, 3, 100)))


@pytest.mark.parametrize("seed", range(2))
def test_analyze_returns_the_smallest_fixed_point_or_a_package_error(seed):
    rng = random.Random(seed)
    domains = [Domain.rectangle(1.0, 1.0), Domain.rectangle(1e-3, 2.0),
               Domain.strip_truncation(1e3, 1.0), Domain.strip_truncation(0.5, 4.0)]
    grids = [build_grid(domain, min(domain.extents) / 4) for domain in domains]
    for _ in range(200):
        grid = rng.choice(grids)
        domain, spec = grid.domain, _spec(rng, grid)
        norms = {key: rng.choice(EXTREME) for key in ("h_alpha", "gamma_alpha", "H_alpha")}
        lam = rng.choice(POSITIVE)
        try:
            t = analyze(spec, domain, norms, lam).C
        except DiriterError as exc:
            assert "gap nan" not in str(exc), f"{spec!r:.200} {norms} lam={lam}"
            continue
        if t is None:
            continue

        def gap(s):
            return lam * spec.psi(domain, norms, s) - s

        assert gap(t) <= 0, f"{spec!r:.200} {norms} lam={lam} t*={t!r}"
        if t > 0:
            assert gap(math.nextafter(t, 0.0)) > 0, f"{spec!r:.200} {norms} lam={lam} t*={t!r}"
