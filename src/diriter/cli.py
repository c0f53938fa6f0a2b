"""Batch front end: INI experiment configs in, JSON/CSV reports out.

Commands and exit codes:

    diriter solve|sweep|poincare|exhaust|schauder --config FILE [--out DIR] [--seed N]

    0 converged / all checks passed, 1 usage or config error,
    2 diverged, 3 iteration budget exhausted.

Config sections: [domain] (kind, a, b | d, n_trunc), [grid] (h), [rhs]
(variant + parameters, data fields as expressions in x and y), [iteration],
[analysis] (alpha, lambda = estimate | number), [sweep], [exhaustion],
[schauder], [output]. The mean-curvature variant follows the expanded
equation: the configured H is multiplied by the dimension factor n.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import json
import math
import sys
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np

from .calculus import NormConfig, estimate_schauder_constant, poincare_suite, verify_poincare
from .domain import BoundarySpec, Domain, Grid, GridField, build_grid
from .errors import (
    ConfigError,
    DiriterError,
    IterationDiverged,
    IterationFailure,
    NotConforming,
)
from .expressions import ExpressionError, compile_expression
from .iteration import IterationConfig, IterationReport, dirichlet_iterate, with_lambda
from .mce import arc_solution
from .nonlinearity import GammaG, GradLipschitz, MeanCurvature, RhsSpec
from .slab import ExhaustionConfig, compact_values, exhaustion_solve, schauder_uniformity_probe

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2
EXIT_MAX_ITERS = 3

_OUTCOME_EXIT = {"converged": EXIT_OK, "diverged": EXIT_DIVERGED, "max_iters": EXIT_MAX_ITERS}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _load_config(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    return parser


def _section(cfg: configparser.ConfigParser, name: str) -> configparser.SectionProxy:
    if not cfg.has_section(name):
        raise ConfigError(f"missing [{name}] section")
    return cfg[name]


def _get_float(sec, key, default=None) -> float:
    if key not in sec:
        if default is None:
            raise ConfigError(f"[{sec.name}] is missing key {key!r}")
        return default
    try:
        return float(sec[key])
    except ValueError as exc:
        raise ConfigError(f"[{sec.name}] {key} = {sec[key]!r} is not a number") from exc


def _get_int(sec, key, default=None) -> int:
    if key not in sec:
        if default is None:
            raise ConfigError(f"[{sec.name}] is missing key {key!r}")
        return default
    try:
        return int(sec[key])
    except ValueError as exc:
        raise ConfigError(f"[{sec.name}] {key} = {sec[key]!r} is not an integer") from exc


def _field_from_expr(sec, key: str, grid: Grid, default: str | None = None) -> GridField:
    text = sec.get(key, default)
    if text is None:
        raise ConfigError(f"[{sec.name}] is missing expression {key!r}")
    try:
        fn = compile_expression(text)
    except ExpressionError as exc:
        raise ConfigError(f"[{sec.name}] {key}: {exc}") from exc
    return grid.field_from(fn)


def build_domain(cfg: configparser.ConfigParser) -> Domain:
    sec = _section(cfg, "domain")
    kind = sec.get("kind", "rectangle").strip()
    if kind == "rectangle":
        return Domain.rectangle(_get_float(sec, "a"), _get_float(sec, "b"))
    if kind in ("strip", "strip-truncation"):
        return Domain.strip_truncation(_get_float(sec, "d"), _get_float(sec, "n_trunc"))
    raise ConfigError(f"[domain] unknown kind {kind!r}")


def build_rhs(cfg: configparser.ConfigParser, grid: Grid) -> RhsSpec:
    sec = _section(cfg, "rhs")
    variant = sec.get("variant", "").strip()
    if variant == "grad_lipschitz":
        return GradLipschitz(
            h=_field_from_expr(sec, "h", grid, default="0"),
            K=_get_float(sec, "K", 0.0),
            m=_get_float(sec, "m", 2.0),
        )
    if variant == "gamma_g":
        return GammaG(
            gamma=_field_from_expr(sec, "gamma", grid),
            h=_field_from_expr(sec, "h", grid, default="0"),
            m=_get_float(sec, "m", 2.0),
            k=_get_float(sec, "k", 1.0),
        )
    if variant == "mean_curvature":
        return MeanCurvature(H=_field_from_expr(sec, "H", grid), n=_get_int(sec, "n", 2))
    raise ConfigError(f"[rhs] unknown variant {variant!r} "
                      "(expected grad_lipschitz | gamma_g | mean_curvature)")


def build_iteration_config(
    cfg: configparser.ConfigParser, grid: Grid, seed_override: int | None
) -> IterationConfig:
    it = cfg["iteration"] if cfg.has_section("iteration") else {}
    an = cfg["analysis"] if cfg.has_section("analysis") else {}

    boundary = BoundarySpec.homogeneous()
    start = "zero"
    max_iters, h1_tol, blowup = 200, 1e-12, 1e6
    if it:
        max_iters = _get_int(it, "max_iters", 200)
        h1_tol = _get_float(it, "h1_tol", 1e-12)
        blowup = _get_float(it, "blowup_sup", 1e6)
        start = it.get("start", "zero").strip()
        if "phi" in it:
            boundary = BoundarySpec.prescribed(_field_from_expr(it, "phi", grid))

    alpha, budget = 0.5, 0
    lam_value: float | None = None
    lam_trials, lam_seed = 3, 0
    if an:
        alpha = _get_float(an, "alpha", 0.5)
        budget = _get_int(an, "pair_budget", 0)
        lam_text = an.get("lambda", "estimate").strip()
        if lam_text != "estimate":
            try:
                lam_value = float(lam_text)
            except ValueError as exc:
                raise ConfigError(f"[analysis] lambda = {lam_text!r} is not a number") from exc
        lam_trials = _get_int(an, "lambda_trials", 3)
        lam_seed = _get_int(an, "lambda_seed", 0)
    if seed_override is not None:
        lam_seed = seed_override

    return IterationConfig(
        max_iters=max_iters,
        h1_tol=h1_tol,
        blowup_sup=blowup,
        boundary=boundary,
        start=start,
        norm_cfg=NormConfig(alpha=alpha, pair_budget=budget),
        lambda_value=lam_value,
        lambda_trials=lam_trials,
        lambda_seed=lam_seed,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


_FLOAT_SPEC = ".17g"  # 17 significant digits: every float64 reads back exactly


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, _FLOAT_SPEC)
    return str(v)


def write_csv(path: Path, header: list[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _jsonable(v):
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def report_payload(report: IterationReport) -> dict:
    last = report.rows[-1]
    max_rho = max((r.rho_i for r in report.rows if r.rho_i is not None), default=None)
    return {
        "outcome": report.outcome,
        "iters": len(report.rows),
        "final": {
            "sup_u": last.sup_u,
            "h1_diff": last.h1_diff,
            "residual_sup": last.residual_sup,
            "c2alpha_est": last.c2alpha_est,
        },
        "C_empirical": report.C_empirical,
        "max_rho": max_rho,
        "norms": dict(report.norms),
        "theory": dataclasses.asdict(report.theory),
        "fixed_point_t_star": report.theory.C,
        "uniqueness_radius": report.uniqueness_radius,
    }


def write_trace(path: Path, report: IterationReport) -> None:
    rows = [
        [r.i, r.sup_u, r.c2alpha_est, r.h1_diff, r.rho_i, r.residual_sup] for r in report.rows
    ]
    write_csv(path, ["iter", "sup_u", "c2alpha_est", "h1_diff", "rho_i", "residual_sup"], rows)


def write_solution(path: Path, u: GridField) -> None:
    """Write the ``x,y,u`` rows, x-major, with CRLF line ends: the bytes ``write_csv``
    gives for the same rows, but each grid coordinate is formatted once and each
    x-line goes out in one write."""
    grid = u.grid
    ys = [format(y, _FLOAT_SPEC) + "," for y in grid.y.tolist()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("x,y,u\r\n")
        for xv, line in zip(grid.x.tolist(), u.values):
            x = format(xv, _FLOAT_SPEC) + ","
            fh.write("".join(
                [f"{x}{y}{format(v, _FLOAT_SPEC)}\r\n" for y, v in zip(ys, line.tolist())]
            ))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_solve(cfg: configparser.ConfigParser, out: Path, seed: int | None) -> int:
    domain = build_domain(cfg)
    grid = build_grid(domain, _get_float(_section(cfg, "grid"), "h"))
    spec = build_rhs(cfg, grid)
    it_cfg = build_iteration_config(cfg, grid, seed)

    try:
        u, report = dirichlet_iterate(grid, spec, it_cfg)
    except IterationFailure as exc:
        report = exc.report
        u = exc.last_iterate
    write_json(out / "report.json", report_payload(report))
    write_trace(out / "trace.csv", report)
    if u is not None:
        write_solution(out / "solution.csv", u)
    return _OUTCOME_EXIT[report.outcome]


def _apply_sweep_value(spec: RhsSpec, parameter: str, value: float) -> RhsSpec:
    if parameter == "K":
        if not isinstance(spec, GradLipschitz):
            raise ConfigError("sweep parameter K needs the grad_lipschitz variant")
        return dataclasses.replace(spec, K=value, F=None)
    if parameter == "H_amplitude":
        if not isinstance(spec, MeanCurvature):
            raise ConfigError("sweep parameter H_amplitude needs the mean_curvature variant")
        base = np.max(np.abs(spec.H.values))
        if base == 0:
            raise ConfigError("configured H is identically zero; nothing to scale")
        return dataclasses.replace(spec, H=spec.H.grid.field(spec.H.values * (value / base)))
    if parameter == "gamma_sup":
        if not isinstance(spec, GammaG):
            raise ConfigError("sweep parameter gamma_sup needs the gamma_g variant")
        base = np.max(np.abs(spec.gamma.values))
        if base == 0:
            raise ConfigError("configured gamma is identically zero; nothing to scale")
        return dataclasses.replace(
            spec, gamma=spec.gamma.grid.field(spec.gamma.values * (value / base))
        )
    raise ConfigError(f"unknown sweep parameter {parameter!r}")


def run_sweep(
    grid: Grid, spec: RhsSpec, it_cfg: IterationConfig, parameter: str, values: list[float]
) -> dict:
    """One iteration run per value; rows plus the empirical threshold midpoint."""
    if not values:
        raise ConfigError("sweep needs a nonempty ascending list of values")
    if sorted(values) != list(values):
        raise ConfigError("sweep values must be sorted ascending")
    # every value shares the grid and the Λ settings, so Λ is estimated once;
    # if that fails, each value reports the failure in its own row
    lambda_error = None
    try:
        it_cfg = with_lambda(grid, it_cfg)
    except DiriterError as exc:
        lambda_error = exc
    rows = []
    outcomes = []
    for value in values:
        spec_v = _apply_sweep_value(spec, parameter, value)
        error = lambda_error
        if error is None:
            try:
                _, report = dirichlet_iterate(grid, spec_v, it_cfg)
            except IterationFailure as exc:
                report = exc.report
            except DiriterError as exc:
                error = exc
        if error is not None:
            rows.append([value, f"error: {error}", 0, None, None])
            outcomes.append("error")
            continue
        max_rho = max((r.rho_i for r in report.rows if r.rho_i is not None), default=None)
        rows.append(
            [value, report.outcome, len(report.rows), max_rho, report.rows[-1].residual_sup]
        )
        outcomes.append(report.outcome)
    threshold = None
    for j in range(len(values) - 1):
        if outcomes[j] == "converged" and outcomes[j + 1] != "converged":
            threshold = 0.5 * (values[j] + values[j + 1])
            break
    return {"rows": rows, "threshold": threshold, "parameter": parameter}


def cmd_sweep(cfg: configparser.ConfigParser, out: Path, seed: int | None) -> int:
    domain = build_domain(cfg)
    grid = build_grid(domain, _get_float(_section(cfg, "grid"), "h"))
    spec = build_rhs(cfg, grid)
    it_cfg = build_iteration_config(cfg, grid, seed)
    sw = _section(cfg, "sweep")
    parameter = sw.get("parameter", "").strip()
    try:
        values = [float(tok) for tok in sw.get("values", "").replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"[sweep] values: {exc}") from exc
    result = run_sweep(grid, spec, it_cfg, parameter, values)
    write_csv(
        out / "sweep.csv",
        ["value", "outcome", "iters", "max_rho", "final_residual"],
        result["rows"],
    )
    write_json(
        out / "report.json",
        {"parameter": parameter, "threshold": result["threshold"], "n_rows": len(values)},
    )
    return EXIT_OK


def cmd_poincare(cfg: configparser.ConfigParser, out: Path, seed: int | None) -> int:
    domain = build_domain(cfg)
    grid = build_grid(domain, _get_float(_section(cfg, "grid"), "h"))
    if cfg.has_section("iteration") and "phi" in cfg["iteration"]:
        phi = _field_from_expr(cfg["iteration"], "phi", grid)
        if np.max(np.abs(phi.values[grid.boundary_mask()])) > 0:
            raise NotConforming("the Poincaré suite needs zero boundary data, not a prescribed phi")
    an = cfg["analysis"] if cfg.has_section("analysis") else {}
    count = _get_int(an, "suite_size", 20) if an else 20
    rows = []
    all_hold = True
    for name, u in poincare_suite(grid, count=count, seed=seed or 0):
        try:
            res = verify_poincare(u, domain)
        except NotConforming:
            rows.append([name, None, None, None, False])
            all_hold = False
            continue
        holds = bool(res["holds_vol"] and res["holds_slab"])
        all_hold = all_hold and holds
        rows.append([name, res["lhs"], res["rhs_vol"], res["rhs_slab"], holds])
    write_csv(out / "poincare.csv", ["id", "lhs", "rhs_vol", "rhs_slab", "holds"], rows)
    return EXIT_OK if all_hold else EXIT_USAGE


def cmd_exhaust(cfg: configparser.ConfigParser, out: Path, seed: int | None) -> int:
    ex = _section(cfg, "exhaustion")
    d = _get_float(ex, "d")
    n_start = _get_int(ex, "n_start")
    n_max = _get_int(ex, "n_max")
    halfwidth = _get_float(ex, "compact_halfwidth")
    compact_tol = _get_float(ex, "compact_tol", 1e-6)
    h = _get_float(_section(cfg, "grid"), "h")

    big = build_grid(Domain.strip_truncation(d, n_max), h)
    spec = build_rhs(cfg, big)
    it_cfg = build_iteration_config(cfg, big, seed)
    ex_cfg = ExhaustionConfig(
        d=d,
        n_start=n_start,
        n_max=n_max,
        compact_halfwidth=halfwidth,
        compact_tol=compact_tol,
        iteration=it_cfg,
    )
    try:
        result = exhaustion_solve(spec, ex_cfg, h)
    except IterationFailure as exc:
        print(f"exhaustion failed: {exc}", file=sys.stderr)
        return EXIT_DIVERGED if isinstance(exc, IterationDiverged) else EXIT_MAX_ITERS

    rows = []
    for j, n in enumerate(result.truncations):
        diff = result.tail[j - 1] if j >= 1 else None
        rep = result.reports[j]
        rows.append([n, diff, len(rep.rows), rep.outcome])
    write_csv(out / "tail.csv", ["n", "sup_diff_on_compact", "iters", "outcome"], rows)

    payload = {
        "final_tail": result.tail[-1] if result.tail else None,
        "tail_below_tol": bool(result.tail and result.tail[-1] <= compact_tol),
        "truncations": list(result.truncations),
    }
    if isinstance(spec, MeanCurvature) and np.ptp(spec.H.values) == 0:
        hval = float(spec.H.values[0, 0])
        if abs(hval) * d < 1.0:
            arc = arc_solution(d, hval)
            vals = compact_values(result.u_final, halfwidth)
            ref = arc(result.u_final.grid.y)[None, :]
            payload["compact_error_vs_arc"] = float(np.max(np.abs(vals - ref)))
    write_json(out / "report.json", payload)
    return EXIT_OK


def cmd_schauder(cfg: configparser.ConfigParser, out: Path, seed: int | None) -> int:
    sc = cfg["schauder"] if cfg.has_section("schauder") else {}
    trials = _get_int(sc, "trials", 5) if sc else 5
    base_seed = _get_int(sc, "seed", 0) if sc else 0
    if seed is not None:
        base_seed = seed
    an = cfg["analysis"] if cfg.has_section("analysis") else {}
    alpha = _get_float(an, "alpha", 0.5) if an else 0.5
    budget = _get_int(an, "pair_budget", 0) if an else 0
    norm_cfg = NormConfig(alpha=alpha, pair_budget=budget)
    h = _get_float(_section(cfg, "grid"), "h")

    rows = []
    if sc and "n_list" in sc:
        d = _get_float(sc, "d")
        n_list = [int(tok) for tok in sc.get("n_list").replace(",", " ").split()]
        probe = schauder_uniformity_probe(d, n_list, norm_cfg, trials, base_seed, h)
        rows = [[n, est] for n, est in zip(probe["n_list"], probe["estimates"])]
        summary = {"max": probe["max"], "ratio_max_min": probe["max"] / min(probe["estimates"])}
    else:
        domain = build_domain(cfg)
        grid = build_grid(domain, h)
        est = estimate_schauder_constant(grid, norm_cfg, trials, base_seed)
        rows = [["domain", est]]
        summary = {"max": est}
    write_csv(out / "schauder.csv", ["label", "lambda_estimate"], rows)
    write_json(out / "report.json", summary)
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "poincare": cmd_poincare,
    "exhaust": cmd_exhaust,
    "schauder": cmd_schauder,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="diriter", description="Iterated Dirichlet solves for nonlinear elliptic problems"
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="INI experiment config")
    parser.add_argument("--out", default=".", help="output directory (created if absent)")
    parser.add_argument("--seed", type=int, default=None, help="override configured seeds")
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return EXIT_USAGE

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](cfg, out, args.seed)
    except (ConfigError, NotConforming) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DiriterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
