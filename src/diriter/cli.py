"""Batch front end: INI experiment configs in, JSON/CSV reports out.

Commands and exit codes:

    diriter solve|sweep|poincare|exhaust|schauder --config FILE [--out DIR] [--seed N]

    0 converged / all checks passed, 1 usage or config error,
    2 diverged, 3 iteration budget exhausted.

Config sections: [domain] (kind, a, b | d, n_trunc), [grid] (h), [rhs]
(variant + parameters, data fields as expressions in x and y), [iteration],
[analysis] (alpha, lambda = estimate | number), [sweep], [exhaustion] and
[schauder]. The mean-curvature variant follows the expanded equation: the
configured H is multiplied by the dimension factor n.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import dataclasses
import json
import math
import sys
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np

from .calculus import NormConfig, estimate_schauder_constant, poincare_suite, sup_abs, verify_poincare
from .domain import Domain, Grid, GridField, build_grid
from .errors import ConfigError, DiriterError, IterationDiverged, IterationFailure, NotConforming
from .expressions import ExpressionError, compile_expression
from .iteration import (
    IterationConfig,
    IterationReport,
    c2alpha_observer,
    contraction_theory,
    dirichlet_iterate,
)
from .mce import ArcSolution
from .nonlinearity import (
    ContractionAnalysis,
    GammaG,
    GradLipschitz,
    MeanCurvature,
    RhsSpec,
    check_finite_data,
    data_fields,
)
from .slab import ExhaustionConfig, compact_values, exhaustion_solve

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


def _optional_section(cfg: configparser.ConfigParser, name: str) -> configparser.SectionProxy:
    """The ``[name]`` section, read as empty when the config has none."""
    return cfg[name] if cfg.has_section(name) else configparser.SectionProxy(cfg, name)


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


def _get_str(sec, key) -> str:
    return sec[key].strip()


def _given(sec, **readers) -> dict:
    """``{key: read(sec, key)}`` for each key the section sets. A key it does
    not set is left out, so the default of the callee is the only copy."""
    return {key: read(sec, key) for key, read in readers.items() if key in sec}


def _field_from_expr(sec, key: str, grid: Grid, default: str | None = None) -> GridField:
    text = sec.get(key, default)
    if text is None:
        raise ConfigError(f"[{sec.name}] is missing expression {key!r}")
    try:
        fn = compile_expression(text)
    except ExpressionError as exc:
        raise ConfigError(f"[{sec.name}] {key}: {exc}") from exc
    return grid.field_from(fn)


@contextlib.contextmanager
def _rejected_values(section: str):
    """Report a configured value that a constructor rejects as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def build_domain(cfg: configparser.ConfigParser) -> Domain:
    sec = _section(cfg, "domain")
    kind = sec.get("kind", "rectangle").strip()
    with _rejected_values("domain"):
        if kind == "rectangle":
            return Domain.rectangle(_get_float(sec, "a"), _get_float(sec, "b"))
        if kind in ("strip", "strip-truncation"):
            return Domain.strip_truncation(_get_float(sec, "d"), _get_float(sec, "n_trunc"))
    raise ConfigError(f"[domain] unknown kind {kind!r}")


def _build_grid(domain: Domain, h: float) -> Grid:
    with _rejected_values("grid"):
        return build_grid(domain, h)


def build_rhs(cfg: configparser.ConfigParser, grid: Grid) -> RhsSpec:
    sec = _section(cfg, "rhs")
    variant = sec.get("variant", "").strip()
    with _rejected_values("rhs"):
        if variant == "grad_lipschitz":
            return GradLipschitz(
                h=_field_from_expr(sec, "h", grid, default="0"),
                K=_get_float(sec, "K", 0.0),
                **_given(sec, m=_get_float),
            )
        if variant == "gamma_g":
            return GammaG(
                gamma=_field_from_expr(sec, "gamma", grid),
                h=_field_from_expr(sec, "h", grid, default="0"),
                **_given(sec, m=_get_float, k=_get_float),
            )
        if variant == "mean_curvature":
            return MeanCurvature(H=_field_from_expr(sec, "H", grid), **_given(sec, n=_get_int))
    raise ConfigError(f"[rhs] unknown variant {variant!r} "
                      "(expected grad_lipschitz | gamma_g | mean_curvature)")


def build_iteration_config(
    cfg: configparser.ConfigParser, grid: Grid, seed_override: int | None
) -> IterationConfig:
    it = _optional_section(cfg, "iteration")
    an = _optional_section(cfg, "analysis")

    iteration = _given(
        it, max_iters=_get_int, h1_tol=_get_float, blowup_sup=_get_float, start=_get_str
    )
    if "phi" in it:
        iteration["phi"] = _field_from_expr(it, "phi", grid)

    analysis = _given(an, lambda_trials=_get_int, lambda_seed=_get_int)
    lam_text = an.get("lambda", "estimate").strip()
    if lam_text != "estimate":
        try:
            analysis["lambda_value"] = float(lam_text)
        except ValueError as exc:
            raise ConfigError(f"[analysis] lambda = {lam_text!r} is not a number") from exc
    if seed_override is not None:
        analysis["lambda_seed"] = seed_override

    with _rejected_values("iteration"):
        it_cfg = IterationConfig(**iteration)
    # replace() checks every field again; only the [analysis] ones can fail now
    with _rejected_values("analysis"):
        return dataclasses.replace(
            it_cfg, norm_cfg=NormConfig(**_given(an, alpha=_get_float)), **analysis
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


def report_payload(
    report: IterationReport, c2alpha: list[float], theory: ContractionAnalysis, norms: dict
) -> dict:
    """The ``report.json`` of a ``solve``: the run's report, the C^{2,alpha}
    estimate of each of its iterates and its ``contraction_theory``."""
    last = report.rows[-1]
    max_rho = max((r.rho_i for r in report.rows if r.rho_i is not None), default=None)
    return {
        "outcome": report.outcome,
        "iters": len(report.rows),
        "final": {
            "sup_u": last.sup_u,
            "h1_diff": last.h1_diff,
            "residual_sup": last.residual_sup,
            "c2alpha_est": c2alpha[-1],
        },
        "C_empirical": max(c2alpha),
        "max_rho": max_rho,
        "norms": dict(norms),
        "theory": dataclasses.asdict(theory),
        "fixed_point_t_star": theory.C,
        "uniqueness_radius": theory.C,
    }


def write_trace(path: Path, report: IterationReport, c2alpha: list[float]) -> None:
    rows = [
        [r.i, r.sup_u, c, r.h1_diff, r.rho_i, r.residual_sup]
        for r, c in zip(report.rows, c2alpha, strict=True)
    ]
    write_csv(path, ["iter", "sup_u", "c2alpha_est", "h1_diff", "rho_i", "residual_sup"], rows)


def write_solution(path: Path, u: GridField) -> None:
    """Write the ``x,y,u`` rows, x-major, with CRLF line ends: the bytes ``write_csv``
    gives for the same rows.

    Each x-line is one ``%`` template of ``ny`` rows, built once from the y
    coordinates, so the values are formatted in C; its x coordinate goes in
    last, in one ``replace`` of the template's ``"\\0"`` marks. Lines are keyed
    by their bytes, and each distinct line is formatted once: a body is kept
    only while a later line with the same bytes is still to come, so memory is
    bounded by the pending repeats (none when no line repeats). Bytes, not
    values, make the key, so a line holding ``-0.0`` never takes the text of
    one holding ``0.0``.
    """
    grid = u.grid
    template = "".join(
        ["\0" + format(y, _FLOAT_SPEC) + ",%" + _FLOAT_SPEC + "\r\n" for y in grid.y.tolist()]
    )
    last_use = {line.tobytes(): i for i, line in enumerate(u.values)}
    pending: dict[bytes, str] = {}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("x,y,u\r\n")
        for i, (xv, line) in enumerate(zip(grid.x.tolist(), u.values)):
            key = line.tobytes()
            body = pending.pop(key, None)
            if body is None:
                body = template % tuple(line.tolist())
            if last_use[key] > i:
                pending[key] = body
            fh.write(body.replace("\0", format(xv, _FLOAT_SPEC) + ","))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_solve(cfg: configparser.ConfigParser, out: Path, seed: int | None) -> int:
    domain = build_domain(cfg)
    grid = _build_grid(domain, _get_float(_section(cfg, "grid"), "h"))
    spec = build_rhs(cfg, grid)
    it_cfg = build_iteration_config(cfg, grid, seed)

    theory, norms = contraction_theory(grid, spec, it_cfg)
    c2alpha, observe = c2alpha_observer(it_cfg.norm_cfg)
    try:
        u, report = dirichlet_iterate(grid, spec, it_cfg, observe=observe)
    except IterationFailure as exc:
        report = exc.report
        u = exc.last_iterate
    write_json(out / "report.json", report_payload(report, c2alpha, theory, norms))
    write_trace(out / "trace.csv", report, c2alpha)
    if u is not None:
        write_solution(out / "solution.csv", u)
    return _OUTCOME_EXIT[report.outcome]


# sweep parameters that scale one data field to the given sup: the family
# (and its [rhs] variant) that has the field, and the field's name
_SUP_PARAMETERS = {
    "H_amplitude": (MeanCurvature, "mean_curvature", "H"),
    "gamma_sup": (GammaG, "gamma_g", "gamma"),
}


def _apply_sweep_value(spec: RhsSpec, parameter: str, value: float) -> RhsSpec:
    if parameter == "K":
        if not isinstance(spec, GradLipschitz):
            raise ConfigError("sweep parameter K needs the grad_lipschitz variant")
        return dataclasses.replace(spec, K=value)
    if parameter not in _SUP_PARAMETERS:
        raise ConfigError(f"unknown sweep parameter {parameter!r}")
    family, variant, name = _SUP_PARAMETERS[parameter]
    if not isinstance(spec, family):
        raise ConfigError(f"sweep parameter {parameter} needs the {variant} variant")
    data = data_fields(spec)[name]
    base = sup_abs(data.values)
    if base == 0:
        raise ConfigError(f"configured {name} is identically zero; nothing to scale")
    return dataclasses.replace(spec, **{name: data.grid.field(data.values * (value / base))})


def run_sweep(
    grid: Grid, spec: RhsSpec, it_cfg: IterationConfig, parameter: str, values: list[float]
) -> dict:
    """One iteration run per value; rows plus the empirical threshold midpoint.

    The rows read no C^{2,alpha} estimate and no theory: no observer is
    attached, and Λ is neither read nor estimated. NaN or inf in a data field
    raises NonFiniteData, and a value the family rejects a ConfigError, before
    any run. The runs hold one value's spec at a time (for ``H_amplitude``
    and ``gamma_sup`` a scaled copy of the data). A value whose run raises a
    package error other than divergence or the iteration budget gets an
    ``error:`` row.
    """
    if not values:
        raise ConfigError("sweep needs a nonempty ascending list of values")
    if sorted(values) != list(values):
        raise ConfigError("sweep values must be sorted ascending")
    check_finite_data(spec)
    with _rejected_values("sweep"):
        for value in values:
            _apply_sweep_value(spec, parameter, value)
    rows = []
    outcomes = []
    for value in values:
        spec_v = _apply_sweep_value(spec, parameter, value)
        try:
            # the final iterate is not kept: it would live on through the next run
            report = dirichlet_iterate(grid, spec_v, it_cfg)[1]
        except IterationFailure as exc:
            report = exc.report
        except DiriterError as exc:
            rows.append([value, f"error: {exc}", 0, None, None])
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
    grid = _build_grid(domain, _get_float(_section(cfg, "grid"), "h"))
    spec = build_rhs(cfg, grid)
    it_cfg = build_iteration_config(cfg, grid, seed)
    sw = _section(cfg, "sweep")
    parameter = sw.get("parameter", "").strip()
    try:
        values = [float(tok) for tok in sw.get("values", "").replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"[sweep] values: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"[sweep] values = {sw.get('values')!r} must all be finite")
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
    grid = _build_grid(domain, _get_float(_section(cfg, "grid"), "h"))
    it = _optional_section(cfg, "iteration")
    if "phi" in it and not _field_from_expr(it, "phi", grid).is_conforming():
        raise NotConforming("the Poincaré suite needs zero boundary data, not a prescribed phi")
    an = _optional_section(cfg, "analysis")
    count = {"count": _get_int(an, "suite_size")} if "suite_size" in an else {}
    with _rejected_values("analysis"):
        suite = poincare_suite(grid, seed=seed or 0, **count)
    rows = []
    all_hold = True
    for name, u in suite:
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

    with _rejected_values("exhaustion"):
        big_domain = Domain.strip_truncation(d, n_max)
    big = _build_grid(big_domain, h)
    spec = build_rhs(cfg, big)
    it_cfg = build_iteration_config(cfg, big, seed)
    with _rejected_values("exhaustion"):
        if not 0.0 <= compact_tol < math.inf:  # NaN fails
            raise ValueError(f"compact_tol = {compact_tol} must be >= 0 and finite")
        ex_cfg = ExhaustionConfig(
            d=d,
            n_start=n_start,
            n_max=n_max,
            compact_halfwidth=halfwidth,
            iteration=it_cfg,
        )
        ex_cfg.check_spacing(h)
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
        # the equation solved is div(...) = n H: the arc of curvature n H
        arc = ArcSolution(d=d, H=float(spec.H.values[0, 0]), n=spec.n)
        if arc.valid:
            vals = compact_values(result.u_final, halfwidth)
            ref = arc(result.u_final.grid.y)[None, :]
            payload["compact_error_vs_arc"] = sup_abs(vals - ref)
    write_json(out / "report.json", payload)
    return EXIT_OK


def cmd_schauder(cfg: configparser.ConfigParser, out: Path, seed: int | None) -> int:
    sc = _optional_section(cfg, "schauder")
    trials = _get_int(sc, "trials", 5)
    base_seed = _get_int(sc, "seed", 0)
    if seed is not None:
        base_seed = seed
    with _rejected_values("analysis"):
        norm_cfg = NormConfig(**_given(_optional_section(cfg, "analysis"), alpha=_get_float))
    h = _get_float(_section(cfg, "grid"), "h")

    grids = None  # the truncations [schauder] n_list names, if it names any
    with _rejected_values("schauder"):
        if base_seed < 0:
            raise ValueError(f"seed = {base_seed} must be >= 0")
        if trials < 1:
            raise ValueError(f"trials = {trials} must be >= 1")
        if "n_list" in sc:
            d = _get_float(sc, "d")
            n_list = [int(tok) for tok in sc.get("n_list").replace(",", " ").split()]
            if not n_list:
                raise ValueError("n_list must be nonempty")
            # every grid is built, rejecting d, n and h, before any solve
            grids = [_build_grid(Domain.strip_truncation(d, n), h) for n in n_list]

    if grids is not None:
        estimates = [estimate_schauder_constant(g, norm_cfg, trials, base_seed) for g in grids]
        rows = list(zip(n_list, estimates))
        summary = {"max": max(estimates), "ratio_max_min": max(estimates) / min(estimates)}
    else:
        grid = _build_grid(build_domain(cfg), h)
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
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        # numpy's warnings would repeat on stderr what a non-finite value's outcome says
        with np.errstate(all="ignore"):
            cfg = _load_config(args.config)
            return _COMMANDS[args.command](cfg, out, args.seed)
    except DiriterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
