"""Batch front end: INI experiment configs in, JSON/CSV reports out.

Commands and exit codes:

    diriter solve|sweep|poincare|exhaust|schauder --config FILE [--out DIR]

    0 converged / all checks passed (and --help), 1 usage or config error,
    2 diverged, 3 iteration budget exhausted.

Config sections: [domain] (kind, a, b | d, n_trunc), [grid] (h), [rhs]
(variant + parameters, data fields as expressions in x and y), [iteration],
[analysis] (alpha, lambda = estimate | number), [sweep], [exhaustion] and
[schauder]; ``_KEYS`` lists every key, and any other section or key is an
error. The mean-curvature variant follows the expanded equation: the
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

from .calculus import NormConfig, poincare_maximizer, sup_abs, verify_poincare
from .domain import Domain, Grid, GridField, build_grid
from .errors import DiriterError, IterationFailure
from .expressions import ExpressionError, compile_expression
from .iteration import (
    AnalysisConfig,
    IterationConfig,
    IterationReport,
    c2alpha_observer,
    contraction_theory,
    dirichlet_iterate,
)
from .nonlinearity import FAMILIES, ContractionAnalysis, RhsSpec, check_data
from .poisson import estimate_schauder_constant
from .slab import ExhaustionConfig, compact_values, exhaustion_solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2
EXIT_MAX_ITERS = 3

_OUTCOME_EXIT = {"converged": EXIT_OK, "diverged": EXIT_DIVERGED, "max_iters": EXIT_MAX_ITERS}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _estimate_or_number(text: str) -> float | None:
    return None if text == "estimate" else float(text)


# Each section's keys: the kind that reads a value (an expression in x and y is
# sampled on the grid) and the text read where the key is left out, or None where
# the library's default applies or, if the command needs the key, it is an error.
# A [rhs] or [domain] key is read only under the variant or kind that has it.
_KEYS = {
    "domain": {"kind": (str, "rectangle"), "a": (float, None), "b": (float, None),
               "d": (float, None), "n_trunc": (float, None)},
    "grid": {"h": (float, None)},
    "rhs": {"variant": (str, ""), "h": (compile_expression, "0"), "K": (float, "0"),
            "m": (float, None), "gamma": (compile_expression, None), "k": (float, None),
            "H": (compile_expression, None), "n": (int, None)},
    "iteration": {"max_iters": (int, None), "h1_tol": (float, None),
                  "blowup_sup": (float, None), "start": (str, None),
                  "phi": (compile_expression, None)},
    "analysis": {"alpha": (float, None), "lambda": (_estimate_or_number, "estimate")},
    "sweep": {"parameter": (str, ""), "values": (str, "")},
    "exhaustion": {"d": (float, None), "n_start": (int, None), "n_max": (int, None),
                   "compact_halfwidth": (float, None), "compact_tol": (float, "1e-6")},
    "schauder": {"d": (float, None), "n_list": (str, None)},
}
# keys of the random Λ trials and Poincaré suite, which are gone: they load, unread
_RETIRED = {"analysis": ("lambda_trials", "lambda_seed", "suite_size"),
            "schauder": ("trials", "seed")}


def _load_config(path: str) -> configparser.ConfigParser:
    """The config at ``path``, each section and key of it in ``_KEYS`` or ``_RETIRED``.
    Keys keep their case (``K`` is not ``k``), and a value is its text: ``%``
    interpolates nothing. No section is configparser's default, whose keys would
    reach every section: ``[DEFAULT]`` is unknown like any other."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="",
                                       interpolation=None)
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise DiriterError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:  # its message may span lines; the error line may not
        flat = " ".join(line.strip() for line in str(exc).splitlines())
        raise DiriterError(f"config parse error: {flat}") from exc
    for name in parser.sections():
        if name not in _KEYS:
            raise DiriterError(f"[{name}] unknown section (expected {', '.join(_KEYS)})")
        for key in parser[name]:
            if key not in _KEYS[name] and key not in _RETIRED.get(name, ()):
                raise DiriterError(
                    f"[{name}] unknown key {key!r} (expected {', '.join(_KEYS[name])})")
    return parser


def _section(cfg: configparser.ConfigParser, name: str) -> configparser.SectionProxy:
    if not cfg.has_section(name):
        raise DiriterError(f"missing [{name}] section")
    return cfg[name]


def _optional_section(cfg: configparser.ConfigParser, name: str) -> configparser.SectionProxy:
    """The ``[name]`` section, read as empty when the config has none."""
    return cfg[name] if cfg.has_section(name) else configparser.SectionProxy(cfg, name)


def _get(sec, key, grid: Grid | None = None):
    """The value of ``key``, read by its kind in ``_KEYS`` from the section's
    text or the CLI's default; an expression is sampled on ``grid``. A key the
    section does not set, without a default, is an error."""
    kind, default = _KEYS[sec.name][key]
    text = sec.get(key, default)
    if text is None:
        noun = "expression" if kind is compile_expression else "key"
        raise DiriterError(f"[{sec.name}] is missing {noun} {key!r}")
    try:
        value = kind(text)
    except ExpressionError as exc:
        raise DiriterError(f"[{sec.name}] {key}: {exc}") from exc
    except ValueError as exc:
        noun = "an integer" if kind is int else "a number"
        raise DiriterError(f"[{sec.name}] {key} = {text!r} is not {noun}") from exc
    return grid.field_from(value) if kind is compile_expression else value


def _given(sec, *keys, grid: Grid | None = None) -> dict:
    """``{key: _get(sec, key, grid)}`` for each key the section sets. A key it
    does not set is left out, so the default of the callee is the only copy."""
    return {key: _get(sec, key, grid) for key in keys if key in sec}


@contextlib.contextmanager
def _rejected_values(section: str):
    """Report a configured value that a constructor rejects as a DiriterError
    naming its section."""
    try:
        yield
    except ValueError as exc:
        raise DiriterError(f"[{section}] {exc}") from exc


def _only_keys_of(sec, lead: str, value: str, keys: Sequence[str]) -> None:
    """Reject a key of ``sec`` other than ``lead`` and ``keys``, the keys that
    ``lead = value`` reads."""
    for key in sec:
        if key != lead and key not in keys:
            raise DiriterError(f"[{sec.name}] unknown key {key!r} for {lead} {value} "
                               f"(expected {lead}, {', '.join(keys)})")


# each [domain] kind's constructor and the keys it reads, in argument order
_DOMAIN_KINDS = {"rectangle": (Domain.rectangle, ("a", "b")),
                 "strip": (Domain.strip_truncation, ("d", "n_trunc")),
                 "strip-truncation": (Domain.strip_truncation, ("d", "n_trunc"))}


def build_domain(cfg: configparser.ConfigParser) -> Domain:
    """The ``[domain]`` kind's box, from its keys: a key of another kind is an error."""
    sec = _section(cfg, "domain")
    kind = _get(sec, "kind")
    if kind not in _DOMAIN_KINDS:
        raise DiriterError(f"[domain] unknown kind {kind!r}")
    make, keys = _DOMAIN_KINDS[kind]
    _only_keys_of(sec, "kind", kind, keys)
    with _rejected_values("domain"):
        return make(*(_get(sec, key) for key in keys))


def _build_grid(domain: Domain, h: float) -> Grid:
    with _rejected_values("grid"):
        return build_grid(domain, h)


def build_rhs(cfg: configparser.ConfigParser, grid: Grid) -> RhsSpec:
    """The ``[rhs]`` variant's family, from its fields in field order: a key the
    section does not set takes the CLI's default, else the family's own."""
    sec = _section(cfg, "rhs")
    variant = _get(sec, "variant")
    if variant not in FAMILIES:
        raise DiriterError(f"[rhs] unknown variant {variant!r} (expected {' | '.join(FAMILIES)})")
    fields = dataclasses.fields(FAMILIES[variant])
    _only_keys_of(sec, "variant", variant, [f.name for f in fields])
    with _rejected_values("rhs"):
        return FAMILIES[variant](**{f.name: _get(sec, f.name, grid) for f in fields
                                    if f.name in sec or f.default is dataclasses.MISSING})


def _norm_config(cfg: configparser.ConfigParser) -> NormConfig:
    """The Hölder norms' settings, from ``[analysis] alpha``."""
    alpha = _given(_optional_section(cfg, "analysis"), "alpha")
    with _rejected_values("analysis"):
        return NormConfig(**alpha)


def build_iteration_config(
    cfg: configparser.ConfigParser, grid: Grid
) -> tuple[IterationConfig, AnalysisConfig]:
    """The loop's settings, from ``[iteration]``, and its analysis's, from
    ``[analysis]``, the former checked first. ``sweep`` and ``exhaust`` check
    both and use only the loop's."""
    it = _optional_section(cfg, "iteration")
    an = _optional_section(cfg, "analysis")

    iteration = _given(it, "max_iters", "h1_tol", "blowup_sup", "start", "phi", grid=grid)
    lambda_value = _get(an, "lambda")

    with _rejected_values("iteration"):
        it_cfg = IterationConfig(**iteration)
    norm_cfg = _norm_config(cfg)
    with _rejected_values("analysis"):
        return it_cfg, AnalysisConfig(norm_cfg=norm_cfg, lambda_value=lambda_value)


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
        "max_rho": report.max_rho,
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


def cmd_solve(cfg: configparser.ConfigParser, out: Path) -> int:
    domain = build_domain(cfg)
    grid = _build_grid(domain, _get(_section(cfg, "grid"), "h"))
    spec = build_rhs(cfg, grid)
    it_cfg, analysis = build_iteration_config(cfg, grid)

    theory, norms = contraction_theory(spec, analysis)
    c2alpha, observe = c2alpha_observer(analysis.norm_cfg)
    try:
        u, report = dirichlet_iterate(spec, it_cfg, observe=observe)
    except IterationFailure as exc:
        report = exc.report
        u = exc.last_iterate
    write_json(out / "report.json", report_payload(report, c2alpha, theory, norms))
    write_trace(out / "trace.csv", report, c2alpha)
    write_solution(out / "solution.csv", u)
    return _OUTCOME_EXIT[report.outcome]


def _apply_sweep_value(spec: RhsSpec, parameter: str, value: float) -> RhsSpec:
    """``spec`` with the field that its family's sweep parameter sets at
    ``value``: a parameter directly, a data field scaled to sup ``value``."""
    if parameter != spec.sweep_parameter:
        needs = {family.sweep_parameter: variant for variant, family in FAMILIES.items()}
        if parameter not in needs:
            raise DiriterError(f"[sweep] unknown sweep parameter {parameter!r}")
        raise DiriterError(
            f"[sweep] sweep parameter {parameter} needs the {needs[parameter]} variant")
    name, data = spec.sweep_field, spec.fields().get(spec.sweep_field)
    if data is None:  # the parameter is not a data field
        return dataclasses.replace(spec, **{name: value})
    base = sup_abs(data.values)
    if base == 0:
        raise DiriterError(f"[sweep] configured {name} is identically zero; nothing to scale")
    return dataclasses.replace(spec, **{name: data.grid._own(data.values * (value / base))})


def run_sweep(spec: RhsSpec, it_cfg: IterationConfig, parameter: str, values: list[float]) -> dict:
    """One iteration run per value; rows plus the empirical threshold midpoint.

    The rows read no C^{2,alpha} estimate and no theory: no observer is
    attached, and Λ is neither read nor estimated. NaN or inf in a data field
    raises DiriterError, and so does a value the family rejects, before
    any run. The runs hold one value's spec at a time (for ``H_amplitude``
    and ``gamma_sup`` a scaled copy of the data). Only a parameter that is
    no data field (K) is checked value by value before the runs: a scaled
    field takes any finite value, and the first run's spec makes the checks
    that do not depend on it, so no field is scaled before that run. A value
    whose run raises a package error other than divergence or the iteration
    budget gets an ``error:`` row.
    """
    if not values:
        raise DiriterError("[sweep] sweep needs a nonempty ascending list of values")
    if sorted(values) != list(values):
        raise DiriterError("[sweep] sweep values must be sorted ascending")
    check_data(spec)
    with _rejected_values("sweep"):
        for value in values if spec.sweep_field not in spec.fields() else ():
            _apply_sweep_value(spec, parameter, value)
    rows = []
    for value in values:
        spec_v = _apply_sweep_value(spec, parameter, value)
        try:
            # the final iterate is not kept: it would live on through the next run
            report = dirichlet_iterate(spec_v, it_cfg)[1]
        except IterationFailure as exc:
            report = exc.report
        except DiriterError as exc:
            rows.append([value, f"error: {exc}", 0, None, None])
            continue
        rows.append(
            [value, report.outcome, len(report.rows), report.max_rho, report.rows[-1].residual_sup]
        )
    threshold = next((0.5 * (a[0] + b[0]) for a, b in zip(rows, rows[1:])
                      if a[1] == "converged" and b[1] != "converged"), None)
    return {"rows": rows, "threshold": threshold, "parameter": parameter}


def cmd_sweep(cfg: configparser.ConfigParser, out: Path) -> int:
    domain = build_domain(cfg)
    grid = _build_grid(domain, _get(_section(cfg, "grid"), "h"))
    spec = build_rhs(cfg, grid)
    it_cfg = build_iteration_config(cfg, grid)[0]
    sw = _section(cfg, "sweep")
    parameter, text = _get(sw, "parameter"), _get(sw, "values")
    try:
        values = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise DiriterError(f"[sweep] values: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise DiriterError(f"[sweep] values = {text!r} must all be finite")
    result = run_sweep(spec, it_cfg, parameter, values)
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


def cmd_poincare(cfg: configparser.ConfigParser, out: Path) -> int:
    domain = build_domain(cfg)
    grid = _build_grid(domain, _get(_section(cfg, "grid"), "h"))
    it = _optional_section(cfg, "iteration")
    if "phi" in it and not _get(it, "phi", grid).is_conforming():
        raise DiriterError(
            "[iteration] phi: poincare needs zero boundary data, not a prescribed phi")
    res = verify_poincare(poincare_maximizer(grid), domain)
    holds = bool(res["holds_vol"] and res["holds_slab"])
    write_csv(out / "poincare.csv", ["id", "lhs", "rhs_vol", "rhs_slab", "holds"],
              [["grid_max", res["lhs"], res["rhs_vol"], res["rhs_slab"], holds]])
    return EXIT_OK if holds else EXIT_USAGE


def cmd_exhaust(cfg: configparser.ConfigParser, out: Path) -> int:
    ex = _section(cfg, "exhaustion")
    d = _get(ex, "d")
    n_start = _get(ex, "n_start")
    n_max = _get(ex, "n_max")
    halfwidth = _get(ex, "compact_halfwidth")
    compact_tol = _get(ex, "compact_tol")
    h = _get(_section(cfg, "grid"), "h")

    with _rejected_values("exhaustion"):
        big_domain = Domain.strip_truncation(d, n_max)
    big = _build_grid(big_domain, h)
    spec = build_rhs(cfg, big)
    it_cfg = build_iteration_config(cfg, big)[0]
    try:
        with _rejected_values("exhaustion"):
            if not 0.0 <= compact_tol < math.inf:  # NaN fails
                raise ValueError(f"compact_tol = {compact_tol} must be >= 0 and finite")
            result = exhaustion_solve(spec, ExhaustionConfig(
                n_start=n_start, compact_halfwidth=halfwidth, iteration=it_cfg))
    except IterationFailure as exc:
        print(f"exhaustion failed: {exc}", file=sys.stderr)
        return _OUTCOME_EXIT[exc.report.outcome]

    rows = [[n, diff, len(rep.rows), rep.outcome]
            for n, diff, rep in zip(result.truncations, (None, *result.tail), result.reports)]
    write_csv(out / "tail.csv", ["n", "sup_diff_on_compact", "iters", "outcome"], rows)

    payload = {
        "final_tail": result.tail[-1] if result.tail else None,
        "tail_below_tol": bool(result.tail and result.tail[-1] <= compact_tol),
        "truncations": list(result.truncations),
    }
    if (arc := spec.exact_profile(d)) is not None:
        vals = compact_values(result.u_final, halfwidth)
        ref = arc(result.u_final.grid.y)[None, :]
        payload["compact_error_vs_arc"] = sup_abs(vals - ref)
    write_json(out / "report.json", payload)
    return EXIT_OK


def cmd_schauder(cfg: configparser.ConfigParser, out: Path) -> int:
    sc = _optional_section(cfg, "schauder")
    norm_cfg = _norm_config(cfg)
    h = _get(_section(cfg, "grid"), "h")

    grids = None  # the truncations [schauder] n_list names, if it names any
    with _rejected_values("schauder"):
        if "n_list" in sc:
            d = _get(sc, "d")
            n_list = [int(tok) for tok in _get(sc, "n_list").replace(",", " ").split()]
            if not n_list:
                raise ValueError("n_list must be nonempty")
            # every grid is built, rejecting d, n and h, before any solve
            grids = [_build_grid(Domain.strip_truncation(d, n), h) for n in n_list]

    if grids is not None:
        estimates = [estimate_schauder_constant(g, norm_cfg) for g in grids]
        rows = list(zip(n_list, estimates))
        summary = {"max": max(estimates), "ratio_max_min": max(estimates) / min(estimates)}
    else:
        grid = _build_grid(build_domain(cfg), h)
        est = estimate_schauder_constant(grid, norm_cfg)
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one ``error:`` line, where argparse prints the usage too
        self.exit(EXIT_USAGE, f"error: {message}\n")


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="diriter", description="Iterated Dirichlet solves for nonlinear elliptic problems"
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="INI experiment config")
    parser.add_argument("--out", default=".", help="output directory (created if absent)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # code 0 or None after --help, EXIT_USAGE from error()
        return EXIT_USAGE if exc.code else EXIT_OK

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
            return _COMMANDS[args.command](cfg, out)
    except DiriterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # an array numpy cannot allocate, such as a grid of h = 1e-12
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # _load_config reports its own: this is an output file
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
