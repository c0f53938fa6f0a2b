"""Layer tracing for the traced run: wrappers, span recording, derived metrics.

Each layer is one module of diriter. A wrapper is installed under the name its
callers look up (``diriter.iteration.gradient``, not ``diriter.calculus.gradient``;
``PoissonSolver.solve`` on the class, so solvers built anywhere are caught), and
records a span ``[name, start, end, parent, meta]`` in memory. A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
import weakref

# span name, function name, modules whose globals the callers look it up in
_SITES = (
    ("calculus.c2alpha_estimate", "c2alpha_estimate", ("iteration", "calculus")),
    ("calculus.holder_norm", "holder_norm", ("nonlinearity", "calculus")),
    ("calculus.estimate_schauder_constant", "estimate_schauder_constant", ("iteration",)),
    ("calculus.gradient", "gradient", ("iteration",)),
    ("calculus.norm_h1semi", "norm_h1semi", ("iteration",)),
    ("nonlinearity.evaluate_rhs", "evaluate_rhs", ("iteration",)),
    ("nonlinearity.data_norms", "data_norms", ("iteration",)),
    ("nonlinearity.analyze", "analyze", ("iteration",)),
    ("iteration.dirichlet_iterate", "dirichlet_iterate", ("cli", "slab")),
    ("iteration.residual_field", "residual_field", ("iteration",)),
    ("slab.exhaustion_solve", "exhaustion_solve", ("cli",)),
    ("cli.setup", "_load_config", ("cli",)),
    ("cli.setup", "build_domain", ("cli",)),
    ("cli.setup", "build_grid", ("cli",)),
    ("cli.setup", "build_rhs", ("cli",)),
    ("cli.setup", "build_iteration_config", ("cli",)),
    ("cli.write", "write_json", ("cli",)),
    ("cli.write", "write_csv", ("cli",)),
    ("cli.write", "write_trace", ("cli",)),
    ("cli.write", "write_solution", ("cli",)),
)

# spans reported as NAME.n (calls) and NAME.s (self time)
TIMED = (
    "calculus.c2alpha_estimate", "calculus.holder_norm", "calculus.estimate_schauder_constant",
    "calculus.gradient", "calculus.norm_h1semi",
    "nonlinearity.evaluate_rhs", "nonlinearity.data_norms", "nonlinearity.analyze",
    "iteration.dirichlet_iterate", "iteration.residual_field",
)


def _grid_key(grid) -> str:
    return f"{grid.shape}@{grid.h!r}:{float(grid.x[0])!r},{float(grid.y[0])!r}"


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.events = {"solver_new": 0, "solver_grids": []}
        self._stack: list[int] = []

    def wrap(self, fn, name, meta=None):
        """``name`` is a string or a callable of the call's arguments;
        ``meta(args, result, exc)`` returns what the span should carry."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name if isinstance(name, str) else name(args), time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if meta is not None:
                    span[4] = meta(args, None, exc)
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if meta is not None:
                span[4] = meta(args, out, None)
            return out

        return wrapper


def _iterate_meta(args, out, exc):
    if exc is not None:
        report = getattr(exc, "report", None)
        return {"iters": len(report.rows) if report is not None else 0, "failed": 1}
    return {"iters": len(out[1].rows), "failed": 0}


def _lambda_meta(args, out, exc):
    grid, cfg, trials, seed = args[:4]
    return {"key": f"{_grid_key(grid)}|{cfg!r}|{trials}|{seed}"}


def install(rec: Recorder) -> list[str]:
    """Install the wrappers; returns the lookup sites that no longer exist."""
    missing = []
    wrappers: dict[int, object] = {}
    metas = {"iteration.dirichlet_iterate": _iterate_meta,
             "calculus.estimate_schauder_constant": _lambda_meta}
    for span_name, attr, modules in _SITES:
        for mod_name in modules:
            mod = importlib.import_module(f"diriter.{mod_name}")
            fn = getattr(mod, attr, None)
            if fn is None:
                missing.append(f"diriter.{mod_name}.{attr}")
                continue
            if id(fn) not in wrappers:
                wrappers[id(fn)] = rec.wrap(fn, span_name, metas.get(span_name))
            setattr(mod, attr, wrappers[id(fn)])

    solver_cls = importlib.import_module("diriter.poisson").PoissonSolver
    init, solve = solver_cls.__init__, solver_cls.solve
    solved = weakref.WeakKeyDictionary()

    @functools.wraps(init)
    def counted_init(self, grid, *args, **kwargs):
        rec.events["solver_new"] += 1
        rec.events["solver_grids"].append(_grid_key(grid))
        init(self, grid, *args, **kwargs)

    def solve_name(args):
        if args[0] in solved:
            return "poisson.solve_repeat"
        solved[args[0]] = True
        return "poisson.solve_first"

    solver_cls.__init__ = counted_init
    solver_cls.solve = rec.wrap(solve, solve_name)
    return missing


def derive(result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command (without the parent-side ones)."""
    spans = result["spans"]
    events = result["events"]
    self_s = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_s[s[3]] -= s[2] - s[1]
    count: dict[str, int] = {}
    busy: dict[str, float] = {}
    for s, t in zip(spans, self_s):
        count[s[0]] = count.get(s[0], 0) + 1
        busy[s[0]] = busy.get(s[0], 0.0) + t

    m: dict[str, float] = {}
    for name in TIMED:
        m[f"{name}.n"] = count.get(name, 0)
        m[f"{name}.s"] = busy.get(name, 0.0)
    built = events["solver_new"]
    m["poisson.solver_new.n"] = built
    m["poisson.solve.n"] = count.get("poisson.solve_first", 0) + count.get("poisson.solve_repeat", 0)
    m["poisson.solve_first.s"] = busy.get("poisson.solve_first", 0.0)
    m["poisson.solve_repeat.s"] = busy.get("poisson.solve_repeat", 0.0)
    m["poisson.reuse_ratio"] = len(set(events["solver_grids"])) / built if built else 0.0

    lam_keys = [s[4]["key"] for s in spans if s[0] == "calculus.estimate_schauder_constant"]
    m["calculus.lambda_unique_ratio"] = len(set(lam_keys)) / len(lam_keys) if lam_keys else 0.0

    iterates = [s for s in spans if s[0] == "iteration.dirichlet_iterate"]
    m["iteration.outer_iters"] = sum(s[4]["iters"] for s in iterates)
    m["iteration.failures"] = sum(s[4]["failed"] for s in iterates)

    m["slab.exhaustion_solve.s"] = busy.get("slab.exhaustion_solve", 0.0)
    m["slab.truncations.n"] = sum(
        1 for s in iterates if s[3] >= 0 and spans[s[3]][0] == "slab.exhaustion_solve"
    )
    m["cli.setup.s"] = busy.get("cli.setup", 0.0)
    m["cli.write.s"] = busy.get("cli.write", 0.0)
    m["trace.uncovered_s"] = result["wall_s"] - sum(self_s)
    return m
