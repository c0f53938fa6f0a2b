"""What importing the CLI loads (every command pays it in a fresh process),
that each module reads every name it imports, that no module imports inside
a function or into a cycle, that every library definition, method and
property has a caller in the library, that the loop reads every field of its config
and the analysis every field of its own, that every exception type is caught
by name, that nothing is drawn at random, that no module builds a dense
coordinate mesh or a grid-sized boolean mask, that each right-hand-side
family carries its own formulas, that the CLI names no family, and that grid
identity is grid equality, not a comparison of shapes or domains."""

import ast
import builtins
import dataclasses
import graphlib
import importlib
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PERFBENCH = SRC.parent / "perfbench"


def _run(code: str) -> str:
    """stdout of ``python -c code`` in a fresh process that imports from src."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return done.stdout


def test_cli_import_loads_no_scipy_and_the_numpy_parts_the_commands_use():
    code = (
        "import json, sys, diriter.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or m in ('numpy.fft', 'numpy.random'))))"
    )
    # scipy would add ~0.3 s and ~300 modules to every command's start-up;
    # numpy.fft serves every solve, so it loads with the package, while
    # numpy.random (about 5.5 MB and 14 ms) serves nothing the package does
    assert json.loads(_run(code)) == ["numpy.fft"]


def test_schauder_estimate_loads_numpy_random_and_keeps_its_bits():
    # the estimate draws nothing at random, so numpy.random stays unloaded
    code = (
        "import sys; "
        "from diriter import Domain, NormConfig, build_grid, estimate_schauder_constant; "
        "grid = build_grid(Domain.rectangle(1.0, 1.0), 1 / 16); "
        "lam = estimate_schauder_constant(grid, NormConfig(alpha=0.5)); "
        "print('numpy.random' in sys.modules, lam.hex())"
    )
    assert _run(code).split() == ["False", "0x1.d913145001c15p+3"]


def test_star_import_binds_every_name_of_all_once_in_sorted_order():
    import diriter

    names = diriter.__all__
    assert names == sorted(set(names))  # sorted, no duplicates
    bound = {}
    exec("from diriter import *", bound)  # a stale entry raises AttributeError here
    assert all(bound[name] is getattr(diriter, name) for name in names)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module's import statements bind, with the line that binds it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _perfbench_constant(name: str, assigned: str):
    """The literal value that perfbench/``name`` assigns to ``assigned`` at top level."""
    tree = ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == assigned for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"perfbench/{name} assigns no {assigned}")


def test_every_imported_name_is_read():
    # the benchmark's traced run looks some names up in a module's globals,
    # so a name perfbench/spans.py traces there is read even if the module is not
    traced = {(mod, attr) for _, attr, modules in _perfbench_constant("spans.py", "_SITES")
              for mod in modules}
    unread = []
    for source in sorted((SRC / "diriter").glob("*.py")):
        if source.name == "__init__.py":
            continue
        tree = ast.parse(source.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
        unread += [
            f"{source.name}:{line} {name}"
            for name, line in _imported_names(tree).items()
            if name not in read and (source.stem, name) not in traced
        ]
    assert unread == []


def _sibling(node: ast.ImportFrom) -> str | None:
    """The diriter module a ``from ... import`` reads from ("" for the package
    itself), or None for any other package."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "diriter":
        return node.module.partition(".")[2]
    return None


def _taken_from_siblings(tree: ast.Module) -> set[tuple[str, str]]:
    """The (module, name) pairs a diriter module takes from the other modules:
    each name it imports from one, and each attribute it reads off one that
    it imports as a module (``from . import calculus``, ``import
    diriter.calculus as c``)."""
    taken, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (source := _sibling(node)) is not None:
            for alias in node.names:
                if source:
                    taken.add((source, alias.name))
                else:
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith("diriter."):
                    modules[alias.asname] = alias.name.partition(".")[2]
    taken |= {(modules[n.value.id], n.attr) for n in ast.walk(tree)
              if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
              and n.value.id in modules}
    return taken


def test_every_library_definition_has_a_caller_in_the_library():
    # the library holds what the commands run: a top-level function or class
    # that only the tests or diriter/__init__.py name belongs in the tests
    # (tests/reference.py). A definition is called when another module takes
    # it from its module (by import or as a module attribute), when its own
    # module reads its name outside its body (so recursion does not count),
    # or when the benchmark traces it or stops at it. Not caught: a definition
    # whose only caller is itself uncalled, until that caller goes.
    sources = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted((SRC / "diriter").glob("*.py")) if p.name != "__init__.py"}
    called = set().union(*map(_taken_from_siblings, sources.values()))
    called |= {(mod, attr) for _, attr, modules in _perfbench_constant("spans.py", "_SITES")
               for mod in modules}
    called |= {("cli", name) for name in _perfbench_constant("child.py", "_SOLVER_ENTRIES")}
    uncalled = []
    for module, tree in sources.items():
        reads = [{n.id for n in ast.walk(statement) if isinstance(n, ast.Name)
                  and isinstance(n.ctx, ast.Load)} for statement in tree.body]
        for i, node in enumerate(tree.body):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            read_elsewhere = node.name in set().union(*reads[:i], *reads[i + 1:])
            if not read_elsewhere and (module, node.name) not in called:
                uncalled.append(f"{module}.py:{node.lineno} {node.name}")
    assert uncalled == []


def _sources() -> dict[str, ast.Module]:
    """Every module of the package, ``__init__`` included, parsed."""
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted((SRC / "diriter").glob("*.py"))}


def test_imports_are_at_module_level_and_acyclic():
    # a function-local import hides a dependency from the module's header,
    # and is how a cycle between modules gets past the import system
    sources = _sources()
    local = [f"{module}.py:{node.lineno}" for module, tree in sources.items()
             for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert local == []
    graph = {module: set() for module in sources}
    for module, tree in sources.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (source := _sibling(node)) is not None:
                graph[module] |= ({source.split(".")[0]} if source else
                                  {a.name if a.name in sources else "__init__" for a in node.names})
    cycle = None
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        cycle = exc.args[1]
    assert cycle is None


def test_every_method_and_property_is_read_in_the_library():
    # as for top-level definitions: a method or property that only the tests
    # read belongs in the tests. It is read when some module of the package
    # reads it as an attribute outside its own body. Dunders and overrides of
    # a method of a class outside the package (argparse's ``error``) are
    # called by Python or by that class.
    sources = _sources()
    reads = [(n.attr, module, n.lineno) for module, tree in sources.items()
             for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]
    unread = []
    for module, tree in sources.items():
        for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
            mro = getattr(importlib.import_module(f"diriter.{module}"), cls.name).__mro__
            bases = [b for b in mro[1:] if not b.__module__.startswith("diriter")]
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = fn.name
                dunder = name.startswith("__") and name.endswith("__")
                if dunder or any(hasattr(b, name) for b in bases):
                    continue
                if not any(attr == name and not (m == module and fn.lineno <= line <= fn.end_lineno)
                           for attr, m, line in reads):
                    unread.append(f"{module}.py:{fn.lineno} {cls.name}.{name}")
    assert unread == []


def _attributes_read(readers: dict[str, tuple[str, ...]]) -> set[str]:
    """The attribute names that the named top-level functions of each module read."""
    read = set()
    for name, functions in readers.items():
        tree = ast.parse((SRC / "diriter" / name).read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in functions:
                read |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    return read


def test_every_iteration_config_field_is_read_by_the_loop():
    # the loop's settings hold only what running it reads: the analysis
    # (Λ's source, the Hölder exponent) has its own AnalysisConfig
    from diriter import IterationConfig

    read = _attributes_read({"iteration.py": ("dirichlet_iterate", "_start_field"),
                             "slab.py": ("exhaustion_solve",)})
    fields = {f.name for f in dataclasses.fields(IterationConfig)}
    assert sorted(fields - read) == []


def test_every_analysis_config_field_is_read():
    # Λ's source and the Hölder exponent are read by the analysis and by the
    # solve that observes its iterates; an unread knob has no place here
    from diriter import AnalysisConfig

    read = _attributes_read({"iteration.py": ("contraction_theory",), "cli.py": ("cmd_solve",)})
    fields = {f.name for f in dataclasses.fields(AnalysisConfig)}
    assert sorted(fields - read) == []


def test_every_exhaustion_config_field_is_read_by_exhaustion_solve():
    # the strip (d, n_max) and the spacing are the data's grid: a field that
    # could only repeat it, or that nothing reads, has no place here
    from diriter import ExhaustionConfig

    read = _attributes_read({"slab.py": ("exhaustion_solve",)})
    fields = {f.name for f in dataclasses.fields(ExhaustionConfig)}
    assert sorted(fields - read) == []


def test_grid_identity_is_grid_equality():
    # a grid is its domain and spacing (Grid.__eq__): comparing shapes lets a
    # same-shape grid on another domain through, and comparing domains alone
    # another spacing
    found = []
    for path in sorted((SRC / "diriter").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare):
                found += [f"{path.name}:{node.lineno}" for n in ast.walk(node)
                          if isinstance(n, ast.Attribute) and n.attr in ("shape", "domain")
                          and isinstance(n.value, ast.Attribute) and n.value.attr == "grid"]
    assert found == []


def _caught_names(handler: ast.ExceptHandler) -> set[str]:
    """The names an ``except`` clause catches, alone or in a tuple."""
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {t.id if isinstance(t, ast.Name) else t.attr for t in types
            if isinstance(t, (ast.Name, ast.Attribute))}


def test_every_exception_type_is_caught_in_the_package():
    # a caller that cannot tell one package error from another needs one
    # type: a subclass earns its place by an ``except`` clause that names it
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted((SRC / "diriter").glob("*.py"))]
    classes = {node.name: {b.id if isinstance(b, ast.Name) else b.attr for b in node.bases
                           if isinstance(b, (ast.Name, ast.Attribute))}
               for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    exceptions = {name for name in dir(builtins)
                  if isinstance(getattr(builtins, name), type)
                  and issubclass(getattr(builtins, name), Exception)}
    while grown := {name for name, bases in classes.items()
                    if bases & exceptions and name not in exceptions}:
        exceptions |= grown
    caught = set().union(*(_caught_names(node) for tree in trees for node in ast.walk(tree)
                           if isinstance(node, ast.ExceptHandler) and node.type is not None))
    defined = set(classes) & exceptions
    assert defined >= {"DiriterError", "ExpressionError", "IterationFailure"}
    assert sorted(defined - caught) == []


def _draws_at_random(node: ast.AST) -> bool:
    """Whether a node imports ``random`` or ``numpy.random`` (or reads
    ``np.random``), or names ``default_rng``."""
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        modules = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
    elif isinstance(node, ast.Attribute):
        return node.attr == "default_rng" or (
            node.attr == "random" and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy"))
    else:
        return isinstance(node, ast.Name) and node.id == "default_rng"
    return any(m == "random" or m == "numpy.random" or m.startswith(("random.", "numpy.random."))
               for m in modules)


def test_the_package_draws_nothing_at_random():
    # every command's output is a function of its config alone: no command
    # reads a seed, so none may draw from a generator
    found = [f"{source.name}:{node.lineno}"
             for source in sorted((SRC / "diriter").glob("*.py"))
             for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
             if _draws_at_random(node)]
    assert found == []


def _is_bool(node: ast.expr) -> bool:
    """``bool``, ``np.bool``/``np.bool_`` or the string ``"bool"``/``"?"``."""
    return (
        (isinstance(node, ast.Name) and node.id == "bool")
        or (isinstance(node, ast.Attribute) and node.attr in ("bool", "bool_"))
        or (isinstance(node, ast.Constant) and node.value in ("bool", "?"))
    )


def test_no_dense_mesh_and_no_boolean_array():
    # every grid is a tensor product: coordinates broadcast from the open mesh
    # and boundaries are the four edge slices, so no module needs a full
    # coordinate array or a grid-sized mask
    found = []
    for source in sorted((SRC / "diriter").glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            keywords = {k.arg: k.value for k in node.keywords}
            name = node.func.attr if isinstance(node.func, ast.Attribute) else None
            on_numpy = isinstance(node.func, ast.Attribute) and isinstance(
                node.func.value, ast.Name) and node.func.value.id in ("np", "numpy")
            sparse = keywords.get("sparse")
            if (on_numpy and name == "meshgrid"
                    and not (isinstance(sparse, ast.Constant) and sparse.value is True)):
                found.append(f"{source.name}:{node.lineno} meshgrid without sparse=True")
            if ("dtype" in keywords and _is_bool(keywords["dtype"])) or (
                name == "astype" and node.args and _is_bool(node.args[0])
            ):
                found.append(f"{source.name}:{node.lineno} boolean array")
    assert found == []


def _families() -> tuple[type, ...]:
    """The right-hand-side family classes, as ``nonlinearity.RhsSpec`` unites them."""
    from diriter.nonlinearity import RhsSpec

    return typing.get_args(RhsSpec)


def test_nonlinearity_never_branches_on_the_family():
    # each family carries its own formulas, so no function asks which family
    # it holds, and none needs an "unknown family" TypeError at the end of a chain
    families = {cls.__name__ for cls in _families()}
    found = []
    for node in ast.walk(ast.parse((SRC / "diriter" / "nonlinearity.py").read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and families & {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}):
            found.append(f"nonlinearity.py:{node.lineno} isinstance against a family")
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "TypeError":
                found.append(f"nonlinearity.py:{node.lineno} raise TypeError")
    assert found == []


def test_every_family_defines_the_same_public_names():
    # the module's functions call any of these on any family, so a new family
    # that misses one fails here, not in the middle of an analysis
    public = {cls.__name__: sorted(name for name in vars(cls) if not name.startswith("_")
                                   and name not in {f.name for f in dataclasses.fields(cls)})
              for cls in _families()}
    assert len(public) == 3 and public["GradLipschitz"] != []
    assert all(names == public["GradLipschitz"] for names in public.values()), public


def test_cli_never_names_a_family():
    # the CLI reads a family's [rhs] variant, [sweep] parameter and closed-form
    # profile off the family, so a new family needs no edit of the CLI
    families = {cls.__name__ for cls in _families()}
    found = []
    for node in ast.walk(ast.parse((SRC / "diriter" / "cli.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and _sibling(node) == "mce":
            found.append(f"cli.py:{node.lineno} imports mce")
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
        else:
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
        found += [f"cli.py:{node.lineno} names {name}" for name in sorted(names & families)]
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
                & (families | {"RhsSpec", "FAMILIES"})):
            found.append(f"cli.py:{node.lineno} isinstance against a family")
    assert found == []
