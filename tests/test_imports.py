"""What importing the CLI loads (every command pays it in a fresh process),
that each module reads every name it imports, and that no module builds a
dense coordinate mesh or a grid-sized boolean mask."""

import ast
import json
import os
import subprocess
import sys
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
    # numpy.random (about 5.5 MB and 14 ms) serves only the Λ estimate and the
    # Poincaré suite, so only the commands that call them load it
    assert json.loads(_run(code)) == ["numpy.fft"]


def test_schauder_estimate_loads_numpy_random_and_keeps_its_bits():
    code = (
        "import sys; "
        "from diriter import Domain, NormConfig, build_grid, estimate_schauder_constant; "
        "before = 'numpy.random' in sys.modules; "
        "grid = build_grid(Domain.rectangle(1.0, 1.0), 1 / 16); "
        "lam = estimate_schauder_constant(grid, NormConfig(alpha=0.5), 3, 7); "
        "print(before, 'numpy.random' in sys.modules, lam.hex())"
    )
    # the value is the one computed while numpy.random loaded with the package
    assert _run(code).split() == ["False", "True", "0x1.c91732a107c08p+1"]


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


def test_every_imported_name_is_read():
    # the benchmark's traced run looks some names up in a module's globals,
    # so a name perfbench/spans.py traces there is read even if the module is not
    path = PERFBENCH / "spans.py"
    spans = {"__name__": "perfbench_spans"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), spans)
    traced = {(mod, attr) for _, attr, modules in spans["_SITES"] for mod in modules}
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
