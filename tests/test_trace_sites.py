"""The benchmark's traced run wraps diriter functions by name; a rename must fail here.

``perfbench/spans.py`` and ``perfbench/child.py`` are executed from source
(nothing is installed or patched), and every name they look up is resolved in
the package.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name) -> dict:
    """The module's globals, executed from source so that no bytecode is cached."""
    path = PERFBENCH / f"{name}.py"
    namespace = {"__name__": f"perfbench_{name}"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace


@pytest.mark.parametrize(
    "site",
    [(mod, attr) for _, attr, modules in _load("spans")["_SITES"] for mod in modules],
    ids=lambda site: f"{site[0]}.{site[1]}",
)
def test_traced_site_resolves(site):
    mod_name, attr = site
    assert callable(getattr(importlib.import_module(f"diriter.{mod_name}"), attr, None))


def test_solver_entries_exist_in_cli():
    cli = importlib.import_module("diriter.cli")
    missing = [name for name in _load("child")["_SOLVER_ENTRIES"] if not hasattr(cli, name)]
    assert missing == []
