"""What importing the CLI loads: every command pays it in a fresh process."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


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
