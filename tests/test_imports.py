"""What importing the CLI loads: every command pays it in a fresh process."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_no_scipy_and_the_numpy_parts_the_commands_use():
    code = (
        "import json, sys, diriter.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or m in ('numpy.fft', 'numpy.random'))))"
    )
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    # scipy would add ~0.3 s and ~300 modules to every command's start-up;
    # numpy.fft and numpy.random load with the package, not mid-command
    assert json.loads(done.stdout) == ["numpy.fft", "numpy.random"]


def test_star_import_binds_every_name_of_all_once_in_sorted_order():
    import diriter

    names = diriter.__all__
    assert names == sorted(set(names))  # sorted, no duplicates
    bound = {}
    exec("from diriter import *", bound)  # a stale entry raises AttributeError here
    assert all(bound[name] is getattr(diriter, name) for name in names)
