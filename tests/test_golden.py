"""Same bits: every config in tests/golden runs through ``cli.main`` and must
write the stored output files byte for byte, with the stored exit code.

Each config is ``tests/golden/<command>-<label>.ini``; its outputs are in
``tests/golden/<command>-<label>/`` and its exit code in ``manifest.json``,
beside the numpy version and the LAPACK name and version that wrote them
(the bits rest on numpy's FFT, on libm and, for ``poincare``, on LAPACK's
symmetric eigensolver). A change that means to move a value regenerates the
files with

    PYTHONPATH=src python tests/test_golden.py

and says which files moved and by how much.
"""

import csv
import io
import json
import math
import sys
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

from diriter.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "manifest.json"
CONFIGS = sorted(GOLDEN.glob("*.ini"))


def run(config: Path, out: Path) -> int:
    """Run one golden config into ``out``; the command is its name up to the first '-'."""
    return main([config.stem.split("-")[0], "--config", str(config), "--out", str(out)])


def _columns(name: str, data: bytes) -> dict[str, list[str]]:
    """The cells of an output file by column: a CSV column under its header
    name, a JSON value or list under its dotted key path."""
    text = data.decode("utf-8")
    if name.endswith(".json"):
        columns = {}

        def walk(path, value):
            if isinstance(value, dict):
                for key, item in value.items():
                    walk(f"{path}.{key}" if path else key, item)
            else:
                items = value if isinstance(value, list) else [value]
                columns[path] = [json.dumps(item) for item in items]

        walk("", json.loads(text))
        return columns
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    return {col: [row[j] if j < len(row) else "" for row in rows] for j, col in enumerate(header)}


def _change(got: list[str], want: list[str]) -> str:
    """The largest absolute and relative change between two columns' numbers,
    and how many cells differ in a way that is not a change of number."""
    largest_abs = largest_rel = 0.0
    differ = other = 0
    for a, b in zip_longest(got, want):
        if a == b:
            continue
        differ += 1
        try:
            d = abs(float(a) - float(b))
        except (TypeError, ValueError):
            d = math.nan
        if math.isnan(d):
            other += 1
            continue
        largest_abs = max(largest_abs, d)
        largest_rel = max(largest_rel, d / abs(float(b)) if float(b) else math.inf)
    return (f"{differ} cells differ; largest absolute change {largest_abs:.3g}, "
            f"relative {largest_rel:.3g}; {other} not a change of number")


def describe(name: str, got: bytes, want: bytes) -> list[str]:
    """One line per column of output file ``name`` whose cells differ."""
    try:
        cols_got, cols_want = _columns(name, got), _columns(name, want)
    except ValueError as exc:  # undecodable bytes, bad JSON, or a CSV without a header
        return [f"{name}: not comparable by column ({exc})"]
    return [
        f"{name} column {col!r}: {_change(cols_got.get(col, []), cols_want.get(col, []))}"
        for col in sorted(set(cols_got) | set(cols_want), key=str)
        if cols_got.get(col) != cols_want.get(col)
    ] or [f"{name}: the same cells, other bytes"]


@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_outputs_keep_their_bits(config, tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    expected = GOLDEN / config.stem
    assert run(config, tmp_path) == manifest["exit_codes"][config.stem]
    got = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    want = {p.name: p.read_bytes() for p in expected.iterdir()}
    assert sorted(got) == sorted(want)
    lines = [line for name in sorted(want) if got[name] != want[name]
             for line in describe(name, got[name], want[name])]
    assert not lines, "\n".join(
        [f"{config.stem}: outputs moved from tests/golden", *lines,
         f"golden files written with numpy {manifest['numpy']} and LAPACK {manifest['lapack']}; "
         f"installed: numpy {np.__version__} and LAPACK {lapack()}"]
    )


def test_the_manifest_lists_every_golden_config():
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert sorted(manifest["exit_codes"]) == sorted(c.stem for c in CONFIGS)


def test_a_moved_value_is_named_by_file_and_column():
    want = b"iter,sup_u\r\n1,0.5\r\n2,0.25\r\n"
    got = b"iter,sup_u\r\n1,0.5\r\n2,0.26\r\n"
    (line,) = describe("trace.csv", got, want)
    assert line.startswith("trace.csv column 'sup_u': 1 cells differ; largest absolute change 0.01,")
    assert "relative 0.04;" in line
    (line,) = describe("report.json", b'{"a": {"b": 1.0}}', b'{"a": {"b": 2.0}}')
    assert line.startswith("report.json column 'a.b': 1 cells differ; largest absolute change 1,")


def lapack() -> str:
    """The name and version of the LAPACK that numpy was built against."""
    build = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    return f"{build['name']} {build['version']}"


def regenerate() -> None:
    """Rewrite every config's outputs and the manifest from the installed program."""
    exit_codes = {}
    for config in CONFIGS:
        out = GOLDEN / config.stem
        out.mkdir(exist_ok=True)
        for old in out.iterdir():
            old.unlink()
        exit_codes[config.stem] = run(config, out)
    payload = {"numpy": np.__version__, "lapack": lapack(), "exit_codes": exit_codes}
    MANIFEST.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote the outputs of {len(CONFIGS)} configs under {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
