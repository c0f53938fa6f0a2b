"""The README's examples run: the ``## Library`` python block through ``exec``
and the CLI's INI example through ``cli.main``."""

import json
import re
from pathlib import Path

from diriter.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(section: str, language: str) -> str:
    """The first fenced ``language`` block after the heading ``## section``."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {section}\n")
    match = re.compile(rf"^```{language}\n(.*?)^```$", re.M | re.S).search(text, start)
    assert match, f"no {language} block under ## {section}"
    return match.group(1)


def test_library_example_runs(capsys):
    exec(compile(_block("Library", "python"), f"{README}:Library", "exec"), {})
    assert capsys.readouterr().out.startswith("converged ")


def test_cli_ini_example_converges(tmp_path):
    config = tmp_path / "exp.ini"
    config.write_text(_block("CLI", "ini"), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["outcome"] == "converged"
