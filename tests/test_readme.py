"""The README's examples run: the ``## Library`` python block through ``exec``
and the CLI's INI example through ``cli.main``; its table of config keys is
the CLI's and the families'."""

import dataclasses
import json
import re
from pathlib import Path

from diriter import cli
from diriter.cli import main
from diriter.expressions import compile_expression
from diriter.nonlinearity import FAMILIES

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


def _table(section: str) -> list[list[str]]:
    """The cells of the first table after the heading ``### section``, by row,
    its header and rule left out."""
    text = README.read_text(encoding="utf-8")
    block = re.compile(r"^(\|.*\|\n)+", re.M).search(text, text.index(f"\n### {section}\n"))
    return [[cell.strip() for cell in line.strip("|").split("|")]
            for line in block.group(0).splitlines()[2:]]


_KINDS = {float: "float", int: "int", str: "str", compile_expression: "expression",
          cli._estimate_or_number: "float or estimate"}
_FIELD_KINDS = {"float": "float", "int": "int", "GridField": "expression"}


def test_config_keys_table_is_the_cli_table_and_the_family_fields():
    rows = _table("Config keys")
    # a default cell is the CLI's text in backticks (`""` for the empty text), or empty for none
    listed = {(section, key): (kind, default.strip("`").replace('""', "") if default else None,
                               retired == "yes") for section, key, kind, default, retired in rows}
    assert len(listed) == len(rows)
    keys = {(section, key): (_KINDS[kind], default, False)
            for section, table in cli._KEYS.items() for key, (kind, default) in table.items()}
    keys |= {(section, key): ("", None, True)
             for section, retired in cli._RETIRED.items() for key in retired}
    assert listed == keys
    fields = {("rhs", f.name): _FIELD_KINDS[f.type]
              for family in FAMILIES.values() for f in dataclasses.fields(family)}
    assert {key: kind for key, (kind, _, _) in listed.items()
            if key[0] == "rhs" and key[1] != "variant"} == fields
