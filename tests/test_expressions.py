import math
import re

import numpy as np
import pytest

from diriter import cli
from diriter.expressions import ExpressionError, compile_expression


def ev(src, x=0.0, y=0.0):
    return compile_expression(src)(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def test_literals_and_coordinates():
    assert ev("1.5") == 1.5
    assert ev("x", x=2.0) == 2.0
    assert ev("y", y=-3.0) == -3.0
    assert math.isclose(float(ev("pi")), math.pi)


def test_arithmetic_precedence():
    assert ev("1 + 2 * 3") == 7.0
    assert ev("(1 + 2) * 3") == 9.0
    assert ev("8 / 2 / 2") == 2.0
    assert ev("2 ^ 3 ^ 2") == 512.0  # right-associative power
    assert ev("-2 ^ 2") == -4.0
    assert ev("1 - 2 - 3") == -4.0
    assert ev("2^-1") == 0.5
    assert ev("-x^2", x=3.0) == -9.0  # the power binds tighter than unary minus
    assert ev("2*-3") == -6.0
    assert ev("-2^-2") == -0.25


def test_functions_and_abs():
    assert math.isclose(float(ev("sin(pi / 2)")), 1.0)
    assert math.isclose(float(ev("cos(0)")), 1.0)
    assert math.isclose(float(ev("exp(1)")), math.e)
    assert ev("abs(0 - 3)") == 3.0
    assert ev("|0 - 3|") == 3.0
    assert ev("2 * |x| + 1", x=-2.0) == 5.0
    assert ev("|x - |y||", x=1.0, y=-3.0) == 2.0  # a bar after an operand closes, else it opens
    assert ev("||x||", x=-2.0) == 2.0
    assert ev("|-x|^2", x=3.0) == 9.0


def test_vectorized_evaluation():
    x = np.linspace(0, 1, 5)
    y = np.zeros(5)
    out = compile_expression("sin(pi * x) + y")(x, y)
    assert np.allclose(out, np.sin(np.pi * x))
    out2 = compile_expression("0.5")(x, y)
    assert out2.shape == x.shape and np.all(out2 == 0.5)


def test_scientific_notation():
    assert ev("1e-3") == 1e-3
    assert ev("2.5E2") == 250.0


def test_errors_carry_positions():
    with pytest.raises(ExpressionError):
        compile_expression("")
    with pytest.raises(ExpressionError) as e1:
        compile_expression("1 + $")
    assert e1.value.pos == 4
    with pytest.raises(ExpressionError):
        compile_expression("sin(1")
    with pytest.raises(ExpressionError):
        compile_expression("1 2")
    with pytest.raises(ExpressionError):
        compile_expression("sqrt(2)")  # not part of the grammar
    with pytest.raises(ExpressionError):
        compile_expression("z + 1")


@pytest.mark.parametrize(
    "src",
    ["+1", "x y", "2|x|", "sin x", "sin()", "sin(x)(y)", "pi(1)", "| 2)", "(|x)|", "0x1", "1_0",
     "not x", "x if y else 1", "__import__", "_bar", "_0"],
)
def test_rejections_speak_the_grammar(src):
    # the Python spelling of the tokens never shows through a message
    with pytest.raises(ExpressionError) as err:
        compile_expression(src)
    message = str(err.value)
    for spelling in ("_bar", "[", "]", "**"):
        assert spelling not in message or spelling in src
    assert not re.search(r"_\d", message) or re.search(r"_\d", src)
    assert 0 <= err.value.pos <= len(src)


DEEP = {
    "parentheses": "(" * 250 + "x" + ")" * 250,
    "bars": "|" * 250 + "x" + "|" * 250,
    "sum": "+".join(["x"] * 1200),
    "minuses": "-" * 20000 + "x",
}


@pytest.mark.parametrize("src", DEEP.values(), ids=DEEP.keys())
def test_nesting_beyond_pythons_limits_is_an_expression_error(src):
    with pytest.raises(ExpressionError, match="nested too deeply"):
        compile_expression(src)


@pytest.mark.parametrize("src", DEEP.values(), ids=DEEP.keys())
def test_nesting_beyond_pythons_limits_is_one_error_line(src, tmp_path, capsys):
    cfg = tmp_path / "deep.ini"
    cfg.write_text("[domain]\na = 1\nb = 1\n[grid]\nh = 0.25\n"
                   f"[rhs]\nvariant = grad_lipschitz\nh = {src}\n")
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [rhs] h: ")
