"""Tiny closed expression grammar for nodal data in experiment configs.

Supported: numeric literals, the coordinates x and y, the constant pi,
sin / cos / exp / abs, |expr|, parentheses, unary minus, and + - * / ^, with
Python's precedence, so Python's parser reads them. A token pass spells each
checked token as Python (``^`` as ``**``, the k-th number as the name ``_k``,
a bar as ``_bar[`` where an operand is due and ``]`` after one), ``ast.parse``
parses that text, and a builder turns each node of the grammar into a
vectorized closure fn(x, y). No config text is ever compiled or evaluated as
Python; any other node, a syntax error and nesting beyond Python's limits are
ExpressionErrors.
"""

from __future__ import annotations

import ast
import operator
import re

import numpy as np

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()|]))"
)

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}
_CONSTS = {"pi": np.pi}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}


class ExpressionError(ValueError):
    """Raised with a character position when an expression cannot be parsed."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _const(v: float):
    return lambda x, y: v + 0.0 * x


def _spell(src: str) -> tuple[str, list[int], dict]:
    """The Python text of ``src``, one token and a space at a time; the source
    position of each character's token (and len(src) for the end); and the
    closure of each name that is an operand."""
    words, where, numbers, unknown = [], [], {}, None
    operand, pos = False, 0  # operand: whether the last token ends an operand
    while m := _TOKEN.match(src, pos):
        kind, token, pos = m.lastgroup, m[m.lastgroup], m.end()
        if kind == "num":
            word = f"_{len(numbers)}"
            numbers[word] = float(token)
        elif token == "|":
            word = "]" if operand else "_bar["
        else:
            word = "**" if token == "^" else token
            if kind == "name" and token not in ("x", "y", *_CONSTS, *_FUNCS):
                unknown = unknown or ExpressionError(f"unknown name {token!r}", m.start(kind))
        operand = kind != "op" or token == ")" or word == "]"
        words.append(word + " ")
        where += [m.start(kind)] * len(words[-1])
    pos += len(src[pos:]) - len(src[pos:].lstrip())
    if pos < len(src):  # reported before any other fault
        raise ExpressionError(f"unexpected character {src[pos]!r}", pos)
    if unknown:
        raise unknown
    leaves = {name: _const(v) for name, v in {**_CONSTS, **numbers}.items()}
    return "".join(words), where + [len(src)], {"x": lambda x, y: x, "y": lambda x, y: y, **leaves}


def _build(node: ast.expr, leaves: dict):
    """The closure of ``node``, recursing one frame per level of nesting. A
    node outside the grammar is a SyntaxError at its column (a call's at its
    parenthesis)."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        op, a, b = _BINARY[type(node.op)], _build(node.left, leaves), _build(node.right, leaves)
        return lambda x, y: op(a(x, y), b(x, y))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        a = _build(node.operand, leaves)
        return lambda x, y: -a(x, y)
    if isinstance(node, ast.Subscript):  # _bar[e]: the token pass spells no other subscript
        a = _build(node.slice, leaves)
        return lambda x, y: np.abs(a(x, y))
    if (isinstance(node, ast.Call) and getattr(node.func, "id", None) in _FUNCS
            and len(node.args) == 1 and not node.keywords):
        f, a = _FUNCS[node.func.id], _build(node.args[0], leaves)
        return lambda x, y: f(a(x, y))
    if isinstance(node, ast.Name) and node.id in leaves:
        return leaves[node.id]
    col = node.func.end_col_offset + 1 if isinstance(node, ast.Call) else node.col_offset
    raise SyntaxError("outside the grammar", ("", 1, col + 1, ""))


def compile_expression(src: str):
    """Compile a data expression to a vectorized callable fn(x, y)."""
    text, where, leaves = _spell(src)
    try:
        return _build(ast.parse(text, mode="eval").body, leaves)
    except SyntaxError as exc:
        pos = where[min(exc.offset or len(where), len(where)) - 1]  # offset 0: at the end
        if "nested" in exc.msg:  # more than Python's 200 open brackets
            raise ExpressionError("expression nested too deeply", pos) from None
        m = _TOKEN.match(src, pos)
        raise ExpressionError(f"unexpected {repr(m[0]) if m else 'end of expression'}", pos) from None
    except (RecursionError, MemoryError):  # MemoryError: the parser's stack overflowed
        raise ExpressionError("expression nested too deeply", 0) from None
