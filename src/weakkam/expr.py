"""Arithmetic formula parsing and evaluation for configuration text.

Hamiltonians, potentials and initial data are declared as small formula
strings.  The language is deliberately tiny: IEEE doubles, the variables
x, y, p, u, v, eps, the constant pi, operators + - * / ^ with the usual
precedence (^ binds tighter than unary minus, which binds tighter than
* /, which binds tighter than + -), and a fixed whitelist of functions:
sin, cos, exp, log, abs, sqrt and the two-argument min, max.  Whitespace
is insignificant.

The standard library's `ast` parser reads the text, with ^ as Python's **;
a whitelist of node kinds then admits exactly the grammar above, and
anything else is a ParseError at the offending character.  The text is
never executed: evaluation walks the checked tree with numpy operations.

Expressions are immutable and compare by value, and evaluation is pure,
so expressions are safe to evaluate concurrently.  Bindings may be floats
or numpy arrays; array bindings broadcast elementwise.  Domain violations
(log of a nonpositive number, division by zero, nonfinite intermediates)
raise EvalError instead of silently producing NaN.

`fold` partially evaluates an expression at fixed bindings, for a formula
re-evaluated many times on the same nodes (W on the grid at every contact
step, G and H on the nodes of a Legendre table): every subtree reading only
fixed names (or none) becomes one constant holding its value.  The folded
expression reads the remaining names only, and evaluating it performs the
same numpy operations in the same order on the same operands as `evaluate`
with all the bindings, so its values are bit-identical.  A domain error in
a fixed-only subtree is raised by `fold` itself, as the EvalError the first
`evaluate` would have raised (evaluation never short-circuits).  A folded
expression compares equal only to a fold of the same formula at the same
values (shape and bytes) of the fixed names it reads.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

__all__ = ["Expr", "parse", "ExprError", "ParseError", "EvalError", "ALLOWED_VARIABLES"]

ALLOWED_VARIABLES = ("x", "y", "p", "u", "v", "eps")

_ARITY = {"sin": 1, "cos": 1, "exp": 1, "log": 1, "abs": 1, "sqrt": 1,
          "min": 2, "max": 2}
_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log, "abs": np.abs,
          "sqrt": np.sqrt, "min": np.minimum, "max": np.maximum}
_OPS = {ast.Add: ("+", operator.add), ast.Sub: ("-", operator.sub),
        ast.Mult: ("*", operator.mul), ast.Div: ("/", operator.truediv),
        ast.Pow: ("^", np.power)}

_BAD_CHAR = r"[^A-Za-z0-9_.+\-*/^(),\s]"
_LITERAL = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# Python refuses leading zeros on integer literals ("007"); the grammar allows them
_LEADING_ZEROS = r"(?<![\w.])(?<![eE][+-])0+(?=\d)"

Value = Union[float, np.ndarray]


class ExprError(ValueError):
    """Base class for formula errors."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ExprError):
    """Missing binding or numeric domain violation."""


def _finite_or_raise(val, what: str):
    if not np.all(np.isfinite(val)):
        raise EvalError(f"nonfinite result in '{what}'")
    return val


@dataclass(frozen=True)
class Expr:
    """A parsed formula: its text, its checked `ast` tree and the variables it reads."""

    _source: str = field(compare=False)
    _tree: ast.expr = field(compare=False, repr=False)
    _names: frozenset = field(compare=False, repr=False)
    _dump: str = field(repr=False)  # ast.dump of the tree: == and hash are by value
    # (name, shape, bytes) of each folded binding the formula reads, in folding order
    _fixed: tuple = field(default=(), repr=False)

    def variables(self) -> frozenset:
        return self._names

    def evaluate(self, bindings: Mapping[str, Value] | None = None) -> Value:
        """Evaluate with the given variable bindings (floats or arrays)."""
        bindings = bindings or {}
        missing = self._names.difference(bindings)
        if missing:
            raise EvalError(f"missing binding for {sorted(missing)}")
        env = _env(bindings, np.asarray)
        try:
            with np.errstate(all="ignore"):
                out = _value(self._tree, env)
        except RecursionError:
            raise EvalError("formula nested too deeply to evaluate") from None
        arr = np.asarray(out)
        if arr.ndim == 0:
            return float(arr)
        return arr

    def fold(self, fixed: Mapping[str, Value]) -> "Expr":
        """This expression with the names in `fixed` bound once: each subtree
        reading only fixed names becomes a constant, computed as `evaluate`
        computes it.  The result reads variables() minus the fixed names and
        evaluates bit-identically; its text is this expression's."""
        env = {name: _held(val) for name, val in _env(fixed, np.array).items()}
        try:
            with np.errstate(all="ignore"):
                tree = _fold(self._tree, env)
        except RecursionError:
            raise EvalError("formula nested too deeply to fold") from None
        held = tuple((name, np.shape(env[name]), np.asarray(env[name]).tobytes())
                     for name in sorted(self._names.intersection(fixed)))
        return Expr(self._source, tree, self._names.difference(fixed), self._dump,
                    self._fixed + held)

    def __str__(self) -> str:
        # the text itself: ast.unparse needs several frames per level and
        # fails on a 400-term sum that parses and evaluates
        return self._source


def _env(bindings, as_array) -> dict:
    """The evaluation environment: array bindings through as_array as float
    arrays, every other binding as a float, and pi."""
    env = {}
    for name, val in bindings.items():
        env[name] = as_array(val, dtype=float) if isinstance(val, np.ndarray) else float(val)
    env["pi"] = math.pi
    return env


def _fold(node, env):
    """`node` with each subtree reading only names bound in env replaced by a
    constant holding its `_value`; one frame per level, each node's value
    computed once from its children's constants."""
    kind = type(node)
    if kind is ast.Name:
        return ast.Constant(value=env[node.id]) if node.id in env else node
    if kind is ast.Constant:
        return node
    if kind is ast.BinOp:
        new = ast.BinOp(left=_fold(node.left, env), op=node.op, right=_fold(node.right, env))
        args = (new.left, new.right)
    elif kind is ast.UnaryOp:
        new = ast.UnaryOp(op=node.op, operand=_fold(node.operand, env))
        args = (new.operand,)
    else:
        new = ast.Call(func=node.func, args=[_fold(a, env) for a in node.args], keywords=[])
        args = new.args
    if any(type(a) is not ast.Constant for a in args):
        return new
    return ast.Constant(value=_held(_value(new, env)))


def _held(value):
    """value, read-only if it is an array: every evaluation of a fold shares it."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    return value


def _value(node, env):
    """Value of a checked tree; one frame per level, left operand first."""
    kind = type(node)
    if kind is ast.BinOp:
        a = _value(node.left, env)
        b = _value(node.right, env)
        symbol, fn = _OPS[type(node.op)]
        if symbol == "/" and np.any(b == 0):
            raise EvalError("division by zero")
        return _finite_or_raise(fn(a, b), symbol)
    if kind is ast.Name:
        return env[node.id]
    if kind is ast.Constant:
        return node.value
    if kind is ast.UnaryOp:
        return -_value(node.operand, env)
    name = node.func.id
    a = _value(node.args[0], env)
    if name == "log" and np.any(a <= 0):
        raise EvalError("log of a nonpositive number")
    if name == "sqrt" and np.any(a < 0):
        raise EvalError("sqrt of a negative number")
    if name == "exp":
        return _finite_or_raise(np.exp(a), "exp")
    if _ARITY[name] == 2:
        return _FUNCS[name](a, _value(node.args[1], env))
    return _FUNCS[name](a)


def _check(node, text: str, back: list) -> frozenset:
    """Raise ParseError unless `node` is in the grammar; return its variables.

    Recursive, one frame per level, so a tree too deep to evaluate is
    refused here.  Literals are replaced by the float of their own text.
    """
    kind = type(node)
    if kind is ast.BinOp and type(node.op) in _OPS:
        return _check(node.left, text, back) | _check(node.right, text, back)
    if kind is ast.UnaryOp and type(node.op) is ast.USub:
        return _check(node.operand, text, back)
    at = node.col_offset
    if kind is ast.Call and type(node.func) is ast.Name and node.func.id in _ARITY:
        name, args = node.func.id, node.args
        if node.keywords:
            raise ParseError("unexpected keyword argument", back[node.keywords[0].col_offset])
        if args and "," in text[args[-1].end_col_offset:node.end_col_offset]:
            raise ParseError("unexpected ')' after ','", back[node.end_col_offset - 1])
        if len(args) != _ARITY[name]:
            raise ParseError(f"{name} expects {_ARITY[name]} argument(s), got {len(args)}",
                             back[at])
        return frozenset().union(*(_check(arg, text, back) for arg in args))
    if kind is ast.Call:
        _check(node.func, text, back)  # an unknown callee is reported as such
    if kind is ast.Name:
        if node.id in ALLOWED_VARIABLES:
            return frozenset((node.id,))
        if node.id == "pi":
            return frozenset()
        raise ParseError(f"function {node.id!r} needs arguments" if node.id in _ARITY
                         else f"unknown identifier {node.id!r}", back[at])
    if kind is ast.Constant and re.fullmatch(_LITERAL, text[at:node.end_col_offset]):
        node.value = float(text[at:node.end_col_offset])
        return frozenset()
    # a node that opens with an operand (x.y, x // y, x(y), x, y) is blamed on what follows it
    first = next((c for c in ast.iter_child_nodes(node) if getattr(c, "col_offset", -1) == at),
                 None)
    if first is not None:
        rest = text[first.end_col_offset:node.end_col_offset]
        at = node.end_col_offset - len(rest.lstrip(" )"))
    raise ParseError(f"unexpected {text[at:node.end_col_offset]!r}", back[at])


def parse(source: str) -> Expr:
    """Parse a formula string into an immutable expression.

    Any text outside the grammar, however deeply nested, raises ParseError
    with the character offset into `source`.
    """
    bad = re.search(_BAD_CHAR, source)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
    if "**" in source:
        raise ParseError("unexpected '**' (the power operator is ^)", source.index("**"))
    # each whitespace character becomes one space and leading ones are dropped;
    # ^ becomes **, and back[i] is the offset in `source` of text[i]
    spaced = re.sub(_LEADING_ZEROS, lambda m: " " * len(m.group()), re.sub(r"\s", " ", source))
    lead = len(spaced) - len(spaced.lstrip())
    text = spaced[lead:].replace("^", "**")
    back = [i for i, ch in enumerate(spaced) if i >= lead for _ in range(1 + (ch == "^"))]
    back.append(len(source))
    try:
        tree = ast.parse(text, mode="eval").body
        names = _check(tree, text, back)
        return Expr(source, tree, names, ast.dump(tree))
    except SyntaxError as exc:
        raise ParseError(exc.msg, back[min(max((exc.offset or 1) - 1, 0), len(text))]) from None
    except (RecursionError, MemoryError):
        raise ParseError("formula nested too deeply", 0) from None
