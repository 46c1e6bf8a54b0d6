"""The one reader of JSON config sections, and the kinds of their values.

read_section reads every section of an experiment config (the top level,
`numerics`, `hamiltonian`, a builtin's `params`, `homog`) from a table that
declares each allowed key once, with its kind and default.  A kind returns
its value unchanged, or parsed for a formula, or raises; range rules that a
library function enforces stay with that function.
"""

from __future__ import annotations

import math

from .errors import ConfigError
from .expr import Expr, ExprError, parse

REQUIRED = object()     # the default of a key that must be present


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _kind(what: str, test):
    def check(v):
        if not test(v):
            raise ValueError(f"must be {what}")
        return v
    return check


def count(minimum: int = 1):
    return _kind(f"an integer >= {minimum}", lambda v: _is_int(v) and v >= minimum)


def choice(*options):
    return _kind(f"one of {options}", lambda v: v in options)


integer = _kind("an integer", _is_int)
number = _kind("a finite number", _is_number)
positive = _kind("a finite positive number", lambda v: _is_number(v) and v > 0)
numbers = _kind("a list of finite numbers",
                lambda v: isinstance(v, list) and all(map(_is_number, v)))
text = _kind("a string", lambda v: isinstance(v, str))
section = _kind("an object", lambda v: isinstance(v, dict))


def formula(v) -> Expr:
    """A formula string or a finite number, parsed."""
    if not (isinstance(v, str) or _is_number(v)):
        raise ValueError("must be a formula string or a finite number")
    return parse(v if isinstance(v, str) else repr(float(v)))


def constant(v) -> Expr:
    """A finite number, parsed as a formula."""
    return formula(number(v))


def read_section(name: str, raw, keys: dict) -> dict:
    """The checked values of the config section `name`.

    keys maps each allowed key to (kind, default).  A key absent from raw
    takes its default, checked by its kind, or is left out when the default
    is None; a key whose default is REQUIRED must be present.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be an object, got {raw!r}")
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ConfigError(f"unknown {name} keys: {', '.join(unknown)}")
    out = {}
    for key, (kind, default) in keys.items():
        if key not in raw and default is REQUIRED:
            raise ConfigError(f"{name} requires parameter {key!r}")
        if key not in raw and default is None:
            continue
        value = raw.get(key, default)
        try:
            out[key] = kind(value)
        except ExprError as exc:
            raise ConfigError(f"{name} formula error in {key!r}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"{name} key {key!r} {exc}, got {value!r}") from exc
    return out
