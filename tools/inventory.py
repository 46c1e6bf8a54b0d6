"""Size and surface figures of the weakkam package, printed one per line.

Run from the repository root:

    PYTHONPATH=src python3 tools/inventory.py

It prints the line count of src/weakkam and its code lines (lines that
are not blank, not comment-only and not inside a docstring), each per
module, the public parameters over the functions named in the modules'
__all__ lists, the result dataclasses (the mutable dataclasses named in an
__all__) with their fields, the constructor parameters of the other classes
named in an __all__ (neither dataclasses nor exceptions), the exception
classes, and the config keys the command line accepts.  It reads the
package only by import, inspection and its source text; it changes nothing
and checks no bound.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import weakkam
from weakkam import cli


def code_lines(text: str) -> int:
    """Lines of a module's source that are not blank, not comment-only and not
    inside the docstring of the module, a class or a function."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in docstrings)


def inventory() -> dict:
    """The figures, keyed by what they count."""
    src = Path(weakkam.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(src.glob("*.py"))}
    lines = {name: len(text.splitlines()) for name, text in sources.items()}
    code = {name: code_lines(text) for name, text in sources.items()}
    modules = [importlib.import_module(f"weakkam.{info.name}")
               for info in pkgutil.iter_modules(weakkam.__path__)]
    exported = {}
    for mod in [weakkam, *modules]:
        for name in getattr(mod, "__all__", ()):
            exported.setdefault(id(getattr(mod, name)), getattr(mod, name))
    functions = [obj for obj in exported.values() if inspect.isfunction(obj)]
    results = {cls.__name__: len(dataclasses.fields(cls)) for cls in exported.values()
               if dataclasses.is_dataclass(cls) and isinstance(cls, type)
               and not cls.__dataclass_params__.frozen}
    constructors = {cls.__name__: len(inspect.signature(cls).parameters)
                    for cls in exported.values()
                    if isinstance(cls, type) and not dataclasses.is_dataclass(cls)
                    and not issubclass(cls, BaseException)}
    errors = sorted({obj.__name__ for mod in modules for obj in vars(mod).values()
                     if isinstance(obj, type) and issubclass(obj, BaseException)
                     and obj.__module__.startswith("weakkam")})
    top = set(cli.TOP_KEYS) | {"hamiltonian"} | {key for key, _ in cli.PROBLEM_KEYS.values()}
    return {
        "lines": (sum(lines.values()), lines),
        "code_lines": (sum(code.values()), code),
        "public_parameters": (sum(len(inspect.signature(f).parameters) for f in functions),
                              len(functions)),
        "result_dataclasses": (len(results), sum(results.values()), results),
        "constructors": (len(constructors), sum(constructors.values()), constructors),
        "exception_classes": (len(errors), errors),
        "numerics_keys": len(cli.NUMERIC_KEYS),
        "top_level_keys": len(top),
    }


def main() -> int:
    inv = inventory()
    for key, label in (("lines", "lines"), ("code_lines", "code lines")):
        total, per_file = inv[key]
        print(f"src/weakkam {label}: {total} ("
              + ", ".join(f"{name} {count}" for name, count in per_file.items()) + ")")
    params, nfun = inv["public_parameters"]
    print(f"public parameters: {params} over {nfun} __all__ functions")
    ntypes, nfields, results = inv["result_dataclasses"]
    print(f"result dataclasses: {ntypes} with {nfields} fields ("
          + ", ".join(f"{name} {count}" for name, count in sorted(results.items())) + ")")
    nclass, nparams, constructors = inv["constructors"]
    print(f"class constructors: {nclass} with {nparams} parameters ("
          + ", ".join(f"{name} {count}" for name, count in sorted(constructors.items())) + ")")
    nerr, errors = inv["exception_classes"]
    print(f"exception classes: {nerr} ({', '.join(errors)})")
    print(f"numerics keys: {inv['numerics_keys']}")
    print(f"top-level keys: {inv['top_level_keys']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
