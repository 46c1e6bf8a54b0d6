"""Size and surface figures of the weakkam package, printed one per line.

Run from the repository root:

    PYTHONPATH=src python3 tools/inventory.py

It prints the line count of src/weakkam, the public parameters over the
functions named in the modules' __all__ lists, the result dataclasses (the
mutable dataclasses named in an __all__) with their fields, the exception
classes, and the config keys the command line accepts.  It reads the
package only by import and inspection; it changes nothing and checks no
bound.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import weakkam
from weakkam import cli


def inventory() -> dict:
    """The figures, keyed by what they count."""
    src = Path(weakkam.__file__).parent
    lines = {p.name: len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))}
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
    errors = sorted({obj.__name__ for mod in modules for obj in vars(mod).values()
                     if isinstance(obj, type) and issubclass(obj, BaseException)
                     and obj.__module__.startswith("weakkam")})
    top = set(cli.TOP_KEYS) | {"hamiltonian"} | {key for key, _ in cli.PROBLEM_KEYS.values()}
    return {
        "lines": (sum(lines.values()), lines),
        "public_parameters": (sum(len(inspect.signature(f).parameters) for f in functions),
                              len(functions)),
        "result_dataclasses": (len(results), sum(results.values()), results),
        "exception_classes": (len(errors), errors),
        "numerics_keys": len(cli.NUMERIC_KEYS),
        "top_level_keys": len(top),
    }


def main() -> int:
    inv = inventory()
    total, per_file = inv["lines"]
    print(f"src/weakkam lines: {total} ("
          + ", ".join(f"{name} {count}" for name, count in per_file.items()) + ")")
    params, nfun = inv["public_parameters"]
    print(f"public parameters: {params} over {nfun} __all__ functions")
    ntypes, nfields, results = inv["result_dataclasses"]
    print(f"result dataclasses: {ntypes} with {nfields} fields ("
          + ", ".join(f"{name} {count}" for name, count in sorted(results.items())) + ")")
    nerr, errors = inv["exception_classes"]
    print(f"exception classes: {nerr} ({', '.join(errors)})")
    print(f"numerics keys: {inv['numerics_keys']}")
    print(f"top-level keys: {inv['top_level_keys']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
