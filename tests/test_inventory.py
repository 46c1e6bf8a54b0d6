import importlib.util
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _inventory_tool():
    spec = importlib.util.spec_from_file_location("inventory", ROOT / "tools" / "inventory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings():
    sample = ('"""Module docstring,\nover two lines."""\n\n# a comment\n'
              'import os  # a trailing comment\n\n\nclass A:\n    """One line."""\n\n'
              '    def f(self):\n        """Two\n        lines."""\n'
              '        text = """not a docstring"""\n        return text\n')
    # import, class, def, the assignment and the return
    assert _inventory_tool().code_lines(sample) == 5


def test_inventory_prints_every_figure():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "inventory.py")], env=env,
                         capture_output=True, text=True, check=True).stdout
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert list(lines) == ["src/weakkam lines", "src/weakkam code lines", "public parameters",
                           "result dataclasses", "class constructors", "exception classes",
                           "numerics keys", "top-level keys"]
    sources = [p.read_text() for p in (ROOT / "src" / "weakkam").glob("*.py")]
    total = sum(len(text.splitlines()) for text in sources)
    assert lines["src/weakkam lines"].startswith(f"{total} (")
    code = sum(_inventory_tool().code_lines(text) for text in sources)
    assert lines["src/weakkam code lines"].startswith(f"{code} (")
    # each count agrees with the names it lists
    count, names = re.fullmatch(r"(\d+) \((.*)\)", lines["exception classes"]).groups()
    assert int(count) == len(names.split(", "))
    ntypes, nfields, per_type = re.fullmatch(r"(\d+) with (\d+) fields \((.*)\)",
                                             lines["result dataclasses"]).groups()
    fields = [int(item.split()[1]) for item in per_type.split(", ")]
    assert (int(ntypes), int(nfields)) == (len(fields), sum(fields))
    nclass, nparams, per_class = re.fullmatch(r"(\d+) with (\d+) parameters \((.*)\)",
                                              lines["class constructors"]).groups()
    counts = dict(item.split() for item in per_class.split(", "))
    assert (int(nclass), int(nparams)) == (len(counts), sum(map(int, counts.values())))
    assert {"MinPlusStepper", "Stepper"} <= set(counts)
