import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_inventory_prints_every_figure():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "inventory.py")], env=env,
                         capture_output=True, text=True, check=True).stdout
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert list(lines) == ["src/weakkam lines", "public parameters", "result dataclasses",
                           "exception classes", "numerics keys", "top-level keys"]
    total = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "weakkam").glob("*.py"))
    assert lines["src/weakkam lines"].startswith(f"{total} (")
    # each count agrees with the names it lists
    count, names = re.fullmatch(r"(\d+) \((.*)\)", lines["exception classes"]).groups()
    assert int(count) == len(names.split(", "))
    ntypes, nfields, per_type = re.fullmatch(r"(\d+) with (\d+) fields \((.*)\)",
                                             lines["result dataclasses"]).groups()
    fields = [int(item.split()[1]) for item in per_type.split(", ")]
    assert (int(ntypes), int(nfields)) == (len(fields), sum(fields))
