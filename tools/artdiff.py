"""Largest numeric difference of each artifact that differs between two output trees.

Run from the repository root on two directories written by tools/artifacts.py:

    python3 tools/artdiff.py BASE HEAD

Each artifact is read as a header, the resolved configuration it records
(its `#` comment lines, or the `config` member of a JSON report), and its
data, the rest.  For every file under BASE or HEAD whose data differ, it
prints one line: `<path>: k of N numbers differ, max abs A, max rel R`,
where the numbers are read in order from the data's text and R is
|a - b| / max(|a|, |b|).  Data whose row counts differ are reported as
`rows B -> H`, other data whose text differs outside its numbers as such,
and `; header differs` is added when the header moved too.  A file present
in one tree only is reported as missing from the other.  The files whose
data are identical and whose header alone differs (a changed default of a
key no command of theirs reads) follow, one `<path>: header only` line
each, so they do not hide a data move.  When no file differs it prints one
line saying so.  It reports only: its exit status is 0 whatever it finds
(2 on a usage error).
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def numbers(text: str) -> tuple[str, list[float]]:
    """The text with each number replaced by '#', and the numbers in order."""
    found = [float(m.group()) for m in NUMBER.finditer(text)]
    return NUMBER.sub("#", text), found


def split(text: str) -> tuple[str, str]:
    """(header, data) of an artifact's text: a JSON report's `config` member and the
    rest, re-serialized; otherwise the `#` comment lines and the other lines."""
    try:
        obj = json.loads(text)
    except ValueError:
        obj = None
    if isinstance(obj, dict) and "config" in obj:
        rest = {key: value for key, value in obj.items() if key != "config"}
        return json.dumps(obj["config"], sort_keys=True), json.dumps(rest, indent=2, sort_keys=True)
    lines = text.splitlines(keepends=True)
    return ("".join(line for line in lines if line.startswith("#")),
            "".join(line for line in lines if not line.startswith("#")))


def compare(base: str, head: str) -> str:
    """One line on how two differing data texts differ."""
    rows_b, rows_h = len(base.splitlines()), len(head.splitlines())
    if rows_b != rows_h:
        return f"rows {rows_b} -> {rows_h}"
    skel_b, nums_b = numbers(base)
    skel_h, nums_h = numbers(head)
    if skel_b != skel_h or len(nums_b) != len(nums_h):
        return "differs outside its numbers"
    moved = [(a, b) for a, b in zip(nums_b, nums_h) if a != b and not (a != a and b != b)]
    if not moved:
        return "differs only in how its numbers are written"
    diff = [abs(a - b) for a, b in moved]
    rel = [d / max(abs(a), abs(b)) for d, (a, b) in zip(diff, moved)]
    return (f"{len(moved)} of {len(nums_b)} numbers differ, "
            f"max abs {max(diff):.3g}, max rel {max(rel):.3g}")


def report(base: Path, head: Path) -> list[str]:
    """One line per file that differs between the trees, in path order, the files
    whose header alone differs last."""
    paths = sorted({p.relative_to(root) for root in (base, head)
                    for p in root.rglob("*") if p.is_file()})
    lines, header_only = [], []
    for rel in paths:
        b, h = base / rel, head / rel
        if not b.is_file() or not h.is_file():
            lines.append(f"{rel}: only in {'HEAD' if h.is_file() else 'BASE'}")
        elif b.read_bytes() != h.read_bytes():
            (head_b, data_b), (head_h, data_h) = split(b.read_text()), split(h.read_text())
            if data_b == data_h:
                header_only.append(f"{rel}: header only")
            else:
                moved = "; header differs" if head_b != head_h else ""
                lines.append(f"{rel}: {compare(data_b, data_h)}{moved}")
    return lines + header_only


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(Path(a).is_dir() for a in argv):
        print("usage: tools/artdiff.py BASE HEAD (two artifact directories)", file=sys.stderr)
        return 2
    lines = report(Path(argv[0]), Path(argv[1]))
    print("\n".join(lines) if lines else "No artifact differs.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
