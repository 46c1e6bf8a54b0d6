"""Largest numeric difference of each artifact that differs between two output trees.

Run from the repository root on two directories written by tools/artifacts.py:

    python3 tools/artdiff.py BASE HEAD

For every file under BASE or HEAD whose bytes differ, it prints one line:
`<path>: k of N numbers differ, max abs A, max rel R`, where the numbers
are read in order from each file's text and R is |a - b| / max(|a|, |b|).
A file whose text differs outside its numbers, or whose numbers differ in
count, is reported as such, and a file present in one tree only as missing
from the other.  When no file differs it prints one line saying so.  It
reports only: its exit status is 0 whatever it finds (2 on a usage error).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def numbers(text: str) -> tuple[str, list[float]]:
    """The text with each number replaced by '#', and the numbers in order."""
    found = [float(m.group()) for m in NUMBER.finditer(text)]
    return NUMBER.sub("#", text), found


def compare(base: str, head: str) -> str:
    """One line on how two differing texts differ."""
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
    """One line per file that differs between the trees, in path order."""
    paths = sorted({p.relative_to(root) for root in (base, head)
                    for p in root.rglob("*") if p.is_file()})
    lines = []
    for rel in paths:
        b, h = base / rel, head / rel
        if not b.is_file() or not h.is_file():
            lines.append(f"{rel}: only in {'HEAD' if h.is_file() else 'BASE'}")
        elif b.read_bytes() != h.read_bytes():
            lines.append(f"{rel}: {compare(b.read_text(), h.read_text())}")
    return lines


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
