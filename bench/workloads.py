"""Workload definitions: the CLI configs each workload runs, made from a seed.

The seed picks a phase shift s applied to the problem's potential
(x -> x - s, or y -> y - s for homogenization).  Every closed-form oracle
is unchanged by the shift except that the Aubry set moves to s.  The
shift is drawn from the multiples of 1/N, where N is the coarsest grid
shared by every grid of the workload; each seed therefore poses the same
discrete problem up to a rotation of the nodes, so accuracy and step
counts compare across seeds while every output file still moves with s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Command:
    """One CLI invocation: `weakkam <name> --config <file holding config>`."""

    name: str
    config: dict


@dataclass(frozen=True)
class Workload:
    name: str
    shift: Fraction
    n: int                       # spatial nodes of the n-by-n problems (0 if none)
    commands: tuple


# Why each workload (BENCHMARK.json repeats these reasons):
#   contact-stability  the only u-dependent contact term, re-evaluated every step;
#                      semigroup and expr dominate
#   weak-kam-eikonal   the W-free pipeline: two critical solves, the occupational
#                      LP and the Peierls barrier, which writes the largest artifact
#   homog-cells        many small critical solves (cell problems) where per-call
#                      overhead dominates, plus the table-driven contact stepper
NAMES = ("contact-stability", "weak-kam-eikonal", "homog-cells")

# grid that every shift is a multiple of, per workload
_SHIFT_GRID = {"contact-stability": 128, "weak-kam-eikonal": 128, "homog-cells": 32}


def _shifted(s: Fraction, var: str = "x") -> str:
    return f"({var}-{s.numerator}/{s.denominator})"


def make(name: str, seed: int) -> Workload:
    """The workload `name` with its phase shift drawn from `seed`."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    grid = _SHIFT_GRID[name]
    s = Fraction(random.Random(seed).randrange(grid), grid)
    if name == "contact-stability":
        xs = _shifted(s)
        cfg = {"command": "example-ex",
               "params": {"phi": f"sin(2*pi*{xs})/(2*pi)", "dphi": f"cos(2*pi*{xs})",
                          "theta": 0.5, "zeta": 1.0},
               "numerics": {"n": 128, "m": 49}, "seed": seed}
        return Workload(name, s, 128, (Command("example-ex", cfg),))
    if name == "weak-kam-eikonal":
        ham = {"builtin": "eikonal", "params": {"V": f"cos(2*pi*{_shifted(s)})"}}
        cmds = tuple(Command(c, {"command": c, "hamiltonian": ham,
                                 "numerics": {"n": 128, "m": 49}, "seed": seed})
                     for c in ("mather", "barrier"))
        return Workload(name, s, 128, cmds)
    cfg = {"command": "homogenize",
           "homog": {"H": f"u + p^2 + 0.5*cos(2*pi*{_shifted(s, 'y')})", "dHu": "1",
                     "Lambda1": 1, "Lambda2": 1},
           "numerics": {"p_count": 9, "c_count": 3,
                        "homog_eps_list": [1 / 8, 1 / 16, 1 / 32], "n_per_period": 32},
           "seed": seed}
    return Workload(name, s, 0, (Command("homogenize", cfg),))
