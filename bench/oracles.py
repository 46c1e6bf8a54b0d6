"""Closed-form oracles and per-command output gates.

Each `check_*` function reads the artifacts one CLI command wrote and
returns (figures, failures): `figures` maps each oracle error (and the
homogenization rate slope) to its measured value, `failures` lists every
gate the output missed.  A command with any
failure counts as failed; no gate is ever skipped.

Oracles (s is the workload's phase shift):
  c_err       |c - c_exact|: c(zeta=1/4) = -1/8 for the worked example,
              c = 1 for the eikonal with V = cos(2 pi (x - s)).
  lp_gap      |LP value + c| as reported by `mather`.
  a_err       |A_estimate - theta| with theta = 1/2.
  hbar_err    largest |Hbar - closed form| over the effective table, where
              Hbar(p, c) = c + E(p) for H = u + p^2 + cos(2 pi (y - s))/2:
              E = 1/2 for |p| <= 2/pi, else int_0^1 sqrt(E - cos(2 pi y)/2) dy = |p|.
  aubry_width largest periodic distance from s to a node of the Aubry set,
              whose exact projection is {s}.
"""

from __future__ import annotations

import json
import math
import os
import re

# acceptance budgets of the closed-form errors
BUDGETS = {"c_err": 2e-2, "lp_gap": 1e-2, "a_err": 1e-2, "hbar_err": 2e-2}
RATE_SLOPE_MIN = 0.4
THETA = 0.5
C_QUARTER = -0.125          # c(zeta = 1/4) of the worked example
HOMOG_AMPLITUDE = 0.5


def periodic_distance(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def elliptic_e(m: float) -> float:
    """Complete elliptic integral of the second kind E(m), m = k^2 in [0, 1], by AGM."""
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"parameter m must lie in [0, 1], got {m}")
    if m == 1.0:
        return 1.0
    a, b = 1.0, math.sqrt(1.0 - m)
    weight, total = 0.5, 0.5 * m
    for _ in range(64):                # quadratic convergence: a handful suffice
        if abs(a - b) <= 4e-16 * a:
            break
        c = (a - b) / 2
        a, b = (a + b) / 2, math.sqrt(a * b)
        weight *= 2
        total += weight * c * c
    return math.pi / (2 * a) * (1.0 - total)


def cos_action(E: float, amp: float = HOMOG_AMPLITUDE) -> float:
    """int_0^1 sqrt(E - amp*cos(2 pi y)) dy for E >= amp > 0."""
    if E < amp:
        raise ValueError("energy below the potential maximum")
    return 2.0 / math.pi * math.sqrt(E + amp) * elliptic_e(2 * amp / (E + amp))


def effective_energy(p: float, amp: float = HOMOG_AMPLITUDE) -> float:
    """Critical value of q -> (p + q)^2 + amp*cos(2 pi y) on the unit torus."""
    p = abs(p)
    if p <= cos_action(amp, amp):
        return amp
    lo, hi = amp, p * p + amp          # cos_action(hi) >= sqrt(hi - amp) = p
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        if cos_action(mid, amp) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def hbar_exact(p: float, c: float) -> float:
    return c + effective_energy(p)


def fit_slope(xs, ys) -> float:
    """Least-squares slope of ys against xs."""
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def read_csv(path: str) -> list:
    """Rows of a CLI artifact as dicts of floats, skipping '#' header lines."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    cols = lines[0].split(",")
    return [dict(zip(cols, map(float, ln.split(",")))) for ln in lines[1:]]


def _budget_failures(errors: dict) -> list:
    return [f"{k}={v:.3e} exceeds {BUDGETS[k]:g}" for k, v in errors.items()
            if k in BUDGETS and not v <= BUDGETS[k]]


def budget_share(errors: dict) -> float:
    """Largest oracle error as a share of its acceptance budget."""
    return max(v / BUDGETS[k] for k, v in errors.items() if k in BUDGETS)


def check_example_ex(out: str) -> tuple:
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)["report"]
    failures = []
    errors = {"a_err": abs(report["A_estimate"] - THETA)}
    c_quarter = report["c_values"].get("0.25")
    if c_quarter is None:
        failures.append("report has no critical value at zeta=0.25")
    else:
        errors["c_err"] = abs(c_quarter - C_QUARTER)
    if report["verdict"] != "holds":
        failures.append(f"verdict {report['verdict']!r}, expected 'holds'")
    if not read_csv(os.path.join(out, "decay.csv")):
        failures.append("decay.csv has no rows")
    return errors, failures + _budget_failures(errors)


_MATHER_LINE = re.compile(r"lp_value=(\S+) c=(\S+) mismatch=(\S+)")


def check_mather(out: str, stdout: str) -> tuple:
    found = _MATHER_LINE.search(stdout)
    if found is None:
        return {}, ["mather summary line missing from stdout"]
    _, c, mismatch = map(float, found.groups())
    errors = {"c_err": abs(c - 1.0), "lp_gap": mismatch}
    failures = []
    mass = sum(r["weight"] for r in read_csv(os.path.join(out, "measure.csv")))
    if abs(mass - 1.0) > 1e-6:
        failures.append(f"measure mass {mass:.9f} is not 1")
    return errors, failures + _budget_failures(errors)


def mather_support(out: str, n: int) -> set:
    """Grid indices carrying Mather-measure weight."""
    return {round(r["x"] * n) % n for r in read_csv(os.path.join(out, "measure.csv"))}


def check_barrier(out: str, shift: float, n: int, support: set) -> tuple:
    aubry = [(int(r["index"]), r["x"]) for r in read_csv(os.path.join(out, "aubry.csv"))]
    with open(os.path.join(out, "barrier.csv")) as fh:
        rows = sum(1 for ln in fh if ln[:1] not in ("#", "x"))
    failures = []
    if rows != n * n:
        failures.append(f"barrier.csv has {rows} rows, expected {n * n}")
    if not aubry:
        return {}, failures + ["empty Aubry set"]
    errors = {"aubry_width": max(periodic_distance(shift, x) for _, x in aubry)}
    nodes = {i for i, _ in aubry}
    if round(shift * n) % n not in nodes:
        failures.append(f"Aubry set misses the node at s={shift:.6g}")
    far = sorted(i for i in support
                 if min(min((i - j) % n, (j - i) % n) for j in nodes) > 1)
    if far:
        failures.append(f"Mather support nodes {far} lie more than one node from the Aubry set")
    return errors, failures


def check_homogenize(out: str) -> tuple:
    table = read_csv(os.path.join(out, "effective_table.csv"))
    rate = sorted(read_csv(os.path.join(out, "rate.csv")), key=lambda r: r["eps"])
    errors = {"hbar_err": max(abs(r["Hbar"] - hbar_exact(r["p"], r["c"])) for r in table)}
    failures = []
    errs = [r["error"] for r in rate]
    if any(a >= b for a, b in zip(errs, errs[1:])):
        failures.append(f"errors {errs} are not monotone along the eps ladder")
    if min(errs) <= 0:
        failures.append("nonpositive homogenization error")
    else:
        slope = fit_slope([math.log(r["eps"]) for r in rate], [math.log(e) for e in errs])
        errors["rate_slope"] = slope
        if slope < RATE_SLOPE_MIN:
            failures.append(f"rate slope {slope:.3f} below {RATE_SLOPE_MIN}")
    return errors, failures + _budget_failures(errors)


def artifact_mismatches(dir_a: str, dir_b: str) -> list:
    """CSV artifacts that differ between two runs of the same config."""
    names = sorted(f for f in set(os.listdir(dir_a)) | set(os.listdir(dir_b))
                   if f.endswith(".csv"))
    bad = []
    for name in names:
        pa, pb = os.path.join(dir_a, name), os.path.join(dir_b, name)
        if not (os.path.isfile(pa) and os.path.isfile(pb)):
            bad.append(name)
            continue
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            if fa.read() != fb.read():
                bad.append(name)
    return bad
