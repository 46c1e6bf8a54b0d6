"""Configuration ingestion, experiment orchestration, and CSV/report emission.

Invocation:  weakkam <command> --config <path> [--out <dir>] [--quiet]

Commands: evolve, stationary, critical, ceps, mather, barrier, stability,
instability, corollary, homogenize, example-ex.  Configs are JSON; every
section is read by config.read_section from a table of its keys, so an
unknown key or a malformed value is a configuration error at load, and
every artifact file begins with comment lines recording the fully resolved
configuration, so reruns with the same config and seed reproduce
byte-identical outputs.

Exit codes: 0 success, 1 solver failure, 2 configuration error,
3 property-check failure (the math disagreed, e.g. the discount and
long-time critical-value estimators exceeded their agreement tolerance).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import critical as crit
from . import homogenize as homog
from . import mather, stability
from .config import (REQUIRED, choice, count, formula, integer, numbers, positive,
                     read_section, section, text)
from .errors import ConfigError, ConvergenceError
from .expr import ExprError
from .grid import Field, TorusGrid, field_from_expr
from .hamiltonian import HamiltonianSpec, builtin, frozen_values, legendre, spec_from_config
from .semigroup import CFLError, _check_step, evolve, stationary_solve

# every numerics key with its kind and default, by the commands that read it; the homogenize
# table grids (>= 3 p nodes, >= 2 c levels) and cell grids have none (the library's own)
NUMERIC_KEYS = {
    "n": (count(8), 256), "m": (count(), 64), "dt": (positive, 1e-3), "tol": (positive, 1e-6),
    "T": (positive, 10.0), "T_max": (positive, 40.0), "snap_every": (count(0), 0),
    "dt_critical": (positive, crit.DEFAULT_DT), "cross_tol": (positive, crit.DEFAULT_CROSS_TOL),
    "zeta_grid": (numbers, list(stability.DEFAULT_ZETA_GRID)),
    "eps_list": (numbers, [-0.04, -0.02, 0.0, 0.02, 0.04]),
    "delta": (positive, 0.05), "eps": (positive, 0.01), "Delta": (positive, 0.5),
    "n_per_period": (count(), 32), "homog_eps_list": (numbers, [1 / 8, 1 / 16, 1 / 32, 1 / 64]),
    "p_count": (count(3), None), "c_count": (count(2), None), "p_span": (positive, None),
    "cell_n_fast": (count(), None), "cell_m": (count(), None),
}
# top-level keys of every command; each command adds the section of its problem
TOP_KEYS = {
    "command": (text, REQUIRED),    # checked against COMMANDS first: it picks the section
    "numerics": (section, {}), "output_dir": (text, "weakkam-out"), "seed": (integer, 0),
    "phi0": (formula, "0"), "which": (choice("A3", "A4"), "A3"), "decay_T": (positive, 8.0),
    "basin_delta_hi": (positive, None), "direction": (choice("backward", "forward"), "backward"),
}
# the section each command reads its problem from, with its default
PROBLEM_KEYS = {"example-ex": ("params", {}), "homogenize": ("homog", REQUIRED)}
EXAMPLE_PARAMS = {"phi": "sin(2*pi*x)/(2*pi)", "dphi": "cos(2*pi*x)", "theta": 0.5,
                  "zeta": 1.0}
# top-level keys that change a command's outputs, recorded in every header
_HEADER_KEYS = ("phi0", "which", "decay_T", "basin_delta_hi", "direction")


@dataclass
class ExperimentConfig:
    command: str
    numerics: dict
    output_dir: str
    seed: int
    spec: HamiltonianSpec | homog.HomogProblem    # the latter for homogenize
    options: dict       # the checked top-level keys, phi0 as a Field on the run's grid
    raw: dict           # the config as read, example-ex's builtin filled in: for headers

    def header(self) -> dict:
        head = {"command": self.command, "seed": self.seed,
                "numerics": json.dumps(self.numerics, sort_keys=True)}
        for key in ("hamiltonian", "homog"):
            if key in self.raw:
                head[key] = json.dumps(self.raw[key], sort_keys=True)
        for key in _HEADER_KEYS:
            if key in self.raw:
                head[key] = self.raw[key]
        return head


def load_config(path: str) -> ExperimentConfig:
    """Read and check a JSON experiment config, every section through read_section."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    command = raw.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"config key 'command' must be one of {COMMANDS}, got {command!r}")
    if "a" in raw:
        raise ConfigError("config key 'a' is not read: the corollary's a(x) is the "
                          "hamiltonian's dWu, with W = a(x)*u")
    key, default = PROBLEM_KEYS.get(command, ("hamiltonian", REQUIRED))
    top = read_section("config", raw, {**TOP_KEYS, key: (section, default)})
    numerics = read_section("numerics", top["numerics"], NUMERIC_KEYS)
    try:
        if command == "example-ex":
            params = {**EXAMPLE_PARAMS, **top["params"]}
            spec = builtin("example_ex", params)
            raw = dict(raw, hamiltonian={"builtin": "example_ex", "params": params})
            raw.setdefault("phi0", params["phi"])
            top["phi0"] = formula(raw["phi0"])
        elif command == "homogenize":
            spec = homog.problem_from_config(top["homog"])
        else:
            spec = spec_from_config(top["hamiltonian"])
    except ExprError as exc:
        raise ConfigError(f"{key} formula error: {exc}") from exc
    try:
        top["phi0"] = field_from_expr(TorusGrid(numerics["n"]), top["phi0"])
    except ValueError as exc:
        raise ConfigError(f"phi0 formula error: {exc}") from exc
    if isinstance(spec, HamiltonianSpec):   # homogenize derives its steps from vmax
        for key, bound in (("dt", spec.lambda_bound), ("dt_critical", None)):
            try:
                _check_step(numerics[key], spec.vmax, bound)
            except CFLError as exc:
                raise ConfigError(f"numerics key {key!r}: {exc}") from exc
    return ExperimentConfig(command, numerics, top["output_dir"], top["seed"], spec, top, raw)


def _grid_lt(config: ExperimentConfig):
    g, m = TorusGrid(config.numerics["n"]), config.numerics["m"]
    return g, legendre(config.spec, g, m, m)


def _u_minus(config: ExperimentConfig, lt) -> Field:
    """u_- from phi0 at the run's dt, tol and T_max; ConvergenceError (exit 1)
    unless the solve reached tol, as nothing built on u_- holds otherwise."""
    num = config.numerics
    rec = stationary_solve(config.options["phi0"], config.spec, lt,
                           dt=num["dt"], tol=num["tol"], T_max=num["T_max"])
    if not rec.converged:
        raise ConvergenceError(
            f"stationary solve for u_- stopped at residual {rec.residual:.3e} after "
            f"{rec.steps} steps and {rec.newton} Newton iterations, above tol "
            f"{num['tol']:.3g}", rec.residual)
    return Field(lt.grid, rec.values)


def _critical_of_frozen(config: ExperimentConfig, g, lt):
    """Critical value of G + W(., u_-) and the table with W(., u_-) folded in;
    for u-independent W no stationary solve is needed."""
    num = config.numerics
    u = _u_minus(config, lt).values if "u" in config.spec.W.variables() else np.zeros(g.n)
    ltp = lt.with_potential(frozen_values(config.spec.W, g.nodes, u))
    return crit.critical_value(ltp, dt=num["dt_critical"], cross_tol=num["cross_tol"]), ltp


def run_evolve(config):
    num = config.numerics
    g, lt = _grid_lt(config)
    snap = num["snap_every"] or max(1, math.ceil(num["T"] / num["dt"]) // 10)
    rows = []

    def snapshot(k, u):
        rows.extend((float(k * num["dt"]), float(x), float(v)) for x, v in zip(g.nodes, u))

    # snapshots every snap steps and at the last step; the observer returns None
    rec = evolve(config.options["phi0"], config.spec, lt, T=num["T"], dt=num["dt"],
                 direction=config.options["direction"],
                 observe=lambda k, u: snapshot(k, u) if k % snap == 0 else None)
    if rec.steps % snap:
        snapshot(rec.steps, rec.values)
    last = {"steps": rec.steps, "final_residual": rec.residual}
    return (f"steps={rec.steps} final_residual={rec.residual:.3e}", True,
            {"snapshots.csv": ("t,x,value", rows, last)})


def run_stationary(config):
    num = config.numerics
    g, lt = _grid_lt(config)
    # a residual stall is reported, not raised: converged=False with exit 0
    res = stationary_solve(config.options["phi0"], config.spec, lt,
                           dt=num["dt"], tol=num["tol"], T_max=num["T_max"])
    return (f"converged={res.converged} residual={res.residual:.3e} steps={res.steps} "
            f"newton={res.newton}",
            True, {"stationary.csv": ("x,value", zip(g.nodes, res.values))})


def run_critical(config):
    result, _ = _critical_of_frozen(config, *_grid_lt(config))
    diag = result.diagnostics
    rows = list(zip(diag["lambda"], [-v for v in diag["minus_mean_lambda_u"]]))
    summary = f"c={result.c:.2f}±{max(diag['gap'], 0.01):.2f}"
    return summary, result.method == "agree", {"discount.csv": ("lambda,mean_lambda_u", rows)}


def run_ceps(config):
    num = config.numerics
    _, lt = _grid_lt(config)
    um = _u_minus(config, lt)
    curve = crit.c_eps_curve(config.spec, um, num["eps_list"], dt=num["dt_critical"],
                             lt=lt, cross_tol=num["cross_tol"])
    rows = list(zip(map(float, curve.eps_samples), map(float, curve.c_values)))
    slack = curve.lipschitz_slack(config.spec.lambda_bound)
    ok = slack <= 4e-2 and curve.agree
    return f"D-={curve.D_minus:.3f} D+={curve.D_plus:.3f}", ok, {"ceps.csv": ("eps,c", rows)}


def run_mather(config):
    num = config.numerics
    g, lt = _grid_lt(config)
    result, ltp = _critical_of_frozen(config, g, lt)
    measure = mather.solve_occupational(ltp)
    i, j = np.nonzero(measure.weights >= 1e-12)
    rows = list(zip(g.nodes[i].tolist(), ltp.vgrid[j].tolist(),
                    measure.weights[i, j].tolist()))
    mismatch = abs(measure.value + result.c)
    ok = mismatch <= max(2 * num["cross_tol"], 1e-2) and result.method == "agree"
    return (f"lp_value={measure.value:.4f} c={result.c:.4f} mismatch={mismatch:.3e}", ok,
            {"measure.csv": ("x,v,weight", rows)})


def run_barrier(config):
    num = config.numerics
    g, lt = _grid_lt(config)
    result, ltp = _critical_of_frozen(config, g, lt)
    bt = mather.peierls_barrier(ltp, result.c)
    nodes = g.nodes.tolist()     # each node's float is shared by its n rows
    rows = [(x, y, h) for x, hx in zip(nodes, bt.h.tolist()) for y, h in zip(nodes, hx)]
    aubry = [(int(i), float(g.nodes[i])) for i in bt.aubry_indices]
    return (f"aubry_nodes={bt.aubry_indices.size} c_used={bt.c_used:.4f}",
            result.method == "agree",
            {"barrier.csv": ("x,y,h", rows), "aubry.csv": ("index,x", aubry)})


def run_stability(config):
    num = config.numerics
    _, lt = _grid_lt(config)
    um = _u_minus(config, lt)
    report = stability.check_condition(
        config.spec, um, which=config.options["which"], zeta_grid=num["zeta_grid"],
        dt=num["dt_critical"], lt=lt, cross_tol=num["cross_tol"])
    decay = stability.decay_exponent(config.spec, um, delta=num["delta"],
                                     T=float(config.options["decay_T"]), dt=num["dt"], lt=lt)
    report.decay_slope = decay.slope
    if "basin_delta_hi" in config.options:
        report.Delta_estimate = stability.basin_estimate(
            config.spec, um, T=num["T_max"], dt=num["dt"],
            delta_hi=float(config.options["basin_delta_hi"]), lt=lt)
    rows = list(zip(map(float, decay.times), map(float, decay.devs)))
    slope_txt = "n/a" if decay.slope is None else f"{decay.slope:.3f}"
    return (f"verdict={report.verdict} A_estimate={report.A_estimate:.3f} "
            f"decay_slope={slope_txt}", True,
            {"decay.csv": ("t,sup_dev", rows), "report.json": report})


def run_instability(config):
    num = config.numerics
    _, lt = _grid_lt(config)
    um = _u_minus(config, lt)
    probe = stability.instability_probe(
        config.spec, um, eps=num["eps"], Delta_target=num["Delta"],
        T=num["T"], dt=num["dt"], lt=lt)
    files = {"probe.csv": ("t,sup_dev", list(zip(map(float, probe.times),
                                                 map(float, probe.devs))))}
    if probe.t_escape is not None:
        return f"escaped t≈{probe.t_escape:.1f}", True, files
    return f"not escaped sup_dev={probe.devs.max():.3e}", True, files


def run_corollary(config):
    num = config.numerics
    _, lt = _grid_lt(config)
    report = stability.check_corollary_a(config.spec, dt=num["dt_critical"], lt=lt,
                                         cross_tol=num["cross_tol"])
    return (f"verdict={report.verdict} a0={report.A_estimate:.3f}", True,
            {"report.json": report})


def run_homogenize(config):
    num = config.numerics
    table_opts = {key: num[key] for key in ("p_count", "c_count", "p_span") if key in num}
    cell_opts = {key.removeprefix("cell_"): val for key, val in num.items()
                 if key.startswith("cell_")}
    cell_opts["cross_tol"] = num["cross_tol"]
    result = homog.rate_experiment(config.spec, eps_list=num["homog_eps_list"],
                                   n_per_period=num["n_per_period"],
                                   cell_opts=cell_opts, **table_opts)
    rows = [(float(e), float(err), float(err / math.sqrt(e)))
            for e, err in sorted(result.errors.items())]
    et = result.table
    trows = [(float(x), float(p), float(c), float(et.values[i, j, kk]))
             for i, x in enumerate(et.x_nodes) for j, p in enumerate(et.p_nodes)
             for kk, c in enumerate(et.c_nodes)]
    slope_txt = "noise" if result.slope is None else f"{result.slope:.3f}"
    return (f"slope={slope_txt} C_fit={result.C_fit:.3f}", True,
            {"rate.csv": ("eps,error,sqrt_eps_ratio", rows),
             "effective_table.csv": ("x,p,c,Hbar", trows)})


RUNNERS = {"evolve": run_evolve, "stationary": run_stationary, "critical": run_critical,
           "ceps": run_ceps, "mather": run_mather, "barrier": run_barrier,
           "stability": run_stability, "instability": run_instability,
           "corollary": run_corollary, "homogenize": run_homogenize, "example-ex": run_stability}
COMMANDS = tuple(RUNNERS)


def run(config: ExperimentConfig, quiet: bool = False) -> int:
    """Execute one experiment; returns the process exit code."""
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    lock_path = os.path.join(out, ".weakkam.lock")
    try:
        lock_fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        try:
            with open(lock_path) as fh:
                owner = fh.read().strip() or "unknown"
        except OSError:     # the owner removed it meanwhile
            owner = "unknown"
        raise ConfigError(f"output dir {out!r} is locked by another run (pid {owner}; "
                          f"remove {lock_path} if stale)")
    os.write(lock_fd, str(os.getpid()).encode())
    try:
        summary, prop_ok, files = RUNNERS[config.command](config)
        if not prop_ok:
            files["diagnostic.txt"] = f"property check failed: {summary}"
        _write(out, config, files)
        if not quiet:
            print(f"weakkam {config.command}: {summary}")
        return 0 if prop_ok else 3
    except ConfigError as exc:
        _write(out, config, {"diagnostic.txt": f"ConfigError: {exc}"})
        raise
    except (ValueError, RuntimeError) as exc:  # every solver error subclasses one of these
        _write(out, config, {"diagnostic.txt": f"{type(exc).__name__}: {exc}"})
        if not quiet:
            print(f"weakkam {config.command}: failed: {exc}", file=sys.stderr)
        return 1
    finally:
        os.close(lock_fd)
        os.unlink(lock_path)


def _cell(value) -> str:
    return format(float(value), ".17g") if isinstance(value, float) else str(value)


def _write(out, config, files):
    """Write the files of one run into out: `files` maps each name, in write order,
    to (columns, rows) or (columns, rows, summary) for a CSV, the StabilityReport for
    report.json, or the message for diagnostic.txt.  Every text is rendered before the
    first file is opened, so a run that fails to render one leaves only its diagnostic.
    CSVs begin with sorted "# key=value" lines of config.header() and end with a
    "# summary" line if given; floats get 17 significant digits, so doubles round-trip."""
    head = config.header()
    texts = {}
    for name, content in files.items():
        if name == "report.json":   # allow_nan=False: a nonfinite value raises, not bad JSON
            texts[name] = json.dumps({"config": head, "report": content.to_dict()},
                                     indent=2, sort_keys=True, allow_nan=False)
        elif name == "diagnostic.txt":
            texts[name] = f"{content}\n{json.dumps(head, indent=2, sort_keys=True)}\n"
        else:
            columns, rows, *last = content
            lines = [f"# {key}={head[key]}" for key in sorted(head)] + [columns]
            lines += [",".join(map(_cell, row)) for row in rows]
            lines += ["# summary " + ",".join(f"{k}={_cell(v)}" for k, v in s.items())
                      for s in last]
            texts[name] = "\n".join(lines) + "\n"
    for name, body in texts.items():
        with open(os.path.join(out, name), "w") as fh:
            fh.write(body)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="weakkam",
        description="Numerical experiments for contact Hamilton-Jacobi equations "
                    "on the 1-D torus")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if config.command != args.command:
            raise ConfigError(
                f"config command {config.command!r} does not match CLI command "
                f"{args.command!r}")
        if args.out is not None:
            config.output_dir = args.out
        return run(config, quiet=args.quiet)
    except ConfigError as exc:
        print(f"weakkam: config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
