"""Configuration ingestion, experiment orchestration, and CSV/report emission.

Invocation:  weakkam <command> --config <path> [--out <dir>] [--quiet]

Commands: evolve, stationary, critical, ceps, mather, barrier, stability,
instability, corollary, homogenize, example-ex.  Configs are JSON; numeric
defaults are filled at load time and every artifact file begins with
comment lines recording the fully resolved configuration, so reruns with
the same config and seed reproduce byte-identical outputs.

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
from dataclasses import dataclass, field

import numpy as np

from . import critical as crit
from . import homogenize as homog
from . import mather, stability
from .errors import ConfigError, ConvergenceError
from .expr import ExprError, parse
from .grid import Field, TorusGrid, field_from_expr, fmt17, write_csv
from .hamiltonian import HamiltonianSpec, builtin, legendre, spec_from_config
from .mather import LPError
from .semigroup import CFLError, PicardError, evolve, stationary_solve

COMMANDS = ("evolve", "stationary", "critical", "ceps", "mather", "barrier",
            "stability", "instability", "corollary", "homogenize", "example-ex")

NUMERIC_DEFAULTS = {
    "n": 256,
    "m": 64,
    "dt": 1e-3,
    "tol": 1e-6,
    "vmax": 4.0,
    "pmax": 4.0,
    "T": 10.0,
    "T_max": 40.0,
    "snap_every": 0,
    "dt_critical": 0.02,
    "tol_critical": 1e-4,
    "lambda_schedule": [4e-2, 2e-2, 1e-2],
    "T_long": 40.0,
    "cross_tol": 2e-2,
    "zeta_grid": [0.25, 0.5, 1.0, 2.0, 4.0],
    "margin": 1e-2,
    "eps_list": [-0.04, -0.02, 0.0, 0.02, 0.04],
    "delta": 0.05,
    "eps": 0.01,
    "Delta": 0.5,
    "n_per_period": 32,
    "homog_eps_list": [1 / 8, 1 / 16, 1 / 32, 1 / 64],
    "aubry_tol": 1e-2,
}

_POSITIVE_KEYS = ("n", "m", "dt", "tol", "vmax", "pmax", "T", "T_max",
                  "dt_critical", "tol_critical", "T_long", "cross_tol",
                  "margin", "delta", "eps", "Delta", "n_per_period", "aubry_tol")


@dataclass
class ExperimentConfig:
    command: str
    numerics: dict
    output_dir: str
    seed: int
    spec: HamiltonianSpec | None = None
    raw: dict = field(default_factory=dict)

    def header(self) -> dict:
        head = {"command": self.command, "seed": self.seed,
                "numerics": json.dumps(self.numerics, sort_keys=True)}
        if "hamiltonian" in self.raw:
            head["hamiltonian"] = json.dumps(self.raw["hamiltonian"], sort_keys=True)
        if "homog" in self.raw:
            head["homog"] = json.dumps(self.raw["homog"], sort_keys=True)
        for key in ("phi0", "which", "a"):
            if key in self.raw:
                head[key] = self.raw[key]
        return head


def load_config(path: str) -> ExperimentConfig:
    """Read, validate and default-fill a JSON experiment config."""
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

    numerics = dict(NUMERIC_DEFAULTS)
    user_num = raw.get("numerics", {})
    if not isinstance(user_num, dict):
        raise ConfigError("config key 'numerics' must be an object")
    numerics.update(user_num)
    for key in _POSITIVE_KEYS:
        if key in numerics and not (isinstance(numerics[key], (int, float))
                                    and numerics[key] > 0):
            raise ConfigError(f"numerics key {key!r} must be a positive number")
    numerics["n"] = int(numerics["n"])
    numerics["m"] = int(numerics["m"])
    if numerics["n"] < 8:
        raise ConfigError("numerics key 'n' must be >= 8")

    spec = None
    if command == "example-ex":
        params = dict(raw.get("params", {}))
        params.setdefault("phi", "sin(2*pi*x)/(2*pi)")
        params.setdefault("dphi", "cos(2*pi*x)")
        params.setdefault("theta", 0.5)
        params.setdefault("zeta", 1.0)
        raw = dict(raw)
        raw["hamiltonian"] = {"builtin": "example_ex", "params": params}
        raw.setdefault("phi0", params["phi"])
        spec = builtin("example_ex", params)
    elif "hamiltonian" in raw:
        ham = raw["hamiltonian"]
        if not isinstance(ham, dict):
            raise ConfigError("config key 'hamiltonian' must be an object")
        try:
            spec = spec_from_config(ham)
        except ExprError as exc:
            raise ConfigError(f"hamiltonian formula error: {exc}") from exc
    elif command not in ("homogenize",):
        raise ConfigError(f"command {command!r} requires a 'hamiltonian' section")

    seed = int(raw.get("seed", 0))
    if spec is not None:
        from .hamiltonian import validate_spec
        validate_spec(spec, seed=seed)
        if numerics["dt"] * spec.lambda_bound > 0.5:
            raise ConfigError(
                f"dt*Lambda exceeds 1/2 (dt={numerics['dt']}, Lambda={spec.lambda_bound})")
        if numerics["dt"] * spec.vmax > 0.5:
            raise ConfigError(
                f"dt*vmax exceeds period/2 (dt={numerics['dt']}, vmax={spec.vmax})")
    output_dir = raw.get("output_dir", "weakkam-out")
    return ExperimentConfig(command, numerics, output_dir, seed, spec, dict(raw))


def _grid_lt(config: ExperimentConfig):
    num = config.numerics
    g = TorusGrid(num["n"], 1.0)
    lt = legendre(config.spec, g, num["m"], num["m"])
    return g, lt


def _phi0(config: ExperimentConfig, g: TorusGrid) -> Field:
    src = config.raw.get("phi0", "0")
    try:
        return field_from_expr(g, parse(str(src)))
    except ExprError as exc:
        raise ConfigError(f"phi0 formula error: {exc}") from exc


def _u_minus(config: ExperimentConfig, g, lt):
    num = config.numerics
    res = stationary_solve(_phi0(config, g), config.spec, lt,
                           dt=num["dt"], tol=num["tol"], T_max=num["T_max"])
    return res


def _critical_of_frozen(config: ExperimentConfig, g, lt):
    """Critical value of G + W(., u_-); for u-independent W no freeze is needed."""
    num = config.numerics
    W = config.spec.W
    if "u" in W.variables():
        um = _u_minus(config, g, lt).field
        pot = stability.frozen_potential(config.spec, um)
        ltp = lt.with_potential(pot)
    else:
        um = None
        pot = stability.frozen_potential(config.spec, Field(g, np.zeros(g.n)))
        ltp = lt.with_potential(pot) if float(np.max(np.abs(pot))) > 0 else lt
    result = crit.critical_value(
        ltp, schedule=num["lambda_schedule"], dt=num["dt_critical"],
        tol=num["tol_critical"], T_long=num["T_long"], cross_tol=num["cross_tol"])
    return result, um, ltp, pot


def run_evolve(config, out):
    num = config.numerics
    g, lt = _grid_lt(config)
    snap = num["snap_every"] or max(1, math.ceil(num["T"] / num["dt"]) // 10)
    res = evolve(_phi0(config, g), config.spec, lt, T=num["T"], dt=num["dt"],
                 direction=config.raw.get("direction", "backward"), snap_every=snap)
    rows = [(float(t), float(x), float(v))
            for t, f in res.snapshots for x, v in zip(g.nodes, f.values)]
    path = os.path.join(out, "snapshots.csv")
    write_csv(path, config.header(), "t,x,value", rows)
    with open(path, "a") as fh:
        fh.write(f"# summary steps={res.steps},final_residual={fmt17(res.final_residual)}\n")
    return f"steps={res.steps} final_residual={res.final_residual:.3e}", True


def run_stationary(config, out):
    g, lt = _grid_lt(config)
    res = _u_minus(config, g, lt)
    write_csv(os.path.join(out, "stationary.csv"), config.header(), "x,value",
              zip(g.nodes, res.field.values))
    return (f"converged={res.converged} residual={res.residual:.3e} steps={res.steps}",
            True)


def run_critical(config, out):
    result, _, _, _ = _critical_of_frozen(config, *_grid_lt(config))
    diag = result.diagnostics
    rows = list(zip(diag["lambda"], [-v for v in diag["minus_mean_lambda_u"]]))
    write_csv(os.path.join(out, "discount.csv"), config.header(),
              "lambda,mean_lambda_u", rows)
    gap = diag["gap"]
    summary = f"c={result.c:.2f}±{max(gap, 0.01):.2f}"
    return summary, result.method == "agree"


def run_ceps(config, out):
    num = config.numerics
    g, lt = _grid_lt(config)
    um = _u_minus(config, g, lt).field
    curve = crit.c_eps_curve(
        config.spec, um, num["eps_list"], dt=num["dt_critical"],
        tol=num["tol_critical"], lt=lt, schedule=num["lambda_schedule"],
        T_long=num["T_long"], cross_tol=num["cross_tol"])
    write_csv(os.path.join(out, "ceps.csv"), config.header(), "eps,c",
              list(zip(map(float, curve.eps_samples), map(float, curve.c_values))))
    slack = curve.lipschitz_slack(config.spec.lambda_bound)
    ok = slack <= 4e-2
    return f"D-={curve.D_minus:.3f} D+={curve.D_plus:.3f}", ok


def run_mather(config, out):
    num = config.numerics
    g, lt = _grid_lt(config)
    result, um, ltp, pot = _critical_of_frozen(config, g, lt)
    measure = mather.solve_occupational(lt, potential=pot)
    rows = [(float(g.nodes[i]), float(measure.vgrid[j]), float(measure.weights[i, j]))
            for i in range(g.n) for j in range(measure.vgrid.size)
            if measure.weights[i, j] >= 1e-12]
    write_csv(os.path.join(out, "measure.csv"), config.header(), "x,v,weight", rows)
    mismatch = abs(measure.value + result.c)
    ok = mismatch <= max(2 * num["cross_tol"], 1e-2) and result.method == "agree"
    return f"lp_value={measure.value:.4f} c={result.c:.4f} mismatch={mismatch:.3e}", ok


def run_barrier(config, out):
    num = config.numerics
    g, lt = _grid_lt(config)
    result, um, ltp, pot = _critical_of_frozen(config, g, lt)
    bt = mather.peierls_barrier(ltp, result.c, aubry_tol=num["aubry_tol"])
    rows = [(float(g.nodes[i]), float(g.nodes[j]), float(bt.h[i, j]))
            for i in range(g.n) for j in range(g.n)]
    write_csv(os.path.join(out, "barrier.csv"), config.header(), "x,y,h", rows)
    write_csv(os.path.join(out, "aubry.csv"), config.header(), "index,x",
              [(int(i), float(g.nodes[i])) for i in bt.aubry_indices])
    return (f"aubry_nodes={bt.aubry_indices.size} c_used={bt.c_used:.4f}",
            result.method == "agree")


def _write_report(out, config, report):
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump({"config": config.header(), "report": report.to_dict()},
                  fh, indent=2, sort_keys=True)


def run_stability(config, out):
    num = config.numerics
    g, lt = _grid_lt(config)
    um = _u_minus(config, g, lt).field
    which = config.raw.get("which", "A3")
    report = stability.check_condition(
        config.spec, um, which=which, zeta_grid=num["zeta_grid"],
        dt=num["dt_critical"], tol=num["tol_critical"], margin=num["margin"], lt=lt)
    T = float(config.raw.get("decay_T", 8.0))
    report.decay_slope = stability.decay_exponent(
        config.spec, um, delta=num["delta"], T=T, dt=num["dt"], lt=lt)
    if "basin_delta_hi" in config.raw:
        report.Delta_estimate = stability.basin_estimate(
            config.spec, um, T=num["T_max"], dt=num["dt"],
            delta_hi=float(config.raw["basin_delta_hi"]), lt=lt)
    phi = Field(g, um.values + num["delta"])
    times, devs = stability.deviation_series(config.spec, um, phi, T, num["dt"], lt=lt)
    write_csv(os.path.join(out, "decay.csv"), config.header(), "t,sup_dev",
              list(zip(map(float, times), map(float, devs))))
    _write_report(out, config, report)
    a_txt = "n/a" if report.A_estimate is None else f"{report.A_estimate:.3f}"
    return (f"verdict={report.verdict} A_estimate={a_txt} "
            f"decay_slope={report.decay_slope:.3f}"), True


def run_instability(config, out):
    num = config.numerics
    g, lt = _grid_lt(config)
    um = _u_minus(config, g, lt).field
    probe = stability.instability_probe(
        config.spec, um, eps=num["eps"], Delta_target=num["Delta"],
        T=num["T"], dt=num["dt"], lt=lt)
    write_csv(os.path.join(out, "probe.csv"), config.header(), "t,sup_dev",
              list(zip(map(float, probe.times), map(float, probe.devs))))
    if probe.escaped:
        return f"escaped t≈{probe.t_escape:.1f}", True
    return f"not escaped sup_dev={probe.sup_dev:.3e}", True


def run_corollary(config, out):
    num = config.numerics
    g = TorusGrid(num["n"], 1.0)
    a_src = config.raw.get("a")
    if a_src is None:
        raise ConfigError("corollary command requires key 'a' (formula in x)")
    try:
        a_field = field_from_expr(g, parse(str(a_src)))
        gpart = config.spec.G if config.spec is not None else parse(str(config.raw["G"]))
    except (ExprError, KeyError) as exc:
        raise ConfigError(f"corollary config error: {exc}") from exc
    report = stability.check_corollary_a(
        gpart, a_field, dt=num["dt_critical"], tol=num["tol_critical"],
        margin=num["margin"], m=num["m"], k=num["m"],
        vmax=num["vmax"], pmax=num["pmax"], aubry_tol=num["aubry_tol"])
    _write_report(out, config, report)
    return f"verdict={report.verdict} a0={report.A_estimate:.3f}", True


def run_homogenize(config, out):
    num = config.numerics
    hconf = config.raw.get("homog")
    if not isinstance(hconf, dict):
        raise ConfigError("homogenize command requires a 'homog' section")
    hp = homog.problem_from_config(hconf)
    eps_list = num.get("homog_eps_list", NUMERIC_DEFAULTS["homog_eps_list"])
    table_opts = {key: num[key] for key in ("x_count", "p_count", "c_count", "p_span")
                  if key in num}
    cell_opts = {key.removeprefix("cell_"): num[key]
                 for key in ("cell_n_fast", "cell_m", "cell_k", "cell_dt")
                 if key in num}
    result = homog.rate_experiment(hp, eps_list=eps_list,
                                   n_per_period=num["n_per_period"],
                                   cell_opts=cell_opts or None, **table_opts)
    rows = [(float(e), float(err), float(err / math.sqrt(e)))
            for e, err in sorted(result.errors.items())]
    write_csv(os.path.join(out, "rate.csv"), config.header(),
              "eps,error,sqrt_eps_ratio", rows)
    et = result.table
    trows = [(float(x), float(p), float(c), float(et.values[i, j, kk]))
             for i, x in enumerate(et.x_nodes) for j, p in enumerate(et.p_nodes)
             for kk, c in enumerate(et.c_nodes)]
    write_csv(os.path.join(out, "effective_table.csv"), config.header(),
              "x,p,c,Hbar", trows)
    slope_txt = "noise" if result.slope is None else f"{result.slope:.3f}"
    return f"slope={slope_txt} C_fit={result.C_fit:.3f}", True


RUNNERS = {
    "evolve": run_evolve,
    "stationary": run_stationary,
    "critical": run_critical,
    "ceps": run_ceps,
    "mather": run_mather,
    "barrier": run_barrier,
    "stability": run_stability,
    "instability": run_instability,
    "corollary": run_corollary,
    "homogenize": run_homogenize,
    "example-ex": run_stability,
}


def run(config: ExperimentConfig, quiet: bool = False) -> int:
    """Execute one experiment; returns the process exit code."""
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    lock_path = os.path.join(out, ".weakkam.lock")
    try:
        lock_fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ConfigError(f"output dir {out!r} is locked by another run "
                          f"(remove {lock_path} if stale)")
    try:
        summary, prop_ok = RUNNERS[config.command](config, out)
        if not quiet:
            print(f"weakkam {config.command}: {summary}")
        if not prop_ok:
            _diagnostic(out, config, f"property check failed: {summary}")
            return 3
        return 0
    except ConfigError as exc:
        _diagnostic(out, config, f"ConfigError: {exc}")
        raise
    except (ConvergenceError, LPError, PicardError, CFLError, ValueError,
            RuntimeError) as exc:
        _diagnostic(out, config, f"{type(exc).__name__}: {exc}")
        if not quiet:
            print(f"weakkam {config.command}: failed: {exc}", file=sys.stderr)
        return 1
    finally:
        os.close(lock_fd)
        os.unlink(lock_path)


def _diagnostic(out, config, message):
    with open(os.path.join(out, "diagnostic.txt"), "w") as fh:
        fh.write(message + "\n")
        fh.write(json.dumps(config.header(), indent=2, sort_keys=True) + "\n")


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
