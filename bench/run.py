"""Benchmark of the weakkam command line, with closed-form accuracy oracles.

Run from the repository root:

    python3 bench/run.py --workload contact-stability --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45 --trace 0

One closed-loop client runs a workload's CLI commands one at a time, each
in its own child process (`python -m weakkam.cli`, with BLAS/OpenMP
thread counts pinned to 1 and WEAKKAM_THREADS unset), and repeats the
whole workload for `--seconds` seconds, at least twice.  Every output is
checked against its closed-form oracle and gates (see oracles.py); the
CSV artifacts of each repetition must be byte-identical to the first.

--trace 0 reports the end-to-end metrics: median wall time of one
workload repetition, median set-up time (interpreter start until
`load_config` returns, summed over the commands, from separate probe
processes), peak RSS of any command process, and the largest oracle
error as a share of its acceptance budget.

--trace 1 alternates untraced and traced repetitions (tracer.py) and
reports the per-layer metrics from the traced ones, plus the tracing
overhead.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  Working files (configs,
artifacts, span files and `record.json` with the machine record and every
figure) go to `.bench_work/<workload>/` under the current directory,
which is cleared at the start of each run of that workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracles
import workloads

PROBES = 5                  # set-up probes per command
MIN_REPETITIONS = 2         # the determinism gate needs a second repetition
RUN_DEADLINE_S = 170.0      # every child is killed by then
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent


def _span(name, stat):
    return lambda agg: agg["spans"].get(name, {}).get(stat, 0)


def _counter(key):
    return lambda agg: agg["counters"].get(key, 0)


def _pair(child, parent):
    return lambda agg: agg["pairs"].get(f"{child}<{parent}", 0)


_STEP = "critical.MinPlusStepper.step"
# per-layer metric -> (unit, value from the summed span summaries of one repetition)
PER_LAYER = {
    "cli.load_config.total_s": ("s", _span("cli.load_config", "total_s")),
    "cli.run.calls": ("count", _span("cli.run", "calls")),
    "cli.run.total_s": ("s", _span("cli.run", "total_s")),
    "cli.run.self_s": ("s", _span("cli.run", "self_s")),
    "cli.artifact_bytes": ("bytes", lambda agg: agg["artifact_bytes"]),
    "expr.Expr.evaluate.calls": ("count", _span("expr.Expr.evaluate", "calls")),
    "expr.Expr.evaluate.self_s": ("s", _span("expr.Expr.evaluate", "self_s")),
    "hamiltonian.validate_spec.total_s": ("s", _span("hamiltonian.validate_spec", "total_s")),
    "hamiltonian.conjugate_table.calls": ("count", _span("hamiltonian.conjugate_table", "calls")),
    "hamiltonian.conjugate_table.total_s": ("s", _span("hamiltonian.conjugate_table",
                                                       "total_s")),
    "semigroup.GatherPlan.apply.calls": ("count", _span("semigroup.GatherPlan.apply", "calls")),
    "semigroup.GatherPlan.apply.self_s": ("s", _span("semigroup.GatherPlan.apply", "self_s")),
    "semigroup.GatherPlan.apply.computed_bytes": (
        "bytes", _counter("semigroup.GatherPlan.apply.computed_bytes")),
    "semigroup.Stepper.backward_values.calls": (
        "count", _span("semigroup.Stepper.backward_values", "calls")),
    "semigroup.Stepper.backward_values.self_s": (
        "s", _span("semigroup.Stepper.backward_values", "self_s")),
    "semigroup.stationary_solve.total_s": ("s", _span("semigroup.stationary_solve", "total_s")),
    "semigroup.stationary_solve.steps": ("count", _counter("semigroup.stationary_solve.steps")),
    "critical.critical_value.calls": ("count", _span("critical.critical_value", "calls")),
    "critical.critical_value.total_s": ("s", _span("critical.critical_value", "total_s")),
    "critical.critical_value.disagree": ("count", _counter("critical.critical_value.disagree")),
    "critical.discounted_solve.calls": ("count", _span("critical.discounted_solve", "calls")),
    "critical.discounted_solve.total_s": ("s", _span("critical.discounted_solve", "total_s")),
    "critical.discounted_solve.self_s": ("s", _span("critical.discounted_solve", "self_s")),
    "critical.discounted_solve.steps": ("count", _pair(_STEP, "critical.discounted_solve")),
    "critical.longtime_slope.total_s": ("s", _span("critical.longtime_slope", "total_s")),
    "critical.longtime_slope.steps": ("count", _pair(_STEP, "critical.longtime_slope")),
    "critical.MinPlusStepper.step.self_s": ("s", _span(_STEP, "self_s")),
    "mather.peierls_barrier.total_s": ("s", _span("mather.peierls_barrier", "total_s")),
    "mather.solve_occupational.total_s": ("s", _span("mather.solve_occupational", "total_s")),
    "mather.extremal_integral.total_s": ("s", _span("mather.extremal_integral", "total_s")),
    "mather.masters": ("count", _span("mather.LinearProgram.__init__", "calls")),
    "stability.check_condition.total_s": ("s", _span("stability.check_condition", "total_s")),
    "stability.check_condition.zetas": ("count", _counter("stability.check_condition.zetas")),
    "stability.decay_exponent.total_s": ("s", _span("stability.decay_exponent", "total_s")),
    "stability.deviation_series.total_s": ("s", _span("stability.deviation_series",
                                                      "total_s")),
    "homogenize.cell_problem.calls": ("count", _span("homogenize.cell_problem", "calls")),
    "homogenize.cell_problem.total_s": ("s", _span("homogenize.cell_problem", "total_s")),
    "homogenize.build_effective_table.total_s": (
        "s", _span("homogenize.build_effective_table", "total_s")),
    "homogenize.solve_effective.total_s": ("s", _span("homogenize.solve_effective", "total_s")),
    "homogenize.solve_multiscale.calls": ("count", _span("homogenize.solve_multiscale", "calls")),
    "homogenize.solve_multiscale.total_s": ("s", _span("homogenize.solve_multiscale",
                                                       "total_s")),
    "homogenize.solve_multiscale.self_s": ("s", _span("homogenize.solve_multiscale", "self_s")),
}
OVERHEAD = "trace.overhead_s"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (weakkam fails to import or comes from elsewhere)."""


@dataclass
class Exec:
    """One finished child process."""

    rc: int
    started: float
    ended: float
    rss_mb: float


@dataclass
class CommandResult:
    command: str
    exec: Exec
    figures: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    trace: dict | None = None


@dataclass
class Repetition:
    traced: bool
    commands: list
    artifact_bytes: int

    @property
    def wall(self) -> float:
        return self.commands[-1].exec.ended - self.commands[0].exec.started


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "WEAKKAM_THREADS"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def execute(argv, env, cwd: Path, stdout: Path, deadline: float) -> Exec:
    """Run one child to completion, killing it at the deadline."""
    with open(stdout, "w") as out, open(stdout.with_suffix(".err"), "w") as err:
        started = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(max(deadline - started, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exec(proc.returncode, started, ended, usage.ru_maxrss / 1024.0)


PROBE = ("import json, sys, time\n"
         "import weakkam.cli as cli\n"
         "cli.load_config(sys.argv[1])\n"
         "loaded = time.monotonic()\n"
         "import numpy, weakkam\n"
         "print(json.dumps({'loaded_at': loaded, 'numpy': numpy.__version__,"
         " 'weakkam': weakkam.__file__}))\n")


def probe_setup(config: Path, env, root: Path, work: Path, deadline: float) -> tuple:
    """Seconds from interpreter start until load_config returns, and the probe's report."""
    out = work / f"probe-{config.stem}.txt"
    ex = execute([sys.executable, "-c", PROBE, str(config)], env, root, out, deadline)
    if ex.rc != 0:
        raise SetupError(f"set-up probe failed (exit {ex.rc}): "
                         f"{out.with_suffix('.err').read_text().strip()[-400:]}")
    report = json.loads(out.read_text().splitlines()[-1])
    if not Path(report["weakkam"]).resolve().is_relative_to((root / "src").resolve()):
        raise SetupError(f"weakkam imported from {report['weakkam']}, not from {root / 'src'}")
    return report["loaded_at"] - ex.started, report


def _gate(wl: workloads.Workload, results: list, out_dirs: list, first_dirs: list | None):
    """Apply oracles, gates and the determinism check to one repetition."""
    support = set()
    for res, out, first in zip(results, out_dirs, first_dirs or [None] * len(results)):
        if res.exec.rc != 0:
            res.failures.append(f"exit code {res.exec.rc}")
            continue
        try:
            if res.command == "example-ex":
                res.figures, fails = oracles.check_example_ex(str(out))
            elif res.command == "mather":
                stdout = (out.parent / f"{out.name}.txt").read_text()
                res.figures, fails = oracles.check_mather(str(out), stdout)
                support = oracles.mather_support(str(out), wl.n)
            elif res.command == "barrier":
                res.figures, fails = oracles.check_barrier(str(out), float(wl.shift), wl.n,
                                                           support)
            else:
                res.figures, fails = oracles.check_homogenize(str(out))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            fails = [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
        res.failures.extend(fails)
        if first is not None:
            res.failures.extend(f"{name} differs from the first repetition"
                                for name in oracles.artifact_mismatches(str(first), str(out)))
        if res.trace is not None:
            if abs(res.trace["self_sum_s"] - res.trace["root_total_s"]) > 1e-6:
                res.failures.append("self times do not partition the span tree")
            if res.trace["counters"].get("critical.critical_value.disagree", 0):
                res.failures.append("a critical value has method != 'agree'")


def run_repetition(k: int, traced: bool, wl, cfg_paths, env, root: Path, work: Path,
                   deadline: float, first_dirs) -> tuple:
    rep_dir = work / f"rep{k}"
    rep_dir.mkdir()
    results, out_dirs = [], []
    for i, (cmd, cfg) in enumerate(zip(wl.commands, cfg_paths)):
        out = rep_dir / f"{i}-{cmd.name}"
        cli_args = [cmd.name, "--config", str(cfg), "--out", str(out)]
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(out) + "-spans.npz",
                    str(out) + "-summary.json", str(i)] + cli_args
        else:
            argv = [sys.executable, "-m", "weakkam.cli"] + cli_args
        ex = execute(argv, env, root, rep_dir / f"{out.name}.txt", deadline)
        res = CommandResult(cmd.name, ex)
        summary = Path(str(out) + "-summary.json")
        if traced and summary.is_file():
            res.trace = json.loads(summary.read_text())
        elif traced:
            res.failures.append("the tracer wrote no span summary")
        results.append(res)
        out_dirs.append(out)
    _gate(wl, results, out_dirs, first_dirs)
    size = sum(f.stat().st_size for d in out_dirs if d.is_dir() for f in d.iterdir())
    return Repetition(traced, results, size), out_dirs


def layer_metrics(rep: Repetition) -> dict:
    """Per-layer metrics of one traced repetition, summed over its commands."""
    agg = {"spans": {}, "counters": {}, "pairs": {}, "artifact_bytes": rep.artifact_bytes}
    for res in rep.commands:
        if res.trace is None:
            continue
        for name, stats in res.trace["spans"].items():
            into = agg["spans"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in stats.items():
                into[key] += value
        for part in ("counters", "pairs"):
            for key, value in res.trace[part].items():
                agg[part][key] = agg[part].get(key, 0) + value
    return {name: getter(agg) for name, (_, getter) in PER_LAYER.items()}


def environment(root: Path, seed: int, numpy_version: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "weakkam").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "git_commit": commit,
            "src_sha256": digest.hexdigest()[:16], "seed": seed}


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    t_begin = time.monotonic()
    deadline = t_begin + RUN_DEADLINE_S
    wl = workloads.make(name, seed)
    work = root / ".bench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(root)
    cfg_paths = []
    for i, cmd in enumerate(wl.commands):
        path = work / f"{i}-{cmd.name}.json"
        path.write_text(json.dumps(dict(cmd.config, output_dir=str(work / "default-out")),
                                   indent=1))
        cfg_paths.append(path)

    setups, probe_report = [], {}
    for path in cfg_paths:
        samples = []
        for _ in range(PROBES):
            seconds_to_load, probe_report = probe_setup(path, env, root, work, deadline)
            samples.append(seconds_to_load)
        setups.append(statistics.median(samples))
    env_record = environment(root, seed, probe_report.get("numpy", "unknown"))

    reps, first_dirs = [], None
    while True:
        rep, dirs = run_repetition(len(reps), trace and len(reps) % 2 == 1, wl, cfg_paths,
                                   env, root, work, deadline, first_dirs)
        reps.append(rep)
        first_dirs = first_dirs or dirs
        elapsed = time.monotonic() - t_begin
        if len(reps) >= MIN_REPETITIONS and elapsed + rep.wall > seconds:
            break

    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    results = [c for r in reps for c in r.commands]
    failed = sum(1 for c in results if c.failures)
    shares = [oracles.budget_share(c.figures) for r in plain for c in r.commands
              if any(k in oracles.BUDGETS for k in c.figures)]
    if trace:
        per_rep = [layer_metrics(r) for r in traced]
        metrics = {m: (unit, statistics.median(v[m] for v in per_rep))
                   for m, (unit, _) in PER_LAYER.items()}
        metrics[OVERHEAD] = ("s", statistics.median(r.wall for r in traced)
                             - statistics.median(r.wall for r in plain))
    else:
        metrics = {
            "wall_s": ("s", statistics.median(r.wall for r in plain)),
            "setup_s": ("s", sum(setups)),
            "peak_rss_mb": ("MB", max(c.exec.rss_mb for r in plain for c in r.commands)),
            "oracle_share": ("ratio", max(shares) if shares else None),
        }
    (work / "record.json").write_text(json.dumps({
        "workload": name, "seed": seed, "shift": str(wl.shift), "env": env_record,
        "setup_per_command_s": setups, "attempted": len(results), "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (u, v) in metrics.items()},
        "repetitions": [{"traced": r.traced, "wall_s": r.wall,
                         "commands": [{"command": c.command, "rc": c.exec.rc,
                                       "wall_s": c.exec.ended - c.exec.started,
                                       "rss_mb": c.exec.rss_mb, "figures": c.figures,
                                       "failures": c.failures} for c in r.commands]}
                        for r in reps]}, indent=1))
    return {"workload": name, "seed": seed, "shift": str(wl.shift), "env": env_record,
            "repetitions": reps, "attempted": len(results), "failed": failed,
            "metrics": metrics}


def report(res: dict):
    """Human-readable lines for one workload result."""
    print(f"workload {res['workload']}: seed={res['seed']} shift s={res['shift']} "
          f"repetitions={len(res['repetitions'])}")
    print("  env " + json.dumps(res["env"], sort_keys=True))
    for k, rep in enumerate(res["repetitions"]):
        parts = ", ".join(f"{c.command} rc={c.exec.rc} {c.exec.ended - c.exec.started:.2f} s "
                          f"{c.exec.rss_mb:.1f} MB" for c in rep.commands)
        print(f"  rep {k}{' traced' if rep.traced else ''}: wall {rep.wall:.3f} s ({parts})")
        if rep.traced and all(c.trace and c.trace["config_loaded_at"] for c in rep.commands):
            setup = sum(c.trace["config_loaded_at"] - c.exec.started for c in rep.commands)
            run = sum(c.trace["spans"]["cli.run"]["total_s"] for c in rep.commands)
            print(f"    coverage: setup {setup:.3f} s + cli.run {run:.3f} s, "
                  f"unattributed {rep.wall - setup - run:.3f} s")
        for c in rep.commands:
            for fig, value in sorted(c.figures.items()):
                budget = oracles.BUDGETS.get(fig)
                note = f" (budget {budget:g})" if budget else ""
                print(f"    {c.command} {fig} = {value:.4e}{note}")
            for failure in c.failures:
                print(f"    {c.command} FAILED: {failure}")
    for name, (unit, value) in res["metrics"].items():
        print(f"  {name} = {value} {unit}")
    print(f"  fail_rate = {res['failed']}/{res['attempted']} ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its child (see execute)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "weakkam" / "cli.py").is_file():
        print(f"bench: no weakkam sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
            report(res)
            results.append(res)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    prefix = len(results) > 1
    metrics = {(f"{r['workload']}." if prefix else "") + name: {"value": value, "unit": unit}
               for r in results for name, (unit, value) in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
