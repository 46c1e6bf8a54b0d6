"""SHA-256 digests of every artifact of a fixed set of weakkam configs.

Run from the repository root:

    PYTHONPATH=src python3 tools/artifacts.py OUT

OUT must not exist or must be empty.  Each config is written to
OUT/<id>.json and run by `weakkam.cli.main` with its artifacts in OUT/<id>/;
the script then prints one line per config with its exit code and the CLI's
summary line (`weakkam <command>: ...`, or its failure or config-error line),
followed by `<sha256>  <id>/<file>` for each file the run wrote; anything
else the run prints goes to stderr.  The set is the three
benchmark workloads at seeds 1 and 2 (from bench/workloads.py, imported
without writing bytecode) plus one small config per further command path, each
at n=64, m=33 (the x-dependent homogenize config at small cell and fine grids,
the barrier-remainder config at n=100, vmax=2.5, where the cone seed's slope
matters, the barrier-unaligned config, whose barrier step vmax*dt is not a whole
number of cells, the |p| mather config at n=32, m=17, and
two stationary solves of the worked example: from 0, and at theta = -0.2, which
exits 1, a stability config whose decay slope is the -delta orbit's fit, and
one, at a = -1, whose verdict is `fails` and whose basin bisection runs).
Two runs on different checkouts are byte-identical exactly when their
printouts are, so a byte-identity check is a `diff`, and the diff also shows
every summary or verdict line that moves.  The script checks
each config's exit code against EXIT_CODES (0 for a config it does not
name): after the last config it reports every difference on stderr and
exits 1.  Digests are not checked.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)
# the expected exit code of every config that does not exit 0
EXIT_CODES = {"stationary-unstable": 1}

_SMALL = {"n": 64, "m": 33, "dt_critical": 0.05}
_CONTACT = {"builtin": "linear_contact", "params": {"a": 1.0, "V": "0.3*cos(2*pi*x)"}}
_EXTRA = {
    # default snapshot rule: 123 steps, one snapshot every 12 and the last
    "evolve-backward": {"command": "evolve", "hamiltonian": _CONTACT, "phi0": "sin(2*pi*x)",
                        "numerics": dict(_SMALL, T=0.123)},
    "evolve-forward": {"command": "evolve", "hamiltonian": _CONTACT, "phi0": "sin(2*pi*x)",
                       "direction": "forward", "numerics": dict(_SMALL, T=0.05, snap_every=7)},
    "stationary": {"command": "stationary", "hamiltonian": _CONTACT, "numerics": _SMALL},
    "critical": {"command": "critical", "numerics": _SMALL,
                 "hamiltonian": {"builtin": "eikonal", "params": {"V": "cos(2*pi*x)"}}},
    "ceps": {"command": "ceps", "hamiltonian": _CONTACT, "numerics": _SMALL},
    "corollary": {"command": "corollary", "numerics": _SMALL,
                  "hamiltonian": {"G": "p^2 + cos(2*pi*x) - 1", "W": "(2+sin(2*pi*x))*u",
                                  "dWu": "2+sin(2*pi*x)"}},
    "instability": {"command": "instability", "numerics": dict(_SMALL, T=5.0),
                    "hamiltonian": {"builtin": "linear_contact", "params": {"a": -1.0, "V": 0}}},
    "stability-basin": {"command": "stability", "hamiltonian": _CONTACT, "decay_T": 2.0,
                        "basin_delta_hi": 0.5,
                        "numerics": dict(_SMALL, dt=5e-3, T_max=20.0, zeta_grid=[0.25, 0.5])},
    # a = -1: every zeta gives c > margin, so the verdict is "fails", and the basin
    # bisection runs its rounds to Delta_estimate 0
    "stability-unstable": {"command": "stability", "decay_T": 2.0, "basin_delta_hi": 0.5,
                           "hamiltonian": {"builtin": "linear_contact",
                                           "params": {"a": -1.0, "V": 0}},
                           "numerics": dict(_SMALL, dt=5e-3, T_max=4.0, zeta_grid=[0.25, 0.5])},
    # W quadratic in u: the -delta orbit decays more slowly (fits -0.772 against -0.827
    # for +delta), so report.json's decay_slope is the -delta copy's fit
    "stability-quadratic-W": {"command": "stability", "decay_T": 2.0,
                              "hamiltonian": {"G": "p^2 + 0.3*cos(2*pi*x)", "W": "u + 0.3*u^2",
                                              "dWu": "1 + 0.6*u"},
                              "numerics": dict(_SMALL, dt=5e-3, delta=0.3, zeta_grid=[0.25])},
    "mather-u-dependent": {"command": "mather", "hamiltonian": _CONTACT, "numerics": _SMALL},
    # vmax = 2.5: the table's own slope max|dL/dv| = 1.21 as the cone seed's K would
    # undercut the barrier by 2.1e-2, and K without its factor 2 (1.43) by 7e-4
    "barrier-remainder": {"command": "barrier",
                          "hamiltonian": {"G": "p^2 + cos(2*pi*x)", "vmax": 2.5},
                          "numerics": {"n": 100, "m": 33, "dt_critical": 0.05}},
    # barrier dt = 0.02: vmax*dt is 3.84 cells, so foot points fall between nodes
    "barrier-unaligned": {"command": "barrier", "numerics": _SMALL,
                          "hamiltonian": {"builtin": "eikonal",
                                          "params": {"V": "cos(2*pi*x)", "vmax": 3}}},
    # a flat, non-Tonelli Lagrangian: the first config whose restricted masters
    # price in new columns (13 masters)
    "mather-abs-p": {"command": "mather", "hamiltonian": {"G": "abs(p) + cos(2*pi*x)"},
                     "numerics": {"n": 32, "m": 17, "dt_critical": 0.05}},
    # from 0 the march takes 74 steps to residual 0.1 before Newton (16 iterations)
    "stationary-from-zero": {"command": "stationary", "phi0": "0", "numerics": _SMALL,
                             "hamiltonian": {"builtin": "example_ex", "params": {
                                 "phi": "sin(2*pi*x)/(2*pi)", "dphi": "cos(2*pi*x)",
                                 "theta": 0.5, "zeta": 1.0}}},
    # theta < 0: Newton cycles to its cap, the pure march misses tol by T_max (exit 1)
    "stationary-unstable": {"command": "example-ex", "params": {"theta": -0.2},
                            "numerics": dict(_SMALL, T_max=0.5)},
    # H depends on x: the effective table has homogenize.X_COUNT x-nodes and the
    # two-scale cost is built on every node, not tiled from one fast period
    "homogenize-x-dependent": {
        "command": "homogenize",
        "homog": {"H": "u + p^2 + 0.5*cos(2*pi*y) + 0.2*cos(2*pi*x)", "dHu": "1",
                  "Lambda1": 1.0, "Lambda2": 1.0},
        "numerics": {"p_count": 5, "c_count": 3, "homog_eps_list": [0.25, 0.125],
                     "n_per_period": 16, "cell_n_fast": 16, "cell_m": 17}},
}


def configs() -> dict:
    """Every config of the set, keyed by its id."""
    sys.path.insert(0, str(ROOT / "bench"))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(ROOT / "bench"))
    out = {}
    for seed in SEEDS:
        for name in workloads.NAMES:
            for cmd in workloads.make(name, seed).commands:
                out[f"{name}-s{seed}-{cmd.name}"] = cmd.config
    out.update(_EXTRA)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: tools/artifacts.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"tools/artifacts.py: {out} is not empty", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    from weakkam import cli

    wrong = []
    for cid, config in configs().items():
        path = out / f"{cid}.json"
        path.write_text(json.dumps(config))
        said = io.StringIO()
        with contextlib.redirect_stdout(said), contextlib.redirect_stderr(said):
            code = cli.main([config["command"], "--config", str(path), "--out", str(out / cid)])
        lines = said.getvalue().splitlines()
        summary = " | ".join(line for line in lines if line.startswith("weakkam"))
        for line in lines:
            if not line.startswith("weakkam"):
                print(line, file=sys.stderr)
        print(f"{cid}: exit {code}: {summary}", flush=True)
        for artifact in sorted((out / cid).iterdir()):
            digest = hashlib.sha256(artifact.read_bytes()).hexdigest()
            print(f"{digest}  {cid}/{artifact.name}", flush=True)
        expected = EXIT_CODES.get(cid, 0)
        if code != expected:
            wrong.append(f"{cid}: exit {code}, expected {expected}")
    for line in wrong:
        print(f"tools/artifacts.py: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
