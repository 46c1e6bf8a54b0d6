"""SHA-256 digests of every artifact of a fixed set of weakkam configs.

Run from the repository root:

    PYTHONPATH=src python3 tools/artifacts.py OUT

OUT must not exist or must be empty.  Each config is written to
OUT/<id>.json and run by `weakkam.cli.main` with its artifacts in OUT/<id>/;
the script then prints one line per config with its exit code, followed by
`<sha256>  <id>/<file>` for each file the run wrote.  The set is the three
benchmark workloads at seeds 1 and 2 (from bench/workloads.py, imported
without writing bytecode) plus one small config per further command path, each
at n=64, m=33 (the x-dependent homogenize config at small cell and fine grids,
the barrier-remainder config at n=100, whose horizons are not power-of-two
multiples of the barrier's base block, the |p| mather config at n=32, m=17, and
two stationary solves of the worked example: from 0, and at theta = -0.2, which
exits 1).
Two runs on different checkouts are byte-identical exactly when their
printouts are, so a byte-identity check is a `diff`.  The script checks no
bound: it exits 0 whatever the configs' exit codes.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)

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
    "mather-u-dependent": {"command": "mather", "hamiltonian": _CONTACT, "numerics": _SMALL},
    # barrier dt = 0.016: a base block of 31 steps, horizons of 250, 500 and 1,000
    # steps = 31*{8, 16, 32} + {2, 4, 8}, each a power of the block plus a remainder
    "barrier-remainder": {"command": "barrier",
                          "hamiltonian": {"G": "p^2 + cos(2*pi*x)", "vmax": 2.5},
                          "numerics": {"n": 100, "m": 33, "dt_critical": 0.05}},
    # a flat, non-Tonelli Lagrangian: the first config whose restricted masters
    # price in new columns (13 masters)
    "mather-abs-p": {"command": "mather", "hamiltonian": {"G": "abs(p) + cos(2*pi*x)"},
                     "numerics": {"n": 32, "m": 17, "dt_critical": 0.05}},
    # from 0 the march takes 300 steps to residual 0.1 before Newton (16 iterations)
    "stationary-from-zero": {"command": "stationary", "phi0": "0", "numerics": _SMALL,
                             "hamiltonian": {"builtin": "example_ex", "params": {
                                 "phi": "sin(2*pi*x)/(2*pi)", "dphi": "cos(2*pi*x)",
                                 "theta": 0.5, "zeta": 1.0}}},
    # theta < 0: Newton cycles to its cap, the march resumes and misses tol by T_max (exit 1)
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

    for cid, config in configs().items():
        path = out / f"{cid}.json"
        path.write_text(json.dumps(config))
        code = cli.main([config["command"], "--config", str(path), "--out", str(out / cid),
                         "--quiet"])
        print(f"{cid}: exit {code}", flush=True)
        for artifact in sorted((out / cid).iterdir()):
            digest = hashlib.sha256(artifact.read_bytes()).hexdigest()
            print(f"{digest}  {cid}/{artifact.name}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
