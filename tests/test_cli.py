import json
import math
import os
import pathlib
import re
import subprocess
import sys
import types

import numpy as np
import pytest

from weakkam import cli, hamiltonian, stability
from weakkam.errors import ConfigError


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


FAST_NUMERICS = {"n": 64, "m": 33, "dt": 1e-3, "tol": 1e-6, "dt_critical": 0.05}


def test_load_config_minimal_defaults(tmp_path):
    path = write_config(tmp_path / "c.json", {
        "command": "critical",
        "hamiltonian": {"builtin": "eikonal", "params": {"V": "cos(2*pi*x)"}},
    })
    config = cli.load_config(path)
    assert config.numerics["n"] == 256
    assert config.numerics["m"] == 64
    assert config.numerics["dt"] == 4e-3
    assert config.numerics["tol"] == 1e-6
    assert config.spec.vmax == 4.0
    assert config.spec is not None


def test_load_config_rejects_cfl_violation(tmp_path):
    path = write_config(tmp_path / "c.json", {
        "command": "evolve",
        "hamiltonian": {"builtin": "linear_contact", "params": {"a": 1.0, "V": 0}},
        "numerics": {"dt": 1.0},
    })
    with pytest.raises(ConfigError, match="dt\\*Lambda"):
        cli.load_config(path)


def test_load_config_example_expansion(tmp_path):
    path = write_config(tmp_path / "c.json", {
        "command": "example-ex",
        "params": {"theta": 0.5, "zeta": 1.0},
    })
    config = cli.load_config(path)
    spec = config.spec
    assert spec.name == "example_ex"
    assert spec.lambda_bound == pytest.approx(0.5)
    assert config.raw["phi0"] == "sin(2*pi*x)/(2*pi)"
    # field-by-field expansion of the worked instance
    import numpy as np
    xs = np.linspace(0, 1, 9)
    ps = np.linspace(-2, 2, 9)
    assert np.allclose(np.asarray(spec.G.evaluate({"x": xs, "p": ps})), ps ** 2)
    assert np.allclose(np.asarray(spec.dWu.evaluate({"x": xs, "u": 0 * xs})),
                       0.5 - np.cos(2 * np.pi * xs) ** 2)
    phi = np.sin(2 * np.pi * xs) / (2 * np.pi)
    dphi = np.cos(2 * np.pi * xs)
    expected_W = (dphi ** 2 - 0.5) * (phi - 0.3) - dphi ** 2
    assert np.allclose(np.asarray(spec.W.evaluate({"x": xs, "u": 0.3 + 0 * xs})), expected_W)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        cli.load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="line"):
        cli.load_config(str(bad))
    path = write_config(tmp_path / "c.json", {"command": "nope"})
    with pytest.raises(ConfigError, match="command"):
        cli.load_config(path)
    path = write_config(tmp_path / "c2.json", {"command": "critical"})
    with pytest.raises(ConfigError, match="hamiltonian"):
        cli.load_config(path)
    path = write_config(tmp_path / "c3.json", {
        "command": "critical",
        "hamiltonian": {"builtin": "eikonal", "params": {"V": "cos(2*pi*x)"}},
        "numerics": {"dt": -0.5}})
    with pytest.raises(ConfigError, match="dt"):
        cli.load_config(path)
    for key, value in (("which", "A5"), ("direction", "sideways")):
        path = write_config(tmp_path / f"{key}.json", {
            "command": "stability",
            "hamiltonian": {"builtin": "eikonal", "params": {"V": "cos(2*pi*x)"}},
            key: value})
        with pytest.raises(ConfigError, match=f"'{key}' must be one of"):
            cli.load_config(path)


def test_main_critical_roundtrip(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", {
        "command": "critical",
        "hamiltonian": {"builtin": "eikonal", "params": {"V": "cos(2*pi*x)"}},
        "numerics": FAST_NUMERICS,
        "output_dir": str(tmp_path / "out"),
    })
    code = cli.main(["critical", "--config", path])
    assert code == 0
    summary = capsys.readouterr().out
    assert "c=1.0" in summary
    csv = (tmp_path / "out" / "discount.csv").read_text()
    assert csv.splitlines()[0].startswith("#")
    assert "lambda,mean_lambda_u" in csv
    assert not (tmp_path / "out" / ".weakkam.lock").exists()


def test_main_rerun_is_byte_identical(tmp_path):
    payload = {
        "command": "critical",
        "hamiltonian": {"builtin": "eikonal", "params": {"V": "cos(2*pi*x)"}},
        "numerics": FAST_NUMERICS,
        "seed": 3,
    }
    path = write_config(tmp_path / "c.json", payload)
    assert cli.main(["critical", "--config", path, "--out", str(tmp_path / "a"),
                     "--quiet"]) == 0
    assert cli.main(["critical", "--config", path, "--out", str(tmp_path / "b"),
                     "--quiet"]) == 0
    a = (tmp_path / "a" / "discount.csv").read_bytes()
    b = (tmp_path / "b" / "discount.csv").read_bytes()
    assert a == b


def test_main_command_mismatch(tmp_path):
    path = write_config(tmp_path / "c.json", {
        "command": "critical",
        "hamiltonian": {"builtin": "eikonal", "params": {"V": "0"}},
    })
    assert cli.main(["stationary", "--config", path]) == 2


def test_main_config_error_exit_code(tmp_path):
    path = write_config(tmp_path / "c.json", {"command": "critical"})
    assert cli.main(["critical", "--config", path]) == 2


def test_load_config_rejects_foot_point_overrun(tmp_path):
    path = write_config(tmp_path / "c.json", {
        "command": "evolve",
        "hamiltonian": {"builtin": "eikonal", "params": {"V": 0}},
        "numerics": {"dt": 0.2},   # 0.2 * vmax=4 exceeds period/2
    })
    with pytest.raises(ConfigError, match="dt\\*vmax"):
        cli.load_config(path)


def test_large_critical_value_is_not_a_solver_failure(tmp_path, capsys):
    # a discounted iterate is bounded by max|L|/lam, so a large |c| is no divergence
    path = write_config(tmp_path / "c.json", {
        "command": "critical",
        "hamiltonian": {"G": "p^2 - 200000", "W": "0", "dWu": "0"},
        "numerics": FAST_NUMERICS,
        "output_dir": str(tmp_path / "out"),
    })
    assert cli.main(["critical", "--config", path]) == 0
    assert "c=-200000.00" in capsys.readouterr().out


def test_exit_code_3_on_estimator_disagreement(tmp_path):
    num = dict(FAST_NUMERICS)
    num["cross_tol"] = 1e-9
    path = write_config(tmp_path / "c.json", {
        "command": "critical",
        "hamiltonian": {"builtin": "eikonal", "params": {"V": "cos(2*pi*x)"}},
        "numerics": num,
        "output_dir": str(tmp_path / "out3"),
    })
    assert cli.main(["critical", "--config", path, "--quiet"]) == 3
    assert (tmp_path / "out3" / "diagnostic.txt").exists()


def test_lock_file_blocks_concurrent_runs(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    lock = out / ".weakkam.lock"
    lock.touch()
    path = write_config(tmp_path / "c.json", {
        "command": "critical",
        "hamiltonian": {"builtin": "eikonal", "params": {"V": "0"}},
        "numerics": FAST_NUMERICS,
        "output_dir": str(out),
    })
    assert cli.main(["critical", "--config", path, "--quiet"]) == 2
    assert "locked by another run (pid unknown;" in capsys.readouterr().err
    # the lock names its owner
    lock.write_text("4242")
    assert cli.main(["critical", "--config", path, "--quiet"]) == 2
    assert "locked by another run (pid 4242;" in capsys.readouterr().err


def test_lock_file_holds_the_owner_pid(tmp_path, monkeypatch):
    out = tmp_path / "out"
    path = write_config(tmp_path / "c.json", {
        "command": "critical",
        "hamiltonian": {"builtin": "eikonal", "params": {"V": "0"}},
        "numerics": FAST_NUMERICS,
        "output_dir": str(out),
    })
    seen = []
    runner = cli.RUNNERS["critical"]

    def spy(config):
        seen.append((out / ".weakkam.lock").read_text())
        return runner(config)

    monkeypatch.setitem(cli.RUNNERS, "critical", spy)
    assert cli.main(["critical", "--config", path, "--quiet"]) == 0
    assert seen == [str(os.getpid())]
    assert not (out / ".weakkam.lock").exists()


def test_failed_run_leaves_only_its_diagnostic(tmp_path, monkeypatch):
    # decay.csv's rows are computed, but report.json cannot hold a NaN slope: no artifact
    # is written when one of them fails to render
    def nan_fit(*args, **kwargs):
        return stability.DecayFit(math.nan, np.array([0.0, 1.0]), np.array([0.05, 0.01]))

    monkeypatch.setattr(cli.stability, "decay_exponent", nan_fit)
    out = tmp_path / "out"
    path = write_config(tmp_path / "c.json", {
        "command": "stability",
        "hamiltonian": {"builtin": "linear_contact", "params": {"a": 1.0, "V": 0}},
        "numerics": FAST_NUMERICS,
        "output_dir": str(out),
    })
    assert cli.main(["stability", "--config", path, "--quiet"]) == 1
    assert os.listdir(out) == ["diagnostic.txt"]
    assert (out / "diagnostic.txt").read_text().startswith("ValueError: Out of range float")


def test_write_field_csv(tmp_path):
    g = cli.TorusGrid(8)
    config = types.SimpleNamespace(header=lambda: {"run": "test"})
    cli._write(tmp_path, config, {"f.csv": ("x,value", zip(g.nodes, np.full(g.n, 1 / 3)),
                                            {"steps": 3, "last": 0.1})})
    lines = (tmp_path / "f.csv").read_text().strip().splitlines()
    assert lines[0] == "# run=test"
    assert lines[1] == "x,value"
    assert len(lines) == 3 + g.n
    # 17 significant digits round-trip the double exactly
    x_txt, v_txt = lines[2].split(",")
    assert float(v_txt) == 1 / 3
    assert lines[-1] == "# summary steps=3,last=0.10000000000000001"


def test_evolve_command_artifacts(tmp_path):
    path = write_config(tmp_path / "c.json", {
        "command": "evolve",
        "hamiltonian": {"builtin": "linear_contact", "params": {"a": 1.0, "V": 0}},
        "numerics": {"n": 64, "m": 33, "dt": 1e-3, "T": 0.1},
        "phi0": "1",
        "output_dir": str(tmp_path / "out"),
    })
    assert cli.main(["evolve", "--config", path, "--quiet"]) == 0
    lines = (tmp_path / "out" / "snapshots.csv").read_text().strip().splitlines()
    assert "t,x,value" in lines
    assert lines[-1].startswith("# summary steps=100,final_residual=")


def test_stationary_command(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", {
        "command": "stationary",
        "hamiltonian": {"builtin": "linear_contact", "params": {"a": 1.0, "V": 0}},
        "numerics": {"n": 64, "m": 33, "dt": 1e-3, "T_max": 30.0},
        "phi0": "0.7",
        "output_dir": str(tmp_path / "out"),
    })
    assert cli.main(["stationary", "--config", path]) == 0
    assert "converged=True" in capsys.readouterr().out
    assert (tmp_path / "out" / "stationary.csv").exists()


def test_instability_command(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", {
        "command": "instability",
        "hamiltonian": {"builtin": "linear_contact", "params": {"a": -1.0, "V": 0}},
        "numerics": {"n": 64, "m": 33, "dt": 1e-3, "T": 8.0, "eps": 0.01,
                     "Delta": 0.5},
        "output_dir": str(tmp_path / "out"),
    })
    assert cli.main(["instability", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "escaped t≈3.9" in out
    assert (tmp_path / "out" / "probe.csv").exists()


def test_mather_command_cross_check(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", {
        "command": "mather",
        "hamiltonian": {"builtin": "eikonal", "params": {"V": "cos(2*pi*x)"}},
        "numerics": FAST_NUMERICS,
        "output_dir": str(tmp_path / "out"),
    })
    assert cli.main(["mather", "--config", path]) == 0
    assert "mismatch" in capsys.readouterr().out
    csv = (tmp_path / "out" / "measure.csv").read_text()
    assert "x,v,weight" in csv


def test_stability_estimator_disagreement_is_inconclusive(tmp_path, capsys):
    # for a nonconstant potential the biases of the discount fit and of the long-time
    # slope leave the two estimators about 1e-5 apart, far above cross_tol = 1e-9
    path = write_config(tmp_path / "c.json", {
        "command": "stability",
        "hamiltonian": {"builtin": "linear_contact",
                        "params": {"a": 1.0, "V": "0.5*cos(2*pi*x)"}},
        "numerics": dict(FAST_NUMERICS, zeta_grid=[0.25], cross_tol=1e-9),
        "decay_T": 1.0,
        "output_dir": str(tmp_path / "out"),
    })
    assert cli.main(["stability", "--config", path]) == 0
    assert "verdict=inconclusive" in capsys.readouterr().out


def test_ceps_exit_code_3_on_estimator_disagreement(tmp_path):
    path = write_config(tmp_path / "c.json", {
        "command": "ceps",
        "hamiltonian": {"builtin": "linear_contact",
                        "params": {"a": 1.0, "V": "0.5*cos(2*pi*x)"}},
        "numerics": dict(FAST_NUMERICS, cross_tol=1e-9),
        "output_dir": str(tmp_path / "out"),
    })
    assert cli.main(["ceps", "--config", path, "--quiet"]) == 3
    assert "eps,c" in (tmp_path / "out" / "ceps.csv").read_text()
    assert (tmp_path / "out" / "diagnostic.txt").exists()


def test_ceps_command(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", {
        "command": "ceps",
        "hamiltonian": {"builtin": "linear_contact", "params": {"a": 1.0, "V": 0}},
        "numerics": dict(FAST_NUMERICS, eps_list=[-0.04, -0.02, 0.0, 0.02, 0.04]),
        "phi0": "0",
        "output_dir": str(tmp_path / "out"),
    })
    assert cli.main(["ceps", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "D-=" in out and "D+=" in out
    csv = (tmp_path / "out" / "ceps.csv").read_text()
    assert "eps,c" in csv


def test_barrier_command(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", {
        "command": "barrier",
        "hamiltonian": {"builtin": "eikonal", "params": {"V": "cos(2*pi*x) - 1"}},
        "numerics": FAST_NUMERICS,
        "output_dir": str(tmp_path / "out"),
    })
    assert cli.main(["barrier", "--config", path]) == 0
    assert "aubry_nodes=" in capsys.readouterr().out
    assert (tmp_path / "out" / "barrier.csv").exists()
    aubry = (tmp_path / "out" / "aubry.csv").read_text()
    assert "index,x" in aubry


def test_example_command_runs_stability_pipeline(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", {
        "command": "example-ex",
        "params": {"theta": 0.5, "zeta": 1.0},
        "numerics": dict(FAST_NUMERICS, T_max=30.0),
        "decay_T": 4.0,
        "output_dir": str(tmp_path / "out"),
    })
    assert cli.main(["example-ex", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "verdict=holds" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["report"]["verdict"] == "holds"
    assert (tmp_path / "out" / "decay.csv").exists()


def test_example_command_evolves_each_perturbation_once(tmp_path, monkeypatch):
    # decay_exponent evolves u_- + delta and u_- - delta as one evolution; decay.csv
    # reuses the first
    calls = []
    series = stability.deviation_series

    def counted(spec, u_minus, offsets, *args, **kwargs):
        calls.append(tuple(offsets))
        return series(spec, u_minus, offsets, *args, **kwargs)

    monkeypatch.setattr(stability, "deviation_series", counted)
    path = write_config(tmp_path / "c.json", {
        "command": "example-ex",
        "numerics": dict(FAST_NUMERICS, T_max=30.0, zeta_grid=[0.5]),
        "decay_T": 1.0,
        "output_dir": str(tmp_path / "out"),
    })
    assert cli.main(["example-ex", "--config", path, "--quiet"]) == 0
    assert calls == [(0.05, -0.05)]   # the default delta
    rows = [line for line in (tmp_path / "out" / "decay.csv").read_text().splitlines()
            if line and not line.startswith(("#", "t,"))]
    assert len(rows) == 100           # 1000 steps, one row every 10


def test_load_config_validates_the_hamiltonian_once(tmp_path, monkeypatch):
    calls = []
    validate = hamiltonian.validate_spec

    def counted(spec):
        calls.append(spec)
        return validate(spec)

    monkeypatch.setattr(hamiltonian, "validate_spec", counted)
    path = write_config(tmp_path / "c.json", {"command": "example-ex", "seed": 7})
    cli.load_config(path)
    assert len(calls) == 1


def test_load_time_checks_draw_no_random_numbers(tmp_path):
    # importing numpy.random alone costs more than the checks it fed
    code = "\n".join([
        "import json, sys",
        "from weakkam import cli, homogenize",
        "cli.load_config(sys.argv[1])",
        "homogenize.problem_from_config({'H': 'u + p^2 + 0.5*cos(2*pi*y)', 'dHu': '1',",
        "                                'Lambda1': 1.0, 'Lambda2': 1.0})",
        "print(json.dumps('numpy.random' in sys.modules))",
    ])
    path = write_config(tmp_path / "c.json", {"command": "example-ex", "seed": 7})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code, path], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) is False


def test_deeply_nested_formula_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", {
        "command": "critical",
        "hamiltonian": {"G": "p^2", "W": "-" * 3000 + "u", "dWu": "1", "Lambda": 1.0},
        "output_dir": str(tmp_path / "out"),
    })
    assert cli.main(["critical", "--config", path, "--quiet"]) == 2
    assert "hamiltonian formula error" in capsys.readouterr().err


def test_homogenize_command(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", {
        "command": "homogenize",
        "homog": {"H": "u + p^2 + 0.5*cos(2*pi*y)", "dHu": "1",
                  "Lambda1": 1.0, "Lambda2": 1.0},
        "numerics": {"homog_eps_list": [0.25, 0.125], "n_per_period": 8,
                     "p_count": 7, "c_count": 3, "p_span": 1.5,
                     "cell_n_fast": 32, "cell_m": 33},
        "output_dir": str(tmp_path / "out"),
    })
    assert cli.main(["homogenize", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "slope=" in out and "C_fit=" in out
    rate = (tmp_path / "out" / "rate.csv").read_text()
    assert "eps,error,sqrt_eps_ratio" in rate
    table = (tmp_path / "out" / "effective_table.csv").read_text()
    assert "x,p,c,Hbar" in table


def test_homogenize_cells_read_cross_tol(tmp_path, capsys):
    # the cell estimators of test_homogenize_command differ by about 1e-6 to 1e-5
    path = write_config(tmp_path / "c.json", {
        "command": "homogenize",
        "homog": {"H": "u + p^2 + 0.5*cos(2*pi*y)", "dHu": "1",
                  "Lambda1": 1.0, "Lambda2": 1.0},
        "numerics": {"homog_eps_list": [0.25, 0.125], "n_per_period": 8,
                     "p_count": 7, "c_count": 3, "p_span": 1.5,
                     "cell_n_fast": 32, "cell_m": 33, "cross_tol": 1e-9},
        "output_dir": str(tmp_path / "out"),
    })
    assert cli.main(["homogenize", "--config", path]) == 1
    assert "estimators disagree" in capsys.readouterr().err
    assert "estimators disagree" in (tmp_path / "out" / "diagnostic.txt").read_text()


def test_homogenize_cell_step_follows_vmax(tmp_path):
    # a cell solve steps at min(CELL_DT, 1/(2 vmax)) = 0.025 here: the fixed step 0.05 would
    # carry foot points a whole torus away (dt*vmax = 1) and fail the first cell solve
    path = write_config(tmp_path / "c.json", {
        "command": "homogenize",
        "homog": {"H": "u + p^2 + 0.5*cos(2*pi*y)", "dHu": "1",
                  "Lambda1": 1.0, "Lambda2": 1.0, "vmax": 20},
        "numerics": {"homog_eps_list": [0.25, 0.125], "n_per_period": 8,
                     "p_count": 3, "c_count": 2, "p_span": 1.0,
                     "cell_n_fast": 16, "cell_m": 17},
        "output_dir": str(tmp_path / "out"),
    })
    # velocities up to 20 outrun the momenta up to pmax = 4 (v = 2p): the Legendre window warns
    with pytest.warns(UserWarning, match="momentum truncation"):
        assert cli.main(["homogenize", "--config", path, "--quiet"]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "effective_table.csv", "rate.csv"]


def test_corollary_command(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", {
        "command": "corollary",
        "hamiltonian": {"G": "p^2 + cos(2*pi*x) - 1", "W": "(2+sin(2*pi*x))*u",
                        "dWu": "2+sin(2*pi*x)"},
        "numerics": {"n": 64, "m": 33, "dt_critical": 0.05},
        "output_dir": str(tmp_path / "out"),
    })
    assert cli.main(["corollary", "--config", path]) == 0
    assert "verdict=holds" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["report"]["condition"] == "corollary_a"


@pytest.mark.parametrize("extra, message", [
    # a(x) repeated beside the hamiltonian, contradicting its W and dWu
    ({"a": "sin(pi*x)^2"}, "dWu"),
    # a stale key that agrees with the hamiltonian is rejected too
    ({"a": "2+sin(2*pi*x)"}, "dWu"),
    ({"hamiltonian": {"G": "p^2", "W": "u^2", "dWu": "2*u", "Lambda": 10.0}}, "W = a"),
    ({"hamiltonian": {"G": "p^2", "W": "1 + u", "dWu": "1"}}, "W = a"),
    # a dWu that is not dW/du: a vanishes at x = 0, on the Aubry set, but dWu does not
    ({"hamiltonian": {"G": "p^2 + cos(2*pi*x) - 1", "W": "sin(pi*x)^2*u",
                      "dWu": "2+sin(2*pi*x)"}}, "dWu = 2+sin(2*pi*x) is not dW/du"),
], ids=["contradicting-a", "stale-a", "dWu-with-u", "W-nonzero-at-0", "dWu-not-dW-du"])
def test_corollary_config_errors(tmp_path, capsys, extra, message):
    path = write_config(tmp_path / "c.json", {
        "command": "corollary",
        "hamiltonian": {"G": "p^2 + cos(2*pi*x) - 1", "W": "(2+sin(2*pi*x))*u",
                        "dWu": "2+sin(2*pi*x)"},
        "numerics": {"n": 64, "m": 33, "dt_critical": 0.05},
        "output_dir": str(tmp_path / "out"),
        **extra,
    })
    assert cli.main(["corollary", "--config", path]) == 2
    assert message in capsys.readouterr().err


def test_unknown_numerics_keys_are_config_errors(tmp_path, capsys):
    # a typo, or a key that no command reads, must not be ignored and then recorded
    path = write_config(tmp_path / "c.json", {
        "command": "critical",
        "hamiltonian": {"builtin": "eikonal", "params": {"V": "cos(2*pi*x)"}},
        "numerics": {"dT": 0.01, "T_long": 20.0, "n": 64},
        "output_dir": str(tmp_path / "out"),
    })
    with pytest.raises(ConfigError, match="unknown numerics keys: T_long, dT"):
        cli.load_config(path)
    assert cli.main(["critical", "--config", path, "--quiet"]) == 2
    assert "dT" in capsys.readouterr().err
    assert set(cli.NUMERIC_KEYS).isdisjoint(
        {"vmax", "pmax", "tol_critical", "lambda_schedule", "T_long"})
    path = write_config(tmp_path / "h.json", {
        "command": "homogenize", "homog": {"H": "u + p^2", "dHu": "1"},
        "numerics": {"x_count": 3}})
    with pytest.raises(ConfigError, match="unknown numerics keys: x_count"):
        cli.load_config(path)


def test_headers_record_decay_T(tmp_path):
    path = write_config(tmp_path / "c.json", {
        "command": "stability",
        "hamiltonian": {"builtin": "linear_contact", "params": {"a": 1.0, "V": 0}},
        "numerics": dict(FAST_NUMERICS, zeta_grid=[0.25]),
        "decay_T": 2.0,
        "output_dir": str(tmp_path / "out"),
    })
    assert cli.main(["stability", "--config", path, "--quiet"]) == 0
    lines = (tmp_path / "out" / "decay.csv").read_text().splitlines()
    assert "# decay_T=2.0" in lines
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["decay_T"] == 2.0


def test_stability_report_is_strict_json_without_a_decay_fit(tmp_path, capsys):
    # decay_T of one step leaves a single deviation sample: no slope can be fitted
    path = write_config(tmp_path / "c.json", {
        "command": "stability",
        "hamiltonian": {"builtin": "linear_contact", "params": {"a": 1.0, "V": 0}},
        "numerics": FAST_NUMERICS,
        "decay_T": 0.001,
        "output_dir": str(tmp_path / "out"),
    })
    with pytest.warns(UserWarning, match="noise floor"):
        assert cli.main(["stability", "--config", path]) == 0
    assert "decay_slope=n/a" in capsys.readouterr().out

    def reject(token):
        raise ValueError(f"nonfinite JSON constant {token}")

    text = (tmp_path / "out" / "report.json").read_text()
    assert json.loads(text, parse_constant=reject)["report"]["decay_slope"] is None


def test_stability_command_instability_criterion(tmp_path, capsys):
    # a = -1: the zeta = 1/4 shift of G + W(., 0) has critical value -1/4, so A4 holds
    path = write_config(tmp_path / "c.json", {
        "command": "stability",
        "hamiltonian": {"builtin": "linear_contact", "params": {"a": -1.0, "V": 0}},
        "numerics": FAST_NUMERICS,
        "which": "A4",
        "decay_T": 1.0,
        "output_dir": str(tmp_path / "out"),
    })
    assert cli.main(["stability", "--config", path]) == 0
    assert "verdict=holds" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["which"] == "A4"
    rep = report["report"]
    assert rep["condition"] == "A4"
    assert rep["zeta_found"] == 0.25
    assert rep["c_values"]["0.25"] == pytest.approx(-0.25, abs=5e-3)
    assert rep["A_estimate"] == pytest.approx(-1.0, abs=1e-6)
    assert rep["decay_slope"] > 0          # the perturbation grows


def test_evolve_command_forward_direction(tmp_path):
    # with a = 1 the forward semigroup carries constant data 1/2 to exp(T)/2
    path = write_config(tmp_path / "c.json", {
        "command": "evolve",
        "hamiltonian": {"builtin": "linear_contact", "params": {"a": 1.0, "V": 0}},
        "numerics": {"n": 64, "m": 33, "dt": 1e-3, "T": 0.5},
        "phi0": "0.5",
        "direction": "forward",
        "output_dir": str(tmp_path / "out"),
    })
    assert cli.main(["evolve", "--config", path, "--quiet"]) == 0
    lines = (tmp_path / "out" / "snapshots.csv").read_text().strip().splitlines()
    assert "# direction=forward" in lines
    rows = [line.split(",") for line in lines if line[0].isdigit()]
    final = [float(v) for t, _, v in rows if float(t) == 0.5]
    assert len(final) == 64
    assert final == pytest.approx([0.5 * math.exp(0.5)] * 64, rel=1e-3)


STABILITY = {"command": "stability",
             "hamiltonian": {"builtin": "linear_contact", "params": {"a": 1.0, "V": 0}},
             "numerics": FAST_NUMERICS}
HOMOG = {"command": "homogenize",
         "homog": {"H": "u + p^2 + 0.5*cos(2*pi*y)", "dHu": "1", "Lambda1": 1, "Lambda2": 1}}


@pytest.mark.parametrize("config, message", [
    (dict(STABILITY, seed="abc"), "config key 'seed' must be an integer"),
    (dict(STABILITY, numerics=dict(FAST_NUMERICS, zeta_grid="abc")),
     "numerics key 'zeta_grid' must be a list of finite numbers"),
    (dict(STABILITY, decay_T=-1), "config key 'decay_T' must be a finite positive number"),
    (dict(STABILITY, decay_T="abc"), "config key 'decay_T' must be a finite positive number"),
    (dict(STABILITY, basin_delta_hi=-1), "'basin_delta_hi' must be a finite positive number"),
    (dict(STABILITY, numerics=dict(FAST_NUMERICS, n=32.7)),
     "numerics key 'n' must be an integer >= 8, got 32.7"),
    (dict(STABILITY, numerics=dict(FAST_NUMERICS, snap_every=-1)), "'snap_every' must be"),
    (dict(STABILITY, numerics=dict(FAST_NUMERICS, m=True)), "'m' must be an integer"),
    (dict(STABILITY, numerics=dict(FAST_NUMERICS, eps=float("inf"))), "'eps' must be a finite"),
    (dict(HOMOG, homog=dict(HOMOG["homog"], H="u + p^2 + (")), "homog formula error in 'H'"),
    (dict(HOMOG, homog=dict(HOMOG["homog"], Lambda1="abc")),
     "homog key 'Lambda1' must be a finite number"),
    (dict(HOMOG, homog=dict(HOMOG["homog"], pmx=4)), "unknown homog keys: pmx"),
    (dict(HOMOG, homog=dict(HOMOG["homog"], H="3*u + p^2 + 0.5*cos(2*pi*y)")),
     "dHu = 1 is not dH/du"),
    ({"command": "homogenize"}, "config requires parameter 'homog'"),
    (dict(STABILITY, hamiltonian={"G": "p^2", "W": "u", "dWu": "1", "Lamda": 1}),
     "unknown hamiltonian keys: Lamda"),
    (dict(STABILITY, hamiltonian={"builtin": "eikonal", "params": {"V": 0, "Vmax": 2}}),
     "unknown builtin 'eikonal' keys: Vmax"),
    (dict(STABILITY, hamiltonian={"builtin": "linear_contact", "params": {"a": "x", "V": 0}}),
     "builtin 'linear_contact' key 'a' must be a finite number"),
    (dict(STABILITY, foo=1), "unknown config keys: foo"),
    ({"command": "example-ex", "hamiltonian": STABILITY["hamiltonian"]},
     "unknown config keys: hamiltonian"),
    (dict(STABILITY, phi0="p"), "phi0 formula error"),
    (dict(STABILITY, hamiltonian={"G": ["p^2"]}),
     "hamiltonian key 'G' must be a formula string or a finite number"),
    (dict(HOMOG, homog=dict(HOMOG["homog"], H="u + p^2 + sqrt(p)")),
     "homog formula error: sqrt of a negative number"),
    # one c node is one u-level; the effective table's convexity check needs 3 p nodes
    (dict(HOMOG, numerics={"c_count": 1}), "numerics key 'c_count' must be an integer >= 2"),
    (dict(HOMOG, numerics={"p_count": 2}), "numerics key 'p_count' must be an integer >= 3"),
    # the critical solves step at their own dt: vmax = 4 here, so dt 0.2 overruns
    (dict(STABILITY, command="critical", numerics=dict(FAST_NUMERICS, dt_critical=0.2)),
     "numerics key 'dt_critical': dt*vmax = 0.8 exceeds 1/2"),
    # vmax = 0.5 passes dt_critical 0.7 through the step check, but the critical value's
    # one-unit march would round both T/2 and T to one step
    (dict(STABILITY, command="critical", hamiltonian={"G": "p^2", "vmax": 0.5},
          numerics=dict(FAST_NUMERICS, dt_critical=0.7)),
     "numerics key 'dt_critical': long-time horizon T=1 holds no step of dt=0.7 "
     "between T/2 and T"),
    # the verdict margin, the Aubry-set tolerance and the cell step are constants, and a
    # cell table has as many momenta as velocities
    (dict(STABILITY, numerics=dict(FAST_NUMERICS, margin=0.05)), "unknown numerics keys: margin"),
    (dict(STABILITY, command="barrier", numerics=dict(FAST_NUMERICS, aubry_tol=0.05)),
     "unknown numerics keys: aubry_tol"),
    (dict(HOMOG, numerics={"cell_dt": 0.05}), "unknown numerics keys: cell_dt"),
    (dict(HOMOG, numerics={"cell_m": 17, "cell_k": 17}), "unknown numerics keys: cell_k"),
    (dict(STABILITY, hamiltonian={"G": "p^2 + v", "W": "u", "dWu": "1"}),
     "unknown identifier 'v'"),
], ids=["seed", "zeta_grid", "decay_T-negative", "decay_T-text", "basin_delta_hi", "n-float",
        "snap_every", "m-bool", "eps-inf", "homog-H", "homog-Lambda1", "homog-unknown",
        "homog-dHu-not-dH-du", "homog-missing", "hamiltonian-unknown", "builtin-unknown",
        "linear_contact-a", "top-unknown", "example-ex-hamiltonian", "phi0-variable",
        "formula-kind", "homog-H-domain", "c_count-1", "p_count-2", "dt_critical-cfl",
        "dt_critical-horizon",
        "margin-unknown", "aubry_tol-unknown", "cell_dt-unknown", "cell_k-unknown", "formula-v"])
def test_malformed_configs_fail_at_load(tmp_path, capsys, config, message):
    path = write_config(tmp_path / "c.json", dict(config, output_dir=str(tmp_path / "out")))
    with pytest.raises(ConfigError, match=re.escape(message)):
        cli.load_config(path)
    assert cli.main([config["command"], "--config", path, "--quiet"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_configs_load(tmp_path):
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```json\n(.*?)```", readme.read_text(), flags=re.S)
    assert len(blocks) >= 3
    for k, block in enumerate(blocks):
        path = tmp_path / f"readme-{k}.json"
        path.write_text(block)
        cli.load_config(str(path))


# u_- of this Hamiltonian needs about 13 time units to reach tol = 1e-6; T_max = 1 stops short
UNCONVERGED = {"hamiltonian": {"builtin": "linear_contact",
                               "params": {"a": 1.0, "V": "0.3*cos(2*pi*x)"}},
               "numerics": dict(FAST_NUMERICS, T_max=1.0)}


@pytest.mark.parametrize("command", ["stability", "ceps", "instability", "critical"])
def test_unconverged_u_minus_is_a_solver_failure(tmp_path, capsys, command):
    out = tmp_path / "out"
    path = write_config(tmp_path / "c.json", dict(UNCONVERGED, command=command,
                                                  output_dir=str(out)))
    assert cli.main([command, "--config", path]) == 1
    message = "stationary solve for u_- stopped at residual 1.103e-01 after 1000 steps"
    assert message in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["diagnostic.txt"]
    assert message in (out / "diagnostic.txt").read_text()


def test_stationary_command_reports_unconverged_solve(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", dict(UNCONVERGED, command="stationary",
                                                  output_dir=str(tmp_path / "out")))
    assert cli.main(["stationary", "--config", path]) == 0
    assert "converged=False residual=1.103e-01 steps=1000" in capsys.readouterr().out
    assert (tmp_path / "out" / "stationary.csv").exists()


def test_frozen_hamiltonian_is_critical_at_zero(tmp_path):
    # u_- solves G + W(., u_-) = 0, so G + W(., u_-) frozen at u_- has critical value 0
    path = write_config(tmp_path / "c.json", dict(
        UNCONVERGED, command="critical", numerics=dict(FAST_NUMERICS)))
    config = cli.load_config(path)
    result, _ = cli._critical_of_frozen(config, *cli._grid_lt(config))
    assert result.method == "agree"
    assert abs(result.c) <= 1e-2


def test_stability_command_basin_estimate(tmp_path, capsys):
    # a = 1 contracts every perturbation, so the basin estimate is basin_delta_hi itself
    path = write_config(tmp_path / "c.json", dict(
        STABILITY, numerics=dict(FAST_NUMERICS, dt=5e-3, T_max=4.0, zeta_grid=[0.25]),
        decay_T=1.0, basin_delta_hi=0.5, output_dir=str(tmp_path / "out")))
    assert cli.main(["stability", "--config", path]) == 0
    assert "verdict=holds" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["basin_delta_hi"] == 0.5
    assert report["report"]["Delta_estimate"] == 0.5


def test_instability_command_not_escaped(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", {
        "command": "instability",
        "hamiltonian": {"builtin": "linear_contact", "params": {"a": 1.0, "V": 0}},
        "numerics": {"n": 64, "m": 33, "dt": 1e-3, "T": 1.0, "eps": 0.01, "Delta": 0.5},
        "output_dir": str(tmp_path / "out"),
    })
    assert cli.main(["instability", "--config", path]) == 0
    # the deviation decays from eps, so its largest value is eps at t = 0
    assert "not escaped sup_dev=1.000e-02" in capsys.readouterr().out


def test_evolve_command_snapshot_times(tmp_path):
    path = write_config(tmp_path / "c.json", {
        "command": "evolve",
        "hamiltonian": {"builtin": "linear_contact", "params": {"a": 1.0, "V": 0}},
        "numerics": {"n": 64, "m": 33, "dt": 1e-3, "T": 0.05, "snap_every": 7},
        "phi0": "1",
        "output_dir": str(tmp_path / "out"),
    })
    assert cli.main(["evolve", "--config", path, "--quiet"]) == 0
    lines = (tmp_path / "out" / "snapshots.csv").read_text().strip().splitlines()
    times = sorted({float(line.split(",")[0]) for line in lines if line[0].isdigit()})
    assert times == pytest.approx([k * 1e-3 for k in (7, 14, 21, 28, 35, 42, 49, 50)])
    assert lines[-1].startswith("# summary steps=50,final_residual=")
