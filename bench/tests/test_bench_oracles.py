"""Tests of the benchmark's closed-form oracles, output gates, workloads and tracer."""

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _midpoint(f, a, b, n=200_000):
    x = a + (np.arange(n) + 0.5) * (b - a) / n
    return float(np.mean(f(x)) * (b - a))


@pytest.mark.parametrize("m", [0.0, 0.3, 0.9, 0.999])
def test_elliptic_e_matches_quadrature(m):
    expect = _midpoint(lambda t: np.sqrt(1 - m * np.sin(t) ** 2), 0.0, math.pi / 2)
    assert oracles.elliptic_e(m) == pytest.approx(expect, abs=1e-10)


@pytest.mark.parametrize("E", [0.5, 0.7, 2.0])
def test_cos_action_matches_quadrature(E):
    expect = _midpoint(lambda y: np.sqrt(np.maximum(E - 0.5 * np.cos(2 * np.pi * y), 0)),
                       0.0, 1.0)
    assert oracles.cos_action(E) == pytest.approx(expect, abs=1e-8)


def test_hbar_oracle_flat_up_to_two_over_pi():
    p0 = 2 / math.pi
    for p in np.linspace(-p0, p0, 41):
        assert abs(oracles.hbar_exact(p, 0.25) - 0.75) <= 1e-6
    assert abs(oracles.effective_energy(p0 + 1e-7) - 0.5) <= 1e-6
    assert oracles.effective_energy(p0 + 0.05) > 0.5 + 1e-6


@pytest.mark.parametrize("p", [0.7, 1.25, 2.0])
def test_effective_energy_inverts_the_action(p):
    assert oracles.cos_action(oracles.effective_energy(p)) == pytest.approx(p, abs=1e-12)
    assert oracles.effective_energy(-p) == oracles.effective_energy(p)


def _write(path, columns, rows):
    lines = ["# command=test", columns] + [",".join(repr(float(v)) for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def _homog_dir(tmp_path, errors, hbar_shift=0.0):
    rows = [(0.0, p, c, oracles.hbar_exact(p, c) + hbar_shift)
            for p in np.linspace(-2, 2, 9) for c in (-1.0, 0.0, 1.0)]
    _write(tmp_path / "effective_table.csv", "x,p,c,Hbar", rows)
    eps = [1 / 32, 1 / 16, 1 / 8]
    _write(tmp_path / "rate.csv", "eps,error,sqrt_eps_ratio",
           [(e, err, err / math.sqrt(e)) for e, err in zip(eps, errors)])
    return str(tmp_path)


def test_homogenize_gate_accepts_exact_table_and_sqrt_rate(tmp_path):
    figures, failures = oracles.check_homogenize(
        _homog_dir(tmp_path, [0.1 * math.sqrt(e) for e in (1 / 32, 1 / 16, 1 / 8)]))
    assert failures == []
    assert figures["hbar_err"] < 1e-12
    assert figures["rate_slope"] == pytest.approx(0.5)


@pytest.mark.parametrize("errors, hbar_shift, expect", [
    ([0.02, 0.01, 0.04], 0.0, "not monotone"),
    ([0.03, 0.037, 0.046], 0.0, "slope"),
    ([0.01, 0.02, 0.04], 0.05, "hbar_err"),
])
def test_homogenize_gate_failures(tmp_path, errors, hbar_shift, expect):
    _, failures = oracles.check_homogenize(_homog_dir(tmp_path, errors, hbar_shift))
    assert any(expect in f for f in failures)


def _barrier_dir(tmp_path, n, aubry):
    _write(tmp_path / "aubry.csv", "index,x", [(i, i / n) for i in aubry])
    _write(tmp_path / "barrier.csv", "x,y,h",
           [(i / n, j / n, 0.0) for i in range(n) for j in range(n)])
    return str(tmp_path)


def test_barrier_gate(tmp_path):
    out = _barrier_dir(tmp_path, 16, [3, 4, 5])
    figures, failures = oracles.check_barrier(out, 4 / 16, 16, {4, 6})
    assert failures == []
    assert figures["aubry_width"] == pytest.approx(1 / 16)
    _, failures = oracles.check_barrier(out, 4 / 16, 16, {8})
    assert any("Mather support" in f for f in failures)
    _, failures = oracles.check_barrier(out, 10 / 16, 16, set())
    assert any("misses the node" in f for f in failures)


def test_mather_gate_reads_summary(tmp_path):
    _write(tmp_path / "measure.csv", "x,v,weight", [(0.25, 0.0, 1.0)])
    stdout = "weakkam mather: lp_value=-1.0000 c=0.9990 mismatch=1.000e-03\n"
    figures, failures = oracles.check_mather(str(tmp_path), stdout)
    assert failures == []
    assert figures == pytest.approx({"c_err": 1e-3, "lp_gap": 1e-3})
    _, failures = oracles.check_mather(str(tmp_path), "")
    assert failures


def test_artifact_mismatches(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for d in (a, b):
        (d / "same.csv").write_text("x\n1\n")
    (a / "diff.csv").write_text("x\n1\n")
    (b / "diff.csv").write_text("x\n2\n")
    (a / "only.csv").write_text("x\n")
    assert oracles.artifact_mismatches(str(a), str(b)) == ["diff.csv", "only.csv"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workloads_are_seeded_and_grid_aligned(name):
    w1, w2 = workloads.make(name, 123), workloads.make(name, 123)
    assert w1 == w2
    assert 0 <= w1.shift < 1
    assert (w1.shift * workloads._SHIFT_GRID[name]).denominator == 1
    text = repr(w1.commands)
    assert f"{w1.shift.numerator}/{w1.shift.denominator}" in text
    shifts = {workloads.make(name, seed).shift for seed in range(20)}
    assert len(shifts) > 1
    assert all(isinstance(s, Fraction) for s in shifts)


def test_tracer_patches_bindings_and_partitions_self_time():
    from weakkam import builtin, legendre
    from weakkam import critical, homogenize, stability
    from weakkam.grid import TorusGrid

    lt = legendre(builtin("eikonal", {"V": "cos(2*pi*x)"}), TorusGrid(16), 17, 17)
    t = tracer.Tracer()
    patched = t.install()
    try:
        for mod, attr in ((stability, "peierls_barrier"), (stability, "conjugate_table"),
                          (homogenize, "conjugate_table"), (critical, "critical_value")):
            assert hasattr(getattr(mod, attr), "__wrapped__"), f"{mod.__name__}.{attr}"
        critical.critical_value(lt, schedule=(0.4, 0.2), T_long=4.0)
    finally:
        for obj, attr, original in reversed(patched):
            setattr(obj, attr, original)
    assert not hasattr(critical.critical_value, "__wrapped__")
    summary = t.summary()
    spans = summary["spans"]
    assert spans["critical.critical_value"]["calls"] == 1
    assert spans["critical.discounted_solve"]["calls"] == 2
    assert spans["critical.longtime_slope"]["calls"] == 1
    assert summary["pairs"]["critical.MinPlusStepper.step<critical.longtime_slope"] == 200
    assert summary["pairs"]["critical.MinPlusStepper.step<critical.discounted_solve"] > 0
    assert summary["self_sum_s"] == pytest.approx(summary["root_total_s"], abs=1e-9)
    assert "critical.critical_value.disagree" in summary["counters"]
