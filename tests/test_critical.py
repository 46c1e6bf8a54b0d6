import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakkam import TorusGrid, builtin, legendre
from weakkam import critical as crit
from weakkam.expr import parse
from weakkam.errors import ConvergenceError
from weakkam.grid import constant_field
from weakkam.hamiltonian import HamiltonianSpec, LagrangianTable
from weakkam.semigroup import CFLError, MinPlusStepper, iterate


@pytest.fixture(scope="module")
def free_table():
    g = TorusGrid(64)
    spec = builtin("eikonal", {"V": 0})
    return legendre(spec, g, 33, 33)


def test_discounted_zero_fixed_point(free_table):
    u = crit.discounted_solve(free_table, lam=0.1)
    assert np.max(np.abs(u.values)) <= 1e-12


def test_discounted_constant_shift_exact(free_table):
    c0 = 0.6
    # potential +c0 folds into the cost as L - c0, i.e. the Hamiltonian G + c0
    shifted = free_table.with_potential(constant_field(free_table.grid, c0))
    u = crit.discounted_solve(shifted, lam=0.05, tol=1e-8)
    assert np.allclose(0.05 * u.values, -c0, atol=1e-10)


FREE_TABLES = {n: legendre(builtin("eikonal", {"V": 0}), TorusGrid(n), 17, 17) for n in (16, 32)}


# the value-iteration rounding allowance, in units of eps * max|ref| / (lam * dt):
# each value-iteration step rounds the interpolation (two products, one sum), the
# cost sum and the discount product, about 2 eps max|u| in all; each later step damps
# that error by f = 1/(1 + lam dt), so the errors sum to 2 eps max|u| / (1 - f)
# ~ 2 eps max|u| / (lam dt); policy iteration's dense solve of (I - f P) u = f dt L,
# condition ~1/(1 - f), adds as much again
ROUNDING_K = 4


@settings(max_examples=3, deadline=None)
@given(n=st.sampled_from(sorted(FREE_TABLES)),
       coef=st.lists(st.floats(-1.0, 1.0), min_size=7, max_size=7))
# drew |u - ref| = 1.0067e-8 against the earlier allowance residual/lam + 1e-10 = 1.0048e-8
@example(n=16, coef=[0.0, 0.703125, 0.0, 0.6016147602967279, 0.0, 0.0, 0.0])
def test_policy_iteration_matches_value_iteration(n, coef):
    x = FREE_TABLES[n].grid.nodes
    pot = coef[0] + sum(coef[2 * k - 1] * np.cos(2 * np.pi * k * x)
                        + coef[2 * k] * np.sin(2 * np.pi * k * x) for k in (1, 2, 3))
    lt = FREE_TABLES[n].with_potential(pot)
    dt = crit.DEFAULT_DT
    stepper = MinPlusStepper(lt.grid, lt.vgrid, dt, lt.L)
    for lam in crit.DEFAULT_SCHEDULE:
        factor = 1.0 / (1.0 + lam * dt)
        u = crit.discounted_solve(lt, lam, dt).values
        assert np.abs(factor * stepper.step(u) - u).max() / dt <= 1e-9
        ref = iterate(lambda v: factor * stepper.step(v), np.zeros(n), dt, 10 ** 6, tol=1e-10)
        assert ref.converged
        # value iteration stopped at residual r lies within r/lam of the fixed point
        # (1e-8 at lam = 1e-2), up to the rounding both solves accumulate (ROUNDING_K)
        rounding = ROUNDING_K * np.finfo(float).eps * np.abs(ref.values).max() / (lam * dt)
        assert np.abs(u - ref.values).max() <= ref.residual / lam + rounding


def test_discounted_eikonal_window(eikonal_cos_256):
    spec, lt = eikonal_cos_256
    u = crit.discounted_solve(lt, lam=1e-2)
    assert -1.05 <= 1e-2 * u.values.mean() <= -0.95


def test_critical_free_is_zero(free_table):
    res = crit.critical_value(free_table)
    assert abs(res.c) <= 5e-3
    assert res.method == "agree"


def test_critical_eikonal(eikonal_cos_128):
    spec, lt = eikonal_cos_128
    res = crit.critical_value(lt)
    assert res.c == pytest.approx(1.0, abs=2e-2)
    assert res.method == "agree"
    assert res.u_corrector.mean() == pytest.approx(0.0, abs=1e-12)


def test_critical_shifted_momentum():
    g = TorusGrid(128)
    spec = HamiltonianSpec(G=parse("(p+0.7)^2"), W=parse("0"), dWu=parse("0"),
                           lambda_bound=0.0)
    lt = legendre(spec, g, 49, 49)
    res = crit.critical_value(lt)
    assert res.c == pytest.approx(0.49, abs=2e-2)


def test_shift_equivariance(eikonal_cos_128):
    spec, lt = eikonal_cos_128
    base = crit.critical_value(lt)
    shifted = crit.critical_value(lt.with_potential(
        constant_field(lt.grid, 0.35)))
    assert shifted.c - base.c == pytest.approx(0.35, abs=1e-3)


def test_monotone_in_hamiltonian(free_table):
    lo = crit.critical_value(free_table)
    hi = crit.critical_value(free_table.with_potential(
        constant_field(free_table.grid, 0.2)))
    assert lo.c <= hi.c + 2 * 2e-2


def test_estimators_agree_on_every_builtin(example_setup):
    g = TorusGrid(64)
    instances = []
    for name, params in [("eikonal", {"V": "cos(2*pi*x)"}),
                         ("linear_contact", {"a": 1.0, "V": 0}),
                         ("linear_contact", {"a": -1.0, "V": "cos(2*pi*x)"}),
                         ("corollary_a", {"a": "2+sin(2*pi*x)",
                                          "V": "cos(2*pi*x)", "c": 1.0})]:
        spec = builtin(name, params)
        lt = legendre(spec, g, 33, 33)
        um = constant_field(g, 0.0)
        pot = np.broadcast_to(np.asarray(
            spec.W.evaluate({"x": g.nodes, "u": um.values}), dtype=float), (g.n,))
        instances.append(lt.with_potential(pot))
    # the worked stability instance, frozen at its stationary solution
    ex = example_setup
    pot = np.asarray(ex["spec"].W.evaluate({"x": ex["grid"].nodes, "u": ex["u_minus"].values}))
    instances.append(ex["lt"].with_potential(pot))
    for table in instances:
        assert crit.critical_value(table).method == "agree"


def test_disagreement_is_diagnostic_not_fatal(eikonal_cos_128):
    spec, lt = eikonal_cos_128
    res = crit.critical_value(lt, T_long=1.0, cross_tol=1e-4)
    assert res.method == "discount"
    assert res.diagnostics["gap"] > 1e-4


def test_large_shift_of_the_critical_value():
    # the discounted fixed point of a finite table is bounded: |u| <= max|L|/lam
    g = TorusGrid(64)
    lt = legendre(builtin("eikonal", {"V": "cos(2*pi*x)"}), g, 33, 33)
    base = crit.critical_value(lt)
    shifted = crit.critical_value(lt.with_potential(constant_field(g, -2e5)))
    assert base.method == shifted.method == "agree"
    assert shifted.c == pytest.approx(base.c - 2e5, abs=1e-3)


def test_nan_cost_entry_raises_at_first_step(free_table):
    L = free_table.L.copy()
    L[5, 3] = np.nan
    bad = LagrangianTable(free_table.grid, free_table.vgrid, L)
    with pytest.raises(ValueError, match="nonfinite values at step 1 "):
        crit.longtime_slope(bad, T=4.0, dt=0.02)
    with pytest.raises(ValueError, match="nonfinite values at step 1 "):
        crit.discounted_solve(bad, lam=4e-2)


def test_parameter_validation(free_table):
    with pytest.raises(ValueError):
        crit.discounted_solve(free_table, lam=-1.0)
    with pytest.raises(CFLError):
        crit.discounted_solve(free_table, lam=60.0, dt=0.02)
    with pytest.raises(ValueError, match="decreasing"):
        crit.critical_value(free_table, schedule=(1e-2, 2e-2))


def test_one_sided_derivatives_synthetic():
    eps = np.array([-0.02, -0.01, 0.0, 0.01, 0.02])
    assert crit.one_sided_derivatives(eps, 3 * eps) == pytest.approx((3.0, 3.0))
    assert crit.one_sided_derivatives(eps, np.abs(eps)) == pytest.approx((-1.0, 1.0))
    dm, dp = crit.one_sided_derivatives(eps, eps - eps ** 2)
    assert dm == pytest.approx(1.0, abs=1e-3)
    assert dp == pytest.approx(1.0, abs=1e-3)


def test_c_eps_curve_linear_contact():
    g = TorusGrid(64)
    spec = builtin("linear_contact", {"a": 1.0, "V": 0})
    lt = legendre(spec, g, 33, 33)
    um = constant_field(g, 0.0)
    curve = crit.c_eps_curve(spec, um, [-0.04, -0.02, 0.0, 0.02, 0.04], lt=lt)
    # W = a*u makes the shift a constant added to the Hamiltonian: c(eps) = a*eps
    assert np.allclose(curve.c_values, curve.eps_samples, atol=2e-3)
    assert curve.D_minus == pytest.approx(1.0, abs=2e-2)
    assert curve.D_plus == pytest.approx(1.0, abs=2e-2)
    assert curve.lipschitz_slack(spec.lambda_bound) <= 4e-2


def test_c_eps_curve_sample_validation():
    g = TorusGrid(64)
    spec = builtin("linear_contact", {"a": 1.0, "V": 0})
    um = constant_field(g, 0.0)
    lt = legendre(spec, g, 33, 33)
    with pytest.raises(ValueError, match="contain 0"):
        crit.c_eps_curve(spec, um, [-0.02, -0.01, 0.01, 0.02], lt=lt)
    with pytest.raises(ValueError, match="each sign"):
        crit.c_eps_curve(spec, um, [-0.01, 0.0, 0.01, 0.02], lt=lt)


def test_policy_iteration_cap_raises(free_table, monkeypatch):
    eik = legendre(builtin("eikonal", {"V": "cos(2*pi*x)"}), free_table.grid, 33, 33)
    monkeypatch.setattr(crit, "MAX_POLICY_ITERATIONS", 1)
    with pytest.raises(ConvergenceError, match="did not settle in 1 iterations"):
        crit.discounted_solve(eik, lam=4e-2)
