import numpy as np
import pytest

from weakkam import TorusGrid, builtin, legendre
from weakkam import critical as crit
from weakkam.expr import parse
from weakkam.grid import constant_field
from weakkam.hamiltonian import HamiltonianSpec, LagrangianTable
from weakkam.semigroup import CFLError


@pytest.fixture(scope="module")
def free_table():
    g = TorusGrid(64)
    spec = builtin("eikonal", {"V": 0})
    return legendre(spec, g, 33, 33)


def test_discounted_zero_fixed_point(free_table):
    u = crit.discounted_solve(free_table, lam=0.1)
    assert np.max(np.abs(u.values)) <= 1e-3


def test_discounted_constant_shift_exact(free_table):
    c0 = 0.6
    # potential +c0 folds into the cost as L - c0, i.e. the Hamiltonian G + c0
    shifted = free_table.with_potential(constant_field(free_table.grid, c0))
    u = crit.discounted_solve(shifted, lam=0.05, tol=1e-8)
    assert np.allclose(0.05 * u.values, -c0, atol=1e-6)


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
            spec.W_at(g.nodes, um.values), dtype=float), (g.n,))
        instances.append(lt.with_potential(pot))
    # the worked stability instance, frozen at its stationary solution
    ex = example_setup
    pot = np.asarray(ex["spec"].W_at(ex["grid"].nodes, ex["u_minus"].values))
    instances.append(ex["lt"].with_potential(pot))
    for table in instances:
        assert crit.critical_value(table).method == "agree"


def test_disagreement_is_diagnostic_not_fatal(eikonal_cos_128):
    spec, lt = eikonal_cos_128
    res = crit.critical_value(lt, T_long=1.0, cross_tol=1e-4)
    assert res.method == "discount"
    assert res.diagnostics["gap"] > 1e-4


def test_divergence_guard(free_table):
    huge = free_table.with_potential(constant_field(free_table.grid, -2e5))
    with pytest.raises(crit.DivergenceError):
        crit.discounted_solve(huge, lam=1e-2, tol=1e-10)


def test_nan_cost_entry_raises_at_first_step(free_table):
    L = free_table.L.copy()
    L[5, 3] = np.nan
    bad = LagrangianTable(free_table.grid, free_table.vgrid, L, free_table.vmax,
                          free_table.pmax)
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
    linear = crit.CEpsCurve(eps, 3 * eps, 0.0, 0.0)
    assert crit.one_sided_derivatives(linear) == pytest.approx((3.0, 3.0))
    kink = crit.CEpsCurve(eps, np.abs(eps), 0.0, 0.0)
    assert crit.one_sided_derivatives(kink) == pytest.approx((-1.0, 1.0))
    quad = crit.CEpsCurve(eps, eps - eps ** 2, 0.0, 0.0)
    dm, dp = crit.one_sided_derivatives(quad)
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
    with pytest.raises(ValueError, match="contain 0"):
        crit.c_eps_curve(spec, um, [-0.02, -0.01, 0.01, 0.02])
    with pytest.raises(ValueError, match="each sign"):
        crit.c_eps_curve(spec, um, [-0.01, 0.0, 0.01, 0.02])
